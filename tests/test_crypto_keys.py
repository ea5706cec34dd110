"""Key derivation and tagging."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import des, keys
from repro.crypto.des import SEMIWEAK_KEYS, WEAK_KEYS, has_odd_parity, is_weak_key
from repro.crypto.keys import KeyTag, TaggedKey, string_to_key, string_to_key_many
from repro.crypto.modes import cbc_encrypt

passwords = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
    min_size=0, max_size=40,
)


@given(passwords)
@settings(max_examples=60, deadline=None)
def test_derivation_is_deterministic_and_well_formed(password):
    key = string_to_key(password)
    assert key == string_to_key(password)
    assert len(key) == 8
    assert has_odd_parity(key)
    assert not is_weak_key(key)


def test_publicly_computable():
    """The property the password-guessing attack rests on: anyone can
    derive Kc from a guess — there is no secret salt or work factor."""
    assert string_to_key("letmein") == string_to_key("letmein")


def test_different_passwords_differ():
    seen = {string_to_key(pw) for pw in ("a", "b", "ab", "letmein", "")}
    assert len(seen) == 5


def test_salt_separates_principals():
    """V5-style salting: same password, different realms, different keys
    (whereas V4's empty salt gives identical keys — also verified)."""
    assert string_to_key("pw", salt="ATHENA") != string_to_key("pw", salt="LCS")
    assert string_to_key("pw") == string_to_key("pw", salt="")


def test_long_password_fanfold():
    key = string_to_key("a" * 100)
    assert len(key) == 8 and has_odd_parity(key)


def test_tagged_key_validation():
    TaggedKey(b"\x01" * 8, KeyTag.LOGIN, "pat")
    with pytest.raises(ValueError):
        TaggedKey(b"short", KeyTag.LOGIN, "pat")


def test_tagged_key_is_frozen():
    key = TaggedKey(b"\x01" * 8, KeyTag.SESSION)
    with pytest.raises(Exception):
        key.tag = KeyTag.MASTER


# -- the table-driven fan-fold against the loops it replaced ----------------


def _loop_reverse_7bits(byte):
    out = 0
    for i in range(7):
        out |= ((byte >> i) & 1) << (6 - i)
    return out


def _loop_set_odd_parity(key):
    out = bytearray(key)
    for i, byte in enumerate(out):
        high = byte & 0xFE
        out[i] = high | ((bin(high).count("1") & 1) ^ 1)
    return bytes(out)


def _loop_fix_weak(key):
    key = _loop_set_odd_parity(key)
    if key in WEAK_KEYS or key in SEMIWEAK_KEYS:
        key = bytes([key[0] ^ 0xF0]) + key[1:]
    return key


def _loop_string_to_key(password, salt=""):
    """V4 string-to-key as a byte loop: fan-fold, parity, CBC checksum."""
    data = (password + salt).encode("utf-8")
    padded = data + bytes(-len(data) % 8) if data else bytes(8)
    fanfold = bytearray(8)
    for index in range(0, len(padded), 8):
        chunk = padded[index:index + 8]
        if (index // 8) % 2 == 1:
            chunk = bytes(_loop_reverse_7bits(b) for b in reversed(chunk))
        for i in range(8):
            fanfold[i] ^= chunk[i]
    folded = _loop_fix_weak(bytes(fanfold))
    chain = cbc_encrypt(folded, padded, folded)[-8:]
    return _loop_fix_weak(chain)


def test_parity_and_reverse_tables_match_the_loops_on_every_byte():
    for value in range(256):
        assert des._ODD_PARITY[value] == _loop_set_odd_parity(bytes([value]))[0]
        assert keys._REVERSE7[value] == _loop_reverse_7bits(value)


def _seeded_passwords(seed, count):
    rng = random.Random(seed)
    alphabet = [chr(c) for c in range(32, 127)] + ["\x00", "\x01", "é", "€"]
    out = []
    for _ in range(count):
        length = rng.choice((0, 1, 3, 7, 8, 9, 15, 16, 17, 24, 31, 40, 64))
        out.append("".join(rng.choice(alphabet) for _ in range(length)))
    return out


#: Passwords whose fan-fold key is weak or semi-weak before the fix-up.
_WEAK_FANFOLDS = ["", "\x00" * 8, "\x1f\x1f\x1f\x1f\x0e\x0e\x0e\x0e",
                  "\x01\x1f\x01\x1f\x01\x0e\x01\x0e"]


def test_weak_fanfold_passwords_take_the_fix_up():
    for password in _WEAK_FANFOLDS:
        padded = keys._pad_password(password, "")
        raw = bytes(8)
        for index in range(0, len(padded), 8):
            raw = bytes(a ^ b for a, b in zip(raw, padded[index:index + 8]))
        assert is_weak_key(raw), password
        assert not is_weak_key(keys._fanfold_key(padded))


def test_string_to_key_matches_the_loop_reference():
    passwords = _seeded_passwords(15, 1200) + _WEAK_FANFOLDS
    salts = ["", "ATHENA.MIT.EDU", "LCS.MIT.EDUuser", "é"]
    for index, password in enumerate(passwords):
        salt = salts[index % len(salts)]
        assert string_to_key(password, salt) == \
            _loop_string_to_key(password, salt), (password, salt)


def test_string_to_key_many_matches_the_loop_reference():
    passwords = _seeded_passwords(16, 1000) + _WEAK_FANFOLDS * 3
    for salt in ("", "ATHENA.MIT.EDU"):
        assert string_to_key_many(passwords, salt) == \
            [_loop_string_to_key(password, salt) for password in passwords]

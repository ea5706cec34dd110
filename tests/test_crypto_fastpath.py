"""The table-driven DES fast path against the per-bit reference.

The fast path in :mod:`repro.crypto.des` (byte-indexed IP/FP and
PC-1/PC-2 tables, paired SP tables over the rotated-halves layout,
cooked round keys) must compute *exactly* the function of the retained
per-bit implementation in :mod:`repro.crypto.des_reference` — on the
published vectors, on random keys and blocks, and through every mode of
operation.  Its key schedule is also pinned to the reference's per-bit
schedule and to the bitsliced backend's symbolic key wiring.  These
tests are the contract that lets the rest of the package trust the
optimisation blindly.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto import des, des_bitslice, des_reference, modes
from repro.crypto.bits import xor_bytes
from repro.crypto.des import (
    KeySchedule, clear_schedule_cache, decrypt_block, derive_subkeys,
    encrypt_block, get_schedule, schedule_cache_info,
)

# The same published vectors test_crypto_des.py pins the fast path to.
VECTORS = [
    ("133457799BBCDFF1", "0123456789ABCDEF", "85E813540F0AB405"),
    ("0123456789ABCDEF", "4E6F772069732074", "3FA40E8A984D4815"),
    ("0101010101010101", "0000000000000000", "8CA64DE9C1B123A7"),
    ("7CA110454A1A6E57", "01A1D6D039776742", "690F5B0D9A26939B"),
    ("0131D9619DC1376E", "5CD54CA83DEF57DA", "7A389D10354BD271"),
]

key8 = st.binary(min_size=8, max_size=8)


@pytest.mark.parametrize("key_hex,plain_hex,cipher_hex", VECTORS)
def test_reference_path_matches_published_vectors(key_hex, plain_hex,
                                                  cipher_hex):
    key = bytes.fromhex(key_hex)
    plain = bytes.fromhex(plain_hex)
    cipher = bytes.fromhex(cipher_hex)
    assert des_reference.encrypt_block(key, plain) == cipher
    assert des_reference.decrypt_block(key, cipher) == plain


@pytest.mark.parametrize("key_hex,plain_hex,cipher_hex", VECTORS)
def test_fast_path_matches_reference_on_vectors(key_hex, plain_hex,
                                                cipher_hex):
    key = bytes.fromhex(key_hex)
    plain = bytes.fromhex(plain_hex)
    assert encrypt_block(key, plain) == des_reference.encrypt_block(key, plain)


@given(key8, key8)
@settings(max_examples=60, deadline=None)
def test_fast_path_equals_reference_on_random_inputs(key, block):
    assert encrypt_block(key, block) == des_reference.encrypt_block(key, block)
    assert decrypt_block(key, block) == des_reference.decrypt_block(key, block)


@given(key8, key8)
@settings(max_examples=30, deadline=None)
def test_shared_subkeys_one_block_both_paths(key, block):
    """Both paths consuming the *same* derived schedule must agree —
    isolates the block function from the key schedule."""
    subkeys = derive_subkeys(key)
    schedule = KeySchedule(key)
    assert schedule.subkeys == subkeys
    assert schedule.encrypt_block(block) == \
        des_reference.crypt_block(block, subkeys)


def _bitslice_wiring_subkeys(key):
    """The 16 subkeys read off ``des_bitslice._KS_SOURCE``: bit t of
    round r's subkey is key bit ``_KS_SOURCE[r][t]`` (0-based, MSB first)."""
    value = int.from_bytes(key, "big")
    return tuple(
        sum(((value >> (63 - src)) & 1) << (47 - t)
            for t, src in enumerate(sources))
        for sources in des_bitslice._KS_SOURCE
    )


def _assert_three_schedules_agree(key):
    table = derive_subkeys(key)
    assert table == des_reference.derive_subkeys(key)
    assert table == _bitslice_wiring_subkeys(key)


@given(key8, st.integers(min_value=0, max_value=255))
@settings(max_examples=80, deadline=None)
def test_three_key_schedules_agree(key, parity_flips):
    """Table-driven, per-bit, and bitsliced-wiring schedules are one
    function — and none of them reads a parity bit."""
    _assert_three_schedules_agree(key)
    flipped = bytes(b ^ ((parity_flips >> i) & 1) for i, b in enumerate(key))
    _assert_three_schedules_agree(flipped)
    assert derive_subkeys(flipped) == derive_subkeys(key)


@pytest.mark.parametrize(
    "key", sorted(des.WEAK_KEYS | des.SEMIWEAK_KEYS), ids=bytes.hex)
def test_three_key_schedules_agree_on_weak_keys(key):
    _assert_three_schedules_agree(key)


def test_reference_schedule_rejects_bad_key_length():
    with pytest.raises(des.DesError, match="DES key must be 8 bytes, got 7"):
        des_reference.derive_subkeys(b"1234567")


def _reference_chain(key, iv, data, decrypt, propagate):
    """CBC (or PCBC with *propagate*) composed from reference blocks."""
    block_op = (des_reference.decrypt_block if decrypt
                else des_reference.encrypt_block)
    out = bytearray()
    chain = iv
    for i in range(0, len(data), 8):
        block = data[i:i + 8]
        if decrypt:
            result = xor_bytes(block_op(key, block), chain)
            plain, cipher = result, block
        else:
            result = block_op(key, xor_bytes(block, chain))
            plain, cipher = block, result
        out += result
        chain = xor_bytes(plain, cipher) if propagate else cipher
    return bytes(out)


# Messages just below, at and just above the block count where the kernel
# switches from per-block table IP/FP to whole-message IP/FP.
CROSSOVER = des.WHOLE_MESSAGE_MIN_BLOCKS


def _crossover_example(blocks):
    return example(bytes(range(7, 7 + 8 * blocks)),
                   bytes.fromhex("0123456789ABCDEF"),
                   bytes.fromhex("F0E1D2C3B4A59687"))


@given(st.binary(min_size=0, max_size=120).map(modes.pad_zero), key8, key8)
@settings(max_examples=30, deadline=None)
@example(bytes(range(64)), bytes.fromhex("0123456789ABCDEF"),
         bytes.fromhex("F0E1D2C3B4A59687"))
@_crossover_example(CROSSOVER - 1)
@_crossover_example(CROSSOVER)
@_crossover_example(CROSSOVER + 1)
def test_modes_match_reference_composition(plaintext, key, iv):
    """ECB/CBC/PCBC built from reference block ops equal the cached
    fast modes byte for byte, in both directions."""
    expected_ecb = b"".join(
        des_reference.encrypt_block(key, plaintext[i:i + 8])
        for i in range(0, len(plaintext), 8)
    )
    assert modes.ecb_encrypt(key, plaintext) == expected_ecb
    assert modes.ecb_decrypt(key, plaintext) == b"".join(
        des_reference.decrypt_block(key, plaintext[i:i + 8])
        for i in range(0, len(plaintext), 8)
    )
    for propagate, encrypt, decrypt in (
        (False, modes.cbc_encrypt, modes.cbc_decrypt),
        (True, modes.pcbc_encrypt, modes.pcbc_decrypt),
    ):
        assert encrypt(key, plaintext, iv) == _reference_chain(
            key, iv, plaintext, decrypt=False, propagate=propagate)
        assert decrypt(key, plaintext, iv) == _reference_chain(
            key, iv, plaintext, decrypt=True, propagate=propagate)


@given(st.binary(min_size=0, max_size=120).map(modes.pad_zero), key8, key8)
@settings(max_examples=20, deadline=None)
def test_modes_roundtrip_through_fast_path(plaintext, key, iv):
    assert modes.ecb_decrypt(key, modes.ecb_encrypt(key, plaintext)) \
        == plaintext
    assert modes.cbc_decrypt(key, modes.cbc_encrypt(key, plaintext, iv), iv) \
        == plaintext
    assert modes.pcbc_decrypt(key, modes.pcbc_encrypt(key, plaintext, iv), iv) \
        == plaintext


def _rotl3(half):
    return ((half << 3) | (half >> 29)) & 0xFFFFFFFF


def _rotr3(half):
    return ((half >> 3) | (half << 29)) & 0xFFFFFFFF


multi_block = st.integers(min_value=1, max_value=40).flatmap(
    lambda blocks: st.binary(min_size=8 * blocks, max_size=8 * blocks))


@given(multi_block)
@settings(max_examples=40, deadline=None)
@example(bytes(range(256)) * 4)
def test_whole_message_ip_fp_match_reference(data):
    """The lane-wise IP/FP over a whole message is the per-bit IP/FP of
    every block (up to the round layout's rotate-by-3 of each half), and
    FP undoes IP."""
    blocks = [int.from_bytes(data[i:i + 8], "big")
              for i in range(0, len(data), 8)]
    halves = des._ip_lanes(data)
    assert [(_rotl3(left) << 32) | _rotl3(right)
            for left, right in zip(halves[0::2], halves[1::2])] \
        == [des_reference.initial_permutation(block) for block in blocks]
    assert des._fp_lanes(halves) == data
    rotated = [_rotr3(half) for block in blocks
               for half in (block >> 32, block & 0xFFFFFFFF)]
    assert des._fp_lanes(rotated) == b"".join(
        des_reference.final_permutation(block).to_bytes(8, "big")
        for block in blocks)


# --- the schedule cache ----------------------------------------------------


def test_schedule_cache_hits_and_shares():
    clear_schedule_cache()
    key = bytes.fromhex("133457799BBCDFF1")
    first = get_schedule(key)
    again = get_schedule(bytearray(key))  # normalised to bytes
    assert again is first
    info = schedule_cache_info()
    assert info["hits"] == 1 and info["misses"] == 1 and info["size"] == 1


def test_entry_points_share_one_derivation(monkeypatch):
    """encrypt_block, decrypt_block, DesCipher, and the modes all reuse
    one cached schedule per key."""
    clear_schedule_cache()
    calls = []
    original = des.derive_subkeys

    def counting(key):
        calls.append(bytes(key))
        return original(key)

    monkeypatch.setattr(des, "derive_subkeys", counting)
    key = bytes.fromhex("0123456789ABCDEF")
    block = b"\x42" * 8
    des.encrypt_block(key, block)
    des.decrypt_block(key, block)
    des.DesCipher(key).encrypt_block(block)
    modes.cbc_decrypt(key, modes.cbc_encrypt(key, block * 3))
    modes.pcbc_encrypt(key, block * 2)
    assert calls == [key]


def test_cache_is_bounded_lru():
    clear_schedule_cache()
    overflow = des.SCHEDULE_CACHE_SIZE + 5
    first_key = (0).to_bytes(8, "big")
    get_schedule(first_key)
    for i in range(1, overflow):
        get_schedule(i.to_bytes(8, "big"))
    info = schedule_cache_info()
    assert info["size"] == des.SCHEDULE_CACHE_SIZE
    # The very first key was the least recently used: evicted.
    before = schedule_cache_info()["misses"]
    get_schedule(first_key)
    assert schedule_cache_info()["misses"] == before + 1


def test_bad_key_never_pollutes_cache():
    clear_schedule_cache()
    with pytest.raises(des.DesError):
        get_schedule(b"short")
    assert schedule_cache_info()["size"] == 0


def test_weak_key_still_self_inverse_via_cache():
    weak = next(iter(des.WEAK_KEYS))
    block = b"attack a"
    assert decrypt_block(weak, encrypt_block(weak, block)) == block
    assert encrypt_block(weak, encrypt_block(weak, block)) == block


# --- the parity table ------------------------------------------------------


@given(st.binary(min_size=1, max_size=16))
@settings(max_examples=50, deadline=None)
def test_parity_table_matches_popcount(data):
    fixed = des.set_odd_parity(data)
    assert all(bin(b).count("1") & 1 for b in fixed)
    assert des.has_odd_parity(fixed)
    assert des.has_odd_parity(data) == \
        all(bin(b).count("1") & 1 for b in data)
    # Parity fixing touches only the low bit of each byte.
    assert all((a & 0xFE) == (b & 0xFE) for a, b in zip(data, fixed))

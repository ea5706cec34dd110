"""Block modes: roundtrips, the CBC prefix property, PCBC propagation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import modes
from repro.crypto.des import (
    BLOCK_OPS, BLOCK_SIZE, WHOLE_MESSAGE_MIN_BLOCKS, DesError,
)
from repro.crypto.rng import DeterministicRandom

KEY = bytes.fromhex("133457799BBCDFF1")

aligned = st.binary(min_size=0, max_size=96).map(modes.pad_zero)


@given(aligned)
@settings(max_examples=30, deadline=None)
def test_ecb_roundtrip(plaintext):
    assert modes.ecb_decrypt(KEY, modes.ecb_encrypt(KEY, plaintext)) == plaintext


@given(aligned, st.binary(min_size=8, max_size=8))
@settings(max_examples=30, deadline=None)
def test_cbc_roundtrip(plaintext, iv):
    blob = modes.cbc_encrypt(KEY, plaintext, iv)
    assert modes.cbc_decrypt(KEY, blob, iv) == plaintext


@given(aligned, st.binary(min_size=8, max_size=8))
@settings(max_examples=30, deadline=None)
def test_pcbc_roundtrip(plaintext, iv):
    blob = modes.pcbc_encrypt(KEY, plaintext, iv)
    assert modes.pcbc_decrypt(KEY, blob, iv) == plaintext


@given(st.binary(min_size=24, max_size=96).map(modes.pad_zero),
       st.integers(min_value=1, max_value=11))
@settings(max_examples=30, deadline=None)
def test_cbc_prefix_property(plaintext, block_count):
    """The property the paper's chosen-plaintext attack rests on:
    'prefixes of encryptions are encryptions of prefixes'."""
    block_count = min(block_count, len(plaintext) // BLOCK_SIZE)
    cut = block_count * BLOCK_SIZE
    whole = modes.cbc_encrypt(KEY, plaintext)
    prefix = modes.cbc_encrypt(KEY, plaintext[:cut])
    assert whole[:cut] == prefix


def test_pcbc_lacks_prefix_property():
    """PCBC chains plaintext too; prefixes do NOT commute in general —
    but the first block alone always matches (nothing chained yet)."""
    plaintext = bytes(range(48))
    whole = modes.pcbc_encrypt(KEY, plaintext)
    prefix = modes.pcbc_encrypt(KEY, plaintext[:16])
    assert whole[:16] == prefix[:16]  # deterministic chaining start
    # ... and the tail differs from an independent encryption of the tail.
    tail = modes.pcbc_encrypt(KEY, plaintext[16:])
    assert whole[16:] != tail


def test_pcbc_adjacent_swap_garbles_exactly_two_blocks():
    """The paper: 'if two blocks of ciphertext are interchanged, only
    the corresponding blocks are garbled on decryption.'"""
    plaintext = bytes(range(64))
    blob = bytearray(modes.pcbc_encrypt(KEY, plaintext))
    blob[16:24], blob[24:32] = blob[24:32], blob[16:24]
    garbled = modes.pcbc_decrypt(KEY, bytes(blob))
    assert garbled[:16] == plaintext[:16]
    assert garbled[16:32] != plaintext[16:32]
    assert garbled[32:] == plaintext[32:]  # the tail survives — the flaw


def test_cbc_adjacent_swap_garbles_three_blocks():
    plaintext = bytes(range(64))
    blob = bytearray(modes.cbc_encrypt(KEY, plaintext))
    blob[16:24], blob[24:32] = blob[24:32], blob[16:24]
    garbled = modes.cbc_decrypt(KEY, bytes(blob))
    differing = [
        i for i in range(8)
        if garbled[i * 8:(i + 1) * 8] != plaintext[i * 8:(i + 1) * 8]
    ]
    assert differing == [2, 3, 4]


def test_pcbc_distant_swap_garbles_span():
    """Non-adjacent swap garbles the closed span between the blocks."""
    plaintext = bytes(range(80))
    blob = bytearray(modes.pcbc_encrypt(KEY, plaintext))
    blob[8:16], blob[56:64] = blob[56:64], blob[8:16]
    garbled = modes.pcbc_decrypt(KEY, bytes(blob))
    differing = [
        i for i in range(10)
        if garbled[i * 8:(i + 1) * 8] != plaintext[i * 8:(i + 1) * 8]
    ]
    assert differing[0] == 1 and differing[-1] == 7
    assert garbled[64:] == plaintext[64:]


def test_pad_zero():
    assert modes.pad_zero(b"") == b""
    assert len(modes.pad_zero(b"abc")) == 8
    assert modes.pad_zero(b"x" * 8) == b"x" * 8
    assert modes.pad_zero(b"abc").endswith(b"\x00" * 5)


def test_pad_random_uses_rng():
    rng = DeterministicRandom(1)
    padded = modes.pad_random(b"abc", rng)
    assert len(padded) == 8
    assert padded[:3] == b"abc"


def test_confounder_roundtrip():
    rng = DeterministicRandom(2)
    data = b"payload!"
    with_confounder = modes.add_confounder(data, rng)
    assert len(with_confounder) == len(data) + BLOCK_SIZE
    assert modes.strip_confounder(with_confounder) == data


def test_unaligned_input_rejected():
    with pytest.raises(DesError):
        modes.cbc_encrypt(KEY, b"short")
    with pytest.raises(DesError):
        modes.cbc_decrypt(KEY, b"short")
    with pytest.raises(DesError):
        modes.cbc_encrypt(KEY, b"x" * 16, iv=b"bad")


def test_identical_plaintexts_identical_ciphertexts_without_confounder():
    """Why the confounder exists: deterministic encryption leaks equality."""
    a = modes.cbc_encrypt(KEY, b"secretmsg_pad__!")
    b = modes.cbc_encrypt(KEY, b"secretmsg_pad__!")
    assert a == b


# Every mode and direction: (name, function, takes an IV).
ALL_MODES = [
    ("ecb_encrypt", modes.ecb_encrypt, False),
    ("ecb_decrypt", modes.ecb_decrypt, False),
    ("cbc_encrypt", modes.cbc_encrypt, True),
    ("cbc_decrypt", modes.cbc_decrypt, True),
    ("pcbc_encrypt", modes.pcbc_encrypt, True),
    ("pcbc_decrypt", modes.pcbc_decrypt, True),
]
MODE_IDS = [name for name, _fn, _iv in ALL_MODES]

# Block counts on both sides of the per-block-table / whole-message
# IP/FP crossover, plus the edges and a long message.
CROSSOVER = WHOLE_MESSAGE_MIN_BLOCKS
BLOCK_COUNTS = sorted({0, 1, 2, CROSSOVER - 1, CROSSOVER, CROSSOVER + 1, 17})


@pytest.mark.parametrize("name,fn,takes_iv", ALL_MODES, ids=MODE_IDS)
@pytest.mark.parametrize("blocks", BLOCK_COUNTS)
def test_block_ops_delta_is_block_count(name, fn, takes_iv, blocks):
    """E18's cost ledger: exactly one counted DES op per block."""
    data = bytes(range(8 * blocks))
    before = BLOCK_OPS.count
    out = fn(KEY, data, b"\x5a" * 8) if takes_iv else fn(KEY, data)
    assert BLOCK_OPS.count - before == blocks
    assert len(out) == len(data)


@pytest.mark.parametrize("name,fn,takes_iv", ALL_MODES, ids=MODE_IDS)
@pytest.mark.parametrize("length", [1, 7, 9, 15, 8 * CROSSOVER + 3])
def test_misaligned_data_rejected(name, fn, takes_iv, length):
    what = "plaintext" if name.endswith("encrypt") else "ciphertext"
    before = BLOCK_OPS.count
    with pytest.raises(DesError, match=(
        f"^{what} length {length} is not a multiple of 8$"
    )):
        fn(KEY, b"x" * length)
    assert BLOCK_OPS.count == before


@pytest.mark.parametrize(
    "name,fn,takes_iv", [m for m in ALL_MODES if m[2]],
    ids=[name for name, _fn, iv in ALL_MODES if iv],
)
@pytest.mark.parametrize("iv_length", [0, 7, 9])
def test_wrong_length_iv_rejected(name, fn, takes_iv, iv_length):
    before = BLOCK_OPS.count
    for blocks in (2, CROSSOVER + 1):
        with pytest.raises(DesError,
                           match=f"^IV must be 8 bytes, got {iv_length}$"):
            fn(KEY, b"x" * (8 * blocks), bytes(iv_length))
    assert BLOCK_OPS.count == before

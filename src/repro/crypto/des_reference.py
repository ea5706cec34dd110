"""The straight-from-the-standard DES path, kept for cross-checking.

This module preserves the original per-bit implementation of the DES
block function and key schedule: the initial and final permutations,
the E expansion, PC-1, the C/D rotations and PC-2 all go through the
generic :func:`repro.crypto.bits.permute` and
:func:`repro.crypto.bits.rotate_left`, exactly as FIPS 46 writes them
down.  :mod:`repro.crypto.des` replaced both with lookup tables fused at
import time; the two must compute the identical function, and the
property tests in ``tests/test_crypto_fastpath.py`` (plus the E27
benchmark) hold them to it on the published vectors and on random keys
and blocks.  The schedule is derived here independently, so a fault in
the table-driven :func:`repro.crypto.des.derive_subkeys` cannot hide
behind a shared derivation.

The reference path deliberately does **not** touch
:data:`repro.crypto.des.BLOCK_OPS` — it exists only for verification and
for the ``python -m repro perf`` speedup baseline, never for protocol
traffic, so it must not perturb the cost accounting of E18.

The FIPS tables themselves (IP, FP, E, the S-boxes, PC-1/PC-2) live in
:mod:`repro.crypto.des` and are imported here; they are data, not an
implementation strategy, and keeping one copy means a transcription
error cannot hide in only one of the two paths.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.crypto.bits import bytes_to_int, int_to_bytes, permute, rotate_left
from repro.crypto.des import (
    BLOCK_SIZE,
    KEY_SIZE,
    DesError,
    _E,
    _FP,
    _IP,
    _PC1,
    _PC2,
    _SHIFTS,
    _SP,
)

__all__ = [
    "derive_subkeys",
    "initial_permutation",
    "final_permutation",
    "crypt_block",
    "encrypt_block",
    "decrypt_block",
]


def derive_subkeys(key: bytes) -> Tuple[int, ...]:
    """The FIPS 46 key schedule with per-bit PC-1/PC-2 permutations."""
    if len(key) != KEY_SIZE:
        raise DesError(f"DES key must be {KEY_SIZE} bytes, got {len(key)}")
    permuted = permute(bytes_to_int(key), 64, _PC1)
    c = permuted >> 28
    d = permuted & 0xFFFFFFF
    subkeys = []
    for shift in _SHIFTS:
        c = rotate_left(c, shift, 28)
        d = rotate_left(d, shift, 28)
        subkeys.append(permute((c << 28) | d, 56, _PC2))
    return tuple(subkeys)


def _feistel(right: int, subkey: int) -> int:
    """The round function, with E as a literal 48-entry permutation."""
    expanded = permute(right, 32, _E) ^ subkey
    out = 0
    for i in range(8):
        out ^= _SP[i][(expanded >> (6 * (7 - i))) & 0x3F]
    return out


def initial_permutation(value: int) -> int:
    """IP on one 64-bit block, bit by bit."""
    return permute(value, 64, _IP)


def final_permutation(value: int) -> int:
    """FP (IP's inverse) on one 64-bit block, bit by bit."""
    return permute(value, 64, _FP)


def crypt_block(block: bytes, subkeys: Sequence[int]) -> bytes:
    """One DES block operation with per-bit IP/E/FP permutations."""
    if len(block) != BLOCK_SIZE:
        raise DesError(f"DES block must be {BLOCK_SIZE} bytes, got {len(block)}")
    value = initial_permutation(bytes_to_int(block))
    left = value >> 32
    right = value & 0xFFFFFFFF
    for subkey in subkeys:
        left, right = right, left ^ _feistel(right, subkey)
    # Final swap is folded into the order of (right, left) here.
    return int_to_bytes(final_permutation((right << 32) | left), 8)


def encrypt_block(key: bytes, block: bytes) -> bytes:
    """Encrypt one block via the reference path (no schedule cache)."""
    return crypt_block(block, derive_subkeys(key))


def decrypt_block(key: bytes, block: bytes) -> bytes:
    """Decrypt one block via the reference path (no schedule cache)."""
    return crypt_block(block, tuple(reversed(derive_subkeys(key))))

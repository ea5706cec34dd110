"""Block-cipher modes of operation: ECB, CBC, and Kerberos V4's PCBC.

The modes here are the protagonists of two of the paper's attacks:

* **CBC prefix property** — "cipher-block chaining has the property that
  prefixes of encryptions are encryptions of prefixes".  A truncated CBC
  ciphertext is a valid CBC encryption of the truncated plaintext, which
  enables the inter-session chosen-plaintext attack against the V5
  ``KRB_PRIV`` format (:mod:`repro.attacks.chosen_plaintext`).

* **PCBC propagation** — Kerberos V4 used the non-standard *propagating*
  CBC mode, in which plaintext block ``i+1`` is XORed with both the
  plaintext and ciphertext of block ``i`` before encryption.  The paper
  observes its "poor propagation properties that permit message-stream
  modification: if two blocks of ciphertext are interchanged, only the
  corresponding blocks are garbled on decryption"
  (:mod:`repro.attacks.pcbc` demonstrates this).

All functions take and return raw ``bytes``; inputs must already be padded
to a multiple of the 8-byte block size (see :func:`pad_zero` /
:func:`pad_random`).  Every mode routes through the module-level key
schedule cache (:func:`repro.crypto.des.get_schedule`) and works in the
int domain: one ``struct.unpack`` turns the whole message into 64-bit
ints, each block goes through :func:`repro.crypto.des._crypt_int`,
chaining is plain int XOR, and one ``struct.pack`` assembles the output.
No block is sliced, XORed as bytes, or converted on its own, so repeated
calls under the same key — the common case three protocol layers deep —
cost only block operations.  Confounders — the random leading block
Version 5 prepends so that identical plaintexts encrypt differently —
are provided as explicit helpers because the paper argues they belong in
the encryption layer, not the protocol layer.
"""

from __future__ import annotations

import struct
from typing import List, Protocol, Tuple

from repro.crypto.des import BLOCK_SIZE, DesError, _crypt_int, get_schedule

__all__ = [
    "SupportsRandomBytes",
    "ZERO_IV",
    "pad_zero",
    "pad_random",
    "ecb_encrypt",
    "ecb_decrypt",
    "cbc_encrypt",
    "cbc_decrypt",
    "pcbc_encrypt",
    "pcbc_decrypt",
    "add_confounder",
    "strip_confounder",
]

ZERO_IV = bytes(BLOCK_SIZE)


class SupportsRandomBytes(Protocol):
    """The slice of :class:`repro.crypto.rng.DeterministicRandom` the
    padding and confounder helpers need."""

    def random_bytes(self, length: int) -> bytes: ...


def pad_zero(data: bytes) -> bytes:
    """Pad with NUL bytes up to a block boundary (Kerberos style).

    Zero padding is not self-describing; the protocol layers carry explicit
    length fields, as the real Kerberos encodings do.
    """
    remainder = len(data) % BLOCK_SIZE
    if remainder == 0:
        return data
    return data + bytes(BLOCK_SIZE - remainder)


def pad_random(data: bytes, rng: SupportsRandomBytes) -> bytes:
    """Pad with random bytes from *rng* up to a block boundary."""
    remainder = len(data) % BLOCK_SIZE
    if remainder == 0:
        return data
    return data + rng.random_bytes(BLOCK_SIZE - remainder)


def _blocks(data: bytes, what: str) -> Tuple[int, ...]:
    """The message as 64-bit big-endian ints, one per block."""
    if len(data) % BLOCK_SIZE:
        raise DesError(
            f"{what} length {len(data)} is not a multiple of {BLOCK_SIZE}"
        )
    return struct.unpack(f">{len(data) // BLOCK_SIZE}Q", data)


def _iv(iv: bytes) -> int:
    if len(iv) != BLOCK_SIZE:
        raise DesError(f"IV must be {BLOCK_SIZE} bytes, got {len(iv)}")
    return int.from_bytes(iv, "big")


def _pack(blocks: List[int]) -> bytes:
    return struct.pack(f">{len(blocks)}Q", *blocks)


def ecb_encrypt(key: bytes, plaintext: bytes) -> bytes:
    """Electronic-codebook encryption (used only for single blocks)."""
    blocks = _blocks(plaintext, "plaintext")
    rounds = get_schedule(key)._enc_rounds
    return _pack([_crypt_int(block, rounds) for block in blocks])


def ecb_decrypt(key: bytes, ciphertext: bytes) -> bytes:
    blocks = _blocks(ciphertext, "ciphertext")
    rounds = get_schedule(key)._dec_rounds
    return _pack([_crypt_int(block, rounds) for block in blocks])


def cbc_encrypt(key: bytes, plaintext: bytes, iv: bytes = ZERO_IV) -> bytes:
    """Standard cipher-block chaining: ``C_i = E(P_i xor C_{i-1})``."""
    blocks = _blocks(plaintext, "plaintext")
    previous = _iv(iv)
    rounds = get_schedule(key)._enc_rounds
    out = []
    for block in blocks:
        previous = _crypt_int(block ^ previous, rounds)
        out.append(previous)
    return _pack(out)


def cbc_decrypt(key: bytes, ciphertext: bytes, iv: bytes = ZERO_IV) -> bytes:
    blocks = _blocks(ciphertext, "ciphertext")
    previous = _iv(iv)
    rounds = get_schedule(key)._dec_rounds
    out = []
    for block in blocks:
        out.append(_crypt_int(block, rounds) ^ previous)
        previous = block
    return _pack(out)


def pcbc_encrypt(key: bytes, plaintext: bytes, iv: bytes = ZERO_IV) -> bytes:
    """Propagating CBC: ``C_i = E(P_i xor P_{i-1} xor C_{i-1})``.

    The chaining value for the first block is the IV alone, matching the
    Kerberos V4 usage (where the IV was fixed and public — the paper's
    chosen-ciphertext hint).
    """
    blocks = _blocks(plaintext, "plaintext")
    chain = _iv(iv)
    rounds = get_schedule(key)._enc_rounds
    out = []
    for block in blocks:
        encrypted = _crypt_int(block ^ chain, rounds)
        out.append(encrypted)
        chain = block ^ encrypted
    return _pack(out)


def pcbc_decrypt(key: bytes, ciphertext: bytes, iv: bytes = ZERO_IV) -> bytes:
    blocks = _blocks(ciphertext, "ciphertext")
    chain = _iv(iv)
    rounds = get_schedule(key)._dec_rounds
    out = []
    for block in blocks:
        plain = _crypt_int(block, rounds) ^ chain
        out.append(plain)
        chain = plain ^ block
    return _pack(out)


def add_confounder(plaintext: bytes, rng: SupportsRandomBytes) -> bytes:
    """Prepend one random block, the V5 draft's anti-replay confounder."""
    return rng.random_bytes(BLOCK_SIZE) + plaintext


def strip_confounder(plaintext: bytes) -> bytes:
    """Drop the leading confounder block after decryption."""
    if len(plaintext) < BLOCK_SIZE:
        raise DesError("plaintext shorter than one confounder block")
    return plaintext[BLOCK_SIZE:]

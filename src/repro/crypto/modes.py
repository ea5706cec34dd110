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
schedule cache (:func:`repro.crypto.des.get_schedule`) and makes one
call to the DES message kernel (:func:`repro.crypto.des._crypt_message`)
per message.  ECB is the kernel alone.  CBC and PCBC encryption hand the
kernel the IV, and it chains inside its block loop, in the IP domain.
Decryption needs no chaining to run the blocks, so the kernel decrypts
the whole message unchained and the chaining is applied afterwards:
for CBC one int XOR against the ciphertext shifted down a block, and
for PCBC that plus a log-step prefix XOR (:func:`_unchain`).  No block
is sliced or converted on its own, so repeated calls under the same
key — the common case three protocol layers deep — cost only block
operations.

Confounders — the random leading block Version 5 prepends so that
identical plaintexts encrypt differently — are provided as explicit
helpers because the paper argues they belong in the encryption layer,
not the protocol layer.
"""

from __future__ import annotations

from typing import Protocol

from repro.crypto.des import BLOCK_SIZE, DesError, _crypt_message, get_schedule

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


def _require_aligned(data: bytes, what: str) -> None:
    if len(data) % BLOCK_SIZE:
        raise DesError(
            f"{what} length {len(data)} is not a multiple of {BLOCK_SIZE}"
        )


def _iv(iv: bytes) -> int:
    if len(iv) != BLOCK_SIZE:
        raise DesError(f"IV must be {BLOCK_SIZE} bytes, got {len(iv)}")
    return int.from_bytes(iv, "big")


def _unchain(decrypted: bytes, ciphertext: bytes, iv: bytes,
             propagate: bool) -> bytes:
    """Chain a whole decrypted message at once.

    CBC XORs block i with ciphertext block i-1 (the IV for block 0): one
    int XOR against the ciphertext shifted down a block.  PCBC further
    XORs in plaintext block i-1, so plaintext block i is the XOR of that
    result's blocks 0..i: a prefix XOR, computed in log2(blocks) steps.
    """
    value = (int.from_bytes(decrypted, "big")
             ^ int.from_bytes((iv + ciphertext)[:len(ciphertext)], "big"))
    if propagate:
        shift, width = 64, 8 * len(ciphertext)
        while shift < width:
            value ^= value >> shift
            shift <<= 1
    return value.to_bytes(len(ciphertext), "big")


def ecb_encrypt(key: bytes, plaintext: bytes) -> bytes:
    """Electronic-codebook encryption (used only for single blocks)."""
    _require_aligned(plaintext, "plaintext")
    return _crypt_message(plaintext, get_schedule(key)._enc_rounds)


def ecb_decrypt(key: bytes, ciphertext: bytes) -> bytes:
    _require_aligned(ciphertext, "ciphertext")
    return _crypt_message(ciphertext, get_schedule(key)._dec_rounds)


def cbc_encrypt(key: bytes, plaintext: bytes, iv: bytes = ZERO_IV) -> bytes:
    """Standard cipher-block chaining: ``C_i = E(P_i xor C_{i-1})``."""
    _require_aligned(plaintext, "plaintext")
    start = _iv(iv)
    return _crypt_message(plaintext, get_schedule(key)._enc_rounds, start)


def cbc_decrypt(key: bytes, ciphertext: bytes, iv: bytes = ZERO_IV) -> bytes:
    _require_aligned(ciphertext, "ciphertext")
    _iv(iv)
    decrypted = _crypt_message(ciphertext, get_schedule(key)._dec_rounds)
    return _unchain(decrypted, ciphertext, iv, propagate=False)


def pcbc_encrypt(key: bytes, plaintext: bytes, iv: bytes = ZERO_IV) -> bytes:
    """Propagating CBC: ``C_i = E(P_i xor P_{i-1} xor C_{i-1})``.

    The chaining value for the first block is the IV alone, matching the
    Kerberos V4 usage (where the IV was fixed and public — the paper's
    chosen-ciphertext hint).
    """
    _require_aligned(plaintext, "plaintext")
    start = _iv(iv)
    return _crypt_message(plaintext, get_schedule(key)._enc_rounds, start,
                          propagate=True)


def pcbc_decrypt(key: bytes, ciphertext: bytes, iv: bytes = ZERO_IV) -> bytes:
    _require_aligned(ciphertext, "ciphertext")
    _iv(iv)
    decrypted = _crypt_message(ciphertext, get_schedule(key)._dec_rounds)
    return _unchain(decrypted, ciphertext, iv, propagate=True)


def add_confounder(plaintext: bytes, rng: SupportsRandomBytes) -> bytes:
    """Prepend one random block, the V5 draft's anti-replay confounder."""
    return rng.random_bytes(BLOCK_SIZE) + plaintext


def strip_confounder(plaintext: bytes) -> bytes:
    """Drop the leading confounder block after decryption."""
    if len(plaintext) < BLOCK_SIZE:
        raise DesError("plaintext shorter than one confounder block")
    return plaintext[BLOCK_SIZE:]

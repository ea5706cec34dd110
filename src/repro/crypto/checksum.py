"""Pluggable checksums with the paper's collision-proof classification.

Draft 3 specified three checksum types — CRC-32, MD4, and MD4 encrypted
with DES — but, the paper complains, "no mention is made of their
attributes, save that some are labeled cryptographic.  This is a crucial
omission ...  A better classification is whether or not a checksum is
collision-proof."

This module makes the classification explicit.  Each registered checksum
carries:

``collision_proof``
    Can an attacker construct a different message with the same checksum?
    CRC-32: yes (its linearity even lets the attacker *steer* it, see
    :func:`repro.crypto.crc.forge_field`).  MD4 variants: no, within this
    threat model.

``keyed``
    Does verification require a secret key?  Note the paper's warning that
    "encrypting a checksum provides very little protection; if the
    checksum is not collision-proof and the data is public, an adversary
    can compute the value and replace the data with another message with
    the same checksum value."  Keyedness does *not* rescue a weak digest.

Checksums are computed over ``data`` plus an optional key.  The DES-MAC
variant encrypts the MD4 digest under the key with CBC.
"""

from __future__ import annotations

import enum
import hmac
from dataclasses import dataclass
from typing import Callable, Dict

from repro.crypto import modes
from repro.crypto.bits import int_to_bytes
from repro.crypto.crc import crc32
from repro.crypto.md4 import md4

__all__ = ["ChecksumType", "ChecksumSpec", "compute", "verify", "spec_for",
           "constant_time_compare"]


def constant_time_compare(left: bytes, right: bytes) -> bool:
    """Equality in time independent of where the first mismatch sits.

    ``==`` on bytes returns at the first differing byte, so an attacker
    timing a verifier learns the length of the matching prefix — an
    oracle that turns offline guessing into online byte-at-a-time
    search.  :func:`hmac.compare_digest` reads every byte of both inputs
    regardless; only the (public) lengths short-circuit.
    """
    return hmac.compare_digest(left, right)


class ChecksumType(enum.Enum):
    """The three Draft-3 checksum types."""

    CRC32 = "crc32"
    MD4 = "md4"
    MD4_DES = "md4-des"


@dataclass(frozen=True)
class ChecksumSpec:
    """Descriptor for one checksum algorithm."""

    kind: ChecksumType
    collision_proof: bool
    keyed: bool
    length: int
    _fn: Callable[[bytes, bytes], bytes]

    def compute(self, data: bytes, key: bytes = b"") -> bytes:
        if self.keyed and len(key) != 8:
            raise ValueError(f"{self.kind.value} checksum requires a DES key")
        return self._fn(data, key)


def _crc32_fn(data: bytes, _key: bytes) -> bytes:
    return int_to_bytes(crc32(data), 4)


def _md4_fn(data: bytes, _key: bytes) -> bytes:
    return md4(data)


def _md4_des_fn(data: bytes, key: bytes) -> bytes:
    return modes.cbc_encrypt(key, md4(data))


_REGISTRY: Dict[ChecksumType, ChecksumSpec] = {
    ChecksumType.CRC32: ChecksumSpec(
        ChecksumType.CRC32, collision_proof=False, keyed=False, length=4,
        _fn=_crc32_fn,
    ),
    ChecksumType.MD4: ChecksumSpec(
        ChecksumType.MD4, collision_proof=True, keyed=False, length=16,
        _fn=_md4_fn,
    ),
    ChecksumType.MD4_DES: ChecksumSpec(
        ChecksumType.MD4_DES, collision_proof=True, keyed=True, length=16,
        _fn=_md4_des_fn,
    ),
}


def spec_for(kind: ChecksumType) -> ChecksumSpec:
    """Look up the descriptor for a checksum type."""
    return _REGISTRY[kind]


def compute(kind: ChecksumType, data: bytes, key: bytes = b"") -> bytes:
    """Checksum *data* with algorithm *kind* (and *key* if keyed)."""
    return _REGISTRY[kind].compute(data, key)


def verify(kind: ChecksumType, data: bytes, value: bytes,
           key: bytes = b"") -> bool:
    """Constant-shape verification of a checksum value."""
    return constant_time_compare(compute(kind, data, key), value)

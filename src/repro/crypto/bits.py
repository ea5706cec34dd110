"""Bit-level helpers shared by the cryptographic primitives.

DES (FIPS 46) is specified in terms of bit permutations over 28-, 32-, 48-
and 64-bit quantities, with bits numbered 1..n from the most significant
end.  This module provides the small integer-based toolkit the rest of
:mod:`repro.crypto` builds on: generic permutations, rotations within a
fixed width, and conversions between ``bytes`` and fixed-width integers.

Everything operates on plain Python integers; a "w-bit value" is an int in
``range(2 ** w)`` whose bit 1 (in FIPS numbering) is the most significant.

The bitsliced backend (:mod:`repro.crypto.des_bitslice`) adds a second
data layout: instead of one integer per block, *lane form* keeps one
integer per **bit position**, with bit *j* of that integer belonging to
block *j*.  :func:`transpose_in` and :func:`transpose_out` convert
between the two layouts.  Both avoid per-bit Python loops: a byte column
is reduced to a 0/1 byte string with ``bytes.translate``, packed with
``int.from_bytes``, and the eight lane bits of each block group are
gathered into one contiguous byte by a single multiplication (the
classic multiply-and-shift bit gather — every partial product lands on a
distinct bit, so no carries interfere).
"""

from __future__ import annotations

from typing import List, Sequence

__all__ = [
    "bytes_to_int",
    "int_to_bytes",
    "permute",
    "rotate_left",
    "transpose_in",
    "transpose_out",
    "xor_bytes",
]


def bytes_to_int(data: bytes) -> int:
    """Interpret *data* as a big-endian unsigned integer."""
    return int.from_bytes(data, "big")


def int_to_bytes(value: int, length: int) -> bytes:
    """Render *value* as *length* big-endian bytes.

    Raises :class:`OverflowError` if the value does not fit, which in this
    package always indicates a programming error rather than bad input.
    """
    return value.to_bytes(length, "big")


def permute(value: int, width_in: int, table: Sequence[int]) -> int:
    """Apply a FIPS-style bit permutation to *value*.

    *table* lists, for each output bit (most significant first), the 1-based
    index of the input bit that supplies it, counting from the most
    significant bit of a *width_in*-bit input.  The result has
    ``len(table)`` bits.
    """
    out = 0
    for src in table:
        out = (out << 1) | ((value >> (width_in - src)) & 1)
    return out


def rotate_left(value: int, amount: int, width: int) -> int:
    """Rotate a *width*-bit value left by *amount* bits."""
    amount %= width
    mask = (1 << width) - 1
    return ((value << amount) | (value >> (width - amount))) & mask


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} != {len(b)}")
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(
        len(a), "big"
    )


# --- lane transposes for the bitsliced backend ------------------------------

#: ``_BIT_TAB[s]`` maps each byte value to bit *s* of that value (0 or 1),
#: as a 256-entry ``bytes.translate`` table.
_BIT_TAB = tuple(bytes((v >> s) & 1 for v in range(256)) for s in range(8))

#: Gather constant: multiplying an integer whose set bits sit at positions
#: ``8j`` (one value bit per byte, little-endian) by this sum of powers
#: ``2**(7k)`` copies bit ``8j`` to ``8j + 7k``.  For lane ``j = 8a + r``
#: the copy with ``k = 7 - r`` lands at ``64a + 49 + r`` — eight lanes of
#: group *a*, contiguous — and no two copies collide, so shifting right by
#: 49 exposes one packed byte per group at little-endian byte index ``8a``.
_GATHER = sum(1 << (7 * k) for k in range(8))

#: Inverse of the gather step, as a join table: byte value *v* unpacked to
#: eight bytes, byte *r* holding bit *r* of *v*.
_SPREAD = tuple(bytes((v >> r) & 1 for r in range(8)) for v in range(256))


def transpose_in(blocks: Sequence[bytes]) -> List[int]:
    """Slice N 8-byte blocks into 64 lane integers.

    Entry *i* of the result holds bit *i* of every block, where *i*
    counts from the most significant bit of byte 0 (FIPS bit ``i + 1``);
    bit *j* of that integer is the bit from ``blocks[j]``.  The heavy
    lifting happens in C: one ``translate``/``from_bytes``/multiply
    pipeline per (byte position, bit) column, independent of N.
    """
    count = len(blocks)
    if count == 0:
        return [0] * 64
    data = b"".join(blocks)
    if len(data) != count * 8:
        raise ValueError("transpose_in expects 8-byte blocks")
    width = 8 * ((count + 7) // 8)
    gather = _GATHER
    out: List[int] = []
    for byte_pos in range(8):
        column = data[byte_pos::8]
        for bit in range(8):
            ones = column.translate(_BIT_TAB[7 - bit])
            spaced = int.from_bytes(ones, "little")
            packed = ((spaced * gather) >> 49).to_bytes(width, "little")
            out.append(int.from_bytes(packed[::8], "little"))
    return out


def transpose_out(lanes: Sequence[int], count: int) -> List[bytes]:
    """Reassemble *count* 8-byte blocks from 64 lane integers.

    Exact inverse of :func:`transpose_in` for lanes confined to the low
    *count* bits.  Each output byte position is built by spreading eight
    lane integers to one-byte-per-block strings (table join) and summing
    them shifted into place — bytes never exceed 0xFF, so the shifts
    cannot carry between blocks.
    """
    if len(lanes) != 64:
        raise ValueError(f"transpose_out expects 64 lanes, got {len(lanes)}")
    if count == 0:
        return []
    groups = (count + 7) // 8
    width = 8 * groups
    spread = _SPREAD
    rows: List[bytes] = []
    for byte_pos in range(8):
        acc = 0
        for bit in range(8):
            packed = lanes[8 * byte_pos + bit].to_bytes(groups, "little")
            ones = b"".join(map(spread.__getitem__, packed))
            acc = (acc << 1) | int.from_bytes(ones, "little")
        rows.append(acc.to_bytes(width, "little")[:count])
    return [bytes(column) for column in zip(*rows)]

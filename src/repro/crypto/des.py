"""The Data Encryption Standard (FIPS 46), implemented from scratch.

Kerberos V4 and the V5 drafts analysed by Bellovin & Merritt use single-DES
as their only cipher.  The paper treats DES as a black box ("beginning only
with the premise that ... the encryption system is secure"), and so do our
attacks: nothing in :mod:`repro.attacks` inverts DES.  The cipher is here
so that the *modes* (CBC, PCBC) and the protocol layers above them behave
with the exact algebra the paper's attacks exploit — prefix properties of
CBC, the propagation behaviour of PCBC, and so on.

The implementation follows FIPS 46-3: initial/final permutations, 16
Feistel rounds with the E expansion, the eight S-boxes, the P
permutation, and the PC-1/PC-2 key schedule.  A software-DES table
layout is compiled at import, without changing the function computed:

* between IP and FP both Feistel halves are rotated right by 3 and
  *doubled*: bits 0-1 appear again at bits 32-33.  Then ``w = R ^ k1``
  holds the E windows of S-boxes 1/3/5/7 at bits 24-29, 16-21, 8-13 and
  0-5, and ``x = R ^ k2`` those of boxes 8/2/4/6 at bits 28-33, 20-25,
  12-17 and 4-9, so no window wraps and E costs nothing;
* the S-boxes are fused with P and paired behind one ``& 0x3F3F``
  index each (1·3 and 5·7 on ``w``; 8·2 at ``>> 20`` and 4·6 at ``>> 4``
  on ``x``) — four 16,192-slot tables whose entries are already in the
  doubled layout, so a round is four lookups;
* round keys are cooked into matching ``(k1, k2)`` words when a schedule
  is built, and the rounds loop runs two rounds per iteration, so the
  halves never swap;
* PC-1 and PC-2 are byte-indexed tables (:func:`_byte_tables`, filled
  by lowest-set-bit doubling), and the 28-bit C/D rotations run on the
  56-bit ``C·D`` word at once.

:func:`_crypt_message` is the one entry point of the block function: it
takes a whole message (and, for CBC/PCBC encryption, the IV) and returns
the whole result, counting one :data:`BLOCK_OPS` op per block.  Chaining
runs in the IP domain, and IP and FP take one of two strategies, chosen
by message length alone (:data:`WHOLE_MESSAGE_MIN_BLOCKS`):

* short messages (:func:`_crypt_tables`) look IP and FP up per block in
  8×256 byte tables that absorb the round layout;
* long messages (:func:`_crypt_lanes`) permute the whole message at once
  on one int (:func:`_ip_lanes`, :func:`_fp_lanes`): IP is a per-byte
  bit permutation (one ``bytes.translate``), an 8×8 bit-matrix
  anti-transpose (three delta swaps) and the rotation, each applied to
  every 64-bit lane together.

:mod:`repro.crypto.modes` calls :func:`_crypt_message`;
:func:`_crypt_block` is its one-block wrapper behind
:func:`encrypt_block`, :func:`decrypt_block` and :class:`DesCipher`.
The per-bit path the tables replace — block function and key schedule —
is retained in :mod:`repro.crypto.des_reference`; property tests
cross-check the two on the FIPS/Rivest vectors, on random keys and
blocks, and on messages either side of the strategy crossover.

Key schedules are memoised in a bounded module-level cache
(:func:`get_schedule`): the protocol layers encrypt and decrypt under
the same handful of keys thousands of times per scenario (a ticket is
sealed by the KDC, unsealed by the server, its session key reused for
every KRB_PRIV message), and deriving the 16 subkeys costs more than
encrypting a block.

Verified against the FIPS / Rivest test vectors in
``tests/test_crypto_des.py``.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from repro.crypto.bits import permute

__all__ = [
    "BLOCK_SIZE",
    "KEY_SIZE",
    "SCHEDULE_CACHE_SIZE",
    "WHOLE_MESSAGE_MIN_BLOCKS",
    "WEAK_KEYS",
    "SEMIWEAK_KEYS",
    "DesError",
    "KeySchedule",
    "derive_subkeys",
    "get_schedule",
    "schedule_cache_info",
    "clear_schedule_cache",
    "encrypt_block",
    "decrypt_block",
    "set_odd_parity",
    "has_odd_parity",
    "is_weak_key",
]

BLOCK_SIZE = 8
KEY_SIZE = 8


class DesError(ValueError):
    """Raised for malformed DES inputs (wrong block or key length)."""


# --- FIPS 46 tables (1-based bit indices, MSB first) -----------------------

_IP = (
    58, 50, 42, 34, 26, 18, 10, 2,
    60, 52, 44, 36, 28, 20, 12, 4,
    62, 54, 46, 38, 30, 22, 14, 6,
    64, 56, 48, 40, 32, 24, 16, 8,
    57, 49, 41, 33, 25, 17, 9, 1,
    59, 51, 43, 35, 27, 19, 11, 3,
    61, 53, 45, 37, 29, 21, 13, 5,
    63, 55, 47, 39, 31, 23, 15, 7,
)

_FP = (
    40, 8, 48, 16, 56, 24, 64, 32,
    39, 7, 47, 15, 55, 23, 63, 31,
    38, 6, 46, 14, 54, 22, 62, 30,
    37, 5, 45, 13, 53, 21, 61, 29,
    36, 4, 44, 12, 52, 20, 60, 28,
    35, 3, 43, 11, 51, 19, 59, 27,
    34, 2, 42, 10, 50, 18, 58, 26,
    33, 1, 41, 9, 49, 17, 57, 25,
)

_E = (
    32, 1, 2, 3, 4, 5,
    4, 5, 6, 7, 8, 9,
    8, 9, 10, 11, 12, 13,
    12, 13, 14, 15, 16, 17,
    16, 17, 18, 19, 20, 21,
    20, 21, 22, 23, 24, 25,
    24, 25, 26, 27, 28, 29,
    28, 29, 30, 31, 32, 1,
)

_P = (
    16, 7, 20, 21, 29, 12, 28, 17,
    1, 15, 23, 26, 5, 18, 31, 10,
    2, 8, 24, 14, 32, 27, 3, 9,
    19, 13, 30, 6, 22, 11, 4, 25,
)

_SBOXES = (
    (
        14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7,
        0, 15, 7, 4, 14, 2, 13, 1, 10, 6, 12, 11, 9, 5, 3, 8,
        4, 1, 14, 8, 13, 6, 2, 11, 15, 12, 9, 7, 3, 10, 5, 0,
        15, 12, 8, 2, 4, 9, 1, 7, 5, 11, 3, 14, 10, 0, 6, 13,
    ),
    (
        15, 1, 8, 14, 6, 11, 3, 4, 9, 7, 2, 13, 12, 0, 5, 10,
        3, 13, 4, 7, 15, 2, 8, 14, 12, 0, 1, 10, 6, 9, 11, 5,
        0, 14, 7, 11, 10, 4, 13, 1, 5, 8, 12, 6, 9, 3, 2, 15,
        13, 8, 10, 1, 3, 15, 4, 2, 11, 6, 7, 12, 0, 5, 14, 9,
    ),
    (
        10, 0, 9, 14, 6, 3, 15, 5, 1, 13, 12, 7, 11, 4, 2, 8,
        13, 7, 0, 9, 3, 4, 6, 10, 2, 8, 5, 14, 12, 11, 15, 1,
        13, 6, 4, 9, 8, 15, 3, 0, 11, 1, 2, 12, 5, 10, 14, 7,
        1, 10, 13, 0, 6, 9, 8, 7, 4, 15, 14, 3, 11, 5, 2, 12,
    ),
    (
        7, 13, 14, 3, 0, 6, 9, 10, 1, 2, 8, 5, 11, 12, 4, 15,
        13, 8, 11, 5, 6, 15, 0, 3, 4, 7, 2, 12, 1, 10, 14, 9,
        10, 6, 9, 0, 12, 11, 7, 13, 15, 1, 3, 14, 5, 2, 8, 4,
        3, 15, 0, 6, 10, 1, 13, 8, 9, 4, 5, 11, 12, 7, 2, 14,
    ),
    (
        2, 12, 4, 1, 7, 10, 11, 6, 8, 5, 3, 15, 13, 0, 14, 9,
        14, 11, 2, 12, 4, 7, 13, 1, 5, 0, 15, 10, 3, 9, 8, 6,
        4, 2, 1, 11, 10, 13, 7, 8, 15, 9, 12, 5, 6, 3, 0, 14,
        11, 8, 12, 7, 1, 14, 2, 13, 6, 15, 0, 9, 10, 4, 5, 3,
    ),
    (
        12, 1, 10, 15, 9, 2, 6, 8, 0, 13, 3, 4, 14, 7, 5, 11,
        10, 15, 4, 2, 7, 12, 9, 5, 6, 1, 13, 14, 0, 11, 3, 8,
        9, 14, 15, 5, 2, 8, 12, 3, 7, 0, 4, 10, 1, 13, 11, 6,
        4, 3, 2, 12, 9, 5, 15, 10, 11, 14, 1, 7, 6, 0, 8, 13,
    ),
    (
        4, 11, 2, 14, 15, 0, 8, 13, 3, 12, 9, 7, 5, 10, 6, 1,
        13, 0, 11, 7, 4, 9, 1, 10, 14, 3, 5, 12, 2, 15, 8, 6,
        1, 4, 11, 13, 12, 3, 7, 14, 10, 15, 6, 8, 0, 5, 9, 2,
        6, 11, 13, 8, 1, 4, 10, 7, 9, 5, 0, 15, 14, 2, 3, 12,
    ),
    (
        13, 2, 8, 4, 6, 15, 11, 1, 10, 9, 3, 14, 5, 0, 12, 7,
        1, 15, 13, 8, 10, 3, 7, 4, 12, 5, 6, 11, 0, 14, 9, 2,
        7, 11, 4, 1, 9, 12, 14, 2, 0, 6, 10, 13, 15, 3, 5, 8,
        2, 1, 14, 7, 4, 10, 8, 13, 15, 12, 9, 0, 3, 5, 6, 11,
    ),
)

_PC1 = (
    57, 49, 41, 33, 25, 17, 9,
    1, 58, 50, 42, 34, 26, 18,
    10, 2, 59, 51, 43, 35, 27,
    19, 11, 3, 60, 52, 44, 36,
    63, 55, 47, 39, 31, 23, 15,
    7, 62, 54, 46, 38, 30, 22,
    14, 6, 61, 53, 45, 37, 29,
    21, 13, 5, 28, 20, 12, 4,
)

_PC2 = (
    14, 17, 11, 24, 1, 5,
    3, 28, 15, 6, 21, 10,
    23, 19, 12, 4, 26, 8,
    16, 7, 27, 20, 13, 2,
    41, 52, 31, 37, 47, 55,
    30, 40, 51, 45, 33, 48,
    44, 49, 39, 56, 34, 53,
    46, 42, 50, 36, 29, 32,
)

_SHIFTS = (1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1)

# The four weak keys (self-inverse key schedules) and six semi-weak pairs
# from FIPS 74.  The KDC's random key generation rejects these.

WEAK_KEYS = frozenset(
    bytes.fromhex(h)
    for h in (
        "0101010101010101",
        "fefefefefefefefe",
        "1f1f1f1f0e0e0e0e",
        "e0e0e0e0f1f1f1f1",
    )
)

SEMIWEAK_KEYS = frozenset(
    bytes.fromhex(h)
    for h in (
        "01fe01fe01fe01fe", "fe01fe01fe01fe01",
        "1fe01fe00ef10ef1", "e01fe01ff10ef10e",
        "01e001e001f101f1", "e001e001f101f101",
        "1ffe1ffe0efe0efe", "fe1ffe1ffe0efe0e",
        "011f011f010e010e", "1f011f010e010e01",
        "e0fee0fef1fef1fe", "fee0fee0fef1fef1",
    )
)


# --- precompiled fast-path tables ------------------------------------------


def _build_sp_tables() -> Tuple[Tuple[int, ...], ...]:
    """Fuse each S-box with the P permutation.

    ``SP[i][v]`` is the 32-bit contribution of S-box *i* applied to 6-bit
    input *v*, already run through P.  The round function then reduces to
    eight table lookups and XORs.
    """
    tables: List[Tuple[int, ...]] = []
    for box_index, box in enumerate(_SBOXES):
        entries = []
        for v in range(64):
            row = ((v >> 5) << 1) | (v & 1)
            col = (v >> 1) & 0xF
            s_out = box[row * 16 + col]
            # Place the 4-bit output in its slot of the 32-bit pre-P word.
            pre_p = s_out << (4 * (7 - box_index))
            entries.append(permute(pre_p, 32, _P))
        tables.append(tuple(entries))
    return tuple(tables)


_SP = _build_sp_tables()


def _images(table: Sequence[int], width_in: int) -> List[int]:
    """Single-bit images of a FIPS selection table.

    ``images[j]`` is the output of *table* (one 1-based source index per
    output bit, most significant first) when only input bit ``j + 1`` of
    a *width_in*-bit word is set.  Dropped input bits (PC-1's parity
    bits) have image 0.
    """
    width = len(table)
    images = [0] * width_in
    for out_pos, src in enumerate(table):
        images[src - 1] |= 1 << (width - 1 - out_pos)
    return images


def _byte_tables(images: Sequence[int]) -> Tuple[Tuple[int, ...], ...]:
    """Compile a bitwise-linear map into byte-indexed lookup tables.

    ``T[i][v]`` is the output when input byte *i* (most significant
    first) holds *v*, so the whole map is the OR of one hit per input
    byte.  Each entry is built by lowest-set-bit doubling from an entry
    already filled: ``T[v] = T[v & (v - 1)] | image(lowest bit of v)``.
    Entries that differ only in dropped input bits (PC-1's parity bits,
    the eight bits PC-2 discards) share one int, which keeps the tables
    small in memory.
    """
    tables: List[Tuple[int, ...]] = []
    for first in range(0, len(images), 8):
        # by_bit[b] is the image of the byte's value bit b (1 << b).
        by_bit = images[first:first + 8][::-1]
        dropped = sum(1 << b for b, image in enumerate(by_bit) if not image)
        entries = [0] * 256
        for v in range(1, 256):
            if v & dropped:
                # Share the int of the entry without the dropped bits.
                entries[v] = entries[v & ~dropped]
            else:
                entries[v] = entries[v & (v - 1)] | by_bit[(v & -v).bit_length() - 1]
        tables.append(tuple(entries))
    return tuple(tables)


def _half_shift(pos: int, amount: int) -> int:
    """Where 1-based bit *pos* of a 64-bit word lands when each 32-bit
    half is rotated *amount* places towards its least significant end."""
    half, bit = divmod(pos - 1, 32)
    return 32 * half + (bit + amount) % 32 + 1


def _rotr3(word: int) -> int:
    return ((word >> 3) | (word << 29)) & 0xFFFFFFFF


_M32 = 0xFFFFFFFF
_M34 = (1 << 34) - 1


def _doubled(half: int) -> int:
    """A rotated 32-bit half in the round layout: bits 0-1 again at 32-33."""
    return half | ((half & 3) << 32)


def _split_doubled(word: int) -> int:
    """A rotated-halves word ``L·R`` as ``doubled(L) << 34 | doubled(R)``."""
    return (_doubled(word >> 32) << 34) | _doubled(word & _M32)


#: IP and FP with the round layout folded in: IP's two output halves come
#: out rotated right by 3 and doubled, as one 68-bit word; FP takes the
#: rotated halves ``R·L`` (bits 32-33 masked off) and rotates them back.
_IP_TAB = _byte_tables([
    _split_doubled(image) for image in _images(
        tuple(_IP[_half_shift(k, -3) - 1] for k in range(1, 65)), 64)
])
_FP_TAB = _byte_tables(_images(tuple(_half_shift(s, 3) for s in _FP), 64))


def _pair_table(high: int, low: int) -> Tuple[int, ...]:
    """S-boxes *high* and *low* (0-based) behind one ``& 0x3F3F`` index:
    slot ``(x << 8) | y`` holds their SP outputs for inputs x, y, in the
    round layout.  The 12,096 slots no index reaches hold the shared
    int ``0``."""
    table = [0] * 0x3F40
    lows = [_doubled(_rotr3(out)) for out in _SP[low]]
    for x, out_x in enumerate(_SP[high]):
        base, out_x = x << 8, _doubled(_rotr3(out_x))
        for y, out_y in enumerate(lows):
            table[base | y] = out_x ^ out_y
    return tuple(table)


#: Boxes 1·3 and 5·7 read ``w`` at ``>> 16`` and ``>> 0``; boxes 8·2 and
#: 4·6 read ``x`` at ``>> 20`` and ``>> 4``.
_SP_PAIRS = (_pair_table(0, 2), _pair_table(4, 6),
             _pair_table(7, 1), _pair_table(3, 5))

#: Lowest bit of each S-box's E window in the round layout.  Boxes
#: 1/3/5/7 sit in ``w``, boxes 2/4/6/8 in ``x``; box 8's window is bits
#: 28-33, the doubled bits, so no window wraps.
_WINDOWS = (24, 20, 16, 12, 8, 4, 0, 28)

#: The key schedule as byte tables: PC-1 (64 -> 56 bits), PC-2 (56 -> 48).
_PC1_TAB = _byte_tables(_images(_PC1, 64))
_PC2_TAB = _byte_tables(_images(_PC2, 56))

#: The per-round left rotations of C and D, applied to the 56-bit word
#: ``C·D`` at once: ``CD = ((CD << shift) & keep) | ((CD >> back) & wrap)``.
_KS_STEPS = tuple(
    (
        shift,
        ((1 << 56) - 1) & ~(((1 << shift) - 1) << 28),
        28 - shift,
        (((1 << shift) - 1) << 28) | ((1 << shift) - 1),
    )
    for shift in _SHIFTS
)


def _cook_images() -> List[int]:
    """Subkey bit -> its place in the cooked word ``(k1 << 34) | k2``.

    Box *i*'s six key bits sit under its E window (:data:`_WINDOWS`):
    boxes 1/3/5/7 in ``k1``, boxes 2/4/6/8 in ``k2``.
    """
    images = []
    for n in range(48):
        box, bit = divmod(n, 6)
        word = 34 if box % 2 == 0 else 0
        images.append(1 << (word + _WINDOWS[box] + 5 - bit))
    return images


_COOK_TAB = _byte_tables(_cook_images())

#: ``bytes.translate`` table: each byte with its low bit set so that the
#: byte has an odd number of set bits (Python 3.9 has no
#: ``int.bit_count``).  Serves every parity helper.
_ODD_PARITY = bytes(
    high | ((bin(high).count("1") & 1) ^ 1)
    for high in (value & 0xFE for value in range(256))
)


def derive_subkeys(key: bytes) -> Tuple[int, ...]:
    """Run the FIPS 46 key schedule, returning 16 48-bit round keys.

    Parity bits (the least significant bit of each key byte) are ignored,
    exactly as in the standard.
    """
    if len(key) != KEY_SIZE:
        raise DesError(f"DES key must be {KEY_SIZE} bytes, got {len(key)}")
    pc1 = _PC1_TAB
    cd = (
        pc1[0][key[0]] | pc1[1][key[1]] | pc1[2][key[2]] | pc1[3][key[3]]
        | pc1[4][key[4]] | pc1[5][key[5]] | pc1[6][key[6]] | pc1[7][key[7]]
    )
    pc2 = _PC2_TAB
    subkeys = []
    for shift, keep, back, wrap in _KS_STEPS:
        cd = ((cd << shift) & keep) | ((cd >> back) & wrap)
        subkeys.append(
            pc2[0][cd >> 48] | pc2[1][(cd >> 40) & 0xFF]
            | pc2[2][(cd >> 32) & 0xFF] | pc2[3][(cd >> 24) & 0xFF]
            | pc2[4][(cd >> 16) & 0xFF] | pc2[5][(cd >> 8) & 0xFF]
            | pc2[6][cd & 0xFF]
        )
    return tuple(subkeys)


#: Cooked round keys, two rounds per entry: ``(k1, k2, k1', k2')``.
_Rounds = Tuple[Tuple[int, int, int, int], ...]


def _pair_rounds(cooked: Sequence[int]) -> _Rounds:
    """Split cooked words ``(k1 << 34) | k2`` into two-round entries."""
    return tuple(
        (a >> 34, a & _M34, b >> 34, b & _M34)
        for a, b in zip(cooked[0::2], cooked[1::2])
    )


class _OpCounter:
    """Global count of DES block operations — the currency in which the
    paper's cost discussions are denominated (benchmark E18)."""

    def __init__(self) -> None:
        self.count = 0

    def reset(self) -> int:
        previous, self.count = self.count, 0
        return previous


BLOCK_OPS = _OpCounter()


# --- the message kernel ----------------------------------------------------

#: Messages of at least this many blocks take IP and FP lane-wise over
#: the whole message; shorter ones look them up per block.  Measured
#: with ``tools/des_crossover.py`` on a 2-vCPU Xeon under CPython 3.11:
#: the whole-message path costs ~2.7 µs more per call (int and struct
#: conversions, the lane masks) and ~0.8 µs less per block, so it ties
#: at 3 blocks and wins from 4 on (``docs/performance.md``).  End to end,
#: sending every message down the whole-message path (a threshold of 1)
#: raised the crack workload's latency_p50 in 5 of 5 perfbench pairs
#: (median +2.6%), so the per-block path stays for short messages.
WHOLE_MESSAGE_MIN_BLOCKS = 4


def _bit_order(perm: Sequence[int]) -> bytes:
    """The ``bytes.translate`` table that permutes the bits of each byte:
    output bit *c* (0 = most significant) is input bit ``perm[c]``."""
    return bytes(_byte_tables(_images([src + 1 for src in perm], 8))[0])


# Read a block as an 8x8 bit matrix, one byte per row, most significant
# bit first.  IP builds output row r from input column
# ``(_IP[8r] - 1) % 8`` (1, 3, 5, 7, 0, 2, 4, 6), reading the bytes last
# to first.  So IP is a per-byte bit permutation that moves that column
# to column 7 - r, followed by an anti-transpose (the transpose across
# the anti-diagonal, which sends column 7 - r to row r and byte b to
# column 7 - b).  FP undoes the two in reverse order.
_IP_COLUMNS = [(_IP[8 * (7 - c)] - 1) % 8 for c in range(8)]
_IP_BYTES = _bit_order(_IP_COLUMNS)
_FP_BYTES = _bit_order([_IP_COLUMNS.index(c) for c in range(8)])


#: Bound on message lengths whose lane masks are memoised.  Building the
#: seven masks costs 1.3 µs per call at 4 blocks and 6.7 µs at 132
#: (against 0.1 µs for a cache hit); without the cache the whole-message
#: path first wins at 8 blocks, not 4.  A full matrix run sends 16
#: distinct lengths of 4 blocks or more through the kernel (at most 24
#: blocks), and each benchmark workload at most 6 (at most 132 blocks,
#: exchange's 1 KiB messages), so 32 entries hold every working set.
#: An entry pins 56 bytes per block.
_LANE_MASK_CACHE_SIZE = 32


@lru_cache(maxsize=_LANE_MASK_CACHE_SIZE)
def _lane_masks(blocks: int) -> Tuple[int, ...]:
    """The 64-bit lane masks of the whole-message IP/FP, each repeated
    once per block: the anti-transpose's three delta swaps (by 9, 18 and
    36 bits), then the masks that rotate each 32-bit half right by 3 and
    left by 3."""
    lanes = int.from_bytes(b"\0\0\0\0\0\0\0\1" * blocks, "big")
    return tuple(mask * lanes for mask in (
        0x0055005500550055, 0x0000333300003333, 0x000000000F0F0F0F,
        0x1FFFFFFF1FFFFFFF, 0xE0000000E0000000,
        0xFFFFFFF8FFFFFFF8, 0x0000000700000007,
    ))


def _crypt_message(data: bytes, rounds: _Rounds, iv: Optional[int] = None,
                   propagate: bool = False) -> bytes:
    """DES over every block of *data*: the one entry point of the block
    function.

    With an *iv* (a 64-bit int) each block is XORed before encryption
    with the previous ciphertext block (CBC), or with the previous
    plaintext and ciphertext blocks if *propagate* (PCBC).  That
    chaining runs in the IP domain, where it is the same XOR because IP
    is a bit permutation.  Decryption is the unchained call; the modes
    chain its output.  ``len(data)`` must be a multiple of 8; it picks
    the IP/FP strategy (:data:`WHOLE_MESSAGE_MIN_BLOCKS`), never the
    result.
    """
    blocks = len(data) >> 3
    BLOCK_OPS.count += blocks
    chain_l = chain_r = 0
    if iv:
        ip = _IP_TAB
        start = (
            ip[0][iv >> 56] | ip[1][(iv >> 48) & 0xFF]
            | ip[2][(iv >> 40) & 0xFF] | ip[3][(iv >> 32) & 0xFF]
            | ip[4][(iv >> 24) & 0xFF] | ip[5][(iv >> 16) & 0xFF]
            | ip[6][(iv >> 8) & 0xFF] | ip[7][iv & 0xFF]
        )
        chain_l = start >> 34
        chain_r = start & _M34
    if blocks < WHOLE_MESSAGE_MIN_BLOCKS:
        return _crypt_tables(data, blocks, rounds, iv is not None, propagate,
                             chain_l, chain_r)
    return _crypt_lanes(data, rounds, iv is not None, propagate,
                        chain_l, chain_r)


def _crypt_tables(data: bytes, blocks: int, rounds: _Rounds, chained: bool,
                  propagate: bool, chain_l: int, chain_r: int) -> bytes:
    """:func:`_crypt_message` for short messages: IP and FP as eight
    byte-table hits per block.

    Two Feistel rounds per iteration, so the halves never swap.  Each
    round XORs the cooked keys into ``w = R ^ k1`` and ``x = R ^ k2`` and
    resolves the eight S-boxes with four ``& 0x3F3F`` pair-table hits.
    """
    ip0, ip1, ip2, ip3, ip4, ip5, ip6, ip7 = _IP_TAB
    fp0, fp1, fp2, fp3, fp4, fp5, fp6, fp7 = _FP_TAB
    sp0, sp1, sp2, sp3 = _SP_PAIRS
    out: List[int] = []
    for value in struct.unpack(f">{blocks}Q", data):
        value = (
            ip0[value >> 56] | ip1[(value >> 48) & 0xFF]
            | ip2[(value >> 40) & 0xFF] | ip3[(value >> 32) & 0xFF]
            | ip4[(value >> 24) & 0xFF] | ip5[(value >> 16) & 0xFF]
            | ip6[(value >> 8) & 0xFF] | ip7[value & 0xFF]
        )
        in_l = value >> 34
        in_r = value & 0x3FFFFFFFF
        left = in_l ^ chain_l
        right = in_r ^ chain_r
        for k1, k2, k3, k4 in rounds:
            w = right ^ k1
            x = right ^ k2
            left ^= (
                sp0[(w >> 16) & 0x3F3F] ^ sp1[w & 0x3F3F]
                ^ sp2[(x >> 20) & 0x3F3F] ^ sp3[(x >> 4) & 0x3F3F]
            )
            w = left ^ k3
            x = left ^ k4
            right ^= (
                sp0[(w >> 16) & 0x3F3F] ^ sp1[w & 0x3F3F]
                ^ sp2[(x >> 20) & 0x3F3F] ^ sp3[(x >> 4) & 0x3F3F]
            )
        # The output swap is folded into the order of (right, left) here.
        out.append(
            fp0[(right >> 24) & 0xFF] | fp1[(right >> 16) & 0xFF]
            | fp2[(right >> 8) & 0xFF] | fp3[right & 0xFF]
            | fp4[(left >> 24) & 0xFF] | fp5[(left >> 16) & 0xFF]
            | fp6[(left >> 8) & 0xFF] | fp7[left & 0xFF]
        )
        if chained:
            chain_l = right ^ in_l if propagate else right
            chain_r = left ^ in_r if propagate else left
    return struct.pack(f">{blocks}Q", *out)


def _ip_lanes(data: bytes) -> Tuple[int, ...]:
    """IP on every block of *data* at once: the IP-domain halves ``L, R``
    of each block in turn, each rotated right by 3 (not doubled)."""
    blocks = len(data) >> 3
    anti9, anti18, anti36, low29, high3, _high29, _low3 = _lane_masks(blocks)
    words = int.from_bytes(data.translate(_IP_BYTES), "big")
    swap = ((words >> 9) ^ words) & anti9
    words ^= swap ^ (swap << 9)
    swap = ((words >> 18) ^ words) & anti18
    words ^= swap ^ (swap << 18)
    swap = ((words >> 36) ^ words) & anti36
    words ^= swap ^ (swap << 36)
    words = ((words >> 3) & low29) | ((words << 29) & high3)
    return struct.unpack(f">{2 * blocks}I", words.to_bytes(8 * blocks, "big"))


def _fp_lanes(halves: Sequence[int]) -> bytes:
    """FP on every block at once, the inverse of :func:`_ip_lanes`:
    *halves* are each block's rotated 32-bit pre-FP halves in turn."""
    blocks = len(halves) >> 1
    anti9, anti18, anti36, _low29, _high3, high29, low3 = _lane_masks(blocks)
    words = int.from_bytes(struct.pack(f">{2 * blocks}I", *halves), "big")
    words = ((words << 3) & high29) | ((words >> 29) & low3)
    swap = ((words >> 36) ^ words) & anti36
    words ^= swap ^ (swap << 36)
    swap = ((words >> 18) ^ words) & anti18
    words ^= swap ^ (swap << 18)
    swap = ((words >> 9) ^ words) & anti9
    words ^= swap ^ (swap << 9)
    return words.to_bytes(8 * blocks, "big").translate(_FP_BYTES)


def _crypt_lanes(data: bytes, rounds: _Rounds, chained: bool,
                 propagate: bool, chain_l: int, chain_r: int) -> bytes:
    """:func:`_crypt_message` for long messages: IP and FP run lane-wise
    over the whole message (:func:`_ip_lanes`, :func:`_fp_lanes`), and
    the rounds loop reads and writes IP-domain halves.  Same rounds as
    :func:`_crypt_tables`."""
    halves = iter(_ip_lanes(data))
    sp0, sp1, sp2, sp3 = _SP_PAIRS
    out: List[int] = []
    for in_l, in_r in zip(halves, halves):
        in_l |= (in_l & 3) << 32
        in_r |= (in_r & 3) << 32
        left = in_l ^ chain_l
        right = in_r ^ chain_r
        for k1, k2, k3, k4 in rounds:
            w = right ^ k1
            x = right ^ k2
            left ^= (
                sp0[(w >> 16) & 0x3F3F] ^ sp1[w & 0x3F3F]
                ^ sp2[(x >> 20) & 0x3F3F] ^ sp3[(x >> 4) & 0x3F3F]
            )
            w = left ^ k3
            x = left ^ k4
            right ^= (
                sp0[(w >> 16) & 0x3F3F] ^ sp1[w & 0x3F3F]
                ^ sp2[(x >> 20) & 0x3F3F] ^ sp3[(x >> 4) & 0x3F3F]
            )
        out += (right & 0xFFFFFFFF, left & 0xFFFFFFFF)
        if chained:
            chain_l = right ^ in_l if propagate else right
            chain_r = left ^ in_r if propagate else left
    return _fp_lanes(out)


def _crypt_block(block: bytes, rounds: _Rounds) -> bytes:
    """:func:`_crypt_message` on one 8-byte block."""
    if len(block) != BLOCK_SIZE:
        raise DesError(f"DES block must be {BLOCK_SIZE} bytes, got {len(block)}")
    return _crypt_message(block, rounds)


# --- the key-schedule cache ------------------------------------------------


class KeySchedule:
    """One key's derived schedule, in both directions and both layouts.

    ``subkeys`` is exactly :func:`derive_subkeys`'s output (16 48-bit
    ints, encryption order); the cooked two-round forms are what the
    fast block path consumes.  Instances are immutable in practice and
    shared freely through the module cache.
    """

    __slots__ = ("key", "subkeys", "_enc_rounds", "_dec_rounds")

    def __init__(self, key: bytes) -> None:
        self.key = bytes(key)
        self.subkeys = derive_subkeys(self.key)
        c0, c1, c2, c3, c4, c5 = _COOK_TAB
        cooked = [
            c0[k >> 40] | c1[(k >> 32) & 0xFF] | c2[(k >> 24) & 0xFF]
            | c3[(k >> 16) & 0xFF] | c4[(k >> 8) & 0xFF] | c5[k & 0xFF]
            for k in self.subkeys
        ]
        self._enc_rounds = _pair_rounds(cooked)
        self._dec_rounds = _pair_rounds(cooked[::-1])

    def encrypt_block(self, block: bytes) -> bytes:
        return _crypt_block(block, self._enc_rounds)

    def decrypt_block(self, block: bytes) -> bytes:
        return _crypt_block(block, self._dec_rounds)


#: Bound on distinct keys memoised at once.  A whole matrix run touches a
#: few hundred keys (per-principal long-term keys plus per-scenario
#: session keys); evicting least-recently-used beyond this keeps the
#: cache a property of the working set, not of process lifetime.
SCHEDULE_CACHE_SIZE = 1024

_schedule_cache: "OrderedDict[bytes, KeySchedule]" = OrderedDict()
_cache_hits = 0
_cache_misses = 0


def get_schedule(key: bytes) -> KeySchedule:
    """Return the (cached) :class:`KeySchedule` for *key*.

    Every block-level entry point — :func:`encrypt_block`,
    :func:`decrypt_block`, :class:`DesCipher`, and all of
    :mod:`repro.crypto.modes` — routes through here, so a ticket that is
    encrypted by the KDC, decrypted by the server, and re-checked by the
    client derives its 16 subkeys exactly once.
    """
    global _cache_hits, _cache_misses
    key = bytes(key)
    schedule = _schedule_cache.get(key)
    if schedule is not None:
        _cache_hits += 1
        _schedule_cache.move_to_end(key)
        return schedule
    schedule = KeySchedule(key)  # raises DesError before touching the cache
    _cache_misses += 1
    _schedule_cache[key] = schedule
    if len(_schedule_cache) > SCHEDULE_CACHE_SIZE:
        _schedule_cache.popitem(last=False)
    return schedule


def schedule_cache_info() -> Dict[str, int]:
    """Hits, misses, and current size — for tests and ``repro perf``."""
    return {
        "hits": _cache_hits,
        "misses": _cache_misses,
        "size": len(_schedule_cache),
        "maxsize": SCHEDULE_CACHE_SIZE,
    }


def clear_schedule_cache() -> None:
    """Drop all memoised schedules and zero the hit/miss counters."""
    global _cache_hits, _cache_misses
    _schedule_cache.clear()
    _cache_hits = 0
    _cache_misses = 0


def encrypt_block(key: bytes, block: bytes) -> bytes:
    """Encrypt one 8-byte block under *key* (8 bytes, parity ignored)."""
    return _crypt_block(block, get_schedule(key)._enc_rounds)


def decrypt_block(key: bytes, block: bytes) -> bytes:
    """Decrypt one 8-byte block under *key*."""
    return _crypt_block(block, get_schedule(key)._dec_rounds)


class DesCipher:
    """A DES instance bound to one key's (cached) schedule.

    Kept as the stable object-style API; since the schedule cache it is
    a thin view — constructing one is a dictionary hit, not sixteen
    PC-2 permutations.
    """

    __slots__ = ("key", "_schedule")

    def __init__(self, key: bytes) -> None:
        self._schedule = get_schedule(key)
        self.key = self._schedule.key

    def encrypt_block(self, block: bytes) -> bytes:
        return _crypt_block(block, self._schedule._enc_rounds)

    def decrypt_block(self, block: bytes) -> bytes:
        return _crypt_block(block, self._schedule._dec_rounds)


def set_odd_parity(key: bytes) -> bytes:
    """Return *key* with each byte's low bit fixed to give odd parity."""
    return bytes(key).translate(_ODD_PARITY)


def has_odd_parity(key: bytes) -> bool:
    """True if every byte of *key* has an odd number of set bits."""
    # Every odd-parity byte value is in the table's image: delete them
    # all, and nothing may remain.
    return not bytes(key).translate(None, _ODD_PARITY)


def is_weak_key(key: bytes) -> bool:
    """True for the FIPS 74 weak and semi-weak keys (after parity fix)."""
    normalized = set_odd_parity(key)
    return normalized in WEAK_KEYS or normalized in SEMIWEAK_KEYS


__all__.append("DesCipher")
__all__.append("BLOCK_OPS")

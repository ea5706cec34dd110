"""MD4 message digest (RFC 1186 / RFC 1320), implemented from scratch.

Draft 3 of the Kerberos V5 specification offered three checksum types:
CRC-32, MD4, and MD4 encrypted with DES.  The paper's central point about
them is the distinction between checksums that are *collision-proof* —
where an attacker cannot construct a different message with the same
checksum — and those that are not.  MD4 is the paper's example of a
(then-)collision-proof checksum; CRC-32 is the weak one whose linearity
enables the ENC-TKT-IN-SKEY cut-and-paste attack.

(Historically MD4 was broken years later; within this reproduction's
threat model, as in the paper's, it is treated as collision-proof.)
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, List

__all__ = ["md4", "MD4"]

#: RFC 1320's three rounds: the mixing function of (x, y, z), the
#: additive constant, the order the 16 message words are read in, and
#: the four rotate amounts that cycle through the round's steps.
_ROUNDS = (
    ("{z} ^ ({x} & ({y} ^ {z}))", 0,  # F: x ? y : z
     range(16), (3, 7, 11, 19)),
    ("({x} & {y}) | ({z} & ({x} | {y}))", 0x5A827999,  # G: majority
     (0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15), (3, 5, 9, 13)),
    ("{x} ^ {y} ^ {z}", 0x6ED9EBA1,  # H: parity
     (0, 8, 4, 12, 2, 10, 6, 14, 1, 9, 5, 13, 3, 11, 7, 15), (3, 9, 11, 15)),
)


def _unroll() -> str:
    """Source for ``_compress(state, data, offset)``: the 48 steps of
    :data:`_ROUNDS` written out as straight-line code on locals."""
    lines = [
        "def _compress(state, data, offset):",
        "    " + ", ".join(f"x{k}" for k in range(16))
        + " = _unpack_from(data, offset)",
        "    a, b, c, d = state",
    ]
    for mix, constant, order, shifts in _ROUNDS:
        for step, word in enumerate(order):
            # The registers rotate one place per step: a <- f(b, c, d),
            # then d <- f(a, b, c), c <- f(d, a, b), b <- f(c, d, a).
            turn = -(step % 4)
            t, x, y, z = "abcd"[turn:] + "abcd"[:turn] if turn else "abcd"
            add = f" + {constant:#x}" if constant else ""
            shift = shifts[step % 4]
            lines.append(f"    {t} = ({t} + ({mix.format(x=x, y=y, z=z)})"
                         f" + x{word}{add}) & 0xFFFFFFFF")
            lines.append(f"    {t} = ({t} << {shift} | {t} >> {32 - shift})"
                         f" & 0xFFFFFFFF")
    lines.append("    return [(s + r) & 0xFFFFFFFF"
                 " for s, r in zip(state, (a, b, c, d))]")
    return "\n".join(lines)


_namespace: Dict[str, Any] = {"_unpack_from": struct.Struct("<16I").unpack_from}
exec(compile(_unroll(), "<md4 rounds>", "exec"), _namespace)
_compress: Callable[[List[int], bytes, int], List[int]] = _namespace["_compress"]


class MD4:
    """Incremental MD4, mirroring :mod:`hashlib`'s interface."""

    digest_size = 16
    block_size = 64

    def __init__(self, data: bytes = b"") -> None:
        self._state: List[int] = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476]
        self._buffer = b""
        self._length = 0
        if data:
            self.update(data)

    def update(self, data: bytes) -> None:
        self._length += len(data)
        buffer = self._buffer + data
        whole = len(buffer) - len(buffer) % 64
        state = self._state
        for offset in range(0, whole, 64):
            state = _compress(state, buffer, offset)
        self._state = state
        self._buffer = buffer[whole:]

    def digest(self) -> bytes:
        # Pad a copy of the tail, so digest() is non-destructive.
        tail = (self._buffer + b"\x80" + bytes((55 - self._length) % 64)
                + struct.pack("<Q", self._length * 8))
        state = self._state
        for offset in range(0, len(tail), 64):
            state = _compress(state, tail, offset)
        return struct.pack("<4I", *state)

    def hexdigest(self) -> str:
        return self.digest().hex()


def md4(data: bytes) -> bytes:
    """One-shot MD4 digest of *data* (16 bytes)."""
    return MD4(data).digest()

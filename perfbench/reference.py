"""A fixed reference job that measures how fast the host runs right now.

The benchmark's host is a small VM shared with other tenants, and its
speed moves by up to 1.5x within seconds: the same code, in the same
process, runs at one speed for a few seconds and at another for the next
few.  A run's wall times therefore mix the program's cost with the host's
momentary speed.  :func:`reference` is a fixed piece of interpreter work
that never touches ``src/``.  The measuring loop times it between timed
units; each unit's wall time, scaled by :data:`REFERENCE_S` over the
reference time measured next to it, is the unit's wall time *at reference
speed*.  A change to the program moves that figure exactly as much as it
moves the unit's own time; a change in the host's speed, which slows the
reference as much as the unit, largely cancels.

The job mixes two kinds of work, because contention from other tenants
slows them differently: interpreter work (integer arithmetic, dict and
heap operations, JSON round trips) and memory work (scattered reads from a
4 MiB buffer and short-lived objects).  It runs with the cyclic collector
paused, so the program's heap size cannot change its cost.
"""

from __future__ import annotations

import gc
import heapq
import json
import random
import time

#: What :func:`reference` takes, in seconds, at the speed the figures are
#: scaled to.  On a 2-vCPU Intel Xeon VM at 2.1 GHz under CPython 3.11 it
#: takes about 2.6 ms when the host is quiet and 6-7 ms when it is busy.
#: A fixed scale: changing it rescales every figure.
REFERENCE_S = 0.0050

_BUFFER = bytes(random.Random(1).randbytes(1 << 22))
_SPOTS = [random.Random(2).randrange(1 << 22) for _ in range(12_000)]
_DOCUMENT = {f"k{i}": [i, str(i) * 3, {"x": i / 7}] for i in range(60)}


class _Pair:
    __slots__ = ("number", "text")

    def __init__(self, number: int, text: str) -> None:
        self.number = number
        self.text = text


def _job() -> int:
    state, table, heap, scratch = 0, {}, [], bytearray(256)
    for i in range(2_500):
        state = (state * 1103515245 + i) & 0x7FFFFFFF
        table[state & 1023] = i
        heapq.heappush(heap, (state & 4095, i))
        scratch[i & 255] ^= state & 255
        if len(heap) > 64:
            heapq.heappop(heap)
    for _ in range(2):
        json.loads(json.dumps(_DOCUMENT))
    buffer, total = _BUFFER, 0
    for spot in _SPOTS:
        total += buffer[spot]
    pairs = {p.text: p for p in (_Pair(i, str(i)) for i in range(1_500))}
    return state + total + len(pairs) + len(table) + scratch[0]


def reference() -> float:
    """Run the reference job once; its wall time in seconds."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        begin = time.perf_counter()
        _job()
        return time.perf_counter() - begin
    finally:
        if collecting:
            gc.enable()


def at_reference_speed(wall: float, ref_s: float) -> float:
    """*wall*, measured while :func:`reference` took *ref_s*, scaled to
    the speed at which it takes :data:`REFERENCE_S`."""
    return wall * REFERENCE_S / ref_s

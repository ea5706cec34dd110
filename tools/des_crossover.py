"""Measure where the DES kernel's whole-message IP/FP starts to pay.

``repro.crypto.des._crypt_message`` runs IP and FP one of two ways,
chosen by message length alone: per block through byte tables
(``_crypt_tables``) or lane-wise over the whole message
(``_crypt_lanes``).  Both run the same rounds loop, so the crossover is
where the two strategies' *other* costs meet.  This script times both
with an empty round-key tuple (IP, chaining and FP only) for 1-12 block
CBC-shaped calls, alternating the two so machine drift hits both alike,
and prints the best time of each.  ``WHOLE_MESSAGE_MIN_BLOCKS`` should
be the first block count where the whole-message path is faster.

Usage::

    PYTHONPATH=src python tools/des_crossover.py
"""

from __future__ import annotations

import time

from repro.crypto import des

CALLS = 200
TRIALS = 60


def best_us(call, trials: int) -> float:
    best = float("inf")
    for _ in range(trials):
        start = time.perf_counter()
        for _ in range(CALLS):
            call()
        best = min(best, time.perf_counter() - start)
    return best / CALLS * 1e6


def main() -> None:
    print(f"WHOLE_MESSAGE_MIN_BLOCKS = {des.WHOLE_MESSAGE_MIN_BLOCKS}")
    print("blocks  tables_us  lanes_us  lanes-tables")
    for blocks in range(1, 13):
        data = bytes(range(8 * blocks))
        tables = lanes = float("inf")
        for _ in range(TRIALS // 10):
            tables = min(tables, best_us(lambda: des._crypt_tables(
                data, blocks, (), True, False, 3, 5), 10))
            lanes = min(lanes, best_us(lambda: des._crypt_lanes(
                data, (), True, False, 3, 5), 10))
        print(f"{blocks:6d}  {tables:9.2f}  {lanes:8.2f}  {lanes - tables:+12.2f}")


if __name__ == "__main__":
    main()

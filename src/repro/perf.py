"""Micro-benchmarks for the hot paths: ``python -m repro perf``.

The ROADMAP's north star is a reproduction that runs "as fast as the
hardware allows"; this module is the measuring stick.  It times the
four layers every experiment ultimately spends its cycles in —

* raw DES block operations, fast path vs the retained per-bit
  :mod:`repro.crypto.des_reference` (the speedup the table-driven
  rewrite buys), plus the bitsliced lanes of
  :mod:`repro.crypto.des_bitslice` at batch width (the speedup
  *batching* buys on top);
* block-mode throughput (ECB/CBC/PCBC over a working buffer, the cost
  of sealing tickets and KRB_PRIV payloads, and over 2-block messages,
  the checksum shape — the two sides of the DES kernel's IP/FP
  crossover);
* a full protocol exchange (login + service ticket + AP exchange +
  private messages — E18's canonical workload);
* the attack×protocol evaluation matrix —

and writes the numbers to ``BENCH_crypto.json`` so the benchmark
trajectory of the repository is populated run over run.  Unlike
everything else in the package the timings are, of course, not
deterministic; the *shape* of the report is.

The service-layer companion — latency percentiles and throughput for
the sharded KDC under an open-loop workload, written to
``BENCH_kdc.json`` — lives in :mod:`repro.load`
(``python -m repro load``).
"""

from __future__ import annotations

import json
import platform
import time
from typing import Any, Dict, Optional, Sequence

from repro.analysis.overhead import measure
from repro.crypto import des, des_reference, modes
from repro.crypto.des import BLOCK_OPS
from repro.kerberos.config import ProtocolConfig
from repro.suite import SCENARIOS, run_attack_matrix

__all__ = [
    "bench_block_throughput",
    "bench_bitslice_throughput",
    "bench_mode_throughput",
    "bench_message_throughput",
    "bench_exchange",
    "bench_matrix",
    "run_perf",
    "render_report",
]

_BENCH_KEY = bytes.fromhex("133457799BBCDFF1")
_BENCH_BLOCK = bytes.fromhex("0123456789ABCDEF")

#: The short-message shape ``bench_mode_throughput`` times: a 2-block
#: message, the md4-des checksum shape, below the DES kernel's
#: whole-message crossover.
_SHORT_MESSAGE_BLOCKS = 2

#: The message ``bench_message_throughput`` times: a 1 KiB PCBC payload,
#: the exchange workload's KRB_PRIV shape.
_MESSAGE_BYTES = 1024


def bench_block_throughput(iterations: int = 50_000,
                           ref_iterations: int = 5_000) -> Dict[str, Any]:
    """Raw single-block throughput, fast path vs the reference path.

    Both sides run with a pre-derived schedule, so the ratio isolates
    the block function itself (IP/rounds/FP), not schedule caching.
    """
    schedule = des.get_schedule(_BENCH_KEY)
    block = _BENCH_BLOCK
    encrypt = schedule.encrypt_block
    start = time.perf_counter()
    for _ in range(iterations):
        encrypt(block)
    fast_elapsed = time.perf_counter() - start

    subkeys = schedule.subkeys
    ref_crypt = des_reference.crypt_block
    start = time.perf_counter()
    for _ in range(ref_iterations):
        ref_crypt(block, subkeys)
    ref_elapsed = time.perf_counter() - start

    fast_bps = iterations / fast_elapsed if fast_elapsed else float("inf")
    ref_bps = ref_iterations / ref_elapsed if ref_elapsed else float("inf")
    return {
        "fast_blocks_per_s": round(fast_bps),
        "reference_blocks_per_s": round(ref_bps),
        "speedup": round(fast_bps / ref_bps, 2),
        "fast_iterations": iterations,
        "reference_iterations": ref_iterations,
    }


def bench_bitslice_throughput(lanes: int = 1024,
                              repeats: int = 4) -> Dict[str, Any]:
    """Bitsliced batch throughput vs the table path at the same shape.

    The comparison is the *fresh-key* shape the crack workload runs:
    every lane has its own key, so the table path pays a full schedule
    derivation per block while the bitsliced key schedule is free
    selection from the sliced key bits.  (Transpose-in/out is included
    in the bitsliced timing — it is part of the real cost.)
    """
    from repro.crypto import des_bitslice

    rng_bytes = (_BENCH_KEY + _BENCH_BLOCK) * ((lanes + 1) // 2)
    keys = [bytes(rng_bytes[i * 8:i * 8 + 8]) for i in range(lanes)]
    blocks = [bytes(rng_bytes[(i + 3) * 8:(i + 3) * 8 + 8])
              if i + 3 < lanes else _BENCH_BLOCK for i in range(lanes)]

    start = time.perf_counter()
    for _ in range(repeats):
        sliced = des_bitslice.BitslicedKeys(keys)
        des_bitslice.encrypt_blocks(sliced, blocks)
    sliced_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(repeats):
        for key, block in zip(keys, blocks):
            des.KeySchedule(key).encrypt_block(block)
    table_elapsed = time.perf_counter() - start

    total = repeats * lanes
    sliced_bps = total / sliced_elapsed if sliced_elapsed else float("inf")
    table_bps = total / table_elapsed if table_elapsed else float("inf")
    return {
        "lanes": lanes,
        "repeats": repeats,
        "bitslice_blocks_per_s": round(sliced_bps),
        "table_fresh_key_blocks_per_s": round(table_bps),
        "speedup": round(sliced_bps / table_bps, 2) if table_bps else 0.0,
    }


def bench_mode_throughput(payload_bytes: int = 65_536,
                          repeats: int = 3,
                          short_repeats: int = 2_000) -> Dict[str, Any]:
    """Mode throughput: bulk MB/s over a zero-padded working buffer, and
    messages/s for :data:`_SHORT_MESSAGE_BLOCKS`-block messages.

    The two shapes take different IP/FP strategies in the DES kernel
    (whole-message vs per-block tables, split at
    :data:`repro.crypto.des.WHOLE_MESSAGE_MIN_BLOCKS`); a 2-block CBC
    message is the md4-des checksum shape.
    """
    payload = modes.pad_zero(bytes(range(256)) * (payload_bytes // 256 or 1))
    short = bytes(range(8 * _SHORT_MESSAGE_BLOCKS))
    report: Dict[str, Any] = {"payload_bytes": len(payload),
                              "short_message_bytes": len(short)}
    for name, encrypt, decrypt in (
        ("ecb", modes.ecb_encrypt, modes.ecb_decrypt),
        ("cbc", modes.cbc_encrypt, modes.cbc_decrypt),
        ("pcbc", modes.pcbc_encrypt, modes.pcbc_decrypt),
    ):
        start = time.perf_counter()
        for _ in range(repeats):
            blob = encrypt(_BENCH_KEY, payload)
            decrypt(_BENCH_KEY, blob)
        elapsed = time.perf_counter() - start
        # Each repeat moves the payload through the cipher twice.
        mb = 2 * repeats * len(payload) / (1024 * 1024)
        report[f"{name}_mb_per_s"] = round(mb / elapsed, 3) if elapsed else 0.0

        start = time.perf_counter()
        for _ in range(short_repeats):
            decrypt(_BENCH_KEY, encrypt(_BENCH_KEY, short))
        elapsed = time.perf_counter() - start
        # One message is one encryption or one decryption.
        report[f"{name}_short_msgs_per_s"] = (
            round(2 * short_repeats / elapsed) if elapsed else 0
        )
    return report


def _reference_pcbc_encrypt(subkeys: Sequence[int], plaintext: bytes) -> bytes:
    """PCBC with a zero IV composed block by block from the per-bit
    reference cipher."""
    out = bytearray()
    chain = 0
    for offset in range(0, len(plaintext), 8):
        block = int.from_bytes(plaintext[offset:offset + 8], "big")
        cipher = des_reference.crypt_block((block ^ chain).to_bytes(8, "big"),
                                           subkeys)
        out += cipher
        chain = block ^ int.from_bytes(cipher, "big")
    return bytes(out)


def bench_message_throughput(iterations: int = 40,
                             ref_iterations: int = 2) -> Dict[str, Any]:
    """PCBC encryption of whole :data:`_MESSAGE_BYTES` messages per
    second, the mode call vs the reference cipher composed block by
    block.

    This is the exchange workload's KRB_PRIV shape.  Both sides use a
    pre-derived schedule, so the ratio covers the message kernel (IP/FP
    strategy, chaining, rounds), not schedule caching.
    """
    payload = bytes(range(256)) * (_MESSAGE_BYTES // 256)
    schedule = des.get_schedule(_BENCH_KEY)
    start = time.perf_counter()
    for _ in range(iterations):
        modes.pcbc_encrypt(_BENCH_KEY, payload)
    fast_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(ref_iterations):
        _reference_pcbc_encrypt(schedule.subkeys, payload)
    ref_elapsed = time.perf_counter() - start

    fast = iterations / fast_elapsed if fast_elapsed else float("inf")
    ref = ref_iterations / ref_elapsed if ref_elapsed else float("inf")
    return {
        "payload_bytes": len(payload),
        "fast_msgs_per_s": round(fast, 1),
        "reference_msgs_per_s": round(ref, 2),
        "speedup": round(fast / ref, 2),
    }


def bench_exchange(runs: int = 5) -> Dict[str, Any]:
    """Time E18's canonical workload (login + ticket + AP + 3 messages)."""
    config = ProtocolConfig.v4()
    measure(config, seed=0)  # warm-up: import costs, first-touch caches
    ops_before = BLOCK_OPS.count
    start = time.perf_counter()
    for i in range(runs):
        row = measure(config, seed=i)
    elapsed = time.perf_counter() - start
    BLOCK_OPS.count = ops_before  # measure() resets the meter; keep ours
    return {
        "runs": runs,
        "exchanges_per_s": round(runs / elapsed, 2) if elapsed else 0.0,
        "des_ops_per_exchange": row.des_block_ops,
        "wire_messages_per_exchange": row.wire_messages,
    }


def bench_matrix(scenario_count: Optional[int] = None) -> Dict[str, Any]:
    """Time one run of the evaluation matrix and count its DES ops."""
    scenarios: Sequence = SCENARIOS
    if scenario_count is not None:
        scenarios = SCENARIOS[:scenario_count]
    BLOCK_OPS.reset()
    start = time.perf_counter()
    matrix = run_attack_matrix(scenarios=scenarios)
    elapsed = time.perf_counter() - start
    return {
        "cells": len(matrix.cells),
        "serial_seconds": round(elapsed, 3),
        "des_block_ops": BLOCK_OPS.reset(),
    }


def run_perf(quick: bool = False,
             out_path: Optional[str] = "BENCH_crypto.json",
             block_iterations: Optional[int] = None,
             ref_iterations: Optional[int] = None,
             payload_bytes: Optional[int] = None,
             exchange_runs: Optional[int] = None,
             matrix_scenarios: Optional[int] = None) -> Dict[str, Any]:
    """Run every micro-benchmark; optionally write ``BENCH_crypto.json``.

    ``quick`` shrinks every workload to CI-smoke size (a few seconds
    total); the explicit ``*_iterations`` overrides shrink further for
    tests.  Returns the report dict that was (or would have been)
    written.
    """
    if quick:
        defaults = dict(block=8_000, ref=800, payload=8_192, runs=2,
                        scenarios=4, lanes=256, lane_repeats=2, short=400)
    else:
        defaults = dict(block=50_000, ref=5_000, payload=65_536, runs=5,
                        scenarios=None, lanes=1024, lane_repeats=4,
                        short=2_000)
    report: Dict[str, Any] = {
        "schema": "repro-bench-crypto/3",
        "quick": quick,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "block": bench_block_throughput(
            block_iterations if block_iterations is not None
            else defaults["block"],
            ref_iterations if ref_iterations is not None
            else defaults["ref"],
        ),
        "bitslice": bench_bitslice_throughput(
            lanes=defaults["lanes"], repeats=defaults["lane_repeats"],
        ),
        "modes": bench_mode_throughput(
            payload_bytes if payload_bytes is not None
            else defaults["payload"],
            short_repeats=defaults["short"],
        ),
        "exchange": bench_exchange(
            exchange_runs if exchange_runs is not None
            else defaults["runs"],
        ),
        "matrix": bench_matrix(
            scenario_count=matrix_scenarios if matrix_scenarios is not None
            else defaults["scenarios"],
        ),
        "schedule_cache": des.schedule_cache_info(),
    }
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        report["written_to"] = out_path
    return report


def render_report(report: Dict[str, Any]) -> str:
    """The human-readable form ``python -m repro perf`` prints."""
    block = report["block"]
    mode = report["modes"]
    exchange = report["exchange"]
    matrix = report["matrix"]
    lines = [
        "crypto fast-path micro-benchmarks"
        + (" (--quick)" if report["quick"] else ""),
        "=" * 33,
        "",
        f"raw DES blocks   fast path  {block['fast_blocks_per_s']:>12,} blocks/s",
        f"                 reference  {block['reference_blocks_per_s']:>12,} blocks/s",
        f"                 speedup    {block['speedup']:>12,.2f}x",
        "",
        f"bitsliced lanes  {report['bitslice']['lanes']} fresh keys"
        f"   {report['bitslice']['bitslice_blocks_per_s']:>12,} blocks/s"
        f"   (table {report['bitslice']['table_fresh_key_blocks_per_s']:,}"
        f" blocks/s, {report['bitslice']['speedup']:,.2f}x)",
        "",
        f"mode throughput  ECB  {mode['ecb_mb_per_s']:>8.3f} MB/s"
        f"   CBC  {mode['cbc_mb_per_s']:>8.3f} MB/s"
        f"   PCBC  {mode['pcbc_mb_per_s']:>8.3f} MB/s",
        f"{str(mode['short_message_bytes']) + '-byte msgs':<17}"
        f"ECB {mode['ecb_short_msgs_per_s']:>9,}/s"
        f"   CBC {mode['cbc_short_msgs_per_s']:>9,}/s"
        f"   PCBC {mode['pcbc_short_msgs_per_s']:>9,}/s",
        "",
        f"full exchange    {exchange['exchanges_per_s']:>8.2f} workloads/s"
        f"   ({exchange['des_ops_per_exchange']} DES ops,"
        f" {exchange['wire_messages_per_exchange']} wire msgs each)",
        "",
        f"attack matrix    serial  {matrix['serial_seconds']:>7.3f}s"
        f"   ({matrix['cells']} cells, {matrix['des_block_ops']} DES ops)",
    ]
    if "written_to" in report:
        lines += ["", f"wrote {report['written_to']}"]
    return "\n".join(lines)

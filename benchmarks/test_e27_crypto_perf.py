"""E27 — crypto fast-path throughput and the matrix timing.

Not a paper claim: the paper's cost discussion (E18) is denominated in
DES block *counts*, which the fast path leaves bit-identical.  E27
instead guards the reproduction's own engineering floor: the table-driven
block path, and PCBC over whole 1 KiB messages (the exchange workload's
KRB_PRIV shape, which takes the whole-message IP/FP path), must each
stay at least 5× the retained per-bit reference.  A silent fallback to a
slow path fails the floor.  It also records how long one serial run of
the full evaluation matrix takes.
"""

from repro.perf import (
    bench_block_throughput, bench_matrix, bench_message_throughput,
)
from repro.analysis import render_table


def run_perf_trio():
    block = bench_block_throughput(iterations=20_000, ref_iterations=2_000)
    message = bench_message_throughput(iterations=40, ref_iterations=3)
    matrix = bench_matrix()
    return block, message, matrix


def test_e27_crypto_perf(benchmark, experiment_output):
    block, message, matrix = benchmark.pedantic(
        run_perf_trio, iterations=1, rounds=1)
    table = [
        ("fast path (blocks/s)", f"{block['fast_blocks_per_s']:,}"),
        ("reference (blocks/s)", f"{block['reference_blocks_per_s']:,}"),
        ("speedup", f"{block['speedup']:.2f}x"),
        ("1 KiB PCBC fast (msgs/s)", f"{message['fast_msgs_per_s']:,.1f}"),
        ("1 KiB PCBC reference (msgs/s)",
         f"{message['reference_msgs_per_s']:,.2f}"),
        ("1 KiB PCBC speedup", f"{message['speedup']:.2f}x"),
        ("matrix serial (s)", f"{matrix['serial_seconds']:.3f}"),
        ("matrix DES block ops", str(matrix['des_block_ops'])),
    ]
    experiment_output("e27_crypto_perf", render_table(
        "E27: crypto fast path vs per-bit reference; matrix timing",
        ["measure", "value"], table,
    ))

    assert block["speedup"] >= 5.0, block
    assert message["speedup"] >= 5.0, message

"""The ``repro.perf`` micro-benchmark module and its CLI front-end.

Timings are inherently machine-dependent, so these tests pin the report
*shape* and the JSON file contract — with workloads shrunk to test size.  The real speedup floor
(≥5× over the reference path) is asserted by the E27 benchmark, not
here, where iteration counts are too small to time reliably.
"""

import json

from repro.__main__ import main
from repro.perf import (
    bench_block_throughput, bench_matrix, render_report, run_perf,
)


def _tiny_report(tmp_path, out_name="bench.json"):
    out = tmp_path / out_name
    report = run_perf(
        quick=True, out_path=str(out),
        block_iterations=300, ref_iterations=30,
        payload_bytes=1024, exchange_runs=1, matrix_scenarios=2,
    )
    return report, out


def test_report_shape_and_file(tmp_path):
    report, out = _tiny_report(tmp_path)
    assert report["schema"] == "repro-bench-crypto/2"
    assert report["written_to"] == str(out)
    block = report["block"]
    assert block["fast_blocks_per_s"] > 0
    assert block["reference_blocks_per_s"] > 0
    assert block["speedup"] > 1.0  # the table-driven path must win
    for mode in ("ecb", "cbc", "pcbc"):
        assert report["modes"][f"{mode}_mb_per_s"] > 0
    assert report["exchange"]["des_ops_per_exchange"] > 0
    assert report["exchange"]["wire_messages_per_exchange"] == 12

    on_disk = json.loads(out.read_text())
    assert on_disk["schema"] == "repro-bench-crypto/2"
    assert "written_to" not in on_disk  # added after the dump


def test_matrix_section_shape(tmp_path):
    report, _ = _tiny_report(tmp_path)
    matrix = report["matrix"]
    assert matrix["cells"] == 2 * 3  # 2 scenarios x default columns
    assert matrix["serial_seconds"] >= 0
    assert matrix["des_block_ops"] > 0


def test_render_report_is_printable(tmp_path):
    report, _ = _tiny_report(tmp_path)
    text = render_report(report)
    assert "raw DES blocks" in text
    assert "speedup" in text
    assert "attack matrix" in text
    assert "bench.json" in text


def test_bench_block_throughput_standalone():
    result = bench_block_throughput(iterations=200, ref_iterations=20)
    assert result["fast_iterations"] == 200
    assert result["speedup"] > 0


def test_bench_matrix_subset():
    result = bench_matrix(scenario_count=1)
    assert result["cells"] == 3
    assert result["des_block_ops"] > 0


def test_cli_perf_quick_writes_report(tmp_path, capsys, monkeypatch):
    out = tmp_path / "BENCH_crypto.json"
    assert main(["perf", "--quick", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "crypto fast-path micro-benchmarks (--quick)" in printed
    report = json.loads(out.read_text())
    assert report["quick"] is True
    assert report["block"]["speedup"] > 1.0

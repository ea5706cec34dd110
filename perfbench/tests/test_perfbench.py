"""The benchmark's own tests: tiny smoke runs and planted faults.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run
from perfbench.layers import unit_of
from perfbench.workloads import Crack, Exchange, GateFailure, KdcLoad, Scale

ROOT = Path(__file__).resolve().parents[2]


def tiny(name: str, seed: int = 3):
    """Each workload at smoke size."""
    return {
        "exchange": lambda: Exchange(seed, payload_bytes=64),
        "kdc_load": lambda: KdcLoad(seed, requests=12),
        "scale": lambda: Scale(seed, principals=10_000, requests=300),
        "crack": lambda: Crack(seed, targets=3, words=64, lanes=64),
    }[name]()


@pytest.mark.parametrize("name", ["exchange", "kdc_load", "scale", "crack"])
def test_smoke_end_to_end(name):
    workload = tiny(name)
    metrics, units, extra = run.end_to_end(workload, seconds=0.01)
    assert [u.failed for u in units] == [0] * len(units)
    expected = {m["name"] for m in _benchmark()["end_to_end"]}
    assert set(metrics) == expected
    assert all(value > 0 for value, _unit in metrics.values())
    assert extra["latency_tail"]["samples"] == len(units)
    assert all(u.ref_s > 0 for u in units)


@pytest.mark.parametrize("name", ["exchange", "kdc_load", "scale", "crack"])
def test_smoke_traced(name):
    metrics, units, extra = run.per_layer(tiny(name), seconds=0.01)
    assert set(metrics) == {m["name"] for m in _benchmark()["per_layer"]}
    assert metrics["tracing_overhead"][0] > 0
    assert 0 <= extra["remainder_share"] < 1


def test_traced_exchange_accounts_for_the_unit():
    metrics, units, extra = run.per_layer(tiny("exchange"), seconds=0.01)
    covered = sum(extra["phase_share"].values()) + extra["remainder_share"]
    assert covered == pytest.approx(1.0, abs=1e-9)
    # The DES block function is counted per call, exactly.
    assert metrics["crypto.des.block_ops"][0] == units[0].extra["des_ops"]


def test_planted_wrong_echo_fails_the_gate(monkeypatch, capsys):
    from repro.kerberos.appserver import EchoServer

    monkeypatch.setattr(EchoServer, "serve",
                        lambda self, session, data: b"echo:" + data[:-1])
    workload = tiny("exchange")
    workload.setup()
    with pytest.raises(GateFailure):
        workload.check([workload.run_unit(0)])
    assert run.main(["--workload", "exchange", "--seconds", "0.01"]) == 1
    assert "{" not in capsys.readouterr().out


def test_planted_crack_disagreement_fails_the_gate(monkeypatch):
    import repro.crack

    real = repro.crack._table_attack

    def drop_one(*args):
        cracked, attempts = real(*args)
        cracked.pop(sorted(cracked)[0])
        return cracked, attempts

    monkeypatch.setattr(repro.crack, "_table_attack", drop_one)
    workload = tiny("crack")
    workload.setup()
    with pytest.raises(GateFailure, match="different sets"):
        workload.check([workload.run_unit(0)])


def test_reference_speed_scales_by_the_reference_time():
    from perfbench.reference import REFERENCE_S, at_reference_speed, reference

    # A host running at half the reference speed doubles both times.
    assert at_reference_speed(0.2, 2 * REFERENCE_S) == pytest.approx(0.1)
    assert at_reference_speed(0.2, REFERENCE_S) == pytest.approx(0.2)
    assert reference() > 0


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, "p90")
    assert run.tail([1.0, 5.0, 2.0]) == (5.0, "max")


def test_per_layer_units_match_the_names():
    for metric in _benchmark()["per_layer"]:
        assert metric["unit"] == unit_of(metric["name"])


def test_exits_nonzero_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exchange",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())

"""Golden digests of the load harness's virtual-time reports.

The determinism witness compares two runs of the *same* code, so it
cannot see a refactor that changes every run the same way — say, a
scheduler that reorders equal-time events consistently.  These digests
were recorded before the scheduler's heap began carrying processes and
channels directly, and pin the canonical report of one small run in each
mode: the wall-clock fields and the interpreter version are stripped,
and nothing else in the report depends on the Python version (seeded
``random.Random`` draws, integer virtual time, ``round``-ed floats
serialized by ``json``).
"""

import hashlib

from repro.lint.simconsistency import canonical_report_bytes
from repro.load import run_load


def _digest(report):
    deterministic = {k: v for k, v in report.items() if k != "python"}
    return hashlib.sha256(canonical_report_bytes(deterministic)).hexdigest()


def test_scale_model_report_digest_is_pinned():
    report = run_load(principals=100_000, requests=200, quick=True, seed=3,
                      replay_cache_capacity=61, out_path=None)
    assert report["scheduler"] == {
        "events_processed": 2849,
        "heap_high_water": 414,
        "timers_cancelled": 400,
        "processes_spawned": 206,
        "pending": 0,
    }
    assert report["workload"]["principals"]["materialized"] == 125
    assert _digest(report) == (
        "86e73113413ff5433e928ecaa2897f7a001031705a456466256e25cf85bf2677"
    )


def test_engine_mode_report_digest_is_pinned():
    report = run_load(requests=20, quick=True, seed=2, out_path=None)
    assert report["scheduler"] == {
        "events_processed": 58,
        "heap_high_water": 22,
        "timers_cancelled": 0,
        "processes_spawned": 20,
        "pending": 0,
    }
    assert _digest(report) == (
        "2ae58425bf3c6eb810b24334d3179efd743a524b10a3d26beb63b6e9a78c8467"
    )

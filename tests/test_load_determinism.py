"""Same seed, same bytes: the load harness double-run witness.

The acceptance bar for the whole determinism family is dynamic: run
``load --principals 20000 --quick`` twice in-process with the same seed
and the serialized reports (on their deterministic surface — wall-time
throughput lines are informational by contract) must be byte-identical.
These tests cover :mod:`repro.lint.simconsistency` and the
canonicalisation rules the comparison depends on; the witness run
itself comes from the suite-wide ``sim_witness_run`` fixture.
"""

from repro.lint.simconsistency import DeterminismReport, canonical_report_bytes


def test_canonical_bytes_strip_the_nondeterministic_surface():
    report = {
        "ops": 7,
        "wall_seconds": 1.23,
        "ops_per_wall_s": 5.7,
        "written_to": "/tmp/x.json",
        "_model": object(),
        "nested": {"latency_us": [1, 2], "wall_seconds": 9.9, "_raw": []},
    }
    assert canonical_report_bytes(report) == \
        b'{"nested":{"latency_us":[1,2]},"ops":7}'


def test_canonical_bytes_are_order_independent():
    assert canonical_report_bytes({"a": 1, "b": 2}) == \
        canonical_report_bytes({"b": 2, "a": 1})


def test_check_determinism_agrees_on_clean_tree(sim_witness_run):
    """Two same-seed 20k-principal quick runs serialize identically
    byte for byte, and the clean static scan agrees."""
    _code, _lines, report = sim_witness_run
    assert (report.principals, report.seed) == (20000, 0)
    assert report.static_findings == 0
    assert report.identical, report.first_divergence
    assert report.agrees
    assert "byte-identical" in report.render()
    assert "agree" in report.render()


def test_disagreement_is_reported_not_hidden():
    report = DeterminismReport(
        principals=1, seed=0, static_findings=3, identical=True,
        first_divergence="",
    )
    assert not report.agrees
    assert "DISAGREE" in report.render()


def test_divergence_pointer_names_the_first_differing_byte():
    report = DeterminismReport(
        principals=1, seed=0, static_findings=0, identical=False,
        first_divergence="equal lengths (10 bytes, first difference "
                         "at byte 4)",
    )
    assert not report.agrees
    assert "byte 4" in report.render()

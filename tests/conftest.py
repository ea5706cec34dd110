"""Shared fixtures for the tier-1 suite."""

import pytest


@pytest.fixture(scope="session")
def sim_witness_run():
    """One ``lint --family sim --consistency`` run over the live tree.

    The run's determinism witness double-runs the 20k-principal
    scale-mode load harness, the slowest single step in the suite, so
    the tests that need it share this one run.  Yields ``(exit code,
    printed lines, the DeterminismReport check_determinism returned)``.
    """
    from repro.lint import simconsistency
    from repro.lint.cli import run_lint

    reports = []
    original = simconsistency.check_determinism

    def spy(*args, **kwargs):
        reports.append(original(*args, **kwargs))
        return reports[-1]

    lines = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simconsistency, "check_determinism", spy)
        code = run_lint(family="sim", consistency=True, echo=lines.append)
    assert len(reports) == 1, lines
    return code, lines, reports[0]

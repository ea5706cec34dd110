"""The packaged evaluation matrix (repro.suite)."""

import pytest

from repro.kerberos.config import ProtocolConfig
from repro.suite import (
    DEFAULT_COLUMNS, SCENARIOS, MatrixResult, run_attack_matrix,
)


@pytest.fixture(scope="module")
def matrix() -> MatrixResult:
    return run_attack_matrix()


def test_every_cell_populated(matrix):
    assert len(matrix.cells) == len(SCENARIOS) * len(DEFAULT_COLUMNS)


def test_hardened_column_is_clean(matrix):
    assert matrix.hardened_clean()


def test_draft3_loses_to_its_signature_attacks(matrix):
    for scenario in ("authenticator minting", "ENC-TKT-IN-SKEY cut-and-paste",
                     "REUSE-SKEY redirect", "rogue transit realm"):
        assert matrix.outcome(scenario, "v5-draft3"), scenario


def test_v4_loses_to_the_classics(matrix):
    for scenario in ("authenticator replay", "TGT harvest + crack",
                     "eavesdrop + crack", "trojaned login",
                     "KRB_PRIV splicing"):
        assert matrix.outcome(scenario, "v4"), scenario


def test_v4_immune_to_draft3_specific_attacks(matrix):
    for scenario in ("authenticator minting", "ENC-TKT-IN-SKEY cut-and-paste",
                     "REUSE-SKEY redirect"):
        assert not matrix.outcome(scenario, "v4"), scenario


def test_render_shape(matrix):
    text = matrix.render()
    assert "hardened" in text
    assert text.count("\n") >= len(SCENARIOS) + 3
    assert "ATTACK WINS" in text and "blocked" in text


def test_scenarios_carry_paper_sections():
    assert all(s.paper_section for s in SCENARIOS)


def test_custom_columns_and_subset():
    subset = [s for s in SCENARIOS if s.name == "authenticator replay"]
    result = run_attack_matrix(
        columns=[("cr", ProtocolConfig.v4().but(challenge_response=True))],
        scenarios=subset,
    )
    assert not result.outcome("authenticator replay", "cr")


def test_matrix_is_deterministic():
    a = run_attack_matrix(scenarios=SCENARIOS[:2])
    b = run_attack_matrix(scenarios=SCENARIOS[:2])
    assert {k: v.succeeded for k, v in a.cells.items()} == \
        {k: v.succeeded for k, v in b.cells.items()}


def test_every_cell_is_metered(matrix):
    assert all(cell.block_ops is not None and cell.block_ops > 0
               for cell in matrix.cells.values())


def test_serial_cells_independent_of_run_order(matrix):
    """A cell's DES-op count is a property of the cell, not of what ran
    before it in the same process (the guess-memo isolation)."""
    name = "TGT harvest + crack"
    index = [s.name for s in SCENARIOS].index(name)  # its seed slot
    alone = run_attack_matrix(columns=[("v4", ProtocolConfig.v4())],
                              scenarios=[SCENARIOS[index]],
                              seed=1000 + index)
    assert alone.cells[(name, "v4")].block_ops == \
        matrix.cells[(name, "v4")].block_ops


def test_default_columns_unchanged():
    assert [label for label, _ in DEFAULT_COLUMNS] == \
        ["v4", "v5-draft3", "hardened"]

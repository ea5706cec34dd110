"""The consistency harness: lint verdicts vs. attack-matrix cells."""

from repro.kerberos.config import ProtocolConfig
from repro.lint.consistency import (
    CellCheck, ConsistencyReport, check_consistency,
)
from repro.lint.engine import analyze_repro
from repro.lint.rules import RULES_BY_ID, fired_rule_ids
from repro.suite import SCENARIOS, MatrixResult
from repro.attacks.base import AttackResult


def cell(scenario, column, fired, won):
    return CellCheck(scenario=scenario, column=column,
                     mapped_rules=fired or ("X",), fired_rules=fired,
                     attack_won=won)


def test_cell_agreement_semantics():
    assert cell("s", "v4", ("R",), True).agrees       # fires, wins
    assert cell("s", "hard", (), False).agrees        # silent, blocked
    assert not cell("s", "v4", ("R",), False).agrees  # false positive
    assert not cell("s", "v4", (), True).agrees       # false negative


def test_report_accounting():
    report = ConsistencyReport(checks=[
        cell("a", "v4", ("R",), True),
        cell("b", "v4", (), True),
    ])
    assert report.total == 2
    assert [c.scenario for c in report.disagreements()] == ["b"]
    assert report.agreement() == 0.5
    rendered = report.render()
    assert "DISAGREE" in rendered
    assert "consistency: 1/2 cells agree (50%)" in rendered


def test_empty_report_is_total_agreement():
    assert ConsistencyReport(checks=[]).agreement() == 1.0


def fabricated_matrix(columns, model):
    """A MatrixResult whose outcomes equal the static predictions."""
    cells = {}
    for scenario in SCENARIOS:
        if not scenario.rule_ids:
            continue
        for label, config in columns:
            predicted = any(RULES_BY_ID[rid].fires(model, config)
                            for rid in scenario.rule_ids)
            cells[(scenario.name, label)] = AttackResult(
                scenario.name, predicted, "fabricated")
    return MatrixResult(columns=[label for label, _ in columns],
                        cells=cells)


def test_check_consistency_against_fabricated_matrix():
    model = analyze_repro()
    columns = [("v4", ProtocolConfig.v4()),
               ("hardened", ProtocolConfig.hardened())]
    matrix = fabricated_matrix(columns, model)
    report = check_consistency(matrix=matrix, columns=columns, model=model)
    assert report.total == len(matrix.cells)
    assert report.disagreements() == []
    assert report.agreement() == 1.0


def test_check_consistency_flags_divergence():
    model = analyze_repro()
    columns = [("hardened", ProtocolConfig.hardened())]
    matrix = fabricated_matrix(columns, model)
    # claim one attack won where every mapped rule stays silent
    name = next(s.name for s in SCENARIOS if s.rule_ids)
    matrix.cells[(name, "hardened")] = AttackResult(name, True, "flipped")
    report = check_consistency(matrix=matrix, columns=columns, model=model)
    assert [c.scenario for c in report.disagreements()] == [name]


def test_every_mapped_rule_exists():
    for scenario in SCENARIOS:
        for rule_id in scenario.rule_ids:
            assert rule_id in RULES_BY_ID, (scenario.name, rule_id)


def test_cli_sim_consistency_runs_the_determinism_witness(
        sim_witness_run):
    """`lint --family sim --consistency` over the live tree: the clean
    static scan and the byte-identical double run must agree."""
    code, lines, _report = sim_witness_run
    text = "\n".join(lines)
    assert code == 0, text
    assert "determinism harness" in text
    assert "byte-identical" in text
    assert "verdict: agree" in text


def test_static_predictions_over_the_real_tree():
    """The headline numbers the paper reproduction promises: the v4
    column trips at least five distinct rules, v5-draft3 adds its
    option-abuse findings, and hardened is silent."""
    model = analyze_repro()
    v4 = set(fired_rule_ids(model, ProtocolConfig.v4()))
    d3 = set(fired_rule_ids(model, ProtocolConfig.v5_draft3()))
    hardened = fired_rule_ids(model, ProtocolConfig.hardened())
    assert len(v4) >= 5
    assert {"NO-REPLAY-CACHE", "PCBC-SPLICE", "XREALM-FORGE"} <= v4
    assert {"WEAK-MAC", "SKEY-REUSE", "CPA-PREFIX"} <= d3
    assert hardened == []

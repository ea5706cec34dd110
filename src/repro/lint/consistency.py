"""The consistency harness: static verdicts vs. the live attack matrix.

Each :class:`repro.suite.Scenario` names the rule IDs that claim to
predict it (``Scenario.rule_ids``).  For every (scenario, column) cell
the harness compares:

* **predicted** — does any mapped rule fire for that column's config
  over the real source tree?
* **observed** — did the executable attack in ``run_attack_matrix``
  actually succeed in that cell?

Agreement must be total in both directions: a rule that fires while
the attack is blocked is a false positive; an attack that wins while
every mapped rule stays silent is a false negative.  This is what
keeps the analyzer empirically pinned to the paper's reproduction
instead of drifting into a heuristic grep — CI runs it via
``python -m repro lint --consistency``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.kerberos.config import ProtocolConfig
from repro.lint.engine import CodeModel, analyze_repro
from repro.lint.rules import RULES_BY_ID

__all__ = ["CellCheck", "ConsistencyReport", "check_consistency"]


@dataclass(frozen=True)
class CellCheck:
    """One (scenario, column) comparison."""

    scenario: str
    column: str
    mapped_rules: Tuple[str, ...]
    fired_rules: Tuple[str, ...]
    attack_won: bool

    @property
    def predicted(self) -> bool:
        return bool(self.fired_rules)

    @property
    def agrees(self) -> bool:
        return self.predicted == self.attack_won


@dataclass
class ConsistencyReport:
    """Every cell comparison, plus the headline agreement number."""

    checks: List[CellCheck]

    @property
    def total(self) -> int:
        return len(self.checks)

    def disagreements(self) -> List[CellCheck]:
        return [check for check in self.checks if not check.agrees]

    def agreement(self) -> float:
        if not self.checks:
            return 1.0
        agreed = sum(1 for check in self.checks if check.agrees)
        return agreed / len(self.checks)

    def render(self) -> str:
        lines: List[str] = []
        width = max((len(c.scenario) for c in self.checks), default=8)
        for check in self.checks:
            verdict = "agree" if check.agrees else "DISAGREE"
            fired = ",".join(check.fired_rules) or "-"
            lines.append(
                f"{check.scenario.ljust(width)}  {check.column:<10} "
                f"lint={'fires' if check.predicted else 'silent':<6} "
                f"attack={'wins' if check.attack_won else 'blocked':<8} "
                f"{verdict}  [{fired}]"
            )
        agreed = self.total - len(self.disagreements())
        lines.append("")
        lines.append(
            f"consistency: {agreed}/{self.total} cells agree "
            f"({self.agreement():.0%})"
        )
        return "\n".join(lines)


def check_consistency(
    matrix: Optional[object] = None,
    columns: Optional[Sequence[Tuple[str, ProtocolConfig]]] = None,
    model: Optional[CodeModel] = None,
    seed: int = 1000,
) -> ConsistencyReport:
    """Compare lint verdicts with attack-matrix outcomes, cell by cell.

    Runs the full matrix when *matrix* is not supplied (deterministic).
    Scenarios with no mapped rules are
    skipped — the mapping, not the harness, decides coverage.
    """
    from repro.suite import DEFAULT_COLUMNS, SCENARIOS, MatrixResult
    from repro.suite import run_attack_matrix

    if columns is None:
        columns = DEFAULT_COLUMNS
    if model is None:
        model = analyze_repro()
    if matrix is None:
        matrix = run_attack_matrix(columns=columns, seed=seed)
    assert isinstance(matrix, MatrixResult)

    checks: List[CellCheck] = []
    for scenario in SCENARIOS:
        if not scenario.rule_ids:
            continue
        for label, config in columns:
            if (scenario.name, label) not in matrix.cells:
                continue
            fired = tuple(
                rule_id for rule_id in scenario.rule_ids
                if RULES_BY_ID[rule_id].fires(model, config)
            )
            checks.append(CellCheck(
                scenario=scenario.name,
                column=label,
                mapped_rules=tuple(scenario.rule_ids),
                fired_rules=fired,
                attack_won=matrix.outcome(scenario.name, label),
            ))
    return ConsistencyReport(checks=checks)

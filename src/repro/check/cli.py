"""Implementation of ``python -m repro check``.

Thin orchestration: resolve the protocol column(s), run the bounded
search for every property x column cell, render in the requested
format, optionally run the tri-consistency harness, and exit non-zero
when the model check itself fails — a violation in the hardened column
(a defense the symbolic intruder walked around), a cell where the round
bound was hit before fixpoint (the "safe" verdict would be unearned),
or a tri-consistency disagreement.

Violations in the vulnerable columns are the *expected* reproduction of
the paper's matrix, so they do not fail the command; what must hold is
that they appear exactly where the live attacks win.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, List, Optional, Tuple

from repro.check.report import (
    CheckCell, evaluate_matrix, render_json, render_sarif, render_text,
)
from repro.lint.cli import FORMATS, resolve_columns

__all__ = ["run_check", "FORMATS"]

Printer = Callable[[str], None]


def _render(fmt: str, cells: List[CheckCell]) -> str:
    if fmt == "json":
        return render_json(cells)
    if fmt == "sarif":
        return render_sarif(cells)
    return render_text(cells)


def _problem_cells(cells: List[CheckCell]) -> List[Tuple[str, str]]:
    """Cells that fail the command: hardened violations and bound hits."""
    bad: List[Tuple[str, str]] = []
    for cell in cells:
        if cell.violated and cell.column == "hardened":
            bad.append((cell.prop.property_id, cell.column))
        elif not cell.violated and not cell.result.exhausted:
            bad.append((cell.prop.property_id, cell.column))
    return bad


def run_check(
    fmt: str = "text",
    column: str = "all",
    out: Optional[str] = None,
    consistency: bool = False,
    max_rounds: int = 64,
    seed: int = 1000,
    echo: Printer = print,
) -> int:
    """The check command.  Returns a process exit code (0/1/2)."""
    if fmt not in FORMATS:
        echo(f"unknown format {fmt!r}; choose one of {', '.join(FORMATS)}")
        return 2
    columns = resolve_columns(column)
    if columns is None:
        echo(f"unknown column {column!r}; choose v4, v5-draft3, "
             "hardened, or all")
        return 2

    cells = evaluate_matrix(columns=columns, max_rounds=max_rounds)
    report = _render(fmt, cells)
    if out is not None:
        violations = sum(1 for cell in cells if cell.violated)
        Path(out).write_text(report + "\n", encoding="utf-8")
        echo(f"wrote {fmt} report to {out} "
             f"({len(cells)} cells, {violations} violated)")
    else:
        echo(report)

    exit_code = 0
    problems = _problem_cells(cells)
    if problems:
        for property_id, label in problems:
            echo(f"model check failed: {property_id} x {label}")
        exit_code = 1

    if consistency:
        from repro.check.consistency import check_tri_consistency

        echo("")
        echo("tri-consistency harness: checker vs. lint vs. the live "
             "attack matrix (deterministic)...")
        report_obj = check_tri_consistency(
            columns=columns, cells=cells, seed=seed,
        )
        echo(report_obj.render())
        if report_obj.disagreements():
            exit_code = 1

    return exit_code

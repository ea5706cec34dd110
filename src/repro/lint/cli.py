"""Implementation of ``python -m repro lint``.

Thin orchestration over the package: scan the tree, evaluate the
selected rule famil(ies) — ``protocol`` (the paper's misuse catalogue,
per protocol column), ``sim`` (the determinism / scheduler-safety
family over the simulation stack), ``crypto`` (the key-material flow
family), or ``all`` — apply the baseline,
render in the requested format, optionally run the matching
consistency harness, and exit non-zero when non-baselined findings
reach the ``--fail-on`` threshold.

Every finding is also published as a
:class:`repro.obs.events.LintFinding` event, so a
:func:`repro.obs.capture` block around :func:`run_lint` observes the
run exactly like it observes a protocol exchange.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.kerberos.config import ProtocolConfig
from repro.lint.baseline import (
    BaselineError, find_stale, load_baseline_entries, split_by_baseline,
    write_baseline,
)
from repro.lint.engine import DEFAULT_EXCLUDES, analyze_scans
from repro.lint.findings import Finding, Severity
from repro.lint.reporters import render_json, render_sarif, render_text
from repro.lint.rules import (
    RULES_BY_ID, UNREAD_FLAG_RULE_ID, run_all_rules,
)
from repro.lint.cryptorules import (
    CRYPTO_COLUMN, CRYPTO_RULES_BY_ID, CRYPTO_SCAN_EXCLUDES,
    crypto_sarif_rules, run_crypto_rules,
)
from repro.lint.simrules import (
    SIM_COLUMN, SIM_RULES_BY_ID, SIM_SCAN_EXCLUDES, run_sim_rules,
    sim_sarif_rules,
)

__all__ = ["run_lint", "resolve_columns", "FORMATS", "FAIL_ON",
           "FAMILIES"]

FORMATS: Tuple[str, ...] = ("text", "json", "sarif")
FAIL_ON: Tuple[str, ...] = ("error", "warn", "never")
FAMILIES: Tuple[str, ...] = ("protocol", "sim", "crypto", "all")

_FAIL_RANK: Dict[str, int] = {
    "error": Severity.ERROR.rank,
    "warn": Severity.WARNING.rank,
}

Printer = Callable[[str], None]


def resolve_columns(column: str,
                    ) -> Optional[List[Tuple[str, ProtocolConfig]]]:
    """Map ``--column`` to (label, config) pairs; None if unknown."""
    from repro.suite import DEFAULT_COLUMNS

    if column == "all":
        return list(DEFAULT_COLUMNS)
    for label, config in DEFAULT_COLUMNS:
        if label == column:
            return [(label, config)]
    return None


def _emit_events(findings: Sequence[Finding]) -> None:
    from repro.obs import EventBus, LintFinding

    bus = EventBus()
    if not bus.active:   # nobody is capturing: skip event construction
        return
    for finding in findings:
        bus.emit(LintFinding(
            rule_id=finding.rule_id,
            severity=finding.severity.value,
            column=finding.column,
            file=finding.file,
            line=finding.line,
            message=finding.message,
        ))


def _render(fmt: str, fresh: Sequence[Finding],
            suppressed: Sequence[Finding],
            labels: Sequence[str],
            sarif_rules: Optional[List[Dict[str, Any]]] = None) -> str:
    if fmt == "json":
        return render_json(fresh, suppressed, labels)
    if fmt == "sarif":
        return render_sarif(fresh, suppressed, labels, rules=sarif_rules)
    return render_text(fresh, suppressed)


def _known_rule_ids() -> frozenset:
    """Every rule ID any family can emit (for stale-baseline checks)."""
    return frozenset(RULES_BY_ID) | {UNREAD_FLAG_RULE_ID} | \
        frozenset(SIM_RULES_BY_ID) | frozenset(CRYPTO_RULES_BY_ID)


def _file_checker(root: Optional[str]) -> Callable[[str], bool]:
    """Does a baseline entry's recorded anchor path still exist?

    Real-tree scans record ``src/repro/<...>`` paths; resolve them
    against the installed package so the check works from any cwd.
    """
    if root is not None:
        base = Path(root)
        return lambda file: (base / file).exists()

    import repro

    package = Path(repro.__file__ or ".").parent
    prefix = "src/repro/"

    def exists(file: str) -> bool:
        if file.startswith(prefix):
            return (package / file[len(prefix):]).exists()
        return Path(file).exists()

    return exists


def run_lint(
    fmt: str = "text",
    column: str = "all",
    baseline: Optional[str] = None,
    fail_on: str = "warn",
    out: Optional[str] = None,
    root: Optional[str] = None,
    consistency: bool = False,
    write_baseline_path: Optional[str] = None,
    family: str = "protocol",
    echo: Printer = print,
) -> int:
    """The lint command.  Returns a process exit code (0/1/2).

    ``family`` selects the rule famil(ies): ``protocol`` (default),
    ``sim`` (determinism / scheduler-safety over the simulation stack),
    ``crypto`` (key-material flow into output surfaces), or ``all`` —
    note the families scan different subtrees, but ``all`` parses each
    file once (see :func:`repro.lint.engine.analyze_scans`).
    """
    if family not in FAMILIES:
        echo(f"unknown family {family!r}; choose protocol, sim, crypto, "
             "or all")
        return 2
    want_protocol = family in ("protocol", "all")
    want_sim = family in ("sim", "all")
    want_crypto = family in ("crypto", "all")

    columns: List[Tuple[str, ProtocolConfig]] = []
    if want_protocol:
        resolved = resolve_columns(column)
        if resolved is None:
            echo(f"unknown column {column!r}; choose v4, v5-draft3, "
                 "hardened, or all")
            return 2
        columns = resolved

    scans = {name: exclude for name, exclude, wanted in (
        ("protocol", DEFAULT_EXCLUDES, want_protocol),
        ("sim", SIM_SCAN_EXCLUDES, want_sim),
        ("crypto", CRYPTO_SCAN_EXCLUDES, want_crypto),
    ) if wanted}
    models = dict(zip(scans, analyze_scans(
        None if root is None else Path(root), list(scans.values()))))
    protocol_model = models.get("protocol")
    sim_model = models.get("sim")
    crypto_model = models.get("crypto")
    for model in models.values():
        if model.errors:
            for error in model.errors:
                echo(f"parse error: {error}")
            return 2

    findings: List[Finding] = []
    labels: List[str] = []
    if protocol_model is not None:
        findings.extend(run_all_rules(protocol_model, columns))
        labels.extend(label for label, _config in columns)
    if sim_model is not None:
        findings.extend(run_sim_rules(sim_model))
        labels.append(SIM_COLUMN)
    if crypto_model is not None:
        findings.extend(run_crypto_rules(crypto_model))
        labels.append(CRYPTO_COLUMN)
    _emit_events(findings)

    if write_baseline_path is not None:
        target = Path(write_baseline_path)
        kept: Dict[str, str] = {}
        if target.exists():
            # Refreshing an existing baseline: keep each surviving
            # entry's hand-written justification; retired entries
            # (rule gone, file gone, finding fixed) simply drop out.
            try:
                kept = {entry.fingerprint: entry.reason
                        for entry in load_baseline_entries(target)
                        if entry.reason}
            except BaselineError as exc:
                echo(str(exc))
                return 2
        count = write_baseline(findings, target, reasons=kept)
        echo(f"wrote {count} suppressions to {write_baseline_path}")
        return 0

    suppressed: List[Finding] = []
    fresh = list(findings)
    if baseline is not None:
        try:
            entries = load_baseline_entries(Path(baseline))
        except BaselineError as exc:
            echo(str(exc))
            return 2
        stale = find_stale(entries, _known_rule_ids(),
                           _file_checker(root))
        if stale:
            for entry, why in stale:
                echo(f"stale baseline entry {entry.fingerprint}: {why}")
            echo(f"{len(stale)} stale entr"
                 f"{'ies' if len(stale) != 1 else 'y'} in {baseline}: "
                 "refresh the baseline (python -m repro lint "
                 f"--write-baseline {baseline})")
            return 2
        accepted = {entry.fingerprint: entry.reason for entry in entries}
        fresh, suppressed = split_by_baseline(findings, accepted)

    sarif_rules: Optional[List[Dict[str, Any]]] = None
    if fmt == "sarif" and family != "protocol":
        sarif_rules = []
        if want_protocol:
            from repro.lint.reporters import default_sarif_rules

            sarif_rules += default_sarif_rules()
        if want_sim:
            sarif_rules += sim_sarif_rules()
        if want_crypto:
            sarif_rules += crypto_sarif_rules()

    report = _render(fmt, fresh, suppressed, labels, sarif_rules)
    if out is not None:
        Path(out).write_text(report + "\n", encoding="utf-8")
        echo(f"wrote {fmt} report to {out} "
             f"({len(fresh)} findings, {len(suppressed)} baselined)")
    else:
        echo(report)

    exit_code = 0
    threshold = _FAIL_RANK.get(fail_on)
    if threshold is not None and any(f.severity.rank >= threshold
                                     for f in fresh):
        exit_code = 1

    if consistency and protocol_model is not None:
        from repro.lint.consistency import check_consistency

        echo("")
        echo("consistency harness: lint verdicts vs. the attack matrix "
             "(deterministic)...")
        report_obj = check_consistency(columns=columns,
                                       model=protocol_model)
        echo(report_obj.render())
        if report_obj.disagreements():
            exit_code = 1

    if consistency and sim_model is not None:
        from repro.lint.simconsistency import check_determinism

        echo("")
        echo("determinism harness: double-running the scale-mode load "
             "harness with one seed (byte-identity witness)...")
        sim_fresh = [f for f in fresh if f.column == SIM_COLUMN]
        determinism = check_determinism(static_findings=len(sim_fresh))
        echo(determinism.render())
        if not determinism.agrees:
            exit_code = 1

    if consistency and crypto_model is not None:
        from repro.lint.cryptoconsistency import check_canary

        echo("")
        echo("canary harness: planting canary key bytes, driving the "
             "tree, scanning every emitted artifact for escapes...")
        crypto_fresh = [f for f in fresh if f.column == CRYPTO_COLUMN]
        canary = check_canary(crypto_fresh)
        echo(canary.render())
        if not canary.agrees:
            exit_code = 1

    return exit_code

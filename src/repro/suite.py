"""The full evaluation, as a library call.

``repro.suite`` packages the paper's whole attack catalogue into
reusable scenario functions and runs them against any set of protocol
configurations — the programmatic form of the attack×protocol matrix
that EXPERIMENTS.md reports and ``examples/attack_gallery.py`` prints.

    from repro.suite import run_attack_matrix, DEFAULT_COLUMNS
    matrix = run_attack_matrix()
    assert matrix.hardened_clean()

Each scenario builds its own deterministic testbed, runs one attack,
and returns an :class:`repro.attacks.base.AttackResult`; scenarios never
share state, so any subset can run in any order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import render_matrix
from repro.attacks import (
    enc_tkt_in_skey_attack, forge_foreign_client, harvest_tickets,
    mail_check_capture, mint_authenticator_via_mail,
    offline_dictionary_attack, one_sided_spoof, replay_ap_request,
    reuse_skey_redirect, spoof_time_and_replay, tamper_private_message,
    ticket_substitution, trojan_capture,
)
from repro.attacks.base import AttackResult
from repro.attacks.password_guess import clear_guess_memo
from repro.crypto.des import BLOCK_OPS
from repro.hardware import HandheldDevice
from repro.kerberos.config import ProtocolConfig
from repro.obs import capture, detectability_digest
from repro.obs.audit import trace_digests
from repro.obs.trace import Tracer
from repro.sim.timesvc import UnauthenticatedTimeService
from repro.testbed import Testbed

__all__ = ["Scenario", "MatrixResult", "SCENARIOS", "DEFAULT_COLUMNS",
           "run_attack_matrix"]

_DICTIONARY = ["123456", "password", "letmein", "qwerty"]


# --------------------------------------------------------------------- #
# scenario implementations
# --------------------------------------------------------------------- #


def _scenario_replay(config: ProtocolConfig, seed: int) -> AttackResult:
    bed = Testbed(config, seed=seed)
    bed.add_user("victim", "pw1")
    mail = bed.add_mail_server("mailhost")
    ws = bed.add_workstation("vws")
    ap, _ = mail_check_capture(bed, "victim", "pw1", mail, ws)
    return replay_ap_request(bed, mail, ap[-1], delay_minutes=1)


def _scenario_time_spoof(config: ProtocolConfig, seed: int) -> AttackResult:
    bed = Testbed(config, seed=seed)
    bed.add_user("victim", "pw1")
    mail = bed.add_mail_server("mailhost")
    ws = bed.add_workstation("vws")
    service = UnauthenticatedTimeService(bed.network, bed.clock, "10.9.9.9")
    ap, _ = mail_check_capture(bed, "victim", "pw1", mail, ws)
    return spoof_time_and_replay(bed, mail, ap[-1], 120, service.endpoint)


def _scenario_one_sided_spoof(config: ProtocolConfig, seed: int) -> AttackResult:
    bed = Testbed(config, seed=seed)
    bed.add_user("victim", "pw1")
    mail = bed.add_mail_server("mailhost")
    ws = bed.add_workstation("vws")
    ap, _ = mail_check_capture(bed, "victim", "pw1", mail, ws)
    return one_sided_spoof(bed, mail, ap[-1])


def _scenario_harvest(config: ProtocolConfig, seed: int) -> AttackResult:
    bed = Testbed(config, seed=seed)
    bed.add_user("alice", "letmein")
    harvested, harvest = harvest_tickets(bed, ["alice"])
    if not harvested:
        return AttackResult("harvest-crack", False, harvest.detail)
    stats = offline_dictionary_attack(config, harvested, _DICTIONARY)
    return AttackResult(
        "harvest-crack", bool(stats.cracked),
        f"cracked {stats.cracked}" if stats.cracked else "nothing cracked",
    )


def _scenario_eavesdrop(config: ProtocolConfig, seed: int) -> AttackResult:
    bed = Testbed(config, seed=seed)
    bed.add_user("alice", "letmein")
    ws = bed.add_workstation("ws1")
    typed = (HandheldDevice.from_password("letmein")
             if config.handheld_login else "letmein")
    bed.login("alice", typed, ws)
    replies = bed.adversary.recorded(service="kerberos", direction="response")
    stats = offline_dictionary_attack(config, replies, _DICTIONARY)
    return AttackResult(
        "eavesdrop-crack", bool(stats.cracked),
        f"cracked {stats.cracked}" if stats.cracked else "nothing cracked",
    )


def _scenario_login_spoof(config: ProtocolConfig, seed: int) -> AttackResult:
    bed = Testbed(config, seed=seed)
    bed.add_user("victim", "pw1")
    ws = bed.add_workstation("vws")
    ah = bed.add_workstation("ah")
    typed = (HandheldDevice.from_password("pw1")
             if config.handheld_login else "pw1")
    return trojan_capture(bed, "victim", typed, ws, ah)


def _scenario_minting(config: ProtocolConfig, seed: int) -> AttackResult:
    bed = Testbed(config, seed=seed)
    bed.add_user("victim", "pw1")
    bed.add_user("mallory", "pw2")
    mail = bed.add_mail_server("mailhost")
    return mint_authenticator_via_mail(
        bed, mail, "victim", "pw1", "mallory", "pw2",
        bed.add_workstation("vws"), bed.add_workstation("aws"),
    )


def _scenario_enc_tkt(config: ProtocolConfig, seed: int) -> AttackResult:
    bed = Testbed(config, seed=seed)
    bed.add_user("victim", "pw1")
    bed.add_user("mallory", "pw2")
    echo = bed.add_echo_server("echohost")
    return enc_tkt_in_skey_attack(
        bed, echo, "victim", "pw1", "mallory", "pw2",
        bed.add_workstation("vws"), bed.add_workstation("aws"),
    )


def _scenario_reuse(config: ProtocolConfig, seed: int) -> AttackResult:
    bed = Testbed(config, seed=seed)
    bed.add_user("victim", "pw1")
    fs = bed.add_file_server("filehost")
    bs = bed.add_backup_server("backuphost")
    return reuse_skey_redirect(
        bed, fs, bs, "victim", "pw1", bed.add_workstation("vws"),
    )


def _scenario_substitution(config: ProtocolConfig, seed: int) -> AttackResult:
    bed = Testbed(config, seed=seed)
    bed.add_user("victim", "pw1")
    echo = bed.add_echo_server("echohost")
    return ticket_substitution(
        bed, echo, "victim", "pw1", bed.add_workstation("vws"),
    )


def _scenario_splice(config: ProtocolConfig, seed: int) -> AttackResult:
    bed = Testbed(config, seed=seed)
    bed.add_user("victim", "pw1")
    fs = bed.add_file_server("filehost")
    return tamper_private_message(
        bed, fs, "victim", "pw1", bed.add_workstation("vws"),
    )


def _scenario_rogue_realm(config: ProtocolConfig, seed: int) -> AttackResult:
    bed = Testbed(config, seed=seed, realm="VICTIM")
    evil = bed.add_realm("EVIL.VICTIM")
    bed.realms["VICTIM"].link(evil)
    bed.add_user("admin", "a strong admin passphrase")
    fs = bed.add_file_server("filehost")
    host = bed.add_workstation("attackerhost")
    return forge_foreign_client(bed, evil, bed.realms["VICTIM"],
                                "admin", fs, host)


# --------------------------------------------------------------------- #
# the matrix
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Scenario:
    """One attack narrative, runnable against any configuration.

    ``rule_ids`` names the :mod:`repro.lint` rules that statically
    predict this scenario: the consistency harness
    (:func:`repro.lint.consistency.check_consistency`) asserts, for
    every column, that *some* mapped rule fires iff the attack wins in
    that cell.  An empty mapping opts the scenario out of the harness.

    ``property_id`` names the :mod:`repro.check` property whose bounded
    Dolev-Yao search re-derives the same cell symbolically; the
    tri-consistency harness (:func:`repro.check.consistency.
    check_tri_consistency`) pins checker == lint == live outcome for
    every mapped cell.  Empty opts the scenario out of that harness.
    """

    name: str
    run: Callable[[ProtocolConfig, int], AttackResult]
    paper_section: str
    rule_ids: Tuple[str, ...] = ()
    property_id: str = ""


SCENARIOS: Tuple[Scenario, ...] = (
    Scenario("authenticator replay", _scenario_replay, "Replay Attacks",
             rule_ids=("NO-REPLAY-CACHE",), property_id="AUTH-REPLAY"),
    Scenario("time-spoofed stale replay", _scenario_time_spoof,
             "Secure Time Services", rule_ids=("TIME-UNAUTH",),
             property_id="AUTH-TIME"),
    Scenario("one-sided address spoof", _scenario_one_sided_spoof,
             "Replay Attacks [Morr85]", rule_ids=("NO-REPLAY-CACHE",),
             property_id="AUTH-ADDR"),
    Scenario("TGT harvest + crack", _scenario_harvest,
             "Password-Guessing Attacks", rule_ids=("NO-PREAUTH",),
             property_id="CONF-HARVEST"),
    Scenario("eavesdrop + crack", _scenario_eavesdrop,
             "Password-Guessing Attacks", rule_ids=("PW-EQUIV",),
             property_id="CONF-EAVESDROP"),
    Scenario("trojaned login", _scenario_login_spoof, "Spoofing Login",
             rule_ids=("TYPED-PW",), property_id="CONF-LOGIN"),
    Scenario("authenticator minting", _scenario_minting,
             "Inter-Session Chosen Plaintext Attacks",
             rule_ids=("CPA-PREFIX",), property_id="AUTH-MINT"),
    Scenario("ENC-TKT-IN-SKEY cut-and-paste", _scenario_enc_tkt,
             "Weak Checksums and Cut-and-Paste Attacks",
             rule_ids=("WEAK-MAC",), property_id="AUTH-SPLICE"),
    Scenario("REUSE-SKEY redirect", _scenario_reuse,
             "Weak Checksums and Cut-and-Paste Attacks",
             rule_ids=("SKEY-REUSE",), property_id="AUTH-REDIRECT"),
    Scenario("ticket substitution", _scenario_substitution,
             "Weak Checksums and Cut-and-Paste Attacks",
             rule_ids=("REPLY-UNBOUND",), property_id="INT-SUBST"),
    Scenario("KRB_PRIV splicing", _scenario_splice, "The Encryption Layer",
             rule_ids=("PRIV-NO-INTEGRITY", "PCBC-SPLICE"),
             property_id="INT-PRIV"),
    Scenario("rogue transit realm", _scenario_rogue_realm,
             "Inter-Realm Authentication", rule_ids=("XREALM-FORGE",),
             property_id="AUTH-XREALM"),
)

DEFAULT_COLUMNS: Tuple[Tuple[str, ProtocolConfig], ...] = (
    ("v4", ProtocolConfig.v4()),
    ("v5-draft3", ProtocolConfig.v5_draft3()),
    ("hardened", ProtocolConfig.hardened()),
)


@dataclass
class MatrixResult:
    """Outcomes of every scenario against every configuration."""

    columns: Sequence[str]
    cells: Dict[Tuple[str, str], AttackResult] = field(default_factory=dict)

    def outcome(self, scenario: str, column: str) -> bool:
        return self.cells[(scenario, column)].succeeded

    def detectability(self, scenario: str, column: str) -> Optional[Dict[str, int]]:
        """The anomaly digest one cell left behind (None if unmeasured)."""
        return self.cells[(scenario, column)].detectability

    def silent_wins(self) -> List[Tuple[str, str]]:
        """(scenario, column) cells where the attack won without tripping
        a single anomaly event — the paper's worst case: the defenders'
        own logs show a perfectly ordinary protocol run."""
        return sorted(
            key for key, result in self.cells.items()
            if result.succeeded and result.silent
        )

    def hardened_clean(self, column: str = "hardened") -> bool:
        """True when no scenario succeeds against *column*."""
        return not any(
            result.succeeded
            for (_scenario, col), result in self.cells.items()
            if col == column
        )

    def _scenario_names(self) -> List[str]:
        seen: List[str] = []
        for scenario, _column in self.cells:
            if scenario not in seen:
                seen.append(scenario)
        return seen

    def render(self) -> str:
        rows = []
        measured = False
        metered = False
        for scenario in self._scenario_names():
            row = [scenario]
            anomaly_counts = []
            op_counts = []
            for column in self.columns:
                result = self.cells[(scenario, column)]
                row.append("ATTACK WINS" if result.succeeded else "blocked")
                digest = result.detectability
                if digest is None:
                    anomaly_counts.append("-")
                else:
                    measured = True
                    count = str(sum(digest.values()))
                    if result.succeeded and not digest:
                        count += "*"
                    anomaly_counts.append(count)
                if result.block_ops is None:
                    op_counts.append("-")
                else:
                    metered = True
                    op_counts.append(str(result.block_ops))
            row.append("/".join(anomaly_counts))
            row.append("/".join(op_counts))
            rows.append(row)
        table = render_matrix(
            "attack x protocol outcome matrix",
            "attack", list(self.columns) + ["detect", "des ops"], rows,
        )
        notes = []
        if measured:
            notes.append(
                "detect: anomaly events per column"
                " (" + "/".join(self.columns) + ");"
                " * = attack won without tripping any anomaly"
            )
        if metered:
            notes.append(
                "des ops: DES block operations per column"
                " (" + "/".join(self.columns) + "), whole cell"
                " (attacker + KDC + servers)"
            )
        if notes:
            table += "\n\n" + "\n".join(notes)
        return table


def _run_cell(scenario: Scenario, config: ProtocolConfig,
              seed: int) -> AttackResult:
    """One scenario×column cell: run under telemetry capture and the
    DES-op meter; protocol-level refusals count as the attack failing."""
    clear_guess_memo()  # cell cost must not depend on earlier cells
    ops_before = BLOCK_OPS.count
    with capture(tracer=Tracer()) as cap:
        try:
            outcome = scenario.run(config, seed)
        except Exception as exc:
            outcome = AttackResult(
                scenario.name, False, f"protocol refused outright: {exc}"
            )
    outcome.detectability = detectability_digest(cap.events)
    # The per-trace refinement: which requests carried the anomalies.
    outcome.anomaly_traces = trace_digests(cap.events)
    outcome.block_ops = BLOCK_OPS.count - ops_before
    return outcome


def run_attack_matrix(
    columns: Optional[Sequence[Tuple[str, ProtocolConfig]]] = None,
    seed: int = 1000,
    scenarios: Optional[Sequence[Scenario]] = None,
) -> MatrixResult:
    """Run every scenario against every configuration column.

    Protocol-level refusals (a configuration that rejects the attack's
    precondition outright) count as the attack failing.

    Every cell runs inside :func:`repro.obs.capture` and the global
    DES-op meter, so each :class:`AttackResult` comes back with a
    ``detectability`` digest (what the defenders' own telemetry recorded
    while the attack ran) and a ``block_ops`` count (what the attack run
    cost the deployment in DES block operations).
    """
    columns = list(columns if columns is not None else DEFAULT_COLUMNS)
    chosen = list(scenarios if scenarios is not None else SCENARIOS)
    result = MatrixResult(columns=[label for label, _ in columns])
    for index, scenario in enumerate(chosen):
        for label, config in columns:
            result.cells[(scenario.name, label)] = _run_cell(
                scenario, config, seed + index
            )
    return result

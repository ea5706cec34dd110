"""Command-line front door: ``python -m repro <command>``.

Commands:

* ``matrix``      — run the full attack x protocol evaluation matrix;
* ``notation``    — print the paper's Table 1 and the V4 message flow;
* ``experiments`` — list the reproduced experiments and their benchmarks;
* ``demo``        — the quickstart flow with a wire trace;
* ``audit``       — re-run one scenario with defender telemetry attached
  and print the event log, metrics, and detectability verdict;
* ``perf``        — micro-benchmark the crypto fast path, the modes, a
  full exchange, and the matrix, writing
  ``BENCH_crypto.json``;
* ``crack``       — benchmark the paper's offline dictionary attack
  against recorded AS replies, table-driven vs bitsliced backends,
  writing ``BENCH_crack.json`` (guesses/s, lane width, speedup);
* ``lint``        — run the static analyzers over ``src/repro``:
  the protocol-misuse family against one or all protocol columns,
  the determinism / scheduler-safety family (``--family sim``) over
  the simulation stack, and/or the key-material flow family
  (``--family crypto``) tracing secrets into logs, error text, and
  wire cleartext, reporting text, JSON, or SARIF 2.1.0
  (``--consistency`` pins the verdicts dynamically — attack-matrix
  agreement, a same-seed double run asserting byte-identical
  reports, or a planted-canary-key artifact scan);
* ``check``       — re-derive the attack matrix symbolically with the
  bounded Dolev-Yao model checker: attack traces in the paper's
  notation for vulnerable cells, exhausted searches with named closing
  defenses for safe ones (``--consistency`` pins checker == lint ==
  live matrix for every mapped cell);
* ``serve``       — inspect the sharded KDC service layer: shard map,
  key placement, and request routing for a cluster of N shards;
* ``load``        — drive the sharded KDC with an open-loop workload
  from K simulated clients (optionally with a mid-run shard outage),
  writing latency percentiles, per-shard queue-wait and utilization,
  and throughput to ``BENCH_kdc.json``;
* ``monitor``     — the same workload traced end-to-end: per-shard
  saturation tables, tick-sampled gauges, the top-N slowest traces
  broken down into queue wait vs crypto vs dispatch vs wire, an
  optional Chrome trace-event export (``--emit-chrome-trace``), and a
  tracing-overhead guard for CI (``--overhead-guard``).

Everything is deterministic; no (real) network, no state left behind
except the files explicitly written: ``audit --jsonl``'s event log,
the benchmark reports of ``perf`` and ``load``, and ``monitor``'s
Chrome trace JSON.
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main"]

_EXPERIMENTS = [
    ("E1", "Table 1 + V4 protocol flow", "test_e01_protocol_flow.py"),
    ("E2", "authenticator replay window", "test_e02_replay_window.py"),
    ("E3", "replay defenses (cache vs C/R)", "test_e03_replay_defenses.py"),
    ("E4", "time-service spoofing", "test_e04_time_spoof.py"),
    ("E5", "password-cracking curves", "test_e05_password_guessing.py"),
    ("E6", "preauthentication", "test_e06_preauth.py"),
    ("E7", "exponential key exchange trade-off", "test_e07_dh_login.py"),
    ("E8", "trojaned login vs handheld", "test_e08_login_spoof.py"),
    ("E9", "chosen-plaintext minting", "test_e09_chosen_plaintext.py"),
    ("E10", "multi-session key exposure", "test_e10_session_keys.py"),
    ("E11", "PCBC splicing", "test_e11_pcbc.py"),
    ("E12", "ENC-TKT-IN-SKEY cut-and-paste", "test_e12_cut_and_paste.py"),
    ("E13", "REUSE-SKEY + ticket substitution", "test_e13_reuse_skey.py"),
    ("E14", "timestamps vs sequence numbers", "test_e14_seqnum.py"),
    ("E15", "address binding & forwarding", "test_e15_forwarding.py"),
    ("E16", "inter-realm routing & trust", "test_e16_interrealm.py"),
    ("E17", "key exposure by host type", "test_e17_key_theft.py"),
    ("E18", "cost of the recommendations", "test_e18_overhead.py"),
    ("E19", "keystore provisioning", "test_e19_keystore.py"),
    ("E20", "encoding ambiguity", "test_e20_encoding.py"),
    ("E21", "encryption-layer adversarial game", "test_e21_validation.py"),
    ("E22", "V4 forwarder vs V5 flag", "test_e22_forwarder.py"),
    ("E23", "password policy enforcement", "test_e23_password_policy.py"),
    ("E24", "passive adversary's haul", "test_e24_adversary_haul.py"),
    ("E25", "rogue transit realm", "test_e25_rogue_realm.py"),
    ("E26", "hardened-profile ablation", "test_e26_ablation.py"),
    ("E27", "crypto fast path + matrix timing", "test_e27_crypto_perf.py"),
    ("E28", "sharded KDC under load", "test_e28_kdc_load.py"),
]


def _cmd_matrix(_args) -> int:
    from repro.suite import run_attack_matrix

    print("running the evaluation matrix (deterministic, ~1 min)...\n")
    matrix = run_attack_matrix()
    print(matrix.render())
    clean = matrix.hardened_clean()
    print(f"\nhardened profile blocks everything: {clean}")
    return 0 if clean else 1


def _cmd_notation(_args) -> int:
    from repro.kerberos.trace import ProtocolTrace

    print(ProtocolTrace.notation_table())
    print()
    print(ProtocolTrace.v4_full_flow().render())
    return 0


def _cmd_experiments(_args) -> int:
    width = max(len(title) for _e, title, _b in _EXPERIMENTS)
    for eid, title, bench in _EXPERIMENTS:
        print(f"{eid:>4}  {title.ljust(width)}  benchmarks/{bench}")
    print(f"\n{len(_EXPERIMENTS)} experiments; regenerate with "
          "`pytest benchmarks/ --benchmark-only`")
    return 0


def _cmd_demo(_args) -> int:
    from repro import Testbed, ProtocolConfig
    from repro.kerberos.tools import klist, wire_summary

    bed = Testbed(ProtocolConfig.v4(), seed=2024)
    bed.add_user("demo", "a demo passphrase")
    mail = bed.add_mail_server("mailhost")
    ws = bed.add_workstation("ws1")
    outcome = bed.login("demo", "a demo passphrase", ws)
    cred = outcome.client.get_service_ticket(mail.principal)
    session = outcome.client.ap_exchange(cred, bed.endpoint(mail))
    print("mail server says:",
          session.call(b"SEND demo hello").decode())
    print()
    print(klist(outcome.client.ccache, bed.clock.now()))
    print()
    print("wire trace:")
    print(wire_summary(bed.adversary.log))
    return 0


def _cmd_perf(args) -> int:
    from repro.perf import render_report, run_perf

    print("benchmarking the crypto fast path"
          + (" (quick)" if args.quick else "") + "...\n")
    report = run_perf(quick=args.quick, out_path=args.out)
    print(render_report(report))
    return 0


def _cmd_crack(args) -> int:
    from repro.crack import render_crack, run_crack

    print("benchmarking the offline dictionary attack"
          + (" (quick)" if args.quick else "") + "...\n")
    report = run_crack(
        quick=args.quick, targets=args.targets, words=args.words,
        lanes=args.lanes, seed=args.seed, out_path=args.out,
    )
    print(render_crack(report))
    healthy = bool(report["agreement"]) and bool(report["planted_found"])
    if args.min_speedup is not None:
        speedup = report["speedup"]
        assert isinstance(speedup, float)
        if speedup < args.min_speedup:
            print(f"speedup floor FAIL: {speedup}x < {args.min_speedup}x")
            healthy = False
        else:
            print(f"speedup floor OK (>= {args.min_speedup}x)")
    return 0 if healthy else 1


def _resolve_scenario(name: str):
    from repro.suite import SCENARIOS

    exact = [s for s in SCENARIOS if s.name == name]
    if exact:
        return exact[0]
    matches = [s for s in SCENARIOS if name.lower() in s.name.lower()]
    if len(matches) == 1:
        return matches[0]
    print("scenario %r is %s; choose one of:" % (
        name, "ambiguous" if matches else "unknown"))
    for scenario in (matches or SCENARIOS):
        print(f"  {scenario.name}")
    return None


def _cmd_audit(args) -> int:
    from repro.obs import (
        JsonlSink, Tracer, build_spans, capture, detectability_digest,
        render_events,
    )
    from repro.obs.audit import trace_digests
    from repro.obs.metrics import MetricsRegistry, MetricsSink
    from repro.suite import DEFAULT_COLUMNS

    scenario = _resolve_scenario(args.scenario)
    if scenario is None:
        return 2
    configs = dict(DEFAULT_COLUMNS)
    if args.column not in configs:
        print(f"unknown column {args.column!r}; choose from "
              + ", ".join(configs))
        return 2

    registry = MetricsRegistry()
    sinks = [MetricsSink(registry)]
    jsonl = None
    if args.jsonl:
        try:  # fail before the run, not mid-capture, on an unwritable path
            open(args.jsonl, "w", encoding="utf-8").close()
        except OSError as exc:
            print(f"cannot write JSONL to {args.jsonl!r}: {exc}")
            return 2
        jsonl = JsonlSink(args.jsonl)
        sinks.append(jsonl)
    tracer = Tracer()
    with capture(*sinks, tracer=tracer) as cap:
        result = scenario.run(configs[args.column], args.seed)
    if jsonl is not None:
        jsonl.close()

    digest = detectability_digest(cap.events)
    print(f"scenario:  {scenario.name}   (paper: {scenario.paper_section})")
    print(f"column:    {args.column}   seed: {args.seed}")
    print(f"outcome:   {result}")
    print()
    print("defender event log:")
    print(render_events(cap.events))
    print()
    print(registry.render_text())
    print()
    spans = build_spans(cap.events)
    flagged = [span for span in spans if span.anomalies]
    print(f"exchanges: {len(spans)} spans, {len(flagged)} with anomalies")
    if digest:
        anomalies = ", ".join(f"{k}×{v}" for k, v in sorted(digest.items()))
        print(f"detectability: {anomalies}")
    elif result.succeeded:
        print("detectability: NONE — the attack won and the defenders' "
              "telemetry shows an ordinary run (the paper's worst case)")
    else:
        print("detectability: none needed — the attack never got far "
              "enough to trip a check")
    perturbed = trace_digests(cap.events)
    if perturbed:
        from repro.monitor import render_trace_tree

        by_trace = tracer.traces()
        print()
        print("perturbed traces (which requests carried the anomalies):")
        for trace_id, kinds in perturbed.items():
            summary = ", ".join(f"{kind}×{count}"
                                for kind, count in kinds.items())
            print(f"  trace {trace_id}: {summary}")
            for line in render_trace_tree(by_trace.get(trace_id, [])):
                print("  " + line)
    if jsonl is not None:
        print(f"\nwrote {jsonl.written} events to {args.jsonl}")
    return 0


def _cmd_lint(args) -> int:
    from repro.lint.cli import run_lint

    return run_lint(
        fmt=args.format,
        family=args.family,
        column=args.column,
        baseline=args.baseline,
        fail_on=args.fail_on,
        out=args.out,
        root=args.root,
        consistency=args.consistency,
        write_baseline_path=args.write_baseline,
    )


def _cmd_check(args) -> int:
    from repro.check.cli import run_check

    return run_check(
        fmt=args.format,
        column=args.column,
        out=args.out,
        consistency=args.consistency,
        max_rounds=args.max_rounds,
        seed=args.seed,
    )


def _cmd_serve(args) -> int:
    from repro import Testbed, ProtocolConfig
    from repro.kerberos.principal import Principal

    config = ProtocolConfig.v5_draft3().but(replay_cache=True)
    bed = Testbed(config, seed=args.seed, shards=args.shards,
                  workers_per_shard=args.workers)
    names = [f"user{i}" for i in range(args.users)]
    for name in names:
        bed.add_user(name, f"pw-{name}")
    mail = bed.add_mail_server("mailhost")
    cluster = bed.realm.cluster

    print(f"realm {bed.realm.name}: {args.shards} shards, "
          f"{args.workers} workers each, seed {args.seed}")
    print(f"frontend   {cluster.frontend_host.address}  "
          "(the only address in the realm directory)")
    by_shard = {shard.index: [] for shard in cluster.shards}
    for name in names:
        principal = Principal(name, "", bed.realm.name)
        by_shard[cluster.database.home_shard(principal)].append(name)
    for shard in cluster.shards:
        users = ", ".join(by_shard[shard.index]) or "(none)"
        print(f"  shard {shard.index}  {shard.host.address:<12} "
              f"cache {shard.replay_cache.capacity:>5}  users: {users}")
    print()
    print("replicated to every shard: "
          + ", ".join(sorted(
              str(p) for p in cluster.database.shards[0].principals()
              if p.is_tgs or p.instance)))
    print()
    print("routing: AS_REQ by client principal (partitioned keys), "
          "TGS_REQ by authenticator")
    print("bytes (replay affinity: a byte-identical replay revisits "
          "the cache that saw it).")
    print()

    # Exercise the discrete-event core the load harness runs on: one
    # short unit per example user through the real cluster, so the
    # stats below describe the actual serving path, not a toy loop.
    from repro.sim.sched import Scheduler, wait

    sched = Scheduler(bed.clock)

    def probe_unit(name: str):
        ws = bed.add_workstation(f"probe-{name}")
        outcome = bed.login(name, f"pw-{name}", ws)
        yield wait(0)
        cred = outcome.client.get_service_ticket(mail.principal)
        yield wait(0)
        outcome.client.ap_exchange(cred, bed.endpoint(mail))

    for i, name in enumerate(names):
        sched.spawn(probe_unit(name), at_time=bed.clock.now() + i * 100)
    sched.run()
    stats = sched.stats()
    print(f"event scheduler: {stats['events_processed']} events for "
          f"{stats['processes_spawned']} concurrent units, "
          f"heap high-water {stats['heap_high_water']}, "
          f"{stats['timers_cancelled']} timers cancelled")
    return 0


def _cmd_load(args) -> int:
    from repro.load import render_report, run_load

    label = " (--quick)" if args.quick else ""
    print(f"driving the sharded KDC{label}...\n")
    report = run_load(
        shards=args.shards, clients=args.clients, requests=args.requests,
        workers_per_shard=args.workers, seed=args.seed,
        faults=not args.no_faults, quick=args.quick, out_path=args.out,
        interarrival_us=args.interarrival, principals=args.principals,
        zipf_s=args.zipf, diurnal=args.diurnal,
        scaling_curve=args.scaling_curve,
        crypto_backend=args.crypto_backend,
    )
    print(render_report(report))
    probe = report["replay_probe"]
    ok = probe["attempted"] == 0 or probe["rejected"] == probe["attempted"]
    return 0 if ok else 1


def _cmd_monitor(args) -> int:
    from repro.monitor import measure_overhead, render_monitor, run_monitor

    label = " (--quick)" if args.quick else ""
    print(f"monitoring the sharded KDC{label}...\n")
    report = run_monitor(
        shards=args.shards, clients=args.clients, requests=args.requests,
        workers_per_shard=args.workers, seed=args.seed,
        faults=not args.no_faults, quick=args.quick,
        interarrival_us=args.interarrival, sample_every=args.sample_every,
        top_n=args.top, chrome_trace_path=args.emit_chrome_trace,
    )
    print(render_monitor(report))
    ok = not report["traces"]["problems"]
    if args.overhead_guard is not None:
        overhead = measure_overhead(shards=args.shards, seed=args.seed)
        print()
        print(f"overhead guard   untraced {overhead['untraced_s']}s, "
              f"traced {overhead['traced_s']}s "
              f"({overhead['traced_overhead_pct']:+.1f}% when tracing)")
        if overhead["traced_overhead_pct"] > args.overhead_guard:
            print(f"overhead guard   FAIL: above {args.overhead_guard}%")
            ok = False
        else:
            print(f"overhead guard   OK (within {args.overhead_guard}%)")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    """The full argparse tree (also introspected by ``repro.clidoc``)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction of Bellovin & Merritt, USENIX Winter 1991.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("matrix", help="run the attack x protocol matrix")
    sub.add_parser("notation", help="print Table 1 and the V4 flow")
    sub.add_parser("experiments", help="list the reproduced experiments")
    sub.add_parser("demo", help="run the quickstart flow")
    audit = sub.add_parser(
        "audit", help="run one scenario with defender telemetry attached"
    )
    audit.add_argument(
        "scenario",
        help="scenario name from the matrix (unique substring accepted)",
    )
    audit.add_argument(
        "--column", default="v4",
        help="protocol configuration column (default: v4)",
    )
    audit.add_argument(
        "--seed", type=int, default=1000,
        help="testbed seed (default: 1000, the matrix's base seed)",
    )
    audit.add_argument(
        "--jsonl", metavar="PATH",
        help="also write every event to PATH as JSON lines",
    )
    perf = sub.add_parser(
        "perf", help="micro-benchmark the crypto fast path and the matrix"
    )
    perf.add_argument(
        "--quick", action="store_true",
        help="CI-smoke sizes: a few seconds instead of ~a minute",
    )
    perf.add_argument(
        "--out", default="BENCH_crypto.json", metavar="PATH",
        help="benchmark report path (default: BENCH_crypto.json)",
    )
    crack = sub.add_parser(
        "crack", help="benchmark the offline dictionary attack, "
                      "table-driven vs bitsliced"
    )
    crack.add_argument(
        "--quick", action="store_true",
        help="CI-smoke sizes: 6 targets, 512 words, 512 lanes (<1s)",
    )
    crack.add_argument(
        "--targets", type=int, default=None, metavar="N",
        help="victims whose recorded logins are attacked (default: 24, "
             "or 6 with --quick); two thirds have dictionary passwords",
    )
    crack.add_argument(
        "--words", type=int, default=None, metavar="N",
        help="dictionary size to grind (default: 4096, or 512 with "
             "--quick)",
    )
    crack.add_argument(
        "--lanes", type=int, default=None, metavar="N",
        help="bitslice lane width: password guesses per batch "
             "(default: 2048, or 512 with --quick)",
    )
    crack.add_argument(
        "--seed", type=int, default=0,
        help="testbed / population seed (default: 0)",
    )
    crack.add_argument(
        "--min-speedup", type=float, default=None, metavar="X",
        help="fail unless bitsliced guesses/s >= X times the table path "
             "(the CI perf-smoke floor is 3)",
    )
    crack.add_argument(
        "--out", default="BENCH_crack.json", metavar="PATH",
        help="benchmark report path (default: BENCH_crack.json)",
    )
    lint = sub.add_parser(
        "lint", help="statically analyze the tree for protocol misuse, "
                     "determinism hazards, and key-material leaks"
    )
    lint.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text",
        help="report format (default: text)",
    )
    lint.add_argument(
        "--family", choices=["protocol", "sim", "crypto", "all"],
        default="protocol",
        help="rule family: protocol misuse, sim (determinism / "
             "scheduler safety over the simulation stack), crypto "
             "(key-material flow into logs, errors, and wire "
             "cleartext), or all (default: protocol)",
    )
    lint.add_argument(
        "--column", default="all",
        help="protocol column to lint: v4, v5-draft3, hardened, or all "
             "(default: all; protocol family only)",
    )
    lint.add_argument(
        "--baseline", metavar="PATH",
        help="suppress findings fingerprinted in this baseline file",
    )
    lint.add_argument(
        "--write-baseline", metavar="PATH",
        help="accept every current finding into PATH and exit "
             "(refreshing an existing baseline keeps its hand-written "
             "justifications and drops retired entries)",
    )
    lint.add_argument(
        "--fail-on", choices=["error", "warn", "never"], default="warn",
        help="exit 1 when a non-baselined finding reaches this severity "
             "(default: warn)",
    )
    lint.add_argument(
        "--out", metavar="PATH",
        help="write the report to PATH instead of stdout",
    )
    lint.add_argument(
        "--root", metavar="DIR",
        help="analyze DIR instead of the installed repro package "
             "(for testing the analyzer itself)",
    )
    lint.add_argument(
        "--consistency", action="store_true",
        help="also pin the verdicts dynamically: attack-matrix "
             "agreement for the protocol family, a "
             "same-seed double run of the scale-mode load harness "
             "asserting byte-identical reports for the sim family, a "
             "canary-key witness scanning every emitted artifact for "
             "unsealed key bytes for the crypto family",
    )
    check = sub.add_parser(
        "check", help="re-derive the attack matrix with the bounded "
                      "Dolev-Yao model checker"
    )
    check.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text",
        help="report format (default: text)",
    )
    check.add_argument(
        "--column", default="all",
        help="protocol column to check: v4, v5-draft3, hardened, or all "
             "(default: all)",
    )
    check.add_argument(
        "--out", metavar="PATH",
        help="write the report to PATH instead of stdout",
    )
    check.add_argument(
        "--consistency", action="store_true",
        help="also run the live attack matrix and the linter, asserting "
             "all three verdicts agree cell by cell",
    )
    check.add_argument(
        "--max-rounds", type=int, default=64,
        help="bound on knowledge-closure rounds per cell (default: 64)",
    )
    check.add_argument(
        "--seed", type=int, default=1000,
        help="base seed for the --consistency matrix run (default: 1000)",
    )
    serve = sub.add_parser(
        "serve", help="inspect the sharded KDC service layer's topology"
    )
    serve.add_argument(
        "--shards", type=int, default=3,
        help="number of KDC shards (default: 3, minimum 2)",
    )
    serve.add_argument(
        "--workers", type=int, default=2,
        help="worker threads modelled per shard (default: 2)",
    )
    serve.add_argument(
        "--users", type=int, default=8,
        help="example principals to place on the shard map (default: 8)",
    )
    serve.add_argument(
        "--seed", type=int, default=0,
        help="testbed seed (default: 0)",
    )
    load = sub.add_parser(
        "load", help="drive the sharded KDC with an open-loop workload"
    )
    load.add_argument(
        "--quick", action="store_true",
        help="CI-smoke sizes: at most 4 clients and 36 requests",
    )
    load.add_argument(
        "--shards", type=int, default=3,
        help="number of KDC shards (default: 3, minimum 2)",
    )
    load.add_argument(
        "--clients", type=int, default=8,
        help="simulated client principals (default: 8)",
    )
    load.add_argument(
        "--requests", type=int, default=None,
        help="login->ticket->AP units to drive (default: 240 in engine "
             "mode, 60000/20000 in scale mode)",
    )
    load.add_argument(
        "--workers", type=int, default=2,
        help="worker threads modelled per shard (default: 2)",
    )
    load.add_argument(
        "--seed", type=int, default=0,
        help="seed for keys, jitter, and arrival times (default: 0)",
    )
    load.add_argument(
        "--no-faults", action="store_true",
        help="skip the mid-run shard outage (latency floor instead of "
             "degradation behaviour)",
    )
    load.add_argument(
        "--interarrival", type=int, default=None, metavar="US",
        help="mean microseconds between request arrivals (default: 6000 "
             "in engine mode, 60 in scale mode; lower saturates)",
    )
    load.add_argument(
        "--principals", type=int, default=None, metavar="N",
        help="scale mode: drive N lazily-keyed principals (10^5-10^6) "
             "through the calibrated event model instead of the full "
             "protocol engine",
    )
    load.add_argument(
        "--zipf", type=float, default=1.1, metavar="S",
        help="Zipf popularity exponent for scale-mode principals "
             "(default: 1.1)",
    )
    load.add_argument(
        "--diurnal", action="store_true",
        help="modulate the arrival rate with a compressed diurnal curve "
             "(the 9am surge)",
    )
    load.add_argument(
        "--scaling-curve", action="store_true",
        help="scale mode: sweep the full shards x workers grid instead "
             "of the default compact one",
    )
    load.add_argument(
        "--crypto-backend", choices=["table", "bitslice"], default="table",
        help="cost model for KDC seal/unseal work: the table-driven "
             "fast path, or batched bitsliced lanes at the conservative "
             "per-block-op cost the crack benchmark's CI floor "
             "guarantees (default: table)",
    )
    load.add_argument(
        "--out", default="BENCH_kdc.json", metavar="PATH",
        help="benchmark report path (default: BENCH_kdc.json)",
    )
    monitor = sub.add_parser(
        "monitor", help="trace the sharded KDC end-to-end and show "
                        "where the time goes"
    )
    monitor.add_argument(
        "--quick", action="store_true",
        help="CI-smoke sizes: at most 4 clients and 36 requests",
    )
    monitor.add_argument(
        "--shards", type=int, default=3,
        help="number of KDC shards (default: 3, minimum 2)",
    )
    monitor.add_argument(
        "--clients", type=int, default=8,
        help="simulated client principals (default: 8)",
    )
    monitor.add_argument(
        "--requests", type=int, default=240,
        help="login->ticket->AP units to drive (default: 240)",
    )
    monitor.add_argument(
        "--workers", type=int, default=2,
        help="worker threads modelled per shard (default: 2)",
    )
    monitor.add_argument(
        "--seed", type=int, default=0,
        help="seed for keys, jitter, and arrival times (default: 0)",
    )
    monitor.add_argument(
        "--no-faults", action="store_true",
        help="skip the mid-run shard outage",
    )
    monitor.add_argument(
        "--interarrival", type=int, default=None, metavar="US",
        help="mean microseconds between request arrivals (default: 6000; "
             "lower saturates the cluster)",
    )
    monitor.add_argument(
        "--sample-every", type=int, default=1, metavar="N",
        help="retain every Nth trace (default: 1 = all; raise to bound "
             "memory on huge runs)",
    )
    monitor.add_argument(
        "--top", type=int, default=5, metavar="N",
        help="slowest traces to break down (default: 5)",
    )
    monitor.add_argument(
        "--emit-chrome-trace", metavar="PATH",
        help="write the span forest as Chrome trace-event JSON to PATH "
             "(loadable in Perfetto / chrome://tracing)",
    )
    monitor.add_argument(
        "--overhead-guard", type=float, default=None, metavar="PCT",
        help="also measure tracing overhead on a quick run and fail if "
             "it exceeds PCT percent (the CI no-op fast-path gate)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "matrix": _cmd_matrix,
        "notation": _cmd_notation,
        "experiments": _cmd_experiments,
        "demo": _cmd_demo,
        "audit": _cmd_audit,
        "perf": _cmd_perf,
        "crack": _cmd_crack,
        "lint": _cmd_lint,
        "check": _cmd_check,
        "serve": _cmd_serve,
        "load": _cmd_load,
        "monitor": _cmd_monitor,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())

"""Which layer functions the traced pass wraps, and the per-layer metrics.

Every entry of :data:`TARGETS` is one public entry point of one layer of
``src/repro``; the tracer wraps it at every binding a caller uses.
Names are the per-layer metric prefixes of ``BENCHMARK.json``.  The
aggregated (no-span) entries are the hot leaves: the DES block function,
``xor_bytes``, the scheduler's event plumbing, replay-cache checks and
histogram records.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from perfbench.tracing import RAISED, Tracer


def _count(counter: str, size: Optional[Any] = None):
    """A hook adding ``size(args, kwargs, result)`` (default 1) to
    ``tracer.counts[counter]`` on each outermost call."""
    def hook(tracer: Tracer, args: tuple, kwargs: dict, result: Any,
             outermost: bool) -> None:
        if outermost:
            tracer.counts[counter] += 1 if size is None else size(
                args, kwargs, result
            )
    return hook


def _schedule_lookup(tracer: Tracer, args: tuple, kwargs: dict, result: Any,
                     outermost: bool) -> None:
    # ``string_to_key`` reaches the schedule cache exactly once per
    # derivation (through ``DesCipher``), which is how the password-guess
    # memo's misses are seen from outside its lru_cache.
    if tracer.open_frames and tracer.open_frames[-1] == "crypto.keys.memo":
        tracer.counts["keys.derived"] += 1


def _string_to_key(tracer: Tracer, args: tuple, kwargs: dict, result: Any,
                   outermost: bool) -> None:
    # The batched form falls back to the scalar one for small groups;
    # those keys are already counted by the batch.
    if outermost and "crypto.keys.s2k_many" not in tracer.open_frames:
        tracer.counts["keys.derived"] += 1


def _derive(tracer: Tracer, args: tuple, kwargs: dict, result: Any,
            outermost: bool) -> None:
    if "crypto.des.get_schedule" in tracer.open_frames:
        tracer.counts["des.schedule_misses"] += 1


def _unseal(tracer: Tracer, args: tuple, kwargs: dict, result: Any,
            outermost: bool) -> None:
    # Scalar confirmations of the bitsliced crack path's sieve survivors.
    if "crack.bitslice" in tracer.open_frames:
        tracer.counts["crack.confirms"] += 1
        if result is RAISED:
            tracer.counts["crack.confirm_misses"] += 1


def _replay_check(tracer: Tracer, args: tuple, kwargs: dict, result: Any,
                  outermost: bool) -> None:
    if outermost:
        tracer.counts["replay.checks"] += 1
        if result is False:
            tracer.counts["replay.hits"] += 1


def _lanes(decrypt: bool):
    def hook(tracer: Tracer, args: tuple, kwargs: dict, result: Any,
             outermost: bool) -> None:
        lanes = args[0].count
        tracer.counts["bitslice.lane_blocks"] += lanes
        if decrypt:
            # Trial decryption of a captured reply: one call per batch
            # and target, so its fill is the dictionary batch's fill.
            tracer.counts["bitslice.trial_lanes"] += lanes
            tracer.counts["bitslice.trial_calls"] += 1
    return hook


def _second_arg_len(args: tuple, kwargs: dict, result: Any) -> int:
    return len(args[1])


def _result_len(args: tuple, kwargs: dict, result: Any) -> int:
    return len(result) if result is not RAISED else 0


def _first_arg_len(args: tuple, kwargs: dict, result: Any) -> int:
    return len(args[0])


# (module, qualname, frame name, self-time layer, record spans, hook)
TARGETS: List[tuple] = [
    # crypto.des — block function and key schedule
    ("repro.crypto.des", "_crypt_block", "crypto.des.block",
     "crypto.des.block", False, None),
    ("repro.crypto.des", "derive_subkeys", "crypto.des.derive",
     "crypto.des.derive", False, _derive),
    ("repro.crypto.des", "get_schedule", "crypto.des.get_schedule",
     "crypto.des", False, _schedule_lookup),
    # crypto.bits
    ("repro.crypto.bits", "xor_bytes", "crypto.bits.xor",
     "crypto.bits.xor", False, None),
    ("repro.crypto.bits", "transpose_in", "crypto.bits.transpose_in",
     "crypto.bits.transpose", False, None),
    ("repro.crypto.bits", "transpose_out", "crypto.bits.transpose_out",
     "crypto.bits.transpose", False, None),
    # crypto.keys (the password-guess memo wraps the original function,
    # so it is wrapped separately)
    ("repro.crypto.keys", "string_to_key", "crypto.keys.s2k",
     "crypto.keys", True, _string_to_key),
    ("repro.crypto.keys", "string_to_key_many", "crypto.keys.s2k_many",
     "crypto.keys", True, _count("keys.derived", _first_arg_len)),
    ("repro.attacks.password_guess", "_cached_string_to_key",
     "crypto.keys.memo", "crypto.keys", True, None),
    # crypto.des_bitslice
    ("repro.crypto.des_bitslice", "BitslicedKeys.__init__",
     "crypto.des_bitslice.keys", "crypto.des_bitslice", True, None),
    ("repro.crypto.des_bitslice", "encrypt_lanes",
     "crypto.des_bitslice.encrypt", "crypto.des_bitslice", True,
     _lanes(decrypt=False)),
    ("repro.crypto.des_bitslice", "decrypt_lanes",
     "crypto.des_bitslice.decrypt", "crypto.des_bitslice", True,
     _lanes(decrypt=True)),
    ("repro.crypto.des_bitslice", "broadcast_block",
     "crypto.des_bitslice.broadcast", "crypto.des_bitslice", True, None),
    # crypto.checksum
    ("repro.crypto.checksum", "ChecksumSpec.compute",
     "crypto.checksum.compute", "crypto.checksum", True, None),
    ("repro.crypto.checksum", "verify", "crypto.checksum.verify",
     "crypto.checksum", True, None),
    # encoding.codec
    ("repro.encoding.codec", "V4Codec.encode", "encoding.codec.encode",
     "encoding.codec", True, _count("codec.bytes", _result_len)),
    ("repro.encoding.codec", "V4Codec.decode", "encoding.codec.decode",
     "encoding.codec", True, _count("codec.bytes", _second_arg_len)),
    ("repro.encoding.codec", "V5Codec.encode", "encoding.codec.encode",
     "encoding.codec", True, _count("codec.bytes", _result_len)),
    ("repro.encoding.codec", "V5Codec.decode", "encoding.codec.decode",
     "encoding.codec", True, _count("codec.bytes", _second_arg_len)),
    # kerberos.messages
    ("repro.kerberos.messages", "seal", "kerberos.messages.seal",
     "kerberos.messages", True, _count("messages.seals")),
    ("repro.kerberos.messages", "seal_private",
     "kerberos.messages.seal_private", "kerberos.messages", True,
     _count("messages.seals")),
    ("repro.kerberos.messages", "unseal", "kerberos.messages.unseal",
     "kerberos.messages", True, _unseal),
    ("repro.kerberos.messages", "unseal_private",
     "kerberos.messages.unseal_private", "kerberos.messages", True, None),
    ("repro.kerberos.messages", "frame_error",
     "kerberos.messages.frame_error", "kerberos.messages", True,
     _count("kerberos.refusals")),
    # the client's protocol phases, and the servers' handlers
    ("repro.testbed", "Testbed.login", "kerberos.phase.as", "kerberos",
     True, None),
    ("repro.kerberos.client", "KerberosClient.get_service_ticket",
     "kerberos.phase.tgs", "kerberos", True, None),
    ("repro.kerberos.client", "KerberosClient.ap_exchange",
     "kerberos.phase.ap", "kerberos", True, None),
    ("repro.kerberos.client", "ClientSession.call", "kerberos.phase.priv",
     "kerberos", True, None),
    ("repro.kerberos.kdc", "Kdc._handle_as", "kerberos.kdc.as", "kerberos",
     True, None),
    ("repro.kerberos.kdc", "Kdc._handle_tgs", "kerberos.kdc.tgs",
     "kerberos", True, None),
    ("repro.kerberos.appserver", "AppServer._handle_ap",
     "kerberos.appserver.ap", "kerberos", True, None),
    ("repro.kerberos.appserver", "AppServer._handle_data",
     "kerberos.appserver.data", "kerberos", True, None),
    # kerberos.validation — replay caches
    ("repro.kerberos.validation", "ReplayCache.check_and_store",
     "kerberos.validation.replay", "kerberos.validation", False,
     _replay_check),
    ("repro.kerberos.validation", "LruReplayCache.check_and_store",
     "kerberos.validation.replay", "kerberos.validation", False,
     _replay_check),
    # sim.network
    ("repro.sim.network", "Network.rpc", "sim.network.rpc", "sim.network",
     True, None),
    ("repro.sim.network", "Network.inject", "sim.network.inject",
     "sim.network", True, None),
    ("repro.sim.network", "Network.witness", "sim.network.witness",
     "sim.network", False, None),
    # serve.cluster / serve.pool
    ("repro.serve.cluster", "KdcCluster._handle", "serve.cluster.handle",
     "serve.cluster", True, None),
    ("repro.serve.cluster", "KdcCluster.route", "serve.cluster.route",
     "serve.cluster", False, None),
    ("repro.serve.pool", "WorkerPool.schedule", "serve.pool.schedule",
     "serve.pool", False, None),
    # sim.sched — the loop, its plumbing, and the process bodies it runs
    ("repro.sim.sched", "Scheduler.run", "sim.sched.run", "sim.sched",
     True, None),
    ("repro.sim.sched", "Scheduler.at", "sim.sched.at", "sim.sched",
     False, None),
    ("repro.sim.sched", "Scheduler.cancel", "sim.sched.cancel", "sim.sched",
     False, None),
    ("repro.sim.sched", "Channel.put", "sim.sched.put", "sim.sched",
     False, None),
    ("repro.sim.sched", "Channel._park", "sim.sched.park", "sim.sched",
     False, None),
    ("repro.sim.sched", "Scheduler._step", "sim.sched.step",
     "sim.sched.process", False, None),
    # obs
    ("repro.obs.bus", "EventBus.emit", "obs.emit", "obs", False, None),
    ("repro.obs.metrics", "Histogram.observe", "obs.histogram", "obs",
     False, None),
    ("repro.obs.timeseries", "LogHistogram.record", "obs.loghistogram",
     "obs", False, None),
    ("repro.obs.timeseries", "TickSampler.poll", "obs.sampler", "obs",
     False, None),
    ("repro.obs.timeseries", "TickSampler.tick", "obs.sampler", "obs",
     False, None),
    # the password-guessing attack and the crack workload's two paths
    ("repro.attacks.password_guess", "try_password_against_reply",
     "attacks.password_guess.trial", "attacks.password_guess", True, None),
    ("repro.crack", "_table_attack", "crack.table", "crack", True, None),
    ("repro.crack", "_bitslice_attack", "crack.bitslice", "crack", True,
     None),
]

#: Modes functions: one per mode and direction, bytes counted on entry.
for _mode in ("ecb", "cbc", "pcbc"):
    for _direction in ("encrypt", "decrypt"):
        TARGETS.append((
            "repro.crypto.modes", f"{_mode}_{_direction}",
            f"crypto.modes.{_mode}_{_direction}", "crypto.modes", True,
            _count("modes.bytes", _second_arg_len),
        ))


def install(tracer: Tracer) -> None:
    """Wrap every target; call :meth:`Tracer.uninstall` to undo."""
    for module, qualname, name, layer, span, hook in TARGETS:
        tracer.patch(module, qualname, name, layer, span, hook)


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith(("_s", ".s")):
        return "s/unit"
    if metric.endswith(".bytes"):
        return "B/unit"
    if metric.endswith(("_ratio", "lane_fill", "tracing_overhead")):
        return "ratio"
    return "count/unit"


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, units: int, reports: Sequence[Dict[str, Any]],
                  lanes: int) -> Dict[str, float]:
    """Per-layer figures per timed unit of the traced pass.

    *reports* are the ``run_load`` reports of the traced units (empty on
    workloads that do not call it): scheduler, replay-eviction, cluster
    fault and key-materialization counts come from them.  *lanes* is the
    configured bitslice lane width, the base of ``lane_fill``.
    """
    s, calls, counts = tracer.self_s, tracer.calls, tracer.counts

    def per_unit(value: float) -> float:
        return value / units

    def from_reports(path: Sequence[str]) -> float:
        total = 0.0
        for report in reports:
            value: Any = report
            for key in path:
                value = value[key]
            total += value
        return per_unit(total)

    def replay_evictions() -> float:
        return per_unit(sum(
            shard["replay_cache"]["evictions"]
            for report in reports
            for shard in report["cluster"]["per_shard"]
        ))

    model = [r for r in reports if r["workload"]["mode"] == "model"]
    return {
        "crypto.modes.self_s": per_unit(s["crypto.modes"]),
        "crypto.modes.bytes": per_unit(counts["modes.bytes"]),
        "crypto.bits.xor_calls": per_unit(calls["crypto.bits.xor"]),
        "crypto.bits.xor_s": per_unit(s["crypto.bits.xor"]),
        "crypto.des.block_ops": per_unit(calls["crypto.des.block"]),
        "crypto.des.block_s": per_unit(s["crypto.des.block"]),
        "crypto.des.schedules_derived": per_unit(calls["crypto.des.derive"]),
        "crypto.des.schedule_hit_ratio": 1.0 - _ratio(
            counts["des.schedule_misses"], calls["crypto.des.get_schedule"]
        ) if calls["crypto.des.get_schedule"] else 0.0,
        "crypto.des.derive_s": per_unit(s["crypto.des.derive"]),
        "crypto.keys.derived": per_unit(counts["keys.derived"]),
        "crypto.keys.s2k_s": per_unit(s["crypto.keys"]),
        "attacks.password_guess.trials": per_unit(
            calls["attacks.password_guess.trial"]
        ),
        "attacks.password_guess.trial_s": per_unit(
            s["attacks.password_guess"]
        ),
        "crypto.des_bitslice.lane_blocks": per_unit(
            counts["bitslice.lane_blocks"]
        ),
        "crypto.des_bitslice.s": per_unit(s["crypto.des_bitslice"]),
        "crypto.des_bitslice.lane_fill": _ratio(
            counts["bitslice.trial_lanes"],
            counts["bitslice.trial_calls"] * lanes,
        ),
        "crypto.bits.transpose_s": per_unit(s["crypto.bits.transpose"]),
        "crack.confirms": per_unit(counts["crack.confirms"]),
        "crack.confirm_waste_ratio": _ratio(
            counts["crack.confirm_misses"], counts["crack.confirms"]
        ),
        "encoding.codec.calls": per_unit(
            calls["encoding.codec.encode"] + calls["encoding.codec.decode"]
        ),
        "encoding.codec.bytes": per_unit(counts["codec.bytes"]),
        "encoding.codec.s": per_unit(s["encoding.codec"]),
        "crypto.checksum.calls": per_unit(calls["crypto.checksum.compute"]),
        "crypto.checksum.s": per_unit(s["crypto.checksum"]),
        "kerberos.messages.seal_calls": per_unit(counts["messages.seals"]),
        "kerberos.messages.self_s": per_unit(s["kerberos.messages"]),
        "kerberos.phase.as_s": per_unit(tracer.total_s["kerberos.phase.as"]),
        "kerberos.phase.tgs_s": per_unit(
            tracer.total_s["kerberos.phase.tgs"]
        ),
        "kerberos.phase.ap_s": per_unit(tracer.total_s["kerberos.phase.ap"]),
        "kerberos.phase.priv_s": per_unit(
            tracer.total_s["kerberos.phase.priv"]
        ),
        "kerberos.self_s": per_unit(s["kerberos"]),
        "kerberos.refusals": per_unit(counts["kerberos.refusals"]),
        "sim.network.messages": per_unit(calls["sim.network.witness"]),
        "sim.network.self_s": per_unit(s["sim.network"]),
        "serve.cluster.routed": per_unit(calls["serve.cluster.handle"]),
        "serve.cluster.route_s": per_unit(s["serve.cluster"]),
        "serve.cluster.failovers": from_reports(
            ("degradation", "tgs_failovers")
        ),
        "serve.cluster.unavailable": from_reports(
            ("degradation", "unavailable_replies")
        ),
        "serve.pool.schedule_calls": per_unit(calls["serve.pool.schedule"]),
        "sim.sched.events": from_reports(("scheduler", "events_processed")),
        "sim.sched.heap_high_water": from_reports(
            ("scheduler", "heap_high_water")
        ),
        "sim.sched.timers_cancelled": from_reports(
            ("scheduler", "timers_cancelled")
        ),
        "sim.sched.self_s": per_unit(s["sim.sched"]),
        "sim.sched.process_s": per_unit(s["sim.sched.process"]),
        "kerberos.validation.replay_checks": per_unit(
            counts["replay.checks"]
        ),
        "kerberos.validation.replay_hits": per_unit(counts["replay.hits"]),
        "kerberos.validation.replay_evictions": replay_evictions(),
        "kerberos.validation.replay_s": per_unit(s["kerberos.validation"]),
        "serve.scale.keys_materialized": per_unit(sum(
            r["workload"]["principals"]["materialized"] for r in model
        )),
        "obs.events": per_unit(calls["obs.emit"]),
        "obs.s": per_unit(s["obs"]),
        "unattributed_s": per_unit(s["unattributed"]),
    }

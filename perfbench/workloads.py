"""The four benchmark workloads: set-up, one timed unit, correctness gate.

Each workload drives a public entry point of ``src/repro`` from outside
and always passes ``out_path=None``, so no ``BENCH_*.json`` is written.
All of them run in one process and one thread.  ``README.md`` beside
this file gives each workload's reason and each metric's predicted mover.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from perfbench.reference import at_reference_speed


class GateFailure(AssertionError):
    """A workload produced a wrong output; the run must not print numbers."""


@dataclass
class Unit:
    """The outcome of one timed unit.

    ``work`` is what ``throughput_per_s`` counts; ``attempted`` and
    ``failed`` count the workload's operations.  ``wall`` and ``ref_s``
    (the reference job's time next to the unit) are filled in by the
    measuring loop.
    """

    work: float
    attempted: int
    failed: int = 0
    report: Optional[Dict[str, Any]] = None
    extra: Dict[str, Any] = field(default_factory=dict)
    wall: float = 0.0
    ref_s: float = 0.0


def nearest_rank(values: List[float], q: float) -> float:
    """The *q*-th percentile of *values* by nearest rank."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered) / 100)) - 1]


def _gate(condition: bool, message: str) -> None:
    if not condition:
        raise GateFailure(message)


def plain(report: Dict[str, Any]) -> Dict[str, Any]:
    """A load report without its live objects (``_sampler``, ``_tracer``),
    which reference the whole simulated deployment: kept for the gates,
    they would hold every unit's deployment in memory."""
    return {k: v for k, v in report.items() if not k.startswith("_")}


def report_digest(report: Dict[str, Any]) -> str:
    """SHA-256 of a load report's deterministic fields.

    Drops the wall-clock throughput figures, the fields the load harness
    documents as not a function of parameters and seed.
    """
    data = dict(report)
    data["throughput"] = {
        k: v for k, v in report["throughput"].items()
        if k not in ("wall_seconds", "ops_per_wall_s")
    }
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def cold_start() -> None:
    """Empty the DES schedule cache, as in a fresh process: repeats of one
    seed would otherwise find the previous repeat's session keys in it."""
    from repro.crypto.des import clear_schedule_cache

    clear_schedule_cache()


class Workload:
    """Base: subclasses define ``setup``, ``run_unit`` and ``check``."""

    name = ""
    why = ""
    #: Bitslice lane width, the base of ``crypto.des_bitslice.lane_fill``.
    lanes = 0
    #: A unit that is a whole library run starts from a collected heap, as
    #: it would in a fresh process.  Otherwise the cyclic garbage of
    #: earlier runs is collected inside whichever later unit triggers the
    #: next full collection.  The exchange session keeps its heap and
    #: pays its own collections.
    fresh_heap = True

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def params(self) -> Dict[str, Any]:
        raise NotImplementedError

    def setup(self) -> None:
        """Everything between a fresh process and the first timed unit."""

    def run_unit(self, index: int) -> Unit:
        raise NotImplementedError

    def check(self, units: List[Unit]) -> None:
        """Raise :class:`GateFailure` unless every output is correct."""
        raise NotImplementedError

    def rate(self, unit: Unit) -> float:
        """Work per wall second of one unit, at reference speed."""
        return unit.work / at_reference_speed(unit.wall, unit.ref_s)

    def throughput(self, units: List[Unit]) -> float:
        """The median of per-unit rates."""
        return statistics.median(self.rate(u) for u in units)

    def extra_metrics(self, units: List[Unit]) -> Dict[str, Any]:
        """Printed, recorded, not bounded."""
        return {}


class Exchange(Workload):
    """Closed loop, one client: login, TGS, AP, then KRB_PRIV echoes."""

    name = "exchange"
    fresh_heap = False
    why = ("bulk PCBC chaining of 1 KiB KRB_PRIV payloads: crypto.modes and "
           "crypto.bits dominate; the only per-user-action wall latency")

    #: KRB_PRIV echo round trips per unit.
    ROUND_TRIPS = 3
    #: Bound on the adversary's wire log, so memory does not grow per unit.
    WIRE_LOG = 64

    def __init__(self, seed: int, payload_bytes: int = 1024) -> None:
        super().__init__(seed)
        self.payload_bytes = payload_bytes
        self._warm: List[Unit] = []

    def params(self) -> Dict[str, Any]:
        return {
            "protocol": "v4", "cipher_mode": "pcbc", "loop": "closed",
            "clients": 1, "payload_bytes": self.payload_bytes,
            "priv_round_trips": self.ROUND_TRIPS,
            "max_wire_log": self.WIRE_LOG, "warmup_units": 1,
        }

    def setup(self) -> None:
        from repro.crypto.des import SCHEDULE_CACHE_SIZE, get_schedule
        from repro.kerberos.config import ProtocolConfig
        from repro.testbed import Testbed

        cold_start()  # also when a second pass rebuilds the deployment
        # Each exchange leaves two session keys' schedules in the DES
        # schedule cache until it holds its bound, after about 500
        # exchanges: fill it first, so that the cache's memory does not
        # depend on how many units a run gets through.
        filler = random.Random(-1 - self.seed)
        for _ in range(SCHEDULE_CACHE_SIZE):
            get_schedule(filler.randbytes(8))
        self.bed = Testbed(ProtocolConfig.v4(), seed=self.seed,
                           max_wire_log=self.WIRE_LOG)
        self.user, self.password = "pat", f"horse-{self.seed}"
        self.bed.add_user(self.user, self.password)
        self.echo = self.bed.add_echo_server("echohost")
        self.workstation = self.bed.add_workstation("ws1")
        self._payloads = random.Random(self.seed)
        # One untimed unit lets first-touch caches (the long-term keys'
        # schedules) fill before timing.
        self._warm = [self.run_unit(-1)]

    def run_unit(self, index: int) -> Unit:
        from repro.crypto.des import BLOCK_OPS

        bed = self.bed
        payloads = [self._payloads.randbytes(self.payload_bytes)
                    for _ in range(self.ROUND_TRIPS)]
        ops_before = BLOCK_OPS.count
        outcome = bed.login(self.user, self.password, self.workstation)
        client = outcome.client
        credentials = client.get_service_ticket(self.echo.principal)
        session = client.ap_exchange(credentials, bed.endpoint(self.echo))
        echoed = [session.call(payload) == b"echo:" + payload
                  for payload in payloads]
        client.ccache.destroy()
        self.workstation.logout(self.user)
        return Unit(work=1, attempted=1, failed=echoed.count(False),
                    extra={"des_ops": BLOCK_OPS.count - ops_before})

    def check(self, units: List[Unit]) -> None:
        every = self._warm + units
        _gate(all(u.failed == 0 for u in every),
              "exchange: an echo reply differed from b'echo:' + payload")
        ops = {u.extra["des_ops"] for u in every}
        _gate(len(ops) == 1,
              f"exchange: DES ops per unit differ across units: {sorted(ops)}")


class _LoadWorkload(Workload):
    """Shared by the two ``run_load`` workloads."""

    def check_deterministic(self, units: List[Unit]) -> None:
        digests = {report_digest(u.report) for u in units}
        _gate(len(digests) == 1,
              f"{self.name}: same-seed reports differ outside wall-clock "
              f"fields ({len(digests)} distinct digests)")

    def check_probe(self, report: Dict[str, Any]) -> None:
        probe = report["replay_probe"]
        _gate(probe["attempted"] > 0 and probe["rejected"] == probe["attempted"],
              f"{self.name}: replay probe rejected {probe['rejected']} of "
              f"{probe['attempted']}")

    def extra_metrics(self, units: List[Unit]) -> Dict[str, Any]:
        """The virtual-time outputs, recorded with a digest and never
        bounded: they come from the harness's hand-set cost model."""
        report = units[0].report
        latency = report["latency_us"]
        wait = report["queueing"]["cluster_queue_wait_us"]
        out: Dict[str, Any] = {
            "unit_p50_us": latency["unit"]["p50"],
            "unit_p99_us": latency["unit"]["p99"],
            "phase_p99_us": {p: latency[p]["p99"] for p in ("as", "tgs", "ap")},
            "ops_per_sim_s": report["throughput"]["ops_per_sim_s"],
            "queue_wait_p50_us": wait["p50"],
            "queue_wait_p99_us": wait["p99"],
            "report_sha256": report_digest(report),
        }
        curve = report.get("scaling_curve")
        if curve:
            out["scaling_curve"] = [
                [c["shards"], c["workers_per_shard"], c["ops_per_sim_s"],
                 c["unit_p99_us"]] for c in curve["cells"]
            ]
        return {"virtual": out}


class KdcLoad(_LoadWorkload):
    """Open loop in virtual time through the sharded KDC, no faults."""

    name = "kdc_load"
    why = ("small messages on the healthy path through the sharded frontend, "
           "scheduler and obs sinks: codec, seal, checksum and rpc dominate")

    def __init__(self, seed: int, requests: int = 40) -> None:
        super().__init__(seed)
        self.requests = requests

    def params(self) -> Dict[str, Any]:
        return {
            "mode": "engine", "protocol": "v5-draft3+replay-cache",
            "cipher_mode": "cbc", "shards": 3, "workers_per_shard": 2,
            "clients": 8, "requests": self.requests, "faults": False,
            "loop": "open (virtual time)",
        }

    def setup(self) -> None:
        import repro.load  # noqa: F401  (the import is the set-up)

    def run_unit(self, index: int) -> Unit:
        from repro.load import run_load

        cold_start()
        report = plain(run_load(faults=False, requests=self.requests,
                                seed=self.seed, out_path=None))
        through = report["throughput"]
        return Unit(work=through["completed"], attempted=self.requests,
                    failed=through["failed"], report=report)

    def check(self, units: List[Unit]) -> None:
        for unit in units:
            through = unit.report["throughput"]
            _gate(through["completed"] == self.requests,
                  f"kdc_load: completed {through['completed']} of "
                  f"{self.requests}")
            _gate(through["failed"] == 0,
                  f"kdc_load: {through['failed']} units failed")
            self.check_probe(unit.report)
        self.check_deterministic(units)


class Scale(_LoadWorkload):
    """The calibrated million-principal event model, faults and curve on."""

    name = "scale"
    why = ("crypto nearly bypassed: sim.sched, serve.scale, replay-cache "
           "churn and histograms dominate, with outage, failover and retry")

    #: The quick run offers 20,000 requests to 4,096-entry replay caches.
    #: A unit offers 300, so that a run holds enough units for a median
    #: and a tail, with the caches shrunk by the same factor, so that
    #: they evict as often per request.
    QUICK_REQUESTS, QUICK_REPLAY_CACHE = 20_000, 4_096

    def __init__(self, seed: int, principals: int = 10 ** 6,
                 requests: int = 300) -> None:
        super().__init__(seed)
        self.principals = principals
        self.requests = requests
        self.replay_cache = max(
            1, requests * self.QUICK_REPLAY_CACHE // self.QUICK_REQUESTS)

    def params(self) -> Dict[str, Any]:
        return {
            "mode": "model", "principals": self.principals, "quick": True,
            "requests": self.requests,
            "replay_cache_capacity": self.replay_cache,
            "faults": "default window", "scaling_curve": "default grid",
        }

    def setup(self) -> None:
        from repro.serve.scale import calibrate

        calibrate(self.seed)  # cached per process; run_load reuses it

    def run_unit(self, index: int) -> Unit:
        from repro.load import run_load

        cold_start()
        report = plain(run_load(principals=self.principals, quick=True,
                                requests=self.requests, seed=self.seed,
                                replay_cache_capacity=self.replay_cache,
                                out_path=None))
        modelled = report["config"]["requests"] + sum(
            cell["requests"] for cell in report["scaling_curve"]["cells"]
        )
        # One attempted operation per model run: the model's own
        # "unavailable" requests are its correct answer to the injected
        # outage, recorded below and checked by the gate.
        return Unit(work=modelled, attempted=1, report=report)

    def check(self, units: List[Unit]) -> None:
        for unit in units:
            report = unit.report
            through = report["throughput"]
            _gate(through["completed"] + through["failed"]
                  == report["config"]["requests"],
                  "scale: completed + failed != requests")
            errors = report["degradation"]["errors"]
            _gate(set(errors) <= {"unavailable"},
                  f"scale: failures other than unavailable: {errors}")
            self.check_probe(report)
        self.check_deterministic(units)

    def extra_metrics(self, units: List[Unit]) -> Dict[str, Any]:
        extra = super().extra_metrics(units)
        through = units[0].report["throughput"]
        extra["modelled_requests"] = {
            "main_run": units[0].report["config"]["requests"],
            "completed": through["completed"],
            "unavailable": through["failed"],
        }
        return extra


class Crack(Workload):
    """The dictionary attack, table path vs bitsliced path, over seeds."""

    name = "crack"
    why = ("a fresh key per guess (string_to_key and key schedule), the only "
           "workload that runs crypto.des_bitslice")

    def __init__(self, seed: int, targets: int = 3, words: int = 4096,
                 lanes: Optional[int] = None) -> None:
        from repro.crack import DEFAULT_LANES

        super().__init__(seed)
        self.targets = targets
        # ``attack_dictionary`` holds fewer words than the crack CLI's
        # default asks for and silently caps; the manifest records both.
        self.words_requested = words
        self.lanes = lanes or DEFAULT_LANES

    def params(self) -> Dict[str, Any]:
        return {
            "protocol": "v4", "targets": self.targets,
            "words_requested": self.words_requested,
            "words_effective": len(self.dictionary),
            "lanes": self.lanes, "unit_seeds": f"{self.seed} * 1000 + unit",
        }

    def setup(self) -> None:
        from repro.analysis.cracking import attack_dictionary

        self.dictionary = attack_dictionary(self.words_requested)
        self._rank: Dict[str, int] = {}
        for rank, word in enumerate(self.dictionary, start=1):
            self._rank.setdefault(word, rank)

    def useful_guesses(self, report: Dict[str, Any]) -> int:
        """Words tried up to each target's first match (the whole
        dictionary for an uncracked target): the same for both paths."""
        cracked = report["cracked"]
        uncracked = report["workload"]["targets"] - len(cracked)
        return (sum(self._rank[word] for word in cracked.values())
                + uncracked * len(self.dictionary))

    def run_unit(self, index: int) -> Unit:
        from repro.crack import run_crack

        report = run_crack(targets=self.targets, words=self.words_requested,
                           lanes=self.lanes, seed=self.seed * 1000 + index,
                           out_path=None)
        useful = self.useful_guesses(report)
        return Unit(work=useful, attempted=report["workload"]["targets"],
                    report=report, extra={
                        "seed": report["workload"]["seed"],
                        "bitslice_s": report["bitslice"]["seconds"],
                        "table_s": report["table"]["seconds"],
                    })

    def check(self, units: List[Unit]) -> None:
        for unit in units:
            report = unit.report
            _gate(report["agreement"] is True,
                  "crack: table and bitsliced paths cracked different sets")
            _gate(report["planted_found"] is True,
                  "crack: a planted password was not found")
            _gate(report["workload"]["words"] == len(self.dictionary),
                  "crack: run used a different dictionary")
            _gate(unit.work == report["table"]["attempts"],
                  f"crack: useful guesses {unit.work} != table attempts "
                  f"{report['table']['attempts']}")
        cracked_by_seed: Dict[int, Dict[str, str]] = {}
        for unit in units:
            first = cracked_by_seed.setdefault(unit.extra["seed"],
                                               unit.report["cracked"])
            _gate(unit.report["cracked"] == first,
                  "crack: two runs of one seed cracked different passwords")

    def rate(self, unit: Unit) -> float:
        """Useful guesses per second of the bitsliced path's own timer,
        at reference speed."""
        return unit.work / at_reference_speed(unit.extra["bitslice_s"],
                                              unit.ref_s)

    def extra_metrics(self, units: List[Unit]) -> Dict[str, Any]:
        first = units[0].report
        return {
            "table_guesses_per_s": statistics.median(
                u.work / at_reference_speed(u.extra["table_s"], u.ref_s)
                for u in units
            ),
            "useful_guesses_per_unit": units[0].work,
            "crack_attempts_field": {
                "bitslice": first["bitslice"]["attempts"],
                "table": first["table"]["attempts"],
            },
            "words_effective": len(self.dictionary),
        }


WORKLOADS = {cls.name: cls for cls in (Exchange, KdcLoad, Scale, Crack)}

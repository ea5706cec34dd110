"""Scale mode: the calibrated event model behind ``load --principals``.

Engine mode runs every exchange through the real Kerberos machinery —
software DES and all — which tops out around 10^2–10^3 units per
wall-second.  The paper's availability argument lives at site scale:
10^5–10^6 principals, morning surges, caches that actually churn.  This
module gets there by keeping the *queueing-relevant* parts real and
modelling the rest.

Real: the cluster topology (shards × workers), per-shard bounded
:class:`repro.kerberos.validation.LruReplayCache` instances (true LRU,
true evictions), CRC-32 routing via :func:`repro.serve.sharding.shard_of`
(AS by principal, TGS by authenticator fingerprint — replay affinity and
all), lazily derived principal keys through the real
:func:`repro.crypto.keys.string_to_key`, retry/backoff and failover
behaviour, and the discrete-event scheduler itself — shard workers are
generator processes blocking on ``recv`` of their shard's job channel,
so queues saturate because events genuinely contend.

Modelled: per-request CPU and wire cost.  Both are **calibrated, not
invented**: at startup a handful of units run through the real engine on
a small testbed (:func:`calibrate`), and the model takes its per-service
DES block-op counts (``KdcCluster.block_ops_by_service``) and per-phase
wire times from that measurement.  Service time then follows the same
formula the engine's worker pools use: dispatch overhead + block-ops ×
µs-per-block-op, with the same batch-window amortisation constants.

Principal popularity is Zipfian and the arrival rate optionally diurnal
(:mod:`repro.sim.workload`): skew is what makes one shard run hot and
its replay cache churn while its neighbours idle, and the surge is what
the paper's "available in real time" warning is about.

Every run also sweeps a shards×workers grid at overload (arrivals 4×
faster than the main run, failsafe and faults off) to chart the
throughput / p99 frontier that lands in ``BENCH_kdc.json``'s
``scaling_curve`` section; ``--scaling-curve`` widens the grid.
Everything except wall-clock figures is byte-for-byte deterministic for
a seed, across processes.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.crypto.keys import string_to_key
from repro.crypto.rng import DeterministicRandom
from repro.kerberos.validation import LruReplayCache
from repro.obs.timeseries import LogHistogram, TickSampler
from repro.serve.pool import (
    BACKEND_US_PER_BLOCK_OP,
    DEFAULT_BATCH_OVERHEAD_US,
    DEFAULT_BATCH_WINDOW_US,
    DEFAULT_OVERHEAD_US,
    DEFAULT_US_PER_BLOCK_OP,
)
from repro.serve.sharding import shard_of
from repro.sim.clock import MILLISECOND, MINUTE, SECOND, SimClock
from repro.sim.sched import Channel, Scheduler, recv, wait

__all__ = ["run_scale_model", "calibrate", "LazyPrincipalKeys"]

#: Mean interarrival for the scale model's open-loop calendar, in
#: microseconds.  Against the calibrated per-unit CPU cost (one AS +
#: one TGS request) on the default 3×2 cluster this offers ~2/3 of
#: capacity — past the critical point where tails form, and the
#: diurnal peak (when enabled) tips the cluster into visible backlog.
DEFAULT_SCALE_INTERARRIVAL_US = 60

#: Unit counts when ``requests`` is not given.
DEFAULT_SCALE_REQUESTS = 60_000
DEFAULT_QUICK_REQUESTS = 20_000

#: A job not picked up this long after dispatch is declared lost: its
#: failsafe timer fires and the waiting unit fails over or retries.
#: Healthy pickup cancels the timer, so timer cancellation runs on
#: every served request and cancelled-timer cost stays on the hot path.
FAILSAFE_US = 300 * MILLISECOND

#: Replay-cache freshness horizon offered with every check.
REPLAY_HORIZON_US = 5 * MINUTE

#: How many recorded TGS authenticators the replay probe re-offers.
REPLAY_PROBES = 5

#: Overload factor for scaling-curve cells: each cell is offered this
#: multiple of its *own* estimated capacity, so its completed-per-sim-
#: second reflects capacity rather than the offered rate — including
#: for the largest cells, which a fixed rate would leave underfed.
CURVE_OVERLOAD = 2

#: Cells swept by every scale run (shards, workers_per_shard)...
DEFAULT_CURVE_GRID: "List[Tuple[int, int]]" = [
    (2, 2), (3, 2), (3, 4), (4, 4), (4, 8), (8, 8),
]
#: ...and the full grid behind ``--scaling-curve``.
WIDE_CURVE_GRID: "List[Tuple[int, int]]" = [
    (s, w) for s in (2, 3, 4, 6, 8) for w in (1, 2, 4, 8)
]

_CALIBRATION_CACHE: Dict[int, Dict[str, int]] = {}


class LazyPrincipalKeys:
    """N principals whose DES keys are derived on first touch.

    Precomputing a million ``string_to_key`` results would dwarf the run
    itself; real KDCs do not do it either — the key is read when the
    principal authenticates.  ``materialized`` counts how many of the N
    ever did; with Zipfian popularity it stays far below N, and the
    report surfaces the gap.

    :func:`run_scale_model` keeps one store per call, for the main run
    only: the scaling-curve cells measure capacity, and no report field
    reads a key they would derive.
    """

    def __init__(self, total: int) -> None:
        if total < 1:
            raise ValueError("need at least one principal")
        self.total = total
        self._keys: Dict[int, bytes] = {}

    @property
    def materialized(self) -> int:
        return len(self._keys)

    @staticmethod
    def name(rank: int) -> str:
        return f"user{rank}"

    def key_for(self, rank: int) -> bytes:
        key = self._keys.get(rank)
        if key is None:
            key = self._keys[rank] = string_to_key(f"pw-{rank}")
        return key


class _BatchedExpiryCache(LruReplayCache):
    """The real LRU cache with the O(n) time-expiry scan batched.

    ``ReplayCache._expire`` walks every live entry on every check —
    invisible at engine scale, quadratic pain at 10^5 checks against
    full 4096-entry caches.  Membership, LRU recency, hit and eviction
    accounting are untouched; only the expiry sweep runs at horizon/8
    granularity, far finer than the freshness semantics need.
    """

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._next_sweep = 0

    def _expire(self, now: int, horizon: int) -> None:
        if now < self._next_sweep:
            return
        super()._expire(now, horizon)
        self._next_sweep = now + max(1, horizon // 8)


def calibrate(seed: int = 0) -> Dict[str, int]:
    """Measure per-phase wire time and DES cost from the real engine.

    Runs a few units through a small synchronous testbed and reads the
    cluster's per-service block-op meters plus the clock's per-phase
    advance.  Deterministic for a seed; cached per process because the
    scaling-curve sweep would otherwise re-measure per cell.
    """
    cached = _CALIBRATION_CACHE.get(seed)
    if cached is not None:
        return dict(cached)

    from repro.kerberos.config import ProtocolConfig
    from repro.testbed import Testbed

    units = 4
    bed = Testbed(
        ProtocolConfig.v5_draft3().but(replay_cache=True),
        seed=seed, shards=2, workers_per_shard=2,
    )
    for i in range(units):
        bed.add_user(f"caluser{i}", f"calpw-{i}")
    mail = bed.add_mail_server("mailhost")
    cluster = bed.realm.cluster
    assert cluster is not None

    as_wire = tgs_wire = ap_wire = 0
    for i in range(units):
        workstation = bed.add_workstation(f"calws{i}")
        mark = bed.clock.now()
        outcome = bed.login(f"caluser{i}", f"calpw-{i}", workstation)
        as_wire += bed.clock.now() - mark

        mark = bed.clock.now()
        cred = outcome.client.get_service_ticket(mail.principal)
        tgs_wire += bed.clock.now() - mark

        mark = bed.clock.now()
        session = outcome.client.ap_exchange(cred, bed.endpoint(mail))
        session.call(b"COUNT")
        ap_wire += bed.clock.now() - mark

    result = {
        "as_wire_us": as_wire // units,
        "tgs_wire_us": tgs_wire // units,
        "ap_us": ap_wire // units,
        "as_block_ops": cluster.block_ops_by_service["kerberos"] // units,
        "tgs_block_ops": cluster.block_ops_by_service["tgs"] // units,
    }
    _CALIBRATION_CACHE[seed] = dict(result)
    return result


class _ModelShard:
    """One modelled KDC shard: a job channel, real replay cache, meters."""

    def __init__(self, index: int, sched: Scheduler, replay_capacity: int,
                 workers: int) -> None:
        self.index = index
        self.workers = workers
        self.queue: Channel = sched.channel(f"shard{index}")
        self.replay_cache: LruReplayCache = _BatchedExpiryCache(replay_capacity)
        self.wait_histogram = LogHistogram()
        self.service_histogram = LogHistogram()
        self.down = False
        self.jobs = 0
        self.batched_jobs = 0
        self.busy_us = 0
        self.inflight = 0
        self.last_start = -(10 ** 18)
        self.first_arrival_us: Optional[int] = None
        self.last_finish_us = 0
        self.served: Dict[str, int] = {"kerberos": 0, "tgs": 0}
        self.failover_serves = 0

    def queue_depth(self) -> int:
        """Jobs queued or being served right now (instantaneous gauge)."""
        return len(self.queue) + self.inflight

    def utilization_pct(self) -> int:
        if self.first_arrival_us is None:
            return 0
        window = self.last_finish_us - self.first_arrival_us
        if window <= 0:
            return 0
        return min(100, (100 * self.busy_us) // (self.workers * window))

    def stats(self) -> Dict[str, Any]:
        """Mirror of ``KdcShard.stats()`` so report consumers see one shape."""
        return {
            "shard": self.index,
            "address": f"model-s{self.index}",
            "served": dict(self.served),
            "failover_serves": self.failover_serves,
            "replay_cache": {
                "capacity": self.replay_cache.capacity,
                "entries": len(self.replay_cache),
                "hits": self.replay_cache.hits,
                "evictions": self.replay_cache.evictions,
            },
            "pool": {
                "workers": self.workers,
                "jobs": self.jobs,
                "batched_jobs": self.batched_jobs,
                "busy_us": self.busy_us,
                "utilization_pct": self.utilization_pct(),
                "queue_wait_percentiles_us": self.wait_histogram.summary(),
                "service_percentiles_us": self.service_histogram.summary(),
            },
        }


class _Job:
    """One KDC request in flight between a unit and a shard worker."""

    __slots__ = ("service", "client", "block_ops", "fingerprint",
                 "auth_timestamp", "enqueued_at", "done", "failsafe",
                 "abandoned", "failover")

    def __init__(self, service: str, client: str, block_ops: int,
                 fingerprint: bytes, auth_timestamp: int, enqueued_at: int,
                 done: Channel, failover: bool) -> None:
        self.service = service
        self.client = client
        self.block_ops = block_ops
        self.fingerprint = fingerprint
        self.auth_timestamp = auth_timestamp
        self.enqueued_at = enqueued_at
        self.done = done
        self.failsafe: Optional[Any] = None
        self.abandoned = False
        self.failover = failover


class _Model:
    """One scale-model cluster: shards, workers, and request routing."""

    def __init__(self, shards: int, workers_per_shard: int,
                 replay_capacity: int, cal: Dict[str, int],
                 failsafe_us: Optional[int],
                 us_per_block_op: float = DEFAULT_US_PER_BLOCK_OP) -> None:
        self.clock = SimClock()
        self.sched = Scheduler(self.clock)
        self.cal = cal
        self.failsafe_us = failsafe_us
        self.workers_per_shard = workers_per_shard
        self.us_per_block_op = us_per_block_op
        self.shards = [
            _ModelShard(i, self.sched, replay_capacity, workers_per_shard)
            for i in range(shards)
        ]
        for shard in self.shards:
            for _ in range(workers_per_shard):
                self.sched.spawn(self._worker(shard))
        self.requests: Dict[str, int] = {"kerberos": 0, "tgs": 0}
        self.failovers = 0
        self.unavailable = 0
        self.retries = 0
        self.timeouts = 0

    # -- shard workers ---------------------------------------------------

    def _worker(self, shard: _ModelShard) -> Iterator[Any]:
        """One worker process: block on the shard channel, serve, repeat.

        Service time mirrors :class:`repro.serve.pool.WorkerPool`: cold
        dispatch overhead, or the batched overhead when this start lands
        within the batch window of the shard's previous dispatch, plus
        the calibrated DES block-op cost.
        """
        clock, sched = self.clock, self.sched
        while True:
            job = yield recv(shard.queue)
            if job.abandoned:
                continue
            if shard.down:
                # A crashed shard serves nothing: the job is lost and
                # the unit's failsafe timer will declare it so.
                continue
            if job.failsafe is not None:
                sched.cancel(job.failsafe)
                job.failsafe = None
            start = clock.now()
            in_batch = start - shard.last_start <= DEFAULT_BATCH_WINDOW_US
            overhead = (DEFAULT_BATCH_OVERHEAD_US if in_batch
                        else DEFAULT_OVERHEAD_US)
            service = overhead + int(job.block_ops * self.us_per_block_op)
            shard.last_start = start
            shard.inflight += 1
            if shard.first_arrival_us is None:
                shard.first_arrival_us = job.enqueued_at
            fresh = True
            if job.service == "tgs":
                fresh = shard.replay_cache.check_and_store(
                    job.client, job.auth_timestamp, job.fingerprint,
                    start, REPLAY_HORIZON_US,
                )
            yield wait(service)
            finish = clock.now()
            shard.inflight -= 1
            shard.jobs += 1
            if in_batch:
                shard.batched_jobs += 1
            shard.busy_us += service
            if finish > shard.last_finish_us:
                shard.last_finish_us = finish
            shard.wait_histogram.record(start - job.enqueued_at)
            shard.service_histogram.record(service)
            shard.served[job.service] += 1
            if job.failover:
                shard.failover_serves += 1
            job.done.put("ok" if fresh else "replay")

    # -- request routing -------------------------------------------------

    def _request(self, service: str, primary: int, block_ops: int,
                 client: str, fingerprint: bytes, rng: DeterministicRandom,
                 auth_timestamp: Optional[int] = None) -> Iterator[Any]:
        """Route one request (use via ``yield from``; returns the outcome).

        Mirrors the engine frontend: TGS traffic fails over around the
        ring when a shard is down or a job times out; AS traffic is
        pinned to the principal's home shard (its key lives there), so
        it retries with jittered exponential backoff and eventually
        degrades to ``unavailable``.

        Returns ``(outcome, served_by)`` where ``served_by`` is the
        index of the shard that actually served the request (``None``
        when nothing did) — the replay probe needs the true serving
        shard, since a failover serve stores the authenticator in the
        failover's cache, not the fingerprint-primary's.
        """
        wire = self.cal["as_wire_us" if service == "kerberos"
                        else "tgs_wire_us"]
        transit = max(1, wire // 2)
        attempt = 0
        while True:
            if service == "tgs":
                order = [(primary + k) % len(self.shards)
                         for k in range(len(self.shards))]
            else:
                order = [primary]
            for position, index in enumerate(order):
                shard = self.shards[index]
                if shard.down:
                    continue
                self.requests[service] += 1
                yield wait(transit)
                now = self.clock.now()
                # The authenticator timestamp is minted client-side,
                # *before* the wire — every retransmission carries the
                # same one, which is what makes replay detection (and
                # the probe's exact-key re-offer) work.
                stamp = auth_timestamp if auth_timestamp is not None else now
                job = _Job(service, client, block_ops, fingerprint,
                           stamp, now, self.sched.channel(), position > 0)
                if self.failsafe_us is not None:
                    job.failsafe = self.sched.after(
                        self.failsafe_us, lambda j=job: self._abandon(j)
                    )
                shard.queue.put(job)
                outcome = yield recv(job.done)
                if outcome == "timeout":
                    self.timeouts += 1
                    continue
                if position > 0:
                    self.failovers += 1
                yield wait(transit)
                return outcome, index
            attempt += 1
            if attempt > 2:
                self.unavailable += 1
                return "unavailable", None
            self.retries += 1
            backoff = 20 * MILLISECOND * (2 ** (attempt - 1))
            yield wait(backoff + rng.randint(0, backoff // 2))

    def _abandon(self, job: _Job) -> None:
        job.abandoned = True
        job.failsafe = None
        job.done.put("timeout")


def _pareto_frontier(cells: List[Dict[str, Any]]) -> None:
    """Mark cells no other cell dominates on (throughput up, p99 down)."""
    for cell in cells:
        cell["frontier"] = not any(
            other is not cell
            and other["ops_per_sim_s"] >= cell["ops_per_sim_s"]
            and other["unit_p99_us"] <= cell["unit_p99_us"]
            and (other["ops_per_sim_s"] > cell["ops_per_sim_s"]
                 or other["unit_p99_us"] < cell["unit_p99_us"])
            for other in cells
        )


def _run_model_once(
    principals: int, shards: int, workers_per_shard: int, requests: int,
    replay_cache_capacity: int, interarrival_us: int, zipf_s: float,
    diurnal: bool, faults: bool, seed_rng: DeterministicRandom,
    cal: Dict[str, int], key_store: Optional[LazyPrincipalKeys],
    failsafe_us: Optional[int],
    sampler_factory: Optional[Callable[["_Model"], TickSampler]] = None,
    us_per_block_op: float = DEFAULT_US_PER_BLOCK_OP,
) -> Dict[str, Any]:
    """One complete model run; returns the raw measurements.

    ``seed_rng`` is a :class:`repro.crypto.rng.DeterministicRandom` the
    caller forked; everything below draws from labelled forks of it, so
    the main run and each scaling-curve cell are independent streams
    and the whole thing replays identically for a seed.  ``key_store`` is
    the caller's principal-key store; with ``None`` no key is looked up.
    """
    from repro.sim.workload import (
        DiurnalCurve, ZipfianGenerator, open_loop_arrivals,
    )

    model = _Model(shards, workers_per_shard, replay_cache_capacity, cal,
                   failsafe_us, us_per_block_op=us_per_block_op)
    sched, clock = model.sched, model.clock
    sampler = sampler_factory(model) if sampler_factory is not None else None
    zipf = ZipfianGenerator(principals, s=zipf_s, rng=seed_rng.fork("zipf"))
    backoff_rng = seed_rng.fork("backoff")
    curve = None
    if diurnal:
        # Two compressed "days" over the expected run, so the surge of
        # the first peak lands mid-run — a 9am rush in miniature.  A
        # literal 24-hour period would be flat across a few sim-seconds.
        curve = DiurnalCurve(
            period_us=max(1000, (requests * interarrival_us) // 2)
        )
    arrivals = list(open_loop_arrivals(
        seed_rng.fork("arrivals"), requests, interarrival_us,
        diurnal=curve, start=interarrival_us,
    ))

    unit_latency = LogHistogram()
    phase_latency = {name: LogHistogram() for name in ("as", "tgs", "ap")}
    counters = {"completed": 0, "tgs_seen_at_restore": 0}
    errors: Dict[str, int] = {}
    recorded_tgs: List[Tuple[str, int, bytes, int]] = []

    fault_window: Optional[Dict[str, int]] = None
    victim = model.shards[1 % len(model.shards)]
    fault_from, fault_until = requests // 3, (2 * requests) // 3
    if faults and requests >= 3:
        fault_window = {"shard": victim.index, "first_op": fault_from,
                        "last_op": fault_until - 1}

    # TGS authenticator fingerprints: unique per op, mixed with a
    # seed-derived tag so different seeds populate (and route through)
    # the caches differently — but NOT with wall time, so runs replay.
    run_tag = seed_rng.fork("fingerprints").random_uint32()

    def unit_process(op: int, intended: int, rank: int) -> Iterator[Any]:
        if sampler is not None:
            sampler.poll()
        client = LazyPrincipalKeys.name(rank)
        if key_store is not None:
            key_store.key_for(rank)  # the AS key lookup: derive-on-first-touch
        outcome, _ = yield from model._request(
            "kerberos", shard_of(client, shards), cal["as_block_ops"],
            client, b"", backoff_rng,
        )
        as_end = clock.now()
        if outcome != "ok":
            errors[outcome] = errors.get(outcome, 0) + 1
            return
        phase_latency["as"].record(as_end - intended)
        yield wait(0)

        fingerprint = hashlib.sha1(
            f"{run_tag}:{op}".encode("ascii")
        ).digest()[:8]
        primary = shard_of(fingerprint, shards)
        auth_time = clock.now()
        outcome, served_by = yield from model._request(
            "tgs", primary, cal["tgs_block_ops"], client, fingerprint,
            backoff_rng, auth_timestamp=auth_time,
        )
        tgs_end = clock.now()
        if outcome != "ok":
            errors[outcome] = errors.get(outcome, 0) + 1
            return
        recorded_tgs.append((client, auth_time, fingerprint, served_by))
        phase_latency["tgs"].record(tgs_end - as_end)
        yield wait(0)

        yield wait(cal["ap_us"])
        ap_end = clock.now()
        phase_latency["ap"].record(ap_end - tgs_end)
        unit_latency.record(ap_end - intended)
        counters["completed"] += 1

    def fail_victim() -> None:
        victim.down = True

    def restore_victim() -> None:
        victim.down = False
        counters["tgs_seen_at_restore"] = len(recorded_tgs)

    # Fault timers before unit spawns: FIFO tie-breaking then fires the
    # outage before the unit that defines the window boundary.
    if fault_window is not None:
        sched.at(arrivals[fault_from], fail_victim)
        sched.at(arrivals[fault_until], restore_victim)
    ranks = [zipf.sample() for _ in range(requests)]
    sim_start = clock.now()
    for op, intended in enumerate(arrivals):
        sched.spawn(unit_process(op, intended, ranks[op]), at_time=intended)
    sched.run()

    # -- replay probe: re-offer recorded TGS authenticators -------------
    # The most recent inserts are the ones LRU churn cannot have evicted
    # yet; when faults ran, only post-restore recordings are probed (the
    # engine harness makes the same cut, for the same affinity reason).
    probe = {"attempted": 0, "rejected": 0}
    eligible = (recorded_tgs[counters["tgs_seen_at_restore"]:]
                if faults else recorded_tgs)
    for client, auth_time, fingerprint, served_by in eligible[-REPLAY_PROBES:]:
        probe["attempted"] += 1
        fresh = model.shards[served_by].replay_cache.check_and_store(
            client, auth_time, fingerprint, clock.now(), REPLAY_HORIZON_US,
        )
        if not fresh:
            probe["rejected"] += 1

    return {
        "model": model,
        "sampler": sampler,
        "unit_latency": unit_latency,
        "phase_latency": phase_latency,
        "completed": counters["completed"],
        "errors": errors,
        "fault_window": fault_window,
        "probe": probe,
        "sim_elapsed_us": clock.now() - sim_start,
    }


def run_scale_model(
    principals: int,
    shards: int = 3,
    requests: Optional[int] = None,
    workers_per_shard: int = 2,
    seed: int = 0,
    faults: bool = True,
    quick: bool = False,
    out_path: Optional[str] = "BENCH_kdc.json",
    replay_cache_capacity: int = 4096,
    interarrival_us: Optional[int] = None,
    zipf_s: float = 1.1,
    diurnal: bool = False,
    scaling_curve: bool = False,
    crypto_backend: str = "table",
) -> Dict[str, Any]:
    """The ``--principals N`` entry point; returns the schema-v3 report."""
    import json
    import platform
    import time as _time

    if crypto_backend not in BACKEND_US_PER_BLOCK_OP:
        raise ValueError(
            f"unknown crypto backend {crypto_backend!r}; expected one of "
            f"{sorted(BACKEND_US_PER_BLOCK_OP)}"
        )
    us_per_block_op = BACKEND_US_PER_BLOCK_OP[crypto_backend]
    if shards < 2:
        raise ValueError("the load harness needs a sharded bed (shards >= 2)")
    if principals < 1:
        raise ValueError("need at least one principal")
    if interarrival_us is None:
        interarrival_us = DEFAULT_SCALE_INTERARRIVAL_US
    if requests is None:
        requests = DEFAULT_QUICK_REQUESTS if quick else DEFAULT_SCALE_REQUESTS
    if quick:
        requests = min(requests, DEFAULT_QUICK_REQUESTS)

    wall_start = _time.perf_counter()
    cal = calibrate(seed)
    root_rng = DeterministicRandom(seed)

    def make_sampler(model: "_Model") -> TickSampler:
        sampler = TickSampler(model.clock, tick_us=max(1, interarrival_us))
        for shard in model.shards:
            sampler.gauge(f"shard{shard.index}.queue_depth",
                          lambda s=shard: s.queue_depth())
            sampler.gauge(f"shard{shard.index}.util_pct",
                          lambda s=shard: s.utilization_pct())
            sampler.gauge(f"shard{shard.index}.replay_entries",
                          lambda s=shard: len(s.replay_cache))
        sampler.gauge("cluster.replay_evictions",
                      lambda: sum(s.replay_cache.evictions
                                  for s in model.shards))
        sampler.gauge("cluster.tgs_failovers", lambda: model.failovers)
        sampler.gauge("cluster.unavailable", lambda: model.unavailable)
        sampler.gauge("cluster.client_retries", lambda: model.retries)
        return sampler

    key_store = LazyPrincipalKeys(principals)
    result = _run_model_once(
        principals, shards, workers_per_shard, requests,
        replay_cache_capacity, interarrival_us, zipf_s, diurnal, faults,
        root_rng.fork("scale:main"), cal, key_store, FAILSAFE_US,
        sampler_factory=make_sampler, us_per_block_op=us_per_block_op,
    )
    model: _Model = result["model"]
    sampler: TickSampler = result["sampler"]
    sampler.tick()  # final reading at end-of-run state

    # -- scaling curve: capacity frontier at overload --------------------
    # Each cell is offered CURVE_OVERLOAD × its own estimated capacity
    # (from the calibrated batched per-unit CPU cost), so every cell —
    # including the largest — genuinely saturates and completed/elapsed
    # measures what the cell can do, not what it was fed.
    grid = WIDE_CURVE_GRID if scaling_curve else DEFAULT_CURVE_GRID
    curve_requests = min(requests, 3000)
    unit_cpu_us = 2 * DEFAULT_BATCH_OVERHEAD_US + int(
        (cal["as_block_ops"] + cal["tgs_block_ops"]) * us_per_block_op
    )
    cells: List[Dict[str, Any]] = []
    for cell_shards, cell_workers in grid:
        cell_interarrival = max(
            1, unit_cpu_us // (CURVE_OVERLOAD * cell_shards * cell_workers)
        )
        cell = _run_model_once(
            principals, cell_shards, cell_workers, curve_requests,
            replay_cache_capacity, cell_interarrival, zipf_s,
            diurnal=False, faults=False,
            seed_rng=root_rng.fork(f"curve:{cell_shards}x{cell_workers}"),
            cal=cal, key_store=None, failsafe_us=None,
            us_per_block_op=us_per_block_op,
        )
        cell_wait = LogHistogram()
        for shard in cell["model"].shards:
            cell_wait.merge(shard.wait_histogram)
        elapsed = cell["sim_elapsed_us"]
        cells.append({
            "shards": cell_shards,
            "workers_per_shard": cell_workers,
            "requests": curve_requests,
            "interarrival_us": cell_interarrival,
            "completed": cell["completed"],
            "ops_per_sim_s": round(cell["completed"] * SECOND / elapsed, 2)
            if elapsed else 0.0,
            "unit_p99_us": cell["unit_latency"].summary()["p99"],
            "queue_wait_p99_us": cell_wait.summary()["p99"],
        })
    _pareto_frontier(cells)

    wall_elapsed = _time.perf_counter() - wall_start

    # -- the report, shaped exactly like engine mode ---------------------
    cluster_wait = LogHistogram()
    cluster_service = LogHistogram()
    queueing_shards: List[Dict[str, Any]] = []
    for shard in model.shards:
        cluster_wait.merge(shard.wait_histogram)
        cluster_service.merge(shard.service_histogram)
        queueing_shards.append({
            "shard": shard.index,
            "queue_wait_us": shard.wait_histogram.summary(),
            "service_us": shard.service_histogram.summary(),
            "utilization_pct": shard.utilization_pct(),
        })

    errors: Dict[str, int] = result["errors"]
    completed: int = result["completed"]
    sim_elapsed_us: int = result["sim_elapsed_us"]
    report: Dict[str, Any] = {
        "schema": "repro-bench-kdc/3",
        "quick": quick,
        "python": platform.python_version(),
        "config": {
            "shards": shards,
            "clients": principals,
            "requests": requests,
            "workers_per_shard": workers_per_shard,
            "seed": seed,
            "faults": faults,
            "replay_cache_capacity": replay_cache_capacity,
            "interarrival_us": interarrival_us,
            "protocol": "v5-draft3+replay-cache",
            "crypto_backend": crypto_backend,
            "us_per_block_op": us_per_block_op,
        },
        "workload": {
            "mode": "model",
            "principals": {
                "total": principals,
                "materialized": key_store.materialized,
            },
            "zipf_s": zipf_s,
            "diurnal": bool(diurnal),
            "calibration": cal,
        },
        "latency_us": {
            "unit": result["unit_latency"].summary(),
            "as": result["phase_latency"]["as"].summary(),
            "tgs": result["phase_latency"]["tgs"].summary(),
            "ap": result["phase_latency"]["ap"].summary(),
        },
        "throughput": {
            "completed": completed,
            "failed": sum(errors.values()),
            "sim_seconds": round(sim_elapsed_us / SECOND, 6),
            "ops_per_sim_s": round(completed * SECOND / sim_elapsed_us, 2)
            if sim_elapsed_us else 0.0,
            # Wall-clock figures are informational, not deterministic.
            "wall_seconds": round(wall_elapsed, 3),
            "ops_per_wall_s": round(completed / wall_elapsed, 1)
            if wall_elapsed else 0.0,
        },
        "degradation": {
            "fault_window": result["fault_window"],
            "client_retries": model.retries,
            "tgs_failovers": model.failovers,
            "unavailable_replies": model.unavailable,
            "job_timeouts": model.timeouts,
            "errors": dict(sorted(errors.items())),
        },
        "queueing": {
            "per_shard": queueing_shards,
            "cluster_queue_wait_us": cluster_wait.summary(),
            "cluster_service_us": cluster_service.summary(),
        },
        "scheduler": model.sched.stats(),
        "timeseries": sampler.summaries(),
        "replay_probe": result["probe"],
        "scaling_curve": {
            "requests_per_cell": curve_requests,
            "overload_factor": CURVE_OVERLOAD,
            "unit_cpu_us": unit_cpu_us,
            "cells": cells,
        },
        "cluster": {
            "realm": "ATHENA.MIT.EDU",
            "shards": shards,
            "requests": dict(model.requests),
            "failovers": model.failovers,
            "unavailable": model.unavailable,
            "per_shard": [shard.stats() for shard in model.shards],
        },
        "metrics": {},
    }
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        report["written_to"] = out_path
    report["_sampler"] = sampler
    return report

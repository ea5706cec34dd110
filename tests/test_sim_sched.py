"""The discrete-event scheduler: ordering, timers, channels, determinism.

The load harness's acceptance properties (same seed ⇒ same percentiles,
FIFO fairness at equal timestamps, failsafe timers dying on pickup) all
reduce to invariants of :mod:`repro.sim.sched`; this file pins them at
the source.
"""

import pytest

from repro.sim.clock import EventTimeline, SimClock
from repro.sim.sched import Channel, Scheduler, recv, wait


def test_events_dispatch_in_time_order():
    clock = SimClock()
    sched = Scheduler(clock)
    seen = []
    sched.at(300, lambda: seen.append(("c", clock.now())))
    sched.at(100, lambda: seen.append(("a", clock.now())))
    sched.at(200, lambda: seen.append(("b", clock.now())))
    sched.run()
    assert seen == [("a", 100), ("b", 200), ("c", 300)]


def test_fifo_tie_break_at_equal_timestamps():
    """Two events at the same microsecond run in scheduling order, not
    heap-internal order — the property the fault window's op-index
    semantics depend on."""
    sched = Scheduler(SimClock())
    seen = []
    for tag in range(10):
        sched.at(500, lambda t=tag: seen.append(t))
    sched.run()
    assert seen == list(range(10))


def test_scheduling_into_the_past_raises():
    clock = SimClock()
    sched = Scheduler(clock)
    clock.advance(100)
    with pytest.raises(ValueError):
        sched.at(50, lambda: None)
    with pytest.raises(ValueError):
        sched.after(-1, lambda: None)


def test_wait_resumes_after_delay():
    clock = SimClock()
    sched = Scheduler(clock)
    marks = []

    def process():
        marks.append(clock.now())
        yield wait(250)
        marks.append(clock.now())
        yield wait(0)  # a zero wait is a yield point, not a no-op
        marks.append(clock.now())

    sched.spawn(process(), at_time=10)
    sched.run()
    assert marks == [10, 260, 260]


def test_negative_wait_rejected():
    with pytest.raises(ValueError):
        wait(-5)


def test_channel_roundtrip_and_fifo_waiters():
    """Two receivers parked on one channel are served in park order."""
    clock = SimClock()
    sched = Scheduler(clock)
    got = []

    def receiver(tag):
        item = yield recv(channel)
        got.append((tag, item, clock.now()))

    def sender():
        yield wait(100)
        channel.put("x")
        channel.put("y")

    channel = sched.channel("jobs")
    sched.spawn(receiver("r1"), at_time=0)
    sched.spawn(receiver("r2"), at_time=1)
    sched.spawn(sender(), at_time=2)
    sched.run()
    assert got == [("r1", "x", 102), ("r2", "y", 102)]


def test_channel_buffers_when_no_waiter():
    sched = Scheduler(SimClock())
    channel = sched.channel()
    channel.put(1)
    channel.put(2)
    assert len(channel) == 2
    got = []

    def receiver():
        got.append((yield recv(channel)))
        got.append((yield recv(channel)))

    sched.spawn(receiver())
    sched.run()
    assert got == [1, 2]
    assert len(channel) == 0


def test_timer_cancellation_prevents_firing():
    """The shard-failover failsafe pattern: cancel on pickup."""
    clock = SimClock()
    sched = Scheduler(clock)
    fired = []
    timer = sched.at(1000, lambda: fired.append("failsafe"))
    sched.at(500, lambda: sched.cancel(timer))
    sched.run()
    assert fired == []
    assert sched.timers_cancelled == 1
    assert timer.cancelled
    # cancelling twice is a no-op, not a double count
    assert sched.cancel(timer) is False
    assert sched.timers_cancelled == 1
    # a cancelled entry is dropped without moving the clock to its slot
    assert clock.now() == 500


def test_cancelled_heap_entries_are_skipped_cheaply():
    sched = Scheduler(SimClock())
    timers = [sched.at(100, lambda: None) for _ in range(50)]
    for timer in timers:
        sched.cancel(timer)
    processed = sched.run()
    assert processed == 0
    assert all(t.fn is None for t in timers)


def test_elapsed_event_time_folds_into_next_wait():
    """Synchronous clock.advance inside an event lands in the timeline
    and is charged to the process's next sleep."""
    clock = SimClock()
    sched = Scheduler(clock)
    marks = []

    def process():
        clock.advance(40)  # synchronous work inside the event
        yield wait(60)
        marks.append(clock.now())

    sched.spawn(process(), at_time=0)
    sched.run()
    assert marks == [100]  # 40 elapsed + 60 wait


def test_timeline_detached_after_run():
    clock = SimClock()
    sched = Scheduler(clock)
    sched.at(10, lambda: None)
    sched.run()
    assert clock.timeline is None
    # advance() is immediate again outside the scheduler
    clock.advance(5)
    assert clock.now() == 15


def test_run_until_stops_before_later_events():
    clock = SimClock()
    sched = Scheduler(clock)
    seen = []
    sched.at(100, lambda: seen.append("early"))
    sched.at(900, lambda: seen.append("late"))
    sched.run(until=500)
    assert seen == ["early"]
    # the clock rests at the last dispatched event, not the horizon
    assert clock.now() == 100
    sched.run()
    assert seen == ["early", "late"]


def test_stats_shape_and_heap_high_water():
    sched = Scheduler(SimClock())
    for t in range(7):
        sched.at(t, lambda: None)
    assert sched.heap_high_water == 7
    sched.run()
    stats = sched.stats()
    assert stats == {
        "events_processed": 7,
        "heap_high_water": 7,
        "timers_cancelled": 0,
        "processes_spawned": 0,
        "pending": 0,
    }


def test_same_seed_identical_event_trace():
    """Two schedulers driven by identically-seeded workloads produce
    the same (time, tag) dispatch sequence — the bedrock of the load
    harness's same-seed ⇒ same-report guarantee."""
    from repro.crypto.rng import DeterministicRandom

    def run_once():
        clock = SimClock()
        sched = Scheduler(clock)
        rng = DeterministicRandom(7)
        trace = []

        def unit(tag):
            yield wait(rng.randint(1, 50))
            trace.append((tag, clock.now()))
            yield wait(rng.randint(1, 50))
            trace.append((tag, clock.now()))

        for tag in range(20):
            sched.spawn(unit(tag), at_time=rng.randint(0, 100))
        sched.run()
        return trace

    assert run_once() == run_once()


def test_event_timeline_reset_returns_and_zeroes():
    timeline = EventTimeline()
    timeline.elapsed = 42
    assert timeline.reset() == 42
    assert timeline.elapsed == 0
    assert timeline.reset() == 0


def test_clock_advance_to_rejects_backwards():
    clock = SimClock()
    clock.advance_to(100)
    assert clock.now() == 100
    with pytest.raises(ValueError):
        clock.advance_to(99)


def test_process_yielding_garbage_is_a_type_error():
    sched = Scheduler(SimClock())

    def bad():
        yield "not a command"

    sched.spawn(bad())
    with pytest.raises(TypeError):
        sched.run()


def test_channel_is_exported_from_sim_package():
    from repro.sim import Channel as ExportedChannel, Scheduler as S, Timer

    assert ExportedChannel is Channel
    assert S is Scheduler
    assert Timer is not None


# -- same-microsecond order across every kind of event ----------------------
#
# Four kinds of event share the heap: callback timers (``at``/``after``/
# ``spawn``), process resumes after a ``wait``, channel deliveries to a
# parked receiver, and delayed channel landings (a process that ran up
# event time with ``clock.advance`` before blocking on ``recv``).  All of
# them draw from one sequence counter, so events due at the same virtual
# microsecond dispatch in the order they were scheduled, whatever their
# kind.


def test_fifo_across_all_four_event_kinds():
    clock = SimClock()
    sched = Scheduler(clock)
    seen = []
    inbox = sched.channel("inbox")
    late = sched.channel("late")

    def lander():
        clock.advance(100)  # event time: its recv lands on `late` at t=100
        seen.append(("lander got", (yield recv(late))))

    def receiver():
        seen.append(("delivery", (yield recv(inbox))))

    def sleeper():
        yield wait(100)  # a resume entry at t=100
        seen.append(("resume",))
        # parks behind the lander only if the landing dispatched first
        seen.append(("sleeper got", (yield recv(late))))

    def kicker():
        clock.advance(100)
        inbox.put("x")  # a delivery entry at t=100
        sched.at(100, lambda: seen.append(("callback", "B")))
        yield wait(0)
        seen.append(("kicker",))
        late.put("first")
        late.put("second")

    sched.spawn(lander())
    sched.spawn(receiver())
    sched.spawn(sleeper())
    sched.at(100, lambda: seen.append(("callback", "A")))
    sched.spawn(kicker())
    sched.run()
    assert seen == [
        ("callback", "A"),
        ("resume",),
        ("delivery", "x"),
        ("callback", "B"),
        ("kicker",),
        ("lander got", "first"),
        ("sleeper got", "second"),
    ]
    assert clock.now() == 100
    assert sched.stats() == {
        "events_processed": 12,
        "heap_high_water": 6,
        "timers_cancelled": 0,
        "processes_spawned": 4,
        "pending": 0,
    }


def _stats(events, cancelled):
    return {"events_processed": events, "heap_high_water": 28,
            "timers_cancelled": cancelled, "processes_spawned": 12,
            "pending": 0}


#: ``_mixed_workload(seed)`` → (log length, log SHA-256, stats), recorded
#: before the heap carried processes and channels directly.
MIXED_PINS = {
    7: (58, "303b907805a8a84c65f2dcf4108f0b8e3d3179f6521945080386595190a0e9d6",
        _stats(72, 2)),
    11: (58, "306c3bbd97db52869da0bc8519c8047c557b7efccf2c3d687c184d0e247d89de",
         _stats(84, 1)),
}


def _mixed_workload(seed):
    """A seeded mix of every event kind, cancellations and event time.

    Returns the ``(time, label)`` dispatch log and ``stats()``.  Process
    scripts are drawn up front; callbacks draw from the same stream as
    they fire, so any change in dispatch order changes what follows.
    """
    import random

    rng = random.Random(seed)
    clock = SimClock()
    sched = Scheduler(clock)
    channels = [sched.channel(f"c{i}") for i in range(3)]
    timers = []
    log = []

    def callback(tag):
        def fire():
            log.append((clock.now(), f"cb{tag}"))
            roll = rng.random()
            if roll < 0.3:
                clock.advance(rng.choice((0, 3, 7)))
                rng.choice(channels).put(f"cb{tag}")
            elif roll < 0.5 and timers:
                victim = rng.choice(timers)
                log.append((clock.now(), f"cancel:{sched.cancel(victim)}"))
            elif roll < 0.7:
                timers.append(sched.after(rng.choice((0, 5, 11)),
                                          callback(f"{tag}."
                                                   f"{rng.randint(0, 9)}")))
        return fire

    def process(pid, script):
        for op, arg in script:
            if op == "wait":
                yield wait(arg)
                log.append((clock.now(), f"p{pid}:woke"))
            elif op == "recv":
                item = yield recv(channels[arg])
                log.append((clock.now(), f"p{pid}:got:{item}"))
            elif op == "put":
                channels[arg].put(f"p{pid}")
            elif op == "land":  # event time first: a delayed landing
                clock.advance(1 + pid % 4)
                item = yield recv(channels[arg])
                log.append((clock.now(), f"p{pid}:landed:{item}"))
            else:
                clock.advance(arg)

    for pid in range(12):
        script = []
        for _ in range(rng.randint(2, 7)):
            op = rng.choice(("wait", "wait", "recv", "land", "put", "put",
                             "advance"))
            arg = (rng.choice((0, 0, 5, 10)) if op == "wait"
                   else rng.randint(0, 2) if op in ("recv", "land", "put")
                   else rng.choice((1, 5, 10)))
            script.append((op, arg))
        sched.spawn(process(pid, script), at_time=rng.choice((0, 5, 10, 15)))
    for tag in range(16):
        timers.append(sched.at(rng.choice((0, 5, 10, 15, 20)),
                               callback(tag)))
    sched.run()
    return log, sched.stats()


@pytest.mark.parametrize("seed", sorted(MIXED_PINS))
def test_seeded_mixed_workload_dispatch_order_is_pinned(seed):
    """The exact dispatch order and counters of a seeded mix of all four
    event kinds: a refactor that reorders equal-time events, even
    consistently, changes the digest."""
    import hashlib

    log, stats = _mixed_workload(seed)
    digest = hashlib.sha256(repr(log).encode("ascii")).hexdigest()
    assert (len(log), digest, stats) == MIXED_PINS[seed]

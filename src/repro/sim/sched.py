"""The discrete-event scheduler: one heap, many suspended processes.

The paper's operational warning — "the Kerberos server must be
available in real time" — only bites under *concurrent* traffic, and
the original synchronous fabric could not express concurrency: each
request ran start-to-finish, dragging the shared clock with it, so by
the time the second client "arrived" the first had already pushed
virtual time past every queue.  This module replaces stepping the
clock with scheduling against it:

* :class:`Scheduler` owns a binary-heap event queue keyed by
  ``(time, seq)``.  ``seq`` is a monotonic counter, so two events at
  the same virtual microsecond dispatch in FIFO order — determinism
  does not depend on heap internals.

* Processes are plain generators.  They suspend by yielding command
  objects — ``wait(delay)`` to sleep in virtual time, ``recv(channel)``
  to block on a message — and the scheduler resumes them when the
  timer fires or a message lands.  No threads, no async framework:
  a million-event run is one heap and a while-loop.

* The synchronous engine (crypto, codecs, the whole Kerberos message
  machinery) runs *unmodified* inside events.  The trick is
  :class:`repro.sim.clock.EventTimeline`: while the scheduler runs, the
  clock defers ``advance()`` into a per-event elapsed accumulator, so a
  wire transit inside one event does not steal time from any other
  event.  The scheduler folds each event's elapsed time back in when
  the dispatching process next sleeps.

Timers are cancellable (``Timer.cancel()``), which is what shard
failover needs: the "declare this request lost" failsafe dies the
moment the retry succeeds.  Stats (events processed, heap high-water
mark, timers cancelled) surface in ``python -m repro serve`` and the
load report so the scheduler itself is observable.
"""

from __future__ import annotations

import heapq
from typing import (
    Any, Callable, Deque, Dict, Generator, List, Optional, Tuple,
)
from collections import deque

from repro.sim.clock import EventTimeline, SimClock

__all__ = ["Scheduler", "Timer", "Channel", "wait", "recv", "Process"]

#: A process is a generator yielding scheduler commands; the value sent
#: back into the generator is the command's result (e.g. the received
#: message for ``recv``).
Process = Generator[Any, Any, None]


class _Wait:
    """Command: suspend the process for ``delay`` virtual microseconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: int) -> None:
        if delay < 0:
            raise ValueError("cannot wait a negative delay")
        self.delay = delay


class _Recv:
    """Command: suspend until a message arrives on ``channel``."""

    __slots__ = ("channel",)

    def __init__(self, channel: "Channel") -> None:
        self.channel = channel


def wait(delay: int) -> _Wait:
    """Yield this from a process to sleep *delay* virtual microseconds."""
    return _Wait(delay)


def recv(channel: "Channel") -> _Recv:
    """Yield this from a process to block until *channel* has a message."""
    return _Recv(channel)


class Timer:
    """A scheduled callback; cancel before it fires and it never runs."""

    __slots__ = ("time", "fn", "cancelled")

    def __init__(self, time: int, fn: Callable[[], None]) -> None:
        self.time = time
        self.fn: Optional[Callable[[], None]] = fn
        self.cancelled = False

    def cancel(self) -> bool:
        """Stop the timer.  Returns True if it had not yet fired."""
        if self.cancelled or self.fn is None:
            return False
        self.cancelled = True
        self.fn = None  # drop references so cancelled heap entries are cheap
        return True


class Channel:
    """An unbounded FIFO message queue processes block on via ``recv``.

    ``put`` never blocks (the simulation's queues bound themselves in
    virtual time, not buffer slots); if a process is parked on the
    channel, delivery is scheduled immediately — *at the current virtual
    time* — preserving FIFO fairness among waiters.
    """

    __slots__ = ("_sched", "_items", "_waiters", "name")

    def __init__(self, sched: "Scheduler", name: str = "") -> None:
        self._sched = sched
        self._items: Deque[Any] = deque()
        self._waiters: Deque[Process] = deque()
        self.name = name

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._waiters:
            self._sched._resume(self._waiters.popleft(), item)
        else:
            self._items.append(item)

    def _park(self, process: Process) -> bool:
        """Try an immediate take; otherwise park the process.  Returns
        True when the process got an item scheduled right away."""
        if self._items:
            self._sched._resume(process, self._items.popleft())
            return True
        self._waiters.append(process)
        return False


#: One heap entry: ``(time, seq, target, value)``.  ``target`` is a
#: :class:`Timer` (value unused), a :class:`Channel` (a delayed ``recv``
#: landing; value is the process to park), or a process (a resume;
#: value is what to send it).  ``seq`` is unique, so comparisons never
#: reach ``target``.
_Entry = Tuple[int, int, Any, Any]


class Scheduler:
    """The event loop: dispatches heap events in (time, FIFO) order."""

    def __init__(self, clock: SimClock) -> None:
        self.clock = clock
        self._heap: List[_Entry] = []
        self._seq = 0
        self._running = False
        self._timeline: Optional[EventTimeline] = None
        # observability: surfaced by `repro serve` / the load report
        self.events_processed = 0
        self.heap_high_water = 0
        self.timers_cancelled = 0
        self.processes_spawned = 0

    # -- scheduling primitives ------------------------------------------

    def _push(self, time: int, target: Any, value: Any) -> None:
        self._seq += 1
        heap = self._heap
        heapq.heappush(heap, (time, self._seq, target, value))
        if len(heap) > self.heap_high_water:
            self.heap_high_water = len(heap)

    def at(self, time: int, fn: Callable[[], None]) -> Timer:
        """Run ``fn`` at absolute virtual *time*.  Returns a cancellable
        :class:`Timer`.  Scheduling into the past is an error."""
        if time < self.clock.now():
            raise ValueError(
                f"cannot schedule at {time} before now {self.clock.now()}"
            )
        timer = Timer(time, fn)
        self._push(time, timer, None)
        return timer

    def after(self, delay: int, fn: Callable[[], None]) -> Timer:
        """Run ``fn`` *delay* microseconds from the current virtual time."""
        if delay < 0:
            raise ValueError("cannot schedule a negative delay")
        return self.at(self.clock.now() + delay, fn)

    def channel(self, name: str = "") -> Channel:
        return Channel(self, name)

    def spawn(self, process: Process, at_time: Optional[int] = None) -> Timer:
        """Start a generator process (now, or at absolute ``at_time``)."""
        self.processes_spawned += 1
        if at_time is None:
            at_time = self.clock.now()
        return self.at(at_time, lambda: self._step(process, None))

    def cancel(self, timer: Timer) -> bool:
        if timer.cancel():
            self.timers_cancelled += 1
            return True
        return False

    # -- process stepping -----------------------------------------------

    def _resume(self, process: Process, value: Any) -> None:
        """Send *value* into *process* at the current virtual time."""
        self._push(self.clock.now(), process, value)

    def _step(self, process: Process, value: Any) -> None:
        """Advance a process to its next suspension point.

        Synchronous code inside the process may call ``clock.advance``
        (wire transits, backoffs); the timeline defers those into
        elapsed time, which we fold into the process's next sleep so
        its activity occupies virtual time without stalling the loop.
        ``run`` zeroes the timeline before every event, and the next
        entry goes straight onto the heap.
        """
        try:
            command = process.send(value)
        except StopIteration:
            return
        timeline = self._timeline
        elapsed = timeline.reset() if timeline is not None else 0
        kind = type(command)
        if kind is _Wait:
            # a zero wait still re-enters the heap: it is a fairness
            # yield point, not a no-op
            target: Any = process
            value = None
            delay = command.delay + elapsed
        elif kind is _Recv:
            if not elapsed:
                command.channel._park(process)
                return
            # time passed before blocking; land on the channel only
            # after that time has elapsed
            target, value, delay = command.channel, process, elapsed
        else:
            raise TypeError(
                f"process yielded {command!r}; expected wait(...) or recv(...)"
            )
        self._push(self.clock._now + delay, target, value)

    # -- the loop --------------------------------------------------------

    def run(self, until: Optional[int] = None) -> int:
        """Dispatch events until the heap drains (or past ``until``).

        Attaches an :class:`EventTimeline` to the clock for the
        duration, so synchronous engine code inside events overlaps in
        virtual time instead of serializing.  Returns the number of
        events processed by this call.  Nothing else moves the clock's
        base while the loop runs, so it sets the base time and zeroes
        the timeline directly rather than through ``advance_to``/``reset``.
        """
        if self._running:
            raise RuntimeError("scheduler is already running")
        self._running = True
        timeline = self._timeline = EventTimeline()
        clock = self.clock
        clock.attach_timeline(timeline)
        heap = self._heap
        pop = heapq.heappop
        step = self._step
        processed = 0
        try:
            while heap:
                if until is not None and heap[0][0] > until:
                    break
                time, _seq, target, value = pop(heap)
                kind = type(target)
                if kind is Timer and target.fn is None:
                    continue  # cancelled
                clock._now = time
                timeline.elapsed = 0
                if kind is Timer:
                    fn, target.fn = target.fn, None
                    fn()
                elif kind is Channel:
                    target._park(value)
                else:
                    step(target, value)
                processed += 1
        finally:
            self.events_processed += processed
            timeline.reset()
            clock.detach_timeline()
            self._timeline = None
            self._running = False
        if until is not None and not heap:
            # quiescent before the horizon: advance to it
            if until > clock.now():
                clock.advance_to(until)
        return processed

    def stats(self) -> Dict[str, int]:
        """Deterministic counters for reports and the topology inspector."""
        return {
            "events_processed": self.events_processed,
            "heap_high_water": self.heap_high_water,
            "timers_cancelled": self.timers_cancelled,
            "processes_spawned": self.processes_spawned,
            "pending": len(self._heap),
        }

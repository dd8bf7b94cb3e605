"""Event queue and simulated clock.

The :class:`Simulator` is a classic discrete-event scheduler: callbacks are
enqueued at absolute simulated times and executed in time order.  Ties are
broken by insertion order, which keeps runs deterministic.

Time is a float measured in **seconds** of simulated time.  All network
latencies, transmission delays and protocol timers in this repository are
expressed in seconds.

Pending timers live in one binary heap of ``(deadline, insertion order,
timer)`` entries, driven with :mod:`heapq` directly from the run loops.
Cancelled timers stay in the heap until they reach its head or a lazy
compaction drops them (see :meth:`Simulator._timer_cancelled`).
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Tuple

if TYPE_CHECKING:  # the sim core stays import-free of the obs plane
    from repro.obs.metrics import MetricsRegistry


#: One stored timer: ``(deadline, insertion order, timer)``.  Tuples sort
#: lexicographically and insertion order is unique, so comparisons never
#: reach the Timer object.
Entry = Tuple[float, int, "Timer"]

_heappush = heapq.heappush
_heappop = heapq.heappop


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel."""


class Timer:
    """Handle for a scheduled callback.

    A ``Timer`` is returned by :meth:`Simulator.schedule` and
    :meth:`Simulator.call_at`.  It can be cancelled as long as it has not
    fired; cancelling an already-fired or already-cancelled timer is a no-op,
    which makes cleanup code straightforward.
    """

    __slots__ = ("deadline", "_callback", "_args", "_cancelled", "_fired", "_sim")

    def __init__(
        self,
        deadline: float,
        callback: Callable[..., None],
        args: Tuple[Any, ...],
        sim: Optional["Simulator"] = None,
    ):
        self.deadline = deadline
        self._callback = callback
        self._args = args
        self._cancelled = False
        self._fired = False
        # Back-reference so cancellation can be accounted for lazily by
        # the owning simulator's heap compaction (None for standalone
        # timers constructed in tests).
        self._sim = sim

    @property
    def active(self) -> bool:
        """True while the timer is pending (not fired, not cancelled)."""
        return not (self._cancelled or self._fired)

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def fired(self) -> bool:
        return self._fired

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent."""
        if not self._fired and not self._cancelled:
            self._cancelled = True
            if self._sim is not None:
                self._sim._timer_cancelled()

    def _fire(self) -> None:
        if self._cancelled:
            return
        self._fired = True
        self._callback(*self._args)

    def __repr__(self) -> str:
        state = "cancelled" if self._cancelled else ("fired" if self._fired else "pending")
        return f"Timer(deadline={self.deadline:.9f}, {state})"


class Simulator:
    """Discrete-event scheduler with a simulated clock.

    Example::

        sim = Simulator()
        sim.schedule(1.5, print, "fires at t=1.5")
        sim.run()
    """

    #: Compaction only kicks in above this many cancelled entries, so small
    #: heaps never pay the rebuild cost.
    COMPACT_MIN_CANCELLED = 64

    #: ...and only once dead entries make up at least this fraction of the
    #: heap.  Each compaction then examines at most ``1/ratio`` entries per
    #: cancellation since the previous one, which amortises to O(1).
    COMPACT_DEAD_RATIO = 0.5

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: List[Entry] = []
        self._sequence = itertools.count()
        self._running = False
        self._events_processed = 0
        #: Cancelled timers still occupying the heap.
        self.cancelled_pending = 0
        #: Number of lazy compaction passes performed so far.
        self.compactions = 0
        #: Total entries examined by compaction -- the amortisation bound.
        self.compaction_work = 0
        # Optional observability hook (see set_metrics); None keeps the
        # hot loop to a single identity check per event.
        self._m_events: Optional[Any] = None
        self._m_queue_peak: Optional[Any] = None

    def set_metrics(self, metrics: "MetricsRegistry") -> None:
        """Attach a :class:`repro.obs.metrics.MetricsRegistry`.

        Publishes ``sim.events`` (callbacks executed) and
        ``sim.queue_depth_peak`` (event-loop occupancy high watermark).
        """
        self._m_events = metrics.counter("sim.events")
        self._m_queue_peak = metrics.gauge("sim.queue_depth_peak")

    def _note_event(self) -> None:
        assert self._m_events is not None and self._m_queue_peak is not None
        self._m_events.inc()
        self._m_queue_peak.set(len(self._heap))

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def scheduler_backend(self) -> str:
        """Name of the timer storage; the binary heap is the only one."""
        return "heap"

    @property
    def events_processed(self) -> int:
        """Total number of callbacks executed so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of events still queued (including cancelled timers)."""
        return len(self._heap)

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Timer:
        """Run ``callback(*args)`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.call_at(self._now + delay, callback, *args)

    def call_at(self, when: float, callback: Callable[..., None], *args: Any) -> Timer:
        """Run ``callback(*args)`` at absolute simulated time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at t={when} (now={self._now})"
            )
        timer = Timer(when, callback, args, self)
        _heappush(self._heap, (when, next(self._sequence), timer))
        return timer

    def _timer_cancelled(self) -> None:
        """Account for a cancellation; compact once dead entries dominate.

        With tens of thousands of in-flight timers (retransmission timers
        that almost always get cancelled by the ACK, detector timeouts
        rearmed every heartbeat) the heap can fill up with dead entries.
        A compaction is O(heap) and amortises to O(1) per cancellation
        because it only runs when at least ``COMPACT_DEAD_RATIO`` of the
        stored entries are dead.
        """
        cancelled = self.cancelled_pending + 1
        self.cancelled_pending = cancelled
        if (cancelled >= self.COMPACT_MIN_CANCELLED
                and cancelled >= self.COMPACT_DEAD_RATIO * len(self._heap)):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify the survivors, in place.

        The run loops hold a reference to the heap list, so it is rebuilt
        in place.  Entries keep their ``(deadline, sequence)`` keys, so
        the firing order of live timers -- insertion-order ties included
        -- is unchanged.
        """
        heap = self._heap
        self.compaction_work += len(heap)
        heap[:] = [entry for entry in heap if not entry[2]._cancelled]
        heapq.heapify(heap)
        self.cancelled_pending = 0
        self.compactions += 1

    def _next_deadline(self) -> float:
        """Deadline of the earliest live timer (inf when none), disposing
        of the cancelled entries at the head."""
        heap = self._heap
        while heap:
            head = heap[0]
            if not head[2]._cancelled:
                return head[0]
            _heappop(heap)
            self.cancelled_pending -= 1
        return math.inf

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Process events until the queue drains, ``until`` or ``max_events``.

        Returns the simulated time when the run stopped.  If ``until`` is
        given and the queue drains earlier, the clock is advanced to
        ``until`` so repeated bounded runs compose naturally.
        """
        if self._running:
            raise SimulationError("simulator is not re-entrant")
        self._running = True
        heap = self._heap
        limit = math.inf if until is None else until
        budget = math.inf if max_events is None else max_events
        processed = 0
        try:
            while heap:
                when, _, timer = heap[0]
                if timer._cancelled:
                    _heappop(heap)
                    self.cancelled_pending -= 1
                    continue
                if when > limit:
                    break
                _heappop(heap)
                self._now = when
                timer._fire()
                self._events_processed += 1
                if self._m_events is not None:
                    self._note_event()
                processed += 1
                if processed >= budget:
                    break
        finally:
            self._running = False
        if until is not None and self._now < until and self._next_deadline() > until:
            self._now = until
        return self._now

    def run_until(self, predicate: Callable[[], bool], timeout: float) -> bool:
        """Run until ``predicate()`` becomes true or ``timeout`` sim-seconds pass.

        The predicate is checked after every processed event.  Returns True
        if the predicate held when the run stopped.
        """
        deadline = self._now + timeout
        if predicate():
            return True
        heap = self._heap
        while heap:
            when, _, timer = heap[0]
            if timer._cancelled:
                _heappop(heap)
                self.cancelled_pending -= 1
                continue
            if when > deadline:
                break
            _heappop(heap)
            self._now = when
            timer._fire()
            self._events_processed += 1
            if self._m_events is not None:
                self._note_event()
            if predicate():
                return True
        if self._now < deadline:
            self._now = deadline
        return predicate()

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self._now:.9f}, pending={len(self._heap)},"
            f" processed={self._events_processed})"
        )

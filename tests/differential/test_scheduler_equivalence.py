"""Simulator vs a naive reference scheduler, driven by hypothesis.

Random schedule/cancel/reschedule/advance programs are interpreted twice
-- once against :class:`Simulator` and once against
:class:`NaiveScheduler`, a plain list scanned for the earliest live entry
by ``(deadline, insertion order)`` with cancelled entries ignored -- and
must produce identical firing logs (timestamp + tag, in order), identical
clocks and identical event counts.  The reference has no heap, no lazy
disposal and no compaction, so any divergence is a bug in those.

Counters that describe *disposal timing* of cancelled entries
(``pending_events`` mid-run, ``compactions``) have no counterpart in the
reference; after a full drain the simulator must hold nothing.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.sim.engine import Simulator

# Deadline pools.  TIGHT forces ties and near-ties; WIDE spans from a
# millisecond to decades of simulated time.
TIGHT_DELAYS = [0.0, 0.001, 0.002, 0.01, 0.015625, 0.5, 1.0, 1.0, 2.0]
WIDE_DELAYS = [0.001, 0.5, 3.0, 250.0, 4_000.0, 1_048_576.0, 2.0e8, 1.5e9]


class NaiveTimer:
    def __init__(self, deadline, order, callback, args):
        self.deadline = deadline
        self.order = order
        self.callback = callback
        self.args = args
        self.active = True

    def cancel(self):
        self.active = False


class NaiveScheduler:
    """The scheduling contract, with no data structure to get wrong."""

    def __init__(self):
        self.now = 0.0
        self.events_processed = 0
        self.entries = []

    def schedule(self, delay, callback, *args):
        timer = NaiveTimer(self.now + delay, len(self.entries), callback, args)
        self.entries.append(timer)
        return timer

    def _earliest(self):
        live = [timer for timer in self.entries if timer.active]
        return min(live, key=lambda t: (t.deadline, t.order)) if live else None

    def run(self, until=None, max_events=None):
        processed = 0
        while True:
            head = self._earliest()
            if head is None or (until is not None and head.deadline > until):
                break
            head.active = False
            self.now = head.deadline
            head.callback(*head.args)
            self.events_processed += 1
            processed += 1
            if max_events is not None and processed >= max_events:
                break
        if until is not None and self.now < until:
            head = self._earliest()
            if head is None or head.deadline > until:
                self.now = until
        return self.now


def _op_strategy(delays):
    delay = st.sampled_from(delays)
    small = st.integers(0, 200)
    return st.one_of(
        st.tuples(st.just("schedule"), delay, small),
        st.tuples(st.just("nested"), delay, small, delay),
        st.tuples(st.just("cancel"), small),
        st.tuples(st.just("reschedule"), small, delay),
        st.tuples(st.just("cancel_at"), delay, small, small),
        st.tuples(st.just("advance"), delay),
        st.tuples(st.just("drain"), st.integers(1, 8)),
    )


def run_program(sim, ops):
    """Interpret one op program on ``sim``; returns the observable outcome."""
    log = []
    timers = []

    def fire(tag):
        log.append((sim.now, tag))

    def fire_nested(tag, delay):
        # Scheduling from inside a callback exercises same-time pushes
        # while the run loop holds the heap.
        log.append((sim.now, tag))
        timers.append(sim.schedule(delay, fire, -tag - 1))

    def fire_cancelling(tag, victim):
        log.append((sim.now, tag))
        if timers:
            timers[victim % len(timers)].cancel()

    for op in ops:
        kind = op[0]
        if kind == "schedule":
            timers.append(sim.schedule(op[1], fire, op[2]))
        elif kind == "nested":
            timers.append(sim.schedule(op[1], fire_nested, op[2], op[3]))
        elif kind == "cancel":
            if timers:
                timers[op[1] % len(timers)].cancel()
        elif kind == "reschedule":
            if timers:
                timers[op[1] % len(timers)].cancel()
                timers.append(sim.schedule(op[2], fire, 1000 + op[1]))
        elif kind == "cancel_at":
            timers.append(sim.schedule(op[1], fire_cancelling, op[2], op[3]))
        elif kind == "advance":
            sim.run(until=sim.now + op[1])
        elif kind == "drain":
            sim.run(max_events=op[1])
    sim.run()
    return {"log": log, "now": sim.now, "events": sim.events_processed}


def _assert_equivalent(ops):
    sim = Simulator()
    assert run_program(sim, ops) == run_program(NaiveScheduler(), ops)
    # Fully drained: nothing may be left, cancelled entries included.
    assert sim.pending_events == 0
    assert sim.cancelled_pending == 0


@given(st.lists(_op_strategy(TIGHT_DELAYS + WIDE_DELAYS), max_size=60))
def test_mixed_programs_equivalent(ops):
    _assert_equivalent(ops)


@given(st.lists(_op_strategy(TIGHT_DELAYS), max_size=60))
def test_tie_heavy_programs_equivalent(ops):
    """Dense ties: insertion-order tie-breaks must match the reference."""
    _assert_equivalent(ops)


@given(st.lists(_op_strategy(WIDE_DELAYS), max_size=40))
def test_wide_horizon_programs_equivalent(ops):
    """Deadlines from a millisecond to decades apart."""
    _assert_equivalent(ops)


@given(
    st.lists(st.sampled_from(TIGHT_DELAYS + WIDE_DELAYS), min_size=1, max_size=80),
    st.lists(st.integers(0, 1 << 16), max_size=80),
    st.data(),
)
def test_cancellation_storms_equivalent(delays, cancels, data):
    """Mass cancellation drives the lazy compaction; survivors must fire
    as in the reference."""
    ops = [("schedule", d, i) for i, d in enumerate(delays)]
    ops += [("cancel", c) for c in cancels]
    ops.append(("advance", data.draw(st.sampled_from(TIGHT_DELAYS + WIDE_DELAYS))))
    _assert_equivalent(ops)

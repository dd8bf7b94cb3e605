"""Unit tests for the discrete-event scheduler."""

import pytest

from repro.sim.engine import SimulationError, Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_schedule_and_run_orders_by_time():
    sim = Simulator()
    order = []
    sim.schedule(2.0, order.append, "b")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(3.0, order.append, "c")
    sim.run()
    assert order == ["a", "b", "c"]


def test_ties_break_by_insertion_order():
    sim = Simulator()
    order = []
    for tag in "abcde":
        sim.schedule(1.0, order.append, tag)
    sim.run()
    assert order == list("abcde")


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(1.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [1.5]
    assert sim.now == 1.5


def test_run_until_bound_leaves_future_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(5.0, fired.append, 5)
    sim.run(until=2.0)
    assert fired == [1]
    assert sim.pending_events == 1
    sim.run()
    assert fired == [1, 5]


def test_run_until_advances_clock_to_bound_when_idle():
    sim = Simulator()
    sim.run(until=4.0)
    assert sim.now == 4.0


def test_cancelled_timer_does_not_fire():
    sim = Simulator()
    fired = []
    timer = sim.schedule(1.0, fired.append, 1)
    timer.cancel()
    sim.run()
    assert fired == []
    assert timer.cancelled and not timer.fired


def test_cancel_is_idempotent_and_late_cancel_is_noop():
    sim = Simulator()
    fired = []
    timer = sim.schedule(1.0, fired.append, 1)
    sim.run()
    timer.cancel()  # already fired: no-op
    assert fired == [1]
    assert timer.fired


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_call_at_in_the_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(1.0, lambda: None)


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    seen = []

    def first():
        sim.schedule(1.0, seen.append, "second")

    sim.schedule(1.0, first)
    sim.run()
    assert seen == ["second"]
    assert sim.now == 2.0


def test_zero_delay_event_runs_at_same_time():
    sim = Simulator()
    times = []
    sim.schedule(3.0, lambda: sim.schedule(0.0, lambda: times.append(sim.now)))
    sim.run()
    assert times == [3.0]


def test_max_events_bound():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(float(i + 1), fired.append, i)
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


def test_run_until_predicate():
    sim = Simulator()
    box = []
    sim.schedule(1.0, box.append, 1)
    sim.schedule(2.0, box.append, 2)
    sim.schedule(3.0, box.append, 3)
    assert sim.run_until(lambda: len(box) >= 2, timeout=10.0)
    assert box == [1, 2]


def test_run_until_times_out():
    sim = Simulator()
    assert not sim.run_until(lambda: False, timeout=1.0)
    assert sim.now == 1.0


def test_events_processed_counter():
    sim = Simulator()
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_processed == 5


def test_not_reentrant():
    sim = Simulator()
    errors = []

    def recurse():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1.0, recurse)
    sim.run()
    assert len(errors) == 1


# -- lazy heap compaction -----------------------------------------------------


def test_mass_cancellation_compacts_queue():
    sim = Simulator()
    keep = sim.schedule(1000.0, lambda: None)
    timers = [sim.schedule(float(i + 1), lambda: None) for i in range(500)]
    for t in timers:
        t.cancel()
    # Dead entries dominated the heap, so a compaction must have dropped them
    # without waiting for run() to pop each one.
    assert sim.compactions >= 1
    assert sim.pending_events < 64
    assert sim.cancelled_pending < 64
    assert keep.active


def test_small_queues_never_compact():
    sim = Simulator()
    timers = [sim.schedule(float(i + 1), lambda: None) for i in range(32)]
    for t in timers:
        t.cancel()
    assert sim.compactions == 0
    sim.run()
    assert sim.events_processed == 0


def test_compaction_preserves_order_and_ties():
    sim = Simulator()
    order = []
    # Interleave survivors with a dominating population of cancelled timers,
    # including same-deadline survivors whose tie-break must survive heapify.
    survivors = []
    doomed = []
    for i in range(200):
        doomed.append(sim.schedule(1.0 + i * 0.001, order.append, f"dead{i}"))
        if i % 20 == 0:
            survivors.append((f"s{i}", sim.schedule(5.0, order.append, f"s{i}")))
    for t in doomed:
        t.cancel()
    assert sim.compactions >= 1
    sim.run()
    assert order == [tag for tag, _t in survivors]


def test_cancelled_pending_tracks_pops_without_compaction():
    sim = Simulator()
    live = [sim.schedule(float(i + 1), lambda: None) for i in range(100)]
    dead = [sim.schedule(float(i + 1) + 0.5, lambda: None) for i in range(40)]
    for t in dead:
        t.cancel()
    # 40 dead of 140 queued: below the domination threshold, no compaction.
    assert sim.compactions == 0
    assert sim.cancelled_pending == 40
    sim.run()
    assert sim.cancelled_pending == 0
    assert sim.events_processed == len(live)


def test_cancel_during_run_is_compaction_safe():
    sim = Simulator()
    fired = []
    doomed = [sim.schedule(2.0 + i * 0.001, fired.append, i) for i in range(300)]

    def kill_all():
        for t in doomed:
            t.cancel()

    sim.schedule(1.0, kill_all)
    sim.schedule(3.0, fired.append, "end")
    sim.run()
    assert fired == ["end"]
    assert sim.cancelled_pending == 0


def test_compaction_work_is_amortised_linear():
    """The dead-ratio threshold bounds total rebuild work.

    Cancelling every one of N timers triggers compactions only when dead
    entries dominate, so the sweep sizes form a geometric series: total
    compaction work stays O(N) (a naive compact-on-every-cancel policy
    would be O(N^2)) and the number of rebuilds stays logarithmic.
    """
    total = 5_000
    sim = Simulator()
    keep = sim.schedule(float(total + 10), lambda: None)
    timers = [sim.schedule(float(i + 1), lambda: None) for i in range(total)]
    for t in timers:
        t.cancel()
    assert sim.compaction_work <= 3 * total
    assert 1 <= sim.compactions <= 10
    assert keep.active
    sim.run()
    assert sim.events_processed == 1

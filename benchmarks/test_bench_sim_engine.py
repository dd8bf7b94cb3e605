"""Simulator scheduling-throughput guard.

The cluster capacity runs push hundreds of thousands of timers through
one ``Simulator``; most retransmission timers are cancelled by the ACK
long before their deadline.  This benchmark drives two synthetic loads
through the full Simulator API:

* ``fire`` — a plain schedule/fire loop;
* ``churn`` — schedule, cancel 95%, fire the rest (compaction path).

Floors are deliberately loose (~5-10x below observed) so they only trip
on algorithmic regressions, not machine noise.
"""

import time

from benchmarks.conftest import FULL, print_table, write_artifact
from repro.sim.engine import Simulator

EVENTS = 200_000 if FULL else 50_000
TRIALS = 3  # best-of-N per cell: the guard compares these, so damp noise

MIN_FIRE_RATE = 100_000.0  # events/sec, schedule+fire
MIN_CHURN_RATE = 50_000.0  # timers/sec, schedule+cancel-heavy


def _noop():
    return None


def run_fire_loop():
    """Schedule EVENTS timers and fire them all."""
    sim = Simulator()
    for i in range(EVENTS):
        sim.schedule(float(i) * 1e-6, _noop)
    sim.run()
    assert sim.events_processed == EVENTS
    return sim


def run_churn_loop():
    """Schedule EVENTS timers, cancel 95% of them, fire the rest.

    Without lazy compaction the heap holds every dead entry until run()
    pops it; with compaction storage shrinks as cancellations dominate.
    """
    sim = Simulator()
    live = 0
    timers = []
    for i in range(EVENTS):
        t = sim.schedule(1.0 + float(i) * 1e-6, _noop)
        if i % 20 == 0:
            live += 1
        else:
            timers.append(t)
    for t in timers:
        t.cancel()
    assert sim.pending_events < EVENTS // 2, "compaction did not shrink storage"
    sim.run()
    assert sim.events_processed == live
    return sim


def test_bench_sim_engine(benchmark):
    def timed_rate(loop):
        start = time.perf_counter()  # replint: allow(wallclock) -- benchmark harness measures host-CPU throughput
        sim = loop()
        return EVENTS / (time.perf_counter() - start), sim  # replint: allow(wallclock) -- benchmark harness measures host-CPU throughput

    def experiment():
        churn = [timed_rate(run_churn_loop) for _ in range(TRIALS)]
        return {
            "fire_rate": max(timed_rate(run_fire_loop)[0] for _ in range(TRIALS)),
            "churn_rate": max(rate for rate, _sim in churn),
            "compactions": churn[0][1].compactions,
        }

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)
    print_table(
        "Simulator scheduling throughput",
        ["load", "ops/s", "floor"],
        [
            ("schedule+fire", f"{results['fire_rate']:.0f}", f"{MIN_FIRE_RATE:.0f}"),
            ("95% churn", f"{results['churn_rate']:.0f}", f"{MIN_CHURN_RATE:.0f}"),
        ],
    )
    write_artifact(
        "sim_engine",
        {"events": EVENTS},
        [
            {
                "label": "fire:heap",
                "metrics": {"events_per_sec": results["fire_rate"]},
            },
            {
                "label": "churn:heap",
                "metrics": {
                    "timers_per_sec": results["churn_rate"],
                    "compactions": float(results["compactions"]),
                },
            },
        ],
    )
    assert results["compactions"] >= 1, results
    assert results["fire_rate"] > MIN_FIRE_RATE, results
    assert results["churn_rate"] > MIN_CHURN_RATE, results

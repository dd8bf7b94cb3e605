"""Run one workload once in a fresh interpreter; print one JSON line.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src`` and a working directory outside the repository root (so the
test tree cannot be imported by accident)::

    python3 worker.py --workload stream --seed 1 --launched-at T [--trace]

``--launched-at`` is the parent's ``CLOCK_MONOTONIC`` reading just before
it started this interpreter, so ``setup_s`` covers interpreter start,
importing ``repro`` and building the topology and apps, up to the first
simulated event.  ``run_s``/``cpu_s`` cover the simulation phase, up to
the last simulator run returning; checking and folding the results
afterwards is not timed.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launched-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import workloads
    from repro.sim.engine import Simulator

    if args.trace:
        import layers
        log = layers.install()

    # The first Simulator.run/run_until call is the first simulated event;
    # the simulation phase ends when the last such call returns.
    stamp: dict = {}

    def stamping(run):
        def timed(sim, *a, **kw):
            if not stamp:
                stamp.update(wall=monotonic(), cpu=time.process_time(),
                             backend=sim.scheduler_backend)
            try:
                return run(sim, *a, **kw)
            finally:
                stamp.update(end_wall=monotonic(), end_cpu=time.process_time())
        return timed

    Simulator.run = stamping(Simulator.run)
    Simulator.run_until = stamping(Simulator.run_until)

    outcome = workloads.WORKLOADS[args.workload](args.seed)

    result = {
        "setup_s": stamp["wall"] - args.launched_at,
        "run_s": stamp["end_wall"] - stamp["wall"],
        "cpu_s": stamp["end_cpu"] - stamp["cpu"],
        "ops": outcome.ops,
        "ops_failed": outcome.ops_failed,
        "payload_bytes": outcome.payload_bytes,
        "digest": workloads.digest(outcome.facts),
        "scheduler_backend": stamp["backend"],
        "imported_tests": "tests" in sys.modules,
    }
    if args.trace:
        result["layers"] = layers.report(log)
        result["spans"] = len(log.end)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()

"""The repository benchmark: host time per simulated workload.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 40 --trace 0

Runs the workload repeatedly for about ``--seconds``, each run in a fresh
single-threaded interpreter (``worker.py``), one at a time.  Every run's
simulated results are folded into a digest and checked against the
seed's digest in ``references.json`` (or, for a seed with no reference,
against the first run of this invocation); a mismatch fails all of that
run's operations.

``--trace 0`` reports the end-to-end metrics as medians over the runs.
``--trace 1`` makes one untraced run, then traced runs, and reports the
per-layer metrics (medians over the traced runs) plus ``trace.overhead``,
the traced runs' ``run_s`` over the untraced one's.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give provenance and the spread of every metric.  It must be run from
a checkout that has ``src/repro``; anywhere else it exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
REFERENCES = os.path.join(HERE, "references.json")
PYCACHE = os.path.join(ROOT, ".bench_build", "pycache")

WORKLOADS = tuple(workloads.WORKLOADS)

#: Untraced runs made at least, however short ``--seconds`` is.
MIN_RUNS = 3
#: Everything, children included, ends within this many seconds.
HARD_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def launch(workload: str, seed: int, trace: bool, deadline: float) -> Dict:
    """One workload run in a fresh interpreter, started outside the root."""
    # Bytecode is cached in the checkout, whatever the caller's setting,
    # so setup_s measures a warm cache after the first run.
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONPYCACHEPREFIX=PYCACHE)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    timeout = deadline - monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the run could start")
    started = monotonic()
    argv = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
            "--launched-at", repr(started)]
    if trace:
        argv.append("--trace")
    try:
        proc = subprocess.run(argv, cwd=HERE, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} run exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} run failed:\n{proc.stderr[-2000:]}")
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    sample["wall_s"] = monotonic() - started
    sample["seed"] = seed
    return sample


def git_sha() -> object:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def judge(samples: List[Dict], references: Dict[str, str]) -> tuple:
    """(attempted, failed): a digest mismatch fails all of a run's ops.

    A run is checked against the stored digest of its seed or, with none
    stored, against the first run of that seed in ``samples``.
    """
    expected: Dict[int, str] = {}
    attempted = failed = 0
    for sample in samples:
        seed = sample["seed"]
        want = expected.setdefault(seed, references.get(str(seed), sample["digest"]))
        attempted += sample["ops"]
        if sample["digest"] != want or sample["imported_tests"]:
            failed += sample["ops"]
        else:
            failed += sample["ops_failed"]
    return attempted, failed


def spread(values: List[float]) -> str:
    return (f"median {statistics.median(values):.6g} min {min(values):.6g} "
            f"max {max(values):.6g} n {len(values)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"benchmark: no program to measure ({SRC}/repro is missing)",
              file=sys.stderr)
        return 2

    began = monotonic()
    deadline, hard_deadline = began + args.seconds, began + HARD_LIMIT_S

    def room_for_another(runs: List[Dict]) -> bool:
        typical = statistics.median(s["wall_s"] for s in runs)
        return monotonic() + typical <= min(deadline, hard_deadline - typical)

    def run_next(runs: List[Dict], trace: bool) -> None:
        runs.append(launch(args.workload, args.seed, trace, hard_deadline))

    untraced: List[Dict] = []
    traced: List[Dict] = []
    run_next(untraced, False)
    if args.trace:
        run_next(traced, True)
        while room_for_another(traced):
            run_next(traced, True)
    else:
        while len(untraced) < MIN_RUNS or room_for_another(untraced):
            run_next(untraced, False)

    with open(REFERENCES) as handle:
        references = json.load(handle)["digests"].get(args.workload, {})
    samples = untraced + traced
    attempted, failed = judge(samples, references)

    provenance = {
        "workload": args.workload, "seed": args.seed,
        "reference_stored": str(args.seed) in references,
        "scheduler_backend": sorted({s["scheduler_backend"] for s in samples}),
        "python": platform.python_version(), "git_sha": git_sha(),
        "REPRO_SIM_SCHEDULER": os.environ.get("REPRO_SIM_SCHEDULER"),
        "REPRO_FULL": os.environ.get("REPRO_FULL"),
        "runs": {"untraced": len(untraced), "traced": len(traced)},
        "digests": sorted({s["digest"] for s in samples}),
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))

    # Every metric BENCHMARK.json declares for this mode, with its unit.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        print(f"  spans: {spread([s['spans'] for s in traced])}")
        untraced_run_s = statistics.median(s["run_s"] for s in untraced)
        for sample in traced:
            sample["layers"]["trace.overhead"] = sample["run_s"] / untraced_run_s
        values = {m["name"]: [s["layers"][m["name"]] for s in traced] for m in declared}
    else:
        for sample in untraced:
            sample["goodput_mb_per_s"] = sample["payload_bytes"] / 1e6 / sample["run_s"]
        values = {m["name"]: [s[m["name"]] for s in untraced] for m in declared}
    metrics: Dict[str, Dict[str, object]] = {}
    for metric in declared:
        name = metric["name"]
        print(f"  {name}: {spread(values[name])}")
        metrics[name] = {"value": statistics.median(values[name]), "unit": metric["unit"]}

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        sys.exit(1)

"""Record the reference digests the correctness gate checks against.

    python3 perfbench/make_references.py

Runs each workload once per seed in ``SEEDS``, untraced, in a fresh
interpreter, and writes its digest to ``references.json``.  A run with a
failed operation is refused: a reference must describe a correct result.
Re-run it only when a change is meant to alter simulated results.
"""

from __future__ import annotations

import json
import sys

import run

#: The seed perf work is tuned on, and one kept back to confirm claims.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7
#: The benchmark seeds a reference is kept for.
SEEDS = range(20)


def main() -> int:
    digests: dict = {}
    for workload in run.WORKLOADS:
        for seed in SEEDS:
            sample = run.launch(workload, seed, False, run.monotonic() + 600)
            if sample["ops_failed"] or sample["imported_tests"]:
                print(f"{workload} seed {seed}: {sample['ops_failed']} of "
                      f"{sample['ops']} ops failed; not recorded", file=sys.stderr)
                return 1
            digests.setdefault(workload, {})[str(seed)] = sample["digest"]
            print(f"{workload} seed {seed}: {sample['digest']}", flush=True)
    with open(run.REFERENCES, "w") as handle:
        json.dump({"default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
                   "digests": digests}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark's correctness gate.

    python3 perfbench/selftest.py

Runs ``stream`` once at the default seed and judges that run twice: once
against its own reference, where no operation may fail, and once against
the held-out seed's reference, where every operation must fail.  Exits 0
only if both hold, which shows the gate both passes a correct run and
fires on a wrong one.
"""

from __future__ import annotations

import json
import sys

import make_references
import run


def main() -> int:
    with open(run.REFERENCES) as handle:
        references = json.load(handle)["digests"]["stream"]
    seed = make_references.DEFAULT_SEED
    samples = [run.launch("stream", seed, False, run.monotonic() + 120)]

    attempted, failed = run.judge(samples, {str(seed): references[str(seed)]})
    print(f"own reference: {failed} of {attempted} ops failed (want 0)")
    ok = attempted > 0 and failed == 0

    wrong = references[str(make_references.HELD_OUT_SEED)]
    attempted, failed = run.judge(samples, {str(seed): wrong})
    print(f"wrong reference: {failed} of {attempted} ops failed (want all)")
    ok &= attempted > 0 and failed == attempted

    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: build, run once, and fold the outcome.

Each workload is a function ``(seed) -> Outcome``.  It builds the
simulated system from the seed, runs it to completion, and returns the
simulated results the correctness gate compares (``facts``, folded into a
digest), the operation counts, and the application payload delivered.
Host timing is not taken here: ``worker.py`` stamps the clock when the
first simulator run starts and when the last one returns, so folding
the results is not timed.

Only public ``repro`` entry points are used.  ``repro.harness.chaos`` and
``repro.adversary.matrix`` are never called: they need the test tree.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Dict, Generator, NamedTuple

#: Stream length per direction.  The send-side copy in ``send_all`` grows
#: faster than linearly with it, so it is part of the workload's identity.
STREAM_BYTES = 4_000_000
STREAM_PORT = 5001

#: E14's flagship cell.
CLIENT_PATHS_CELL = {"clients": 3, "sessions": 12}


class Outcome(NamedTuple):
    """One run's simulated results."""

    facts: Dict[str, object]   # everything the digest covers
    ops: int                   # operations attempted
    ops_failed: int            # operations whose outcome is wrong
    payload_bytes: int         # application payload delivered to receivers


def digest(facts: Dict[str, object]) -> str:
    """Canonical SHA-256 of a workload's simulated results."""
    blob = json.dumps(facts, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


class PatternCheck:
    """Checks a received stream byte for byte as it arrives, keeping none of it.

    The expected bulk payload is generated independently of the program
    under test: a 2048-byte period repeated.
    """

    PERIOD = 2048

    def __init__(self, salt: int) -> None:
        self.period = bytes((i * 31 + salt * 17 + (i >> 8)) & 0xFF
                            for i in range(self.PERIOD))
        self.tile = self.period
        self.received = 0
        self.matches = True

    def feed(self, data: bytes) -> None:
        start = self.received % self.PERIOD
        end = start + len(data)
        if len(self.tile) < end:
            self.tile = self.period * (end // self.PERIOD + 1)
        if memoryview(self.tile)[start:end] != data:
            self.matches = False
        self.received += len(data)

    def intact(self, size: int) -> bool:
        return self.matches and self.received == size


# ----------------------------------------------------------------------
# stream: E4 / Figure 5 on the replicated pair, one push and one pull
# ----------------------------------------------------------------------

def stream(seed: int) -> Outcome:
    """Push then pull ``STREAM_BYTES`` through the replicated pair.

    Mirrors ``experiments.measure_stream_rates(replicated=True)``: the
    push testbed uses ``seed`` and the pull testbed ``seed + 1``.  Every
    receiver checks each chunk byte for byte as it arrives, against an
    independently generated pattern, and keeps none of the data.
    """
    from repro.apps import bulk
    from repro.harness.metrics import rate_kb_s
    from repro.harness.topology import LanTestbed
    from repro.sim.process import spawn
    from repro.tcp.socket_api import ListeningSocket, SimSocket

    size = STREAM_BYTES
    salt = seed & 0xFF
    push: Dict[str, object] = {}
    pull: Dict[str, object] = {}
    checks: Dict[str, PatternCheck] = {}  # receiver -> its stream's check

    def checking_sink(host) -> Generator:
        check = checks.setdefault(f"push@{host.name}", PatternCheck(salt))
        listening = ListeningSocket.listen(host, STREAM_PORT)
        sock = yield from listening.accept()
        while True:
            data = yield from sock.recv(65536)
            if not data:
                break
            check.feed(data)
        yield from sock.close_and_wait()

    def checking_pull(client, server_ip) -> Generator:
        check = checks.setdefault("pull@client", PatternCheck(salt))
        sock = SimSocket.connect(client, server_ip, STREAM_PORT)
        yield from sock.wait_connected()
        pull["t_request_sent"] = client.sim.now
        yield from sock.send_all(b"PULL")
        # The reads recv_exactly(size) would make, checked one by one.
        while check.received < size:
            data = yield from sock.recv(size - check.received)
            if not data:
                break
            check.feed(data)
        if check.received == size:
            pull["t_last_byte"] = client.sim.now
        yield from sock.close_and_wait()

    push_bed = LanTestbed(seed=seed, replicated=True, failover_ports=[STREAM_PORT])
    push_bed.pair.run_app(checking_sink, "bench-sink")
    spawn(push_bed.sim,
          bulk.push_client(push_bed.client, push_bed.server_ip, STREAM_PORT,
                           size, push, salt=salt),
          "bench-push")
    pull_bed = LanTestbed(seed=seed + 1, replicated=True, failover_ports=[STREAM_PORT])
    pull_bed.pair.run_app(
        lambda host: bulk.source_server(host, STREAM_PORT, size, salt), "bench-source")
    spawn(pull_bed.sim, checking_pull(pull_bed.client, pull_bed.server_ip), "bench-pull")

    horizon = size / 2e5 + 30.0
    push_bed.run(until=horizon)
    pull_bed.run(until=horizon)

    # Both replicas' sinks receive the pushed stream; each copy is checked.
    intact = {name: check.intact(size) for name, check in sorted(checks.items())}
    facts: Dict[str, object] = {
        "bytes": size,
        "salt": salt,
        "intact": intact,
        "received": {name: check.received for name, check in sorted(checks.items())},
        "push": {key: push.get(key) for key in ("t_connected", "t_send_done", "t_closed")},
        "pull": dict(pull),
    }
    if "t_closed" in push and "t_last_byte" in pull:
        facts["send_rate_kb_s"] = rate_kb_s(size, push["t_closed"] - push["t_connected"])
        facts["recv_rate_kb_s"] = rate_kb_s(
            size, pull["t_last_byte"] - pull["t_request_sent"])
    pushed = [ok for name, ok in intact.items() if name.startswith("push@")]
    push_ok = len(pushed) == 2 and all(pushed)
    pull_ok = intact.get("pull@client", False)
    failed = (not push_ok) + (not pull_ok)
    # Goodput counts the stream once per direction, as the client sees it.
    return Outcome(facts, ops=2, ops_failed=failed, payload_bytes=2 * size)


# ----------------------------------------------------------------------
# fleet_storm: E12's default capacity cell through a 25% primary storm
# ----------------------------------------------------------------------

def fleet_storm(seed: int) -> Outcome:
    """8 shards x 256 closed-loop sessions, 512 B replies, 25% storm."""
    from repro.cluster import capacity_bench_rows, run_capacity

    result = run_capacity(seed=seed)
    stats = result.stats
    misplaced = result.misplaced_failures()
    facts: Dict[str, object] = {
        "rows": capacity_bench_rows(result),
        "misplaced": misplaced,
        "failures": list(stats.failures),
    }
    ops = stats.sessions_started
    broken = (misplaced or not result.invariants_ok() or stats.corrupt_replies
              or stats.sessions_completed + stats.sessions_failed != ops)
    failed = ops if broken else stats.sessions_failed
    return Outcome(facts, ops=ops, ops_failed=failed, payload_bytes=stats.reply_bytes)


# ----------------------------------------------------------------------
# client_paths: E14's flagship cell over bridge / vip / proxy / dns
# ----------------------------------------------------------------------

def client_paths(seed: int) -> Outcome:
    """One seeded client workload replayed over the four recovery paths.

    The dns path fails requests by design (TTL-ignoring resolvers dial
    the dead primary until their retry budget is spent); those failures
    are part of the reference, not failed operations.
    """
    import repro.clients.paths as paths
    from repro.clients import client_paths_bench_rows, run_client_paths

    # Each session checks every reply it receives against pattern_bytes,
    # exactly once; counting the sizes it asks for gives the payload
    # delivered without touching the request path.
    delivered = [0]
    original = paths.pattern_bytes

    def counting_pattern(size: int, salt: int = 0) -> bytes:
        delivered[0] += size
        return original(size, salt)

    paths.pattern_bytes = counting_pattern
    try:
        results = run_client_paths(seed=seed, **CLIENT_PATHS_CELL)
    finally:
        paths.pattern_bytes = original
    facts: Dict[str, object] = {
        "rows": client_paths_bench_rows(results, seed=seed, **CLIENT_PATHS_CELL),
        "violations": {path: [repr(v) for v in result.checker.violations]
                       for path, result in results.items()},
        "timelines": {path: result.timeline() for path, result in results.items()},
    }
    ops = sum(result.stats.requests_completed + result.stats.requests_failed
              for result in results.values())
    broken = any(not result.invariants_ok() or result.stats.corrupt_replies
                 for result in results.values())
    failed = ops if broken else sum(
        result.stats.requests_failed for path, result in results.items() if path != "dns")
    return Outcome(facts, ops=ops, ops_failed=failed, payload_bytes=delivered[0])


WORKLOADS: Dict[str, Callable[[int], Outcome]] = {
    "stream": stream,
    "fleet_storm": fleet_storm,
    "client_paths": client_paths,
}

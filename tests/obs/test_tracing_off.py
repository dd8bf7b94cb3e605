"""Tracing that nobody observes costs no per-packet formatting.

A tracer that neither records nor has a subscriber is *disabled*: the
per-frame and per-segment emit sites then only count their category.
Counting the calls to the formatting methods of the objects those sites
describe shows it: a 1 MB transfer must format exactly as much as a
100 KB one, so whatever is formatted is per-connection, not per-packet.
"""

import pytest

from repro.apps import bulk
from repro.harness.topology import LanTestbed
from repro.net.addresses import Ipv4Address, MacAddress
from repro.sim.process import spawn
from repro.tcp.connection import TcpConnection
from repro.tcp.segment import TcpSegment

PORT = 5001
FORMATTERS = (
    (Ipv4Address, "__str__"),
    (MacAddress, "__str__"),
    (TcpConnection, "__repr__"),
    (TcpSegment, "__repr__"),
)


def _transfer(size, record=False, subscriber=None):
    """Push ``size`` bytes through the replicated pair; returns the bed."""
    bed = LanTestbed(seed=3, replicated=True, failover_ports=[PORT],
                     record_traces=record)
    if subscriber is not None:
        bed.tracer.subscribe(subscriber)
    sunk = {}
    pushed = {}
    bed.pair.run_app(
        lambda host: bulk.sink_server(host, PORT, size, sunk.setdefault(host.name, {})),
        "sink",
    )
    spawn(bed.sim, bulk.push_client(bed.client, bed.server_ip, PORT, size, pushed), "push")
    bed.run(until=size / 2e5 + 10.0)
    assert "t_closed" in pushed
    assert [r["received"] for r in sunk.values()] == [size, size]
    return bed


def _formatting_calls(monkeypatch, size):
    counts = {}
    for cls, method in FORMATTERS:
        original = getattr(cls, method)
        key = f"{cls.__name__}.{method}"
        counts[key] = 0

        def counting(self, _original=original, _key=key):
            counts[_key] += 1
            return _original(self)

        monkeypatch.setattr(cls, method, counting)
    bed = _transfer(size)
    assert not bed.tracer.records
    monkeypatch.undo()
    return counts


def test_tracing_off_formats_nothing_per_packet(monkeypatch):
    small = _formatting_calls(monkeypatch, 100_000)
    large = _formatting_calls(monkeypatch, 1_000_000)
    assert small == large


@pytest.mark.parametrize("observer", ["record", "subscribe"])
def test_category_counts_do_not_depend_on_observation(observer):
    """Unobserved sites only count; observed ones emit: ``count`` agrees."""
    quiet = _transfer(200_000).tracer
    if observer == "record":
        loud = _transfer(200_000, record=True).tracer
        categories = {record.category for record in loud.records}
    else:
        seen = []
        loud = _transfer(200_000, subscriber=lambda record: seen.append(record.category)).tracer
        categories = set(seen)
        assert len(seen) == sum(loud.count(c) for c in categories)
    assert loud.enabled and not quiet.enabled
    for category in ("eth.rx", "tcp.tx", "bridge.s.divert_out", "bridge.p.empty_ack"):
        assert category in categories
    assert quiet._category_counts == loud._category_counts
    for category in categories:
        assert quiet.count(category) == loud.count(category)

"""Tests for the bulk stream workloads."""

import hashlib

import pytest

from repro.apps import bulk
from repro.sim.process import spawn
from tests.util import SERVER_IP, TwoHostLan, run_all


def test_pattern_bytes_deterministic():
    assert bulk.pattern_bytes(1000) == bulk.pattern_bytes(1000)
    assert bulk.pattern_bytes(1000, salt=1) != bulk.pattern_bytes(1000, salt=2)
    assert len(bulk.pattern_bytes(12345)) == 12345
    assert bulk.pattern_bytes(0) == b""


#: SHA-256 of ``pattern_bytes(size, salt)``, pinned because every stored
#: digest, BENCH artifact and replay fingerprint depends on these bytes.
EMPTY_SHA256 = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
PATTERN_GOLDEN = [
    ((0, salt), EMPTY_SHA256) for salt in (0, 1, 255, 256, -1, 0x1234)
] + [
    ((1, 0), "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d"),
    ((1, 1), "4a64a107f0cb32536e5bce6c98c393db21cca7f4ea187ba8c4dca8b51d4ea80a"),
    ((1, 255), "4d4d75d742863ab9656f3d5f76dff8589c3922e95a24ea6812157ffe4aaa3b6b"),
    ((1, 256), "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d"),
    ((1, -1), "4d4d75d742863ab9656f3d5f76dff8589c3922e95a24ea6812157ffe4aaa3b6b"),
    ((1, 0x1234), "e3b98a4da31a127d4bde6e43033f66ba274cab0eb7eb1c70ec41402bf6273dd8"),
    ((2047, 0), "c94b880af64e63a1f14346b1e035ca183ae80a76957fa4b69cda98c0bb1d789f"),
    ((2047, 1), "43fc9d5f7dd754e1cce983fbab39a77fe0a0a4b4aaedd99abfce9fb3a6f27622"),
    ((2047, 255), "e01891f7b01842773bfdcf543731253194fb1869b3f41247c1c61a755eaafce6"),
    ((2047, 256), "c94b880af64e63a1f14346b1e035ca183ae80a76957fa4b69cda98c0bb1d789f"),
    ((2047, -1), "e01891f7b01842773bfdcf543731253194fb1869b3f41247c1c61a755eaafce6"),
    ((2047, 0x1234), "a51cdf227aa096fce31f210986b0b28f0499f6d224725983e270c8fadcbe0fec"),
    ((2048, 0), "b3bb339022848d7c01626c0b5e0f302336487ee344e8461bc1a137fafaaa8ae2"),
    ((2048, 1), "1d75468c3eed7596c9ec141de88146c7f8db33b61b82e5fe8ddb2ab6a2fda255"),
    ((2048, 255), "448fd68fed4c01952f8cbd14cf5b9b77c5faa170e18fcdeccf7ef5bdf2b094ee"),
    ((2048, 256), "b3bb339022848d7c01626c0b5e0f302336487ee344e8461bc1a137fafaaa8ae2"),
    ((2048, -1), "448fd68fed4c01952f8cbd14cf5b9b77c5faa170e18fcdeccf7ef5bdf2b094ee"),
    ((2048, 0x1234), "0309be821888b6033ef93dd4a81365a38889db0b8136c7e00a9996debfb41f95"),
    ((2049, 0), "277fd93a7799571062b803c50513cf340ff3e5ec426677255704f7c3e26d1809"),
    ((2049, 1), "228f614589e990c7208a2309c13cd6ceda48ea025070bc83d22d9976efebf180"),
    ((2049, 255), "a0da9da083d49edd52cddb93a50bf04dafb4f4f73329696fa3bbf6978f113603"),
    ((2049, 256), "277fd93a7799571062b803c50513cf340ff3e5ec426677255704f7c3e26d1809"),
    ((2049, -1), "a0da9da083d49edd52cddb93a50bf04dafb4f4f73329696fa3bbf6978f113603"),
    ((2049, 0x1234), "c527f694222581dcb97dd5d8e8238cf8156342f18779bb6374f250fbe85628e6"),
    ((100000, 0), "cf221364c620f222da26aff48e69bad8b91ab3dcc184b8d664b10fb6d21b7d8e"),
    ((100000, 1), "fb36cdeb740b99bff76387496823e9a5e365b48fadd4923d34fa2ed0b3a7effa"),
    ((100000, 255), "21af068f6df706ced55d764e395d36844a5362c0e2385484548bc21798f51c02"),
    ((100000, 256), "cf221364c620f222da26aff48e69bad8b91ab3dcc184b8d664b10fb6d21b7d8e"),
    ((100000, -1), "21af068f6df706ced55d764e395d36844a5362c0e2385484548bc21798f51c02"),
    ((100000, 0x1234), "bfd0835b235c785570ed1db6a29d4b1fc7e84f743391aa7254d93277661c345e"),
]


@pytest.mark.parametrize("args,digest", PATTERN_GOLDEN)
def test_pattern_bytes_golden(args, digest):
    size, salt = args
    data = bulk.pattern_bytes(size, salt)
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == digest


def test_pattern_periods_match_the_byte_formula():
    """Every salt's period, built by translating the salt-0 base, equals
    the per-byte definition."""
    for salt in range(256):
        expected = bytes((i * 31 + salt * 17 + (i >> 8)) & 0xFF for i in range(2048))
        assert bulk.pattern_bytes(2048, salt) == expected


def test_pattern_period_table_is_bounded():
    for salt in range(-600, 600, 7):
        bulk.pattern_bytes(3000, salt)
    bulk.pattern_bytes(10, 1 << 40)
    assert len(bulk._PERIODS) <= 256
    assert set(bulk._PERIODS) <= set(range(256))


def test_push_client_records_timestamps():
    lan = TwoHostLan()
    results = {}
    sink = {}
    lan.server.spawn(bulk.sink_server(lan.server, 80, 10_000, sink), "sink")
    spawn(lan.sim, bulk.push_client(lan.client, SERVER_IP, 80, 10_000, results), "push")
    lan.run(until=30.0)
    assert sink["received"] == 10_000
    assert results["t_connected"] <= results["t_send_done"] <= results["t_closed"]


def test_pull_client_verifies_integrity():
    lan = TwoHostLan()
    results = {}
    lan.server.spawn(bulk.source_server(lan.server, 80, 20_000, salt=3), "src")
    spawn(
        lan.sim,
        bulk.pull_client(lan.client, SERVER_IP, 80, 20_000, results, salt=3),
        "pull",
    )
    lan.run(until=30.0)
    assert results["intact"]
    assert results["t_last_byte"] > results["t_request_sent"]


def test_pull_client_detects_salt_mismatch():
    lan = TwoHostLan()
    results = {}
    lan.server.spawn(bulk.source_server(lan.server, 80, 5_000, salt=1), "src")
    spawn(
        lan.sim,
        bulk.pull_client(lan.client, SERVER_IP, 80, 5_000, results, salt=2),
        "pull",
    )
    lan.run(until=30.0)
    assert results["intact"] is False


def test_send_time_flat_below_buffer_then_grows():
    """The Figure-3 mechanism: send() returns at buffer acceptance, so a
    message smaller than the send buffer 'sends' almost instantly."""
    lan = TwoHostLan()
    sink_results = {}
    timings = {}

    def sink_forever():
        from repro.tcp.socket_api import ListeningSocket

        listening = ListeningSocket.listen(lan.server, 80)
        while True:
            sock = yield from listening.accept()
            data = yield from sock.recv_until_eof()
            yield from sock.close_and_wait()

    lan.server.spawn(sink_forever(), "sink")

    def timed_push(size, tag):
        results = {}
        yield from bulk.push_client(lan.client, SERVER_IP, 80, size, results)
        timings[tag] = results["t_send_done"] - results["t_connected"]

    def driver():
        yield from timed_push(16 * 1024, "small")   # fits in the 64 KB buffer
        yield 1.0
        yield from timed_push(512 * 1024, "large")  # must drain on the wire

    spawn(lan.sim, driver(), "driver")
    lan.run(until=60.0)
    assert timings["small"] < 1e-3           # near-instant buffer copy
    assert timings["large"] > 10 * timings["small"]

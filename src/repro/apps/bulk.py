"""Bulk stream workloads — the Figure 3 and Figure 5 drivers.

``pattern_bytes`` generates the deterministic test payload; both replicas
regenerate it identically, and receivers verify integrity against it.

Timing definitions follow the paper:

* *send time* (Fig. 3): from the first ``send()`` call until the stack has
  accepted the last byte — the send call returning, not wire completion;
* *stream rate* (Fig. 5): payload bytes divided by the time from first
  send to the receiver application consuming the last byte.
"""

from __future__ import annotations

from typing import Dict, Generator

from repro.net.host import Host
from repro.tcp.socket_api import ListeningSocket, SimSocket

_PERIOD = 2048

#: ``salt & 0xFF`` -> the 2048-byte period; at most 256 entries, because
#: the period depends on the salt only modulo 256.
_PERIODS: Dict[int, bytes] = {}


def pattern_bytes(size: int, salt: int = 0) -> bytes:
    """Deterministic pseudo-random-ish payload of ``size`` bytes.

    Byte ``i`` is ``(i * 31 + salt * 17 + (i >> 8)) & 0xFF``, repeating
    every 2048 bytes.  A salt only shifts every byte of the salt-0 period
    by ``17 * salt`` mod 256, so each new period is one ``translate`` of
    that base through a rotated identity table.
    """
    key = salt & 0xFF
    period = _PERIODS.get(key)
    if period is None:
        base = _PERIODS.get(0)
        if base is None:
            base = _PERIODS[0] = bytes((i * 31 + (i >> 8)) & 0xFF for i in range(_PERIOD))
        shift = (17 * key) & 0xFF
        period = _PERIODS[key] = base.translate(bytes(range(shift, 256)) + bytes(range(shift)))
    reps, rem = divmod(size, _PERIOD)
    # One allocation of ``size`` bytes: ``period * reps + period[:rem]``
    # would hold two stream-sized copies at once.
    return b"".join([period] * reps + [period[:rem]])


def sink_server(host: Host, port: int, expected: int, results: dict) -> Generator:
    """Accept one connection, drain ``expected`` bytes, record timings."""
    listening = ListeningSocket.listen(host, port)
    sock = yield from listening.accept()
    received = 0
    while received < expected:
        data = yield from sock.recv(65536)
        if not data:
            break
        received += len(data)
    results["received"] = received
    results["t_received_last"] = host.sim.now
    yield from sock.close_and_wait()
    listening.close()


def source_server(host: Host, port: int, size: int, salt: int = 0) -> Generator:
    """Accept one connection; on a 4-byte request, stream ``size`` bytes."""
    listening = ListeningSocket.listen(host, port)
    sock = yield from listening.accept()
    request = yield from sock.recv_exactly(4)
    assert request == b"PULL", request
    yield from sock.send_all(pattern_bytes(size, salt))
    yield from sock.close_and_wait()
    listening.close()


def push_client(client: Host, server_ip, port: int, size: int, results: dict,
                salt: int = 0) -> Generator:
    """Client→server stream: connect, send ``size`` bytes, half-close.

    Records ``t_connected``, ``t_send_done`` (Fig. 3's send time endpoint)
    and ``t_closed``.
    """
    sock = SimSocket.connect(client, server_ip, port)
    yield from sock.wait_connected()
    results["t_connected"] = client.sim.now
    yield from sock.send_all(pattern_bytes(size, salt))
    results["t_send_done"] = client.sim.now
    yield from sock.close_and_wait()
    results["t_closed"] = client.sim.now


def pull_client(client: Host, server_ip, port: int, size: int, results: dict,
                salt: int = 0, verify: bool = True) -> Generator:
    """Server→client stream: send a 4-byte request, read ``size`` bytes.

    Records ``t_connected``, ``t_request_sent`` and ``t_last_byte`` —
    Fig. 4 measures ``t_last_byte - t_request_sent`` (client clock).
    """
    sock = SimSocket.connect(client, server_ip, port)
    yield from sock.wait_connected()
    results["t_connected"] = client.sim.now
    results["t_request_sent"] = client.sim.now
    yield from sock.send_all(b"PULL")
    data = yield from sock.recv_exactly(size)
    results["t_last_byte"] = client.sim.now
    if verify:
        results["intact"] = data == pattern_bytes(size, salt)
    yield from sock.close_and_wait()

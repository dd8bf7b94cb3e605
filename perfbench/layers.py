"""Per-layer host-time trace, taken from outside the program.

``install()`` wraps the public entry points of each layer, and the event
loop's dispatch, from this file: nothing under ``src/`` changes.  Every
wrapped call records one span (layer, start, end, parent) in memory; the
report folds them into per-layer self time (a span's duration minus the
time its child spans cover) and counts taken at the same boundaries.

Two kinds of boundary:

* **dispatch** -- ``Timer._fire`` opens a span for the layer that owns
  the callback (the module of its code; for a process step, the module
  of the process's generator).  Deferred work such as TCP timers, CPU
  continuations and app resumptions is billed to its layer this way.
* **entry points** -- the calls one layer makes into another
  (``SimSocket.send_all`` into ``TcpConnection.write`` into
  ``Host.transport_out`` ...).  Generator entry points get a span per
  resumption.

What is left in the ``sim`` root spans (``Simulator.run``/``run_until``)
plus ``call_at`` is the loop and scheduler residual, ``sim.self_s``.

The wrappers only observe: they pass every argument, value and
exception through, so the traced run reproduces the untraced digest.
"""

from __future__ import annotations

import functools
import os
import time
from array import array
from typing import Any, Callable, Dict, List, Optional

#: Layers in report order.  ``failover.tx``/``failover.rx`` are the
#: bridges' outgoing and incoming paths; ``failover.ctl`` is the rest of
#: the failover package (detectors, takeover).
LAYERS = (
    "sim", "apps", "socket", "tcp", "failover.tx", "failover.rx",
    "failover.ctl", "net.ip", "net.arp", "net.ethernet", "net.host",
    "cluster", "clients", "obs",
)

#: Module prefix -> layer, first match wins.  Modules not listed (the
#: harness, address/packet helpers, this benchmark) open no span of
#: their own: their time stays with the caller.
MODULE_LAYERS = (
    ("repro.tcp.socket_api", "socket"),
    ("repro.tcp", "tcp"),
    ("repro.failover", "failover.ctl"),
    ("repro.net.ip", "net.ip"),
    ("repro.net.arp", "net.arp"),
    ("repro.net.ethernet", "net.ethernet"),
    ("repro.net.nic", "net.ethernet"),
    ("repro.net.host", "net.host"),
    ("repro.net.router", "net.host"),
    ("repro.cluster", "cluster"),
    ("repro.clients", "clients"),
    ("repro.apps", "apps"),
    ("repro.workload", "apps"),
    ("repro.obs", "obs"),
    ("repro.sim.trace", "obs"),
)

#: Deferred callbacks whose layer is not their module's.
QUALNAME_LAYERS = {
    "PrimaryBridge._from_primary_tcp": "failover.tx",
    "BridgeBase._send_datagram": "failover.tx",
    "PrimaryBridge._from_secondary_tcp": "failover.rx",
    # The forwarding host's deferred transmit: the dispatcher's IP path.
    "IpLayer._forward.<locals>.<lambda>": "cluster",
}

#: Modules that bind ``pattern_bytes`` (by ``from ... import``).
PATTERN_MODULES = (
    "repro.apps.bulk", "repro.apps.request_reply", "repro.workload.generator",
    "repro.clients.paths", "repro.clients.pool",
)

clock = time.perf_counter


class SpanLog:
    """Spans in parallel arrays, plus counters, until the run ends."""

    def __init__(self) -> None:
        self.layer_id = {name: i for i, name in enumerate(LAYERS)}
        self.layer = array("B")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = [-1]
        self.counts: Dict[str, int] = {}

    def open(self, layer: int) -> int:
        index = len(self.end)
        self.layer.append(layer)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(clock())
        return index

    def close(self, index: int) -> None:
        self.end[index] = clock()
        self.stack.pop()

    def add(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- wrappers -----------------------------------------------------------

    def call(self, fn: Callable, layer: str, count: Optional[str] = None) -> Callable:
        """Span around each call of a plain function."""
        lid = self.layer_id[layer]

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if count is not None:
                self.add(count)
            index = self.open(lid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def generator(self, fn: Callable, layer: str, count: Optional[str] = None) -> Callable:
        """Span around each resumption of the generator ``fn`` returns."""
        lid = self.layer_id[layer]

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if count is not None:
                self.add(count)
            return self._drive(fn(*args, **kwargs), lid)

        return traced

    def _drive(self, inner: Any, lid: int) -> Any:
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            index = self.open(lid)
            try:
                if error is None:
                    yielded = inner.send(value)
                else:
                    yielded, error = inner.throw(error), None
            except StopIteration as stop:
                return stop.value
            finally:
                self.close(index)
            try:
                value = yield yielded
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as exc:  # noqa: BLE001 - forwarded into inner
                error = exc

    # -- report -------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Per-layer self time: span durations minus child coverage."""
        start, end, parent, layer = self.start, self.end, self.parent, self.layer
        covered = [0.0] * len(end)
        for index in range(len(end)):
            up = parent[index]
            if up >= 0:
                covered[up] += end[index] - start[index]
        totals = [0.0] * len(LAYERS)
        for index in range(len(end)):
            totals[layer[index]] += end[index] - start[index] - covered[index]
        return dict(zip(LAYERS, totals))

    def span_counts(self) -> Dict[str, int]:
        totals = [0] * len(LAYERS)
        for lid in self.layer:
            totals[lid] += 1
        return dict(zip(LAYERS, totals))


def _module_layer(module: str) -> Optional[str]:
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


def install() -> SpanLog:
    """Wrap every layer boundary; returns the log the spans go to."""
    import importlib

    from repro.sim import engine, process

    log = SpanLog()
    package_dir = os.path.dirname(os.path.dirname(engine.__file__))
    code_layers: Dict[Any, Optional[int]] = {}
    process_type = process.Process

    def layer_of_code(code: Any) -> Optional[int]:
        lid = code_layers.get(code, -1)
        if lid != -1:
            return lid
        layer = QUALNAME_LAYERS.get(getattr(code, "co_qualname", code.co_name))
        path = os.path.abspath(code.co_filename)
        if layer is None and path.startswith(package_dir + os.sep):
            module = os.path.splitext(os.path.relpath(path, os.path.dirname(package_dir)))[0]
            layer = _module_layer(module.replace(os.sep, "."))
        lid = None if layer is None else log.layer_id[layer]
        code_layers[code] = lid
        return lid

    def layer_of_callback(callback: Any) -> Optional[int]:
        owner = getattr(callback, "__self__", None)
        if type(owner) is process_type:
            code = getattr(owner._generator, "gi_code", None)
        else:
            code = getattr(getattr(callback, "__func__", callback), "__code__", None)
        return None if code is None else layer_of_code(code)

    # -- sim: the root spans, dispatch, the scheduler ------------------------
    Timer, Simulator = engine.Timer, engine.Simulator
    fire = Timer._fire

    def traced_fire(timer: Any) -> None:
        log.add("sim.events")
        lid = layer_of_callback(timer._callback)
        if lid is None:
            fire(timer)
            return
        index = log.open(lid)
        try:
            fire(timer)
        finally:
            log.close(index)

    cancel = Timer.cancel

    def counted_cancel(timer: Any) -> None:
        if timer.active:
            log.add("sim.cancels")
        cancel(timer)

    Timer._fire = traced_fire
    Timer.cancel = counted_cancel
    Simulator.run = log.call(Simulator.run, "sim")
    Simulator.run_until = log.call(Simulator.run_until, "sim")
    Simulator.call_at = log.call(Simulator.call_at, "sim", "sim.timers")

    # -- apps ------------------------------------------------------------------
    modules = [importlib.import_module(name) for name in PATTERN_MODULES]
    pattern = modules[0].pattern_bytes

    @functools.wraps(pattern)
    def counted_pattern(size: int, salt: int = 0) -> bytes:
        log.add("apps.pattern_bytes", size)
        return pattern(size, salt)

    traced_pattern = log.call(counted_pattern, "apps")
    for module in modules:
        if module.pattern_bytes is not pattern:
            raise RuntimeError(f"{module.__name__} no longer binds bulk.pattern_bytes")
        module.pattern_bytes = traced_pattern

    # -- socket ----------------------------------------------------------------
    from repro.tcp import socket_api

    for cls, generators, calls, classmethods in (
        (socket_api.SimSocket,
         ("wait_connected", "send_all", "recv", "recv_exactly", "recv_until_eof",
          "recv_line", "close_and_wait"),
         ("close", "abort"), ("connect",)),
        (socket_api.ListeningSocket, ("accept",), ("close",), ("listen",)),
    ):
        for name in generators:
            setattr(cls, name, log.generator(getattr(cls, name), "socket"))
        for name in calls:
            setattr(cls, name, log.call(getattr(cls, name), "socket"))
        for name in classmethods:
            setattr(cls, name, classmethod(log.call(cls.__dict__[name].__func__, "socket")))

    # -- tcp ------------------------------------------------------------------
    from repro.tcp.connection import TcpConnection
    from repro.tcp.layer import TcpLayer

    TcpLayer.receive_segment = log.call(TcpLayer.receive_segment, "tcp", "tcp.rx_segments")
    TcpLayer.send_segment = log.call(TcpLayer.send_segment, "tcp", "tcp.tx_segments")
    for name in ("connect", "listen", "icmp_frag_needed"):
        setattr(TcpLayer, name, log.call(getattr(TcpLayer, name), "tcp"))
    for name in ("read", "close", "abort", "wait_readable", "wait_writable"):
        setattr(TcpConnection, name, log.call(getattr(TcpConnection, name), "tcp"))
    write = TcpConnection.write

    def counted_write(conn: Any, data: bytes) -> int:
        accepted = write(conn, data)
        log.add("socket.writes")
        log.add("socket.bytes_handed", len(data))
        log.add("socket.bytes_accepted", accepted)
        return accepted

    TcpConnection.write = log.call(counted_write, "tcp")

    # -- failover bridges -----------------------------------------------------
    from repro.failover.primary import PrimaryBridge
    from repro.failover.secondary import SecondaryBridge

    for cls in (PrimaryBridge, SecondaryBridge):
        cls.segment_from_tcp = log.call(
            cls.segment_from_tcp, "failover.tx", "failover.tx_segments")
        cls.datagram_from_ip = log.call(
            cls.datagram_from_ip, "failover.rx", "failover.rx_datagrams")

    # -- net -------------------------------------------------------------------
    from repro.net.arp import ArpService
    from repro.net.ethernet import EthernetSegment
    from repro.net.host import Cpu, Host
    from repro.net.ip import EthernetInterface, IpLayer
    from repro.net.nic import Nic

    ip_lid, cluster_lid = log.layer_id["net.ip"], log.layer_id["cluster"]

    def ip_entry(fn: Callable, count: bool) -> Callable:
        # The dispatcher is the only forwarding host: its IP entry points
        # (and the NAT tap that runs under them) are the cluster layer.
        @functools.wraps(fn)
        def traced(ip: Any, *args: Any) -> Any:
            if ip.forwarding:
                lid = cluster_lid
                if count:
                    log.add("cluster.datagrams")
            else:
                lid = ip_lid
                if count:
                    log.add("net.ip.datagrams")
            index = log.open(lid)
            try:
                return fn(ip, *args)
            finally:
                log.close(index)

        return traced

    IpLayer.send = ip_entry(IpLayer.send, count=True)
    IpLayer.datagram_received = ip_entry(IpLayer.datagram_received, count=True)
    IpLayer.frame_received = ip_entry(IpLayer.frame_received, count=False)
    EthernetInterface.send_datagram = log.call(EthernetInterface.send_datagram, "net.ip")
    ArpService.resolve = log.call(ArpService.resolve, "net.arp", "net.arp.resolves")
    ArpService.handle_frame = log.call(ArpService.handle_frame, "net.arp")
    ArpService.announce = log.call(ArpService.announce, "net.arp")
    Nic.send = log.call(Nic.send, "net.ethernet", "net.ethernet.frames")
    Nic.frame_arrived = log.call(Nic.frame_arrived, "net.ethernet", "net.ethernet.deliveries")
    EthernetSegment.submit = log.call(EthernetSegment.submit, "net.ethernet")
    Cpu.run = log.call(Cpu.run, "net.host", "net.host.cpu_jobs")
    Host.transport_out = log.call(Host.transport_out, "net.host")
    Host.send_ip = log.call(Host.send_ip, "net.host")

    # -- clients ---------------------------------------------------------------
    from repro.clients.dns import ResolverCache
    from repro.clients.pool import ConnectionPool

    ConnectionPool.request = log.generator(ConnectionPool.request, "clients", "clients.requests")
    ConnectionPool.checkout = log.generator(ConnectionPool.checkout, "clients")
    ConnectionPool._dial = log.generator(ConnectionPool._dial, "clients", "clients.dials")
    ResolverCache.resolve = log.generator(ResolverCache.resolve, "clients")

    # -- obs -------------------------------------------------------------------
    from repro.sim.trace import Tracer

    Tracer.emit = log.call(Tracer.emit, "obs", "obs.emits")
    return log


def report(log: SpanLog) -> Dict[str, float]:
    """The per-layer metrics of one traced run (``trace.overhead`` aside)."""
    self_s = log.self_times()
    spans = log.span_counts()
    counts = log.counts
    timers = counts.get("sim.timers", 0)
    accepted = counts.get("socket.bytes_accepted", 0)
    metrics: Dict[str, float] = {
        "sim.self_s": self_s["sim"],
        "sim.events": counts.get("sim.events", 0),
        "sim.timers": timers,
        "sim.cancel_ratio": counts.get("sim.cancels", 0) / timers if timers else 0.0,
        "apps.self_s": self_s["apps"],
        "apps.calls": spans["apps"],
        "apps.pattern_mb": counts.get("apps.pattern_bytes", 0) / 1e6,
        "socket.self_s": self_s["socket"],
        "socket.writes": counts.get("socket.writes", 0),
        "socket.copy_ratio": (counts.get("socket.bytes_handed", 0) / accepted
                              if accepted else 0.0),
        "tcp.self_s": self_s["tcp"],
        "tcp.rx_segments": counts.get("tcp.rx_segments", 0),
        "tcp.tx_segments": counts.get("tcp.tx_segments", 0),
        "failover.tx_s": self_s["failover.tx"],
        "failover.rx_s": self_s["failover.rx"],
        "failover.ctl_s": self_s["failover.ctl"],
        "failover.tx_segments": counts.get("failover.tx_segments", 0),
        "failover.rx_datagrams": counts.get("failover.rx_datagrams", 0),
    }
    for layer in ("net.ip", "net.arp", "net.ethernet", "net.host"):
        metrics[f"{layer}.self_s"] = self_s[layer]
    metrics.update({
        "net.ip.datagrams": counts.get("net.ip.datagrams", 0),
        "net.arp.resolves": counts.get("net.arp.resolves", 0),
        "net.ethernet.frames": counts.get("net.ethernet.frames", 0),
        "net.ethernet.deliveries": counts.get("net.ethernet.deliveries", 0),
        "net.host.cpu_jobs": counts.get("net.host.cpu_jobs", 0),
        "cluster.self_s": self_s["cluster"],
        "cluster.datagrams": counts.get("cluster.datagrams", 0),
        "clients.self_s": self_s["clients"],
        "clients.requests": counts.get("clients.requests", 0),
        "clients.dials": counts.get("clients.dials", 0),
        "obs.self_s": self_s["obs"],
        "obs.emits": counts.get("obs.emits", 0),
    })
    return metrics

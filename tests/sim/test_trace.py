"""Unit tests for the tracer."""

from repro.sim.trace import TraceRecord, Tracer


def test_emit_records_in_order():
    tracer = Tracer()
    tracer.emit(1.0, "a.b", "n1", k=1)
    tracer.emit(2.0, "a.c", "n2", k=2)
    assert [r.category for r in tracer.records] == ["a.b", "a.c"]


def test_count_works_even_when_not_recording():
    tracer = Tracer(record=False)
    tracer.emit(1.0, "x", "n")
    tracer.emit(2.0, "x", "n")
    assert tracer.count("x") == 2
    assert tracer.records == []


def test_enabled_follows_recording_and_subscribers():
    assert Tracer(record=True).enabled
    tracer = Tracer(record=False)
    assert not tracer.enabled
    assert not tracer.wants("eth.rx")  # counted, not emitted
    tracer.emit(0.0, "eth.rx", "lan")
    assert tracer.count("eth.rx") == 2
    seen = []
    tracer.subscribe(seen.append)
    assert tracer.enabled
    assert tracer.wants("eth.rx")  # the emit that follows counts it
    tracer.emit(1.0, "eth.rx", "lan")
    assert tracer.count("eth.rx") == 3
    assert [record.time for record in seen] == [1.0]


def test_select_by_category_prefix():
    tracer = Tracer()
    tracer.emit(1.0, "tcp.tx", "a")
    tracer.emit(2.0, "tcp.rtx", "a")
    tracer.emit(3.0, "eth.rx", "a")
    assert len(tracer.select(category="tcp.")) == 2


def test_select_by_node_and_predicate():
    tracer = Tracer()
    tracer.emit(1.0, "c", "n1", size=10)
    tracer.emit(2.0, "c", "n2", size=20)
    tracer.emit(3.0, "c", "n2", size=5)
    picked = tracer.select(node="n2", predicate=lambda r: r.detail["size"] > 6)
    assert len(picked) == 1
    assert picked[0].detail["size"] == 20


def test_subscription_receives_records():
    tracer = Tracer(record=False)
    seen = []
    tracer.subscribe(seen.append)
    tracer.emit(1.0, "c", "n")
    assert len(seen) == 1
    assert isinstance(seen[0], TraceRecord)


def test_clear_resets_everything():
    tracer = Tracer()
    tracer.emit(1.0, "c", "n")
    tracer.clear()
    assert tracer.records == []
    assert tracer.count("c") == 0


def test_dump_filters_categories():
    tracer = Tracer()
    tracer.emit(1.0, "tcp.tx", "a", seq=1)
    tracer.emit(2.0, "eth.rx", "a")
    dump = tracer.dump(categories=["tcp."])
    assert "tcp.tx" in dump and "eth.rx" not in dump


def test_ring_buffer_keeps_most_recent_records():
    tracer = Tracer(max_records=3)
    for i in range(10):
        tracer.emit(float(i), "cat", "n", i=i)
    assert len(tracer.records) == 3
    assert [r.detail["i"] for r in tracer.records] == [7, 8, 9]


def test_ring_buffer_counts_stay_exact():
    tracer = Tracer(max_records=2)
    for i in range(5):
        tracer.emit(float(i), "a", "n")
    tracer.emit(5.0, "b", "n")
    # The ring evicted every "a" record but the counters never forget.
    assert tracer.count("a") == 5
    assert tracer.count("b") == 1
    assert [r.category for r in tracer.records] == ["a", "b"]


def test_ring_buffer_select_sees_only_retained_records():
    tracer = Tracer(max_records=2)
    for i in range(4):
        tracer.emit(float(i), "cat", "n", i=i)
    picked = tracer.select(category="cat")
    assert [r.detail["i"] for r in picked] == [2, 3]


def test_ring_buffer_clear_resets_counts():
    tracer = Tracer(max_records=2)
    tracer.emit(1.0, "c", "n")
    tracer.clear()
    assert len(tracer.records) == 0
    assert tracer.count("c") == 0


def test_unbounded_tracer_records_is_a_plain_list():
    # Existing tests compare ``tracer.records == []``; the ring only
    # replaces the list when a bound is requested.
    assert Tracer().records == []
    assert Tracer(max_records=None).records == []

"""Unit tests for execution traces."""

from repro.sim.trace import DELIVER, FAULT, SEND, FullTrace, TraceEvent


def test_emit_records_event():
    trace = FullTrace()
    trace.emit(1.0, SEND, "w", dst="s1")
    assert len(trace) == 1
    event = trace.events[0]
    assert event.kind == SEND
    assert event.process == "w"
    assert event.detail == {"dst": "s1"}


def test_count_tracks_all_kinds():
    trace = FullTrace()
    trace.emit(1.0, SEND, "w")
    trace.emit(2.0, SEND, "w")
    trace.emit(3.0, DELIVER, "s1")
    assert trace.count(SEND) == 2
    assert trace.count(DELIVER) == 1
    assert trace.count(FAULT) == 0


def test_of_kind_and_by_process_queries():
    trace = FullTrace()
    trace.emit(1.0, SEND, "w")
    trace.emit(2.0, DELIVER, "s1")
    trace.emit(3.0, SEND, "r")
    assert len(list(trace.of_kind(SEND))) == 2
    assert len(list(trace.by_process("s1"))) == 1


def test_where_predicate():
    trace = FullTrace()
    trace.emit(1.0, SEND, "w")
    trace.emit(5.0, SEND, "w")
    late = trace.where(lambda event: event.time > 2.0)
    assert len(late) == 1
    assert late[0].time == 5.0


def test_format_limits_output():
    trace = FullTrace()
    for index in range(5):
        trace.emit(float(index), SEND, "w")
    rendered = trace.format(limit=2)
    assert "3 more events" in rendered


def test_event_repr_is_readable():
    event = TraceEvent(1.25, SEND, "w", {"dst": "s1"})
    assert "send" in repr(event)
    assert "s1" in repr(event)


def test_iteration():
    trace = FullTrace()
    trace.emit(1.0, SEND, "w")
    trace.emit(2.0, SEND, "w")
    assert [event.time for event in trace] == [1.0, 2.0]

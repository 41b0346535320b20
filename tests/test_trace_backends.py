"""Trace backends must be observers, never participants.

The tentpole property of the pluggable-backend refactor: running the same
seeded scenario under :class:`NullTrace`, :class:`CountingTrace` and
:class:`FullTrace` yields identical executions — same operation history,
same final read values, same message and event counts.  The backends (and
the fused vs. labelled delivery paths they select) may only change what
is *retained*, never what *happens*.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim.trace import (CountingTrace, DELIVER, FullTrace, NullTrace,
                             SEND, build_trace)
from repro.workloads.spec import run_scenario

BACKENDS = ("full", "counting", "null")

RELAXED = settings(max_examples=8, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


def _fingerprint(result):
    """Everything about a run that must not depend on the backend."""
    summary = result.summarize()
    final_reads = tuple(op.value for op in result.history.reads())
    return (summary.history_digest, summary.ops, summary.messages_sent,
            summary.events_processed, summary.sim_end, summary.corruptions,
            summary.stable, final_reads)


class TestBackendsAreObservers:
    @given(seed=st.integers(min_value=0, max_value=10_000),
           kind=st.sampled_from(["regular", "atomic"]),
           byzantine=st.integers(min_value=0, max_value=1))
    @RELAXED
    def test_identical_execution_across_backends(self, seed, kind,
                                                 byzantine):
        fingerprints = set()
        for backend in BACKENDS:
            result = run_scenario(
                "swsr", kind=kind, n=9, t=1, seed=seed, num_writes=3,
                num_reads=3, corruption_times=(2.0,), link_garbage=1,
                byzantine_count=byzantine, trace_backend=backend)
            assert result.completed
            fingerprints.add(_fingerprint(result))
        assert len(fingerprints) == 1

    def test_backends_agree_under_partition_and_mobile_byz(self):
        for family, kwargs in [
            ("partition", dict(seed=5, corruption_times=(2.0,))),
            ("mobile-byz", dict(seed=5, rotations=3)),
        ]:
            fingerprints = {
                _fingerprint(run_scenario(family, trace_backend=backend,
                                          **kwargs))
                for backend in BACKENDS
            }
            assert len(fingerprints) == 1


class TestBackendBehaviour:
    def test_build_trace_resolves_names(self):
        assert isinstance(build_trace("full"), FullTrace)
        assert isinstance(build_trace("counting"), CountingTrace)
        assert isinstance(build_trace("null"), NullTrace)
        with pytest.raises(ValueError):
            build_trace("verbose")

    def test_null_trace_retains_nothing(self):
        trace = NullTrace()
        trace.emit(1.0, SEND, "w", dst="s1")
        trace.tick(3.0, DELIVER)
        assert len(trace) == 0
        assert trace.count(SEND) == 0
        assert list(trace) == []
        assert trace.last_time() == 3.0
        assert not trace.wants(SEND)
        assert not trace.counting

    def test_counting_trace_counts_without_recording(self):
        trace = CountingTrace()
        trace.emit(1.0, SEND, "w", dst="s1")
        trace.tick(2.0, SEND)
        trace.tick(2.5, DELIVER)
        assert trace.count(SEND) == 2
        assert trace.count(DELIVER) == 1
        assert len(trace) == 0
        assert trace.last_time() == 2.5
        assert not trace.wants(SEND)

    def test_full_trace_filtered_last_time_tracks_emissions(self):
        # the satellite fix: last_time() reflects the last *emitted*
        # event even when record_kinds drops it from the log.
        trace = FullTrace(record_kinds={DELIVER})
        trace.emit(4.0, SEND, "w", dst="s1")
        assert len(trace) == 0
        assert trace.last_time() == 4.0
        trace.tick(9.0, SEND)
        assert trace.last_time() == 9.0
        assert trace.count(SEND) == 2

"""Trace backends must be observers, never participants.

Running the same seeded scenario under :class:`NullTrace` and
:class:`FullTrace` yields identical executions — same operation history,
same final read values, same message and event counts.  The backends (and
the fused vs. general send paths they select) may only change what is
*recorded*, never what *happens*.
"""

from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim.trace import BACKENDS, SEND, FullTrace, NullTrace, build_trace
from repro.workloads.spec import run_scenario, scenario_families

from test_cross_kernel import FAMILY_CELLS

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
        assert BACKENDS == ("full", "null")
        assert isinstance(build_trace("full"), FullTrace)
        assert isinstance(build_trace("null"), NullTrace)
        with pytest.raises(ValueError, match=r"'verbose'.*\('full', 'null'\)"):
            build_trace("verbose")

    def test_null_trace_retains_nothing(self):
        trace = NullTrace()
        trace.emit(1.0, SEND, "w", dst="s1")
        assert len(trace) == 0
        assert trace.count(SEND) == 0
        assert list(trace) == []
        assert not trace.records
        assert FullTrace.records


@pytest.mark.parametrize("family", scenario_families())
def test_every_family_runs_fused_by_default(family):
    """A default run records nothing, so each link's first send compiles
    its fused closure: no outbox entry is left on the general path (a
    ``functools.partial``) when the run ends."""
    result = run_scenario(family, **FAMILY_CELLS[family])
    clusters = ([result.cluster] if hasattr(result, "cluster")
                else list(result.store.group))
    sends = [send for cluster in clusters
             for process in cluster.network.processes.values()
             for send in process.outbox.values()]
    assert all(isinstance(cluster.trace, NullTrace) for cluster in clusters)
    assert sends and not any(isinstance(send, partial) for send in sends)

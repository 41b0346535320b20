"""Property-based integration tests: random workloads, faults and seeds.

These drive whole register stacks under hypothesis-chosen schedules and
assert the paper's guarantees on the resulting histories.  Deadlines are
disabled: a single example runs a full simulated cluster.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.checkers.atomicity import find_new_old_inversions
from repro.checkers.regularity import check_regularity
from repro.workloads.spec import run_scenario

RELAXED = settings(max_examples=10, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


class TestRegularRegisterProperties:
    @given(seed=st.integers(min_value=0, max_value=10_000),
           num_ops=st.integers(min_value=1, max_value=5),
           offset=st.floats(min_value=0.1, max_value=9.0))
    @RELAXED
    def test_always_regular_after_tau(self, seed, num_ops, offset):
        result = run_scenario("swsr", kind="regular", n=9, t=1, seed=seed,
                              num_writes=num_ops, num_reads=num_ops,
                              reader_offset=offset,
                              byzantine_count=1,
                              byzantine_strategy="random-garbage")
        assert result.completed
        assert check_regularity(result.history, after=result.tau_no_tr,
                                initial="v_init") == []

    @given(seed=st.integers(min_value=0, max_value=10_000),
           corruption=st.floats(min_value=0.1, max_value=1.0))
    @RELAXED
    def test_stabilizes_for_any_corruption_severity(self, seed, corruption):
        result = run_scenario("swsr", kind="regular", n=9, t=1, seed=seed,
                              num_writes=3, num_reads=3,
                              corruption_times=(2.0,),
                              corruption_fraction=corruption)
        assert result.completed
        assert result.report.stable


class TestAtomicRegisterProperties:
    @given(seed=st.integers(min_value=0, max_value=10_000),
           offset=st.floats(min_value=0.1, max_value=9.0))
    @RELAXED
    def test_never_inverts_after_tau(self, seed, offset):
        result = run_scenario("swsr", kind="atomic", n=9, t=1, seed=seed,
                              num_writes=4, num_reads=4,
                              reader_offset=offset,
                              byzantine_count=1,
                              byzantine_strategy="inversion-attack")
        assert result.completed
        assert find_new_old_inversions(result.history,
                                       after=result.tau_no_tr) == []


class TestTransportInterchangeability:
    @pytest.mark.parametrize("transport", ["direct", "datalink"])
    def test_same_semantics_over_both_transports(self, transport):
        result = run_scenario("swsr", kind="regular", n=9, t=1, seed=77,
                              transport=transport,
                              num_writes=2, num_reads=2, op_gap=30.0,
                              max_events=3_000_000)
        assert result.completed
        assert result.report.stable

    def test_atomic_over_datalink(self):
        result = run_scenario("swsr", kind="atomic", n=9, t=1, seed=78,
                              transport="datalink",
                              num_writes=2, num_reads=2, op_gap=40.0,
                              max_events=4_000_000)
        assert result.completed
        assert result.report.stable

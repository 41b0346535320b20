"""The ``summarize()`` boundary and the corruption-schedule closure fix."""

import pickle

import pytest

from repro.checkers.stream import history_digest
from repro.sim.trace import FAULT
from repro.workloads.scenarios import ScenarioSummary
from repro.workloads.spec import run_scenario


class TestSummarize:
    def test_summary_matches_result(self):
        result = run_scenario("swsr", n=9, t=1, seed=3, num_writes=3,
                              num_reads=3, corruption_times=(2.0,),
                              byzantine_count=1)
        summary = result.summarize()
        assert summary.completed == result.completed
        assert summary.messages_sent == result.messages_sent
        assert summary.ops == len(result.history)
        assert summary.writes == len(result.history.writes())
        assert summary.reads == len(result.history.reads())
        assert summary.stable == result.report.stable
        assert summary.tau_stab == result.report.tau_stab
        assert summary.corruptions == result.extra["injector"].corruptions
        assert summary.corruptions > 0
        assert summary.history_digest == history_digest(result.history)

    def test_summary_is_picklable_and_compact(self):
        summary = run_scenario("swsr", seed=1, num_writes=2,
                               num_reads=2).summarize()
        blob = pickle.dumps(summary)
        assert pickle.loads(blob) == summary
        # the whole point of the boundary: orders of magnitude smaller
        # than pickling a cluster-dragging ScenarioResult would be.
        assert len(blob) < 2000

    def test_mwmr_summary_has_no_stabilization_report(self):
        summary = run_scenario("mwmr", m=2, seed=1,
                               ops_per_process=1).summarize()
        assert summary.completed
        assert summary.stable is None
        assert summary.tau_stab is None

    def test_to_dict_is_json_ready(self):
        import json
        summary = run_scenario("swsr", seed=1, num_writes=2,
                               num_reads=2).summarize()
        data = summary.to_dict()
        assert json.loads(json.dumps(data)) == data

    def test_digest_deterministic_across_runs(self):
        run = lambda: run_scenario("swsr", seed=7, num_writes=2, num_reads=2)
        assert run().summarize() == run().summarize()

    def test_figure1_summary_contract(self):
        from repro.experiments.figure1 import run_figure1
        summary = run_figure1("regular").summarize()
        assert summary["inverted"]
        assert pickle.loads(pickle.dumps(summary)) == summary


class TestCorruptionSchedules:
    """Regression tests for the late-binding closure hazard: each burst in
    ``corruption_times`` must fire at its own time with its own fraction
    (pre-fix, a naive ``lambda:`` would have every burst share state)."""

    def test_two_bursts_both_fire_at_their_times(self):
        result = run_scenario(
            "swsr", n=9, t=1, seed=5, num_writes=3, num_reads=3,
            corruption_times=(2.0, 5.0), trace_backend="full")
        fault_times = sorted({event.time for event
                              in result.cluster.trace.of_kind(FAULT)})
        assert fault_times == [2.0, 5.0]

    def test_per_burst_fractions_are_bound_not_shared(self):
        """Bursts (2.0, 5.0) with fractions (1.0, 0.0): the late-binding
        bug would apply the *last* fraction (0.0) to both bursts and
        corrupt nothing; correctly bound, t=2.0 corrupts everything and
        t=5.0 nothing."""
        result = run_scenario(
            "swsr", n=9, t=1, seed=5, num_writes=3, num_reads=3,
            corruption_times=(2.0, 5.0), corruption_fraction=(1.0, 0.0),
            trace_backend="full")
        events = list(result.cluster.trace.of_kind(FAULT))
        assert events, "first burst must corrupt state"
        assert {event.time for event in events} == {2.0}

    def test_per_burst_fractions_reversed(self):
        result = run_scenario(
            "swsr", n=9, t=1, seed=5, num_writes=3, num_reads=3,
            corruption_times=(2.0, 5.0), corruption_fraction=(0.0, 1.0),
            trace_backend="full")
        assert {event.time for event
                in result.cluster.trace.of_kind(FAULT)} == {5.0}

    def test_fraction_sequence_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="corruption_fraction"):
            run_scenario("swsr", corruption_times=(2.0, 5.0),
                         corruption_fraction=(1.0,))

    def test_mwmr_accepts_per_burst_fractions(self):
        result = run_scenario(
            "mwmr", m=2, seed=3, ops_per_process=1,
            corruption_times=(2.0, 4.0), corruption_fraction=(0.5, 0.0))
        assert result.completed

    def test_scalar_fraction_still_broadcasts(self):
        result = run_scenario(
            "swsr", n=9, t=1, seed=5, num_writes=3, num_reads=3,
            corruption_times=(2.0, 5.0), corruption_fraction=1.0,
            trace_backend="full")
        assert {event.time for event
                in result.cluster.trace.of_kind(FAULT)} == {2.0, 5.0}

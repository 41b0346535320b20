"""Online checkers agree with their offline counterparts — property tests.

The streaming pipeline's whole claim is *equivalence*: every incremental
checker in ``repro.checkers.online`` must compute exactly what the batch
checker it replaces computes, on any history fed in completion order.
These tests drive that claim with the same seeded generators the offline
checkers are oracle-tested with (``test_checkers_properties``), the
initial-value edge cases PR 3 pinned, the committed regression corpus
(``tests/replays/wsn-jump-atomic.json``), and live scenario runs where
the online verdicts are produced by the engine itself.
"""

import os
import random

import pytest

from gc_guard import garbage_left_by
from repro.checkers.atomicity import (check_linearizable,
                                      find_new_old_inversions)
from repro.checkers.history import History, Operation
from repro.checkers.online import (OnlineInversionDetector,
                                   OnlineRegularityChecker,
                                   OnlineTauTracker, StreamingLinearizer)
from repro.checkers.regularity import check_regularity
from repro.checkers.stabilization import (find_tau_stab,
                                          stabilization_report)
from repro.checkers.stream import ObservationStream, history_digest
from repro.workloads.scenarios import INITIAL
from repro.workloads.spec import run_scenario
from test_checkers_properties import (gen_mwmr_history, gen_rewrite_history,
                                      gen_swsr_history)

REPLAYS = os.path.join(os.path.dirname(__file__), "replays")


def replay(history, *checkers):
    """Feed a finished history in completion (response-time) order."""
    for op in sorted(history.ops,
                     key=lambda op: (op.response, op.invoke, op.op_id)):
        for checker in checkers:
            checker.observe(op)
    for checker in checkers:
        checker.finish()


def regularity_key(violations):
    return {(v.read.op_id, repr(v.returned)) for v in violations}


def inversion_key(inversions):
    return {(i.first.op_id, i.second.op_id,
             i.first_write_index, i.second_write_index) for i in inversions}


class TestOnlineRegularityAgainstOffline:
    def test_agrees_on_generated_histories(self):
        rng = random.Random(1234)
        for trial in range(300):
            history = gen_swsr_history(rng, readers=1 + trial % 2)
            offline = regularity_key(check_regularity(history,
                                                      initial=INITIAL))
            checker = OnlineRegularityChecker(initial=INITIAL)
            replay(history, checker)
            assert regularity_key(checker.violations) == offline, \
                f"trial {trial}:\n{history.format()}"

    def test_violations_after_matches_offline_cut(self):
        rng = random.Random(42)
        for trial in range(100):
            history = gen_swsr_history(rng)
            checker = OnlineRegularityChecker(initial=INITIAL)
            replay(history, checker)
            for cut in (0.0, 2.0, 5.0):
                offline = regularity_key(
                    check_regularity(history, cut, initial=INITIAL))
                assert regularity_key(
                    checker.violations_after(cut)) == offline


class TestOnlineInversionsAgainstOffline:
    def test_agrees_on_generated_histories(self):
        rng = random.Random(4321)
        seen_inversions = 0
        for trial in range(300):
            history = gen_swsr_history(rng, readers=1 + trial % 2)
            offline = inversion_key(
                find_new_old_inversions(history, initial=INITIAL))
            seen_inversions += bool(offline)
            detector = OnlineInversionDetector(initial=INITIAL)
            replay(history, detector)
            assert inversion_key(detector.inversions) == offline, \
                f"trial {trial}:\n{history.format()}"
        assert seen_inversions > 0       # the generator exercises both sides

    def test_agrees_on_initial_rewrite_histories(self):
        """The initial-value edge PR 3 fixed: a real write may rewrite the
        initial value, making attribution feasibility-constrained."""
        rng = random.Random(777)
        for trial in range(300):
            history = gen_rewrite_history(rng)
            offline = inversion_key(
                find_new_old_inversions(history, initial=INITIAL))
            detector = OnlineInversionDetector(initial=INITIAL)
            replay(history, detector)
            assert inversion_key(detector.inversions) == offline, \
                f"trial {trial}:\n{history.format()}"

    def test_future_rewrite_is_not_a_feasible_attribution(self):
        history = History()
        history.add("write", "w", "a", 0.0, 1.0)
        history.add("read", "r0", INITIAL, 10.0, 11.0)
        history.add("read", "r0", "a", 20.0, 21.0)
        history.add("write", "w", INITIAL, 100.0, 101.0)
        detector = OnlineInversionDetector(initial=INITIAL)
        replay(history, detector)
        assert detector.inversions == []

    def test_infeasible_initial_does_not_mask_inversions(self):
        history = History()
        history.add("write", "w", "a", 1.0, 2.0)
        history.add("write", "w", INITIAL, 5.0, 9.0)
        history.add("read", "r0", INITIAL, 5.5, 6.0)
        history.add("read", "r0", "a", 6.5, 7.0)
        detector = OnlineInversionDetector(initial=INITIAL)
        replay(history, detector)
        assert len(detector.inversions) == 1

    def test_read_of_future_write_is_attributed_like_offline(self):
        """Pre-stabilization garbage can coincide with a value written
        only later; offline attributes the read to that future write and
        the watch-list reproduces it."""
        history = History()
        history.add("read", "r0", "w1", 0.0, 0.5)     # value of a later write
        history.add("write", "w", "w0", 1.0, 2.0)
        history.add("read", "r0", "w0", 3.0, 4.0)
        history.add("write", "w", "w1", 5.0, 6.0)
        offline = inversion_key(find_new_old_inversions(history))
        detector = OnlineInversionDetector()
        replay(history, detector)
        assert inversion_key(detector.inversions) == offline
        assert len(offline) == 1


class TestOnlineTauAgainstOffline:
    def test_tau_stab_matches_direct_scan(self):
        rng = random.Random(1618)
        for trial in range(200):
            history = gen_swsr_history(rng, readers=1 + trial % 2)
            for mode in ("regular", "atomic"):
                for tau in (0.0, 1.5, 4.0):
                    offline = find_tau_stab(history, mode=mode,
                                            initial=INITIAL, tau_no_tr=tau)
                    tracker = OnlineTauTracker(mode=mode, initial=INITIAL)
                    replay(history, tracker)
                    assert tracker.tau_stab(tau) == offline, \
                        f"trial {trial} mode {mode} tau {tau}:\n" \
                        f"{history.format()}"

    def test_full_report_matches_offline(self):
        rng = random.Random(2024)
        for trial in range(150):
            history = gen_swsr_history(rng)
            for mode in ("regular", "atomic"):
                offline = stabilization_report(history, mode=mode,
                                               initial=INITIAL,
                                               tau_no_tr=0.0)
                tracker = OnlineTauTracker(mode=mode, initial=INITIAL)
                replay(history, tracker)
                online = tracker.report(0.0)
                assert (online.tau_stab, online.tau_1w, online.dirty_reads,
                        online.total_reads, online.stable) == \
                    (offline.tau_stab, offline.tau_1w, offline.dirty_reads,
                     offline.total_reads, offline.stable), \
                    f"trial {trial} mode {mode}:\n{history.format()}"


class TestStreamingLinearizerAgainstOffline:
    def test_agrees_on_mwmr_histories(self):
        rng = random.Random(2718)
        unlinearizable = 0
        for trial in range(250):
            history = gen_mwmr_history(rng)
            offline = bool(check_linearizable(history, initial=INITIAL))
            unlinearizable += not offline
            linearizer = StreamingLinearizer(initial=INITIAL)
            replay(history, linearizer)
            assert linearizer.ok("reg") == offline, \
                f"trial {trial}:\n{history.format()}"
        assert unlinearizable > 0

    def test_seal_cutoff_matches_offline_suffix_check(self):
        rng = random.Random(99)
        for trial in range(120):
            history = gen_mwmr_history(rng)
            cutoff = float(rng.randrange(0, 8))
            suffix = History(Operation(op.kind, op.process, op.value,
                                       op.invoke, op.response,
                                       register=op.register)
                             for op in history.ops if op.invoke >= cutoff)
            offline = bool(check_linearizable(suffix, initial=INITIAL))
            linearizer = StreamingLinearizer(initial=INITIAL)
            linearizer.seal("reg", cutoff)
            replay(history, linearizer)
            assert linearizer.ok("reg") == offline, \
                f"trial {trial} cutoff {cutoff}:\n{history.format()}"

    def test_registers_are_independent(self):
        history = History()
        history.add("write", "p0", "a", 0.0, 1.0, register="kv/x")
        history.add("read", "p1", "a", 2.0, 3.0, register="kv/x")
        history.add("write", "p0", "b", 0.0, 1.0, register="kv/y")
        history.add("read", "p1", "nope", 2.0, 3.0, register="kv/y")
        linearizer = StreamingLinearizer()
        replay(history, linearizer)
        assert linearizer.verdicts() == {"kv/x": True, "kv/y": False}


class TestExactSearchesLeaveNoCyclicGarbage:
    """Both exact searches recurse through a nested function that reaches
    itself via its closure cell; unless the call breaks that cycle, the
    memo table and every operation stay alive until a full collection."""

    def test_check_linearizable(self):
        history = gen_mwmr_history(random.Random(5))
        assert len(history) > 3
        assert garbage_left_by(
            lambda: check_linearizable(history, initial=INITIAL)) == 0

    def test_streaming_segment_search(self):
        linearizer = StreamingLinearizer(initial=INITIAL)
        ops = gen_mwmr_history(random.Random(5)).ops
        assert garbage_left_by(
            lambda: linearizer._segment_finals(ops, INITIAL)) == 0
        assert linearizer.explored > len(ops)


class TestRegressionCorpus:
    """Scenario-level equivalence on the committed counterexample."""

    def _corpus_case(self):
        from repro.fuzz.replay import ReplayArtifact
        return ReplayArtifact.load(
            os.path.join(REPLAYS, "wsn-jump-atomic.json")).case

    def test_online_report_matches_offline_on_wsn_jump(self):
        case = self._corpus_case()
        result = run_scenario("swsr", trace_backend="null",
                              **case.scenario_kwargs())
        assert result.completed
        tau = max(result.tau_no_tr,
                  max(event["time"] for event in case.timeline))
        mode = "atomic" if case.params["kind"] == "atomic" else "regular"
        offline = stabilization_report(result.history, mode=mode,
                                       initial=INITIAL, tau_no_tr=tau)
        online = result.extra["tracker"].report(tau)
        assert (online.tau_stab, online.dirty_reads, online.stable) == \
            (offline.tau_stab, offline.dirty_reads, offline.stable)
        # the corpus case is a *violation*: both judgements must agree it
        # never stabilizes after the adversary's last action.
        assert online.stable is False

    def test_online_inversions_match_offline_on_wsn_jump(self):
        case = self._corpus_case()
        result = run_scenario("swsr", trace_backend="null",
                              **case.scenario_kwargs())
        offline = len(find_new_old_inversions(
            result.history, after=result.tau_no_tr, initial=INITIAL))
        assert result.inversions_after(result.tau_no_tr) == offline


class TestScenarioStreamEquivalence:
    """The engine's live verdicts equal an offline rescan of the history."""

    @pytest.mark.parametrize("kind", ["regular", "atomic"])
    def test_swsr_scenario_report_matches_offline(self, kind):
        for seed in (0, 3, 7):
            result = run_scenario("swsr", kind=kind, seed=seed, num_writes=5,
                                  num_reads=5, reader_offset=0.5,
                                  corruption_times=(2.0,),
                                  byzantine_count=1)
            if not (result.completed and result.history.reads()):
                continue
            mode = "atomic" if kind == "atomic" else "regular"
            offline = stabilization_report(result.history, mode=mode,
                                           initial=INITIAL,
                                           tau_no_tr=result.tau_no_tr)
            online = result.report
            assert (online.tau_stab, online.tau_1w, online.dirty_reads,
                    online.total_reads, online.stable) == \
                (offline.tau_stab, offline.tau_1w, offline.dirty_reads,
                 offline.total_reads, offline.stable)

    def test_kv_scenario_verdicts_match_offline(self):
        result = run_scenario("kv", shard_count=2, num_keys=3, rounds=2,
                              seed=5, corruption_times=(2.0,))
        for key in result.extra["keys"]:
            register = f"kv/{key}"
            tau = result.tau_by_shard[result.store.shard_for(key)]
            suffix = History(Operation(op.kind, op.process, op.value,
                                       op.invoke, op.response,
                                       register=op.register)
                             for op in result.history.ops
                             if op.register == register
                             and op.invoke >= tau)
            assert result.per_key_linearizable[key] == \
                bool(check_linearizable(suffix).ok)


class TestWindowedModes:
    """Bounded windows: sound verdicts, exactness flagged, O(window) state."""

    def _clean_history(self, ops):
        history = History()
        now = 0.0
        for index in range(ops):
            history.add("write", "w", f"w{index}", now, now + 1.0)
            history.add("read", "r", f"w{index}", now + 1.5, now + 2.0)
            now += 3.0
        return history

    def test_windowed_tracker_stays_exact_on_clean_runs(self):
        history = self._clean_history(400)
        tracker = OnlineTauTracker(mode="atomic", initial=INITIAL,
                                   write_window=8, read_window=8,
                                   max_records=8, candidate_cap=32)
        replay(history, tracker)
        report = tracker.report(0.0)
        assert report.stable and report.dirty_reads == 0
        assert tracker.exact
        # bounded state: the write log must not grow with the run
        assert len(tracker.inversions._writes) <= 8

    def test_windowed_detector_still_catches_inversions(self):
        history = History()
        now = 0.0
        for index in range(100):
            history.add("write", "w", f"w{index}", now, now + 1.0)
            now += 2.0
        history.add("read", "r", "w99", now, now + 0.5)
        history.add("read", "r", "w90", now + 1.0, now + 1.5)
        detector = OnlineInversionDetector(initial=INITIAL,
                                           write_window=16, read_window=16)
        replay(history, detector)
        assert detector.inversion_count == 1
        assert detector.exact

    def test_capped_records_flip_exact_instead_of_undercounting(self):
        """Counts stay right past max_records, but the truncated record
        list can no longer enumerate pairs — exactness is surrendered
        rather than letting pairs_after() silently undercount."""
        history = History()
        for index in range(4):
            history.add("write", "w", f"w{index}", float(index),
                        index + 0.4)
        history.add("read", "r", "w3", 10.0, 10.5)
        for k, invoke in ((0, 11.0), (1, 12.0), (2, 13.0)):
            history.add("read", "r", f"w{k}", invoke, invoke + 0.5)
        detector = OnlineInversionDetector(initial=INITIAL, max_records=2)
        replay(history, detector)
        assert detector.inversion_count == 3
        assert len(detector.inversions) == 2
        assert not detector.exact

    def test_tau_hint_prunes_write_log_but_answers_hinted_cut(self):
        history = self._clean_history(50)
        exact = OnlineTauTracker(mode="regular", initial=INITIAL)
        hinted = OnlineTauTracker(mode="regular", initial=INITIAL,
                                  tau_hint=0.0)
        replay(history, exact)
        replay(history, hinted)
        full, pruned = exact.report(0.0), hinted.report(0.0)
        assert (full.tau_1w, full.tau_stab, full.stable) == \
            (pruned.tau_1w, pruned.tau_stab, pruned.stable)
        assert len(hinted._w_invokes) == 0      # the O(n) log is gone

    def test_window_overrun_flags_inexact_instead_of_guessing(self):
        history = History()
        # a read that stays in flight across far more writes than the
        # window retains — the last-preceding write is evicted.
        for index in range(40):
            history.add("write", "w", f"w{index}",
                        float(index), index + 0.5)
        history.add("read", "r", "w0", 0.2, 100.0)
        detector = OnlineInversionDetector(initial=INITIAL, write_window=4)
        replay(history, detector)
        assert not detector.exact


class TestObservationStream:
    def test_counters_and_digest_single_pass(self):
        result = run_scenario("swsr", seed=3, num_writes=3, num_reads=3,
                              corruption_times=(2.0,))
        stream = result.stream
        assert stream.ops == len(result.history)
        assert stream.writes == len(result.history.writes())
        assert stream.reads == len(result.history.reads())
        assert stream.digest() == history_digest(result.history)
        assert result.summarize().history_digest == stream.digest()

    def test_digest_is_order_independent(self):
        ops = [Operation("write", "w", "w0", 1.0, 2.0),
               Operation("read", "r", "w0", 3.0, 4.0),
               Operation("write", "w", "w1", 5.0, 6.0)]
        forward, backward = ObservationStream(), ObservationStream()
        for op in ops:
            forward.observe(op)
        for op in reversed(ops):
            backward.observe(op)
        assert forward.digest() == backward.digest()

    def test_digest_distinguishes_content(self):
        base = [Operation("write", "w", "w0", 1.0, 2.0)]
        other = [Operation("write", "w", "w0", 1.0, 2.5)]
        assert history_digest(base) != history_digest(other)
        assert history_digest(base) == history_digest(list(base))

    def test_soak_scenario_streams_without_history(self):
        result = run_scenario("soak", seed=2, num_writes=30, num_reads=30,
                              fault_bursts=2, fault_period=3.0,
                              chunk_ops=8)
        assert result.history is None
        summary = result.summarize()
        assert summary.completed and summary.stable
        assert summary.ops == 60 and summary.writes == 30
        assert result.extra["tracker"].exact

"""Harness verdicts, injection hook, backend agreement, shrinking."""

import pytest

from repro.fuzz.gen import FuzzCase, generate_case
from repro.fuzz.harness import INJECT_ENV, confirm_case, run_case
from repro.fuzz.shrink import shrink_case

#: a case known-good under the default envelope (see fuzz surveys).
GOOD_SEED = 2385743048


def small_case(**overrides):
    base = dict(
        seed=11, kind="regular", n=9, t=1, transport="direct",
        num_writes=2, num_reads=2, op_gap=8.0, reader_offset=None,
        byzantine_count=0, byzantine_strategy="silent",
        timeline=(
            {"time": 2.0, "kind": "burst",
             "args": {"fraction": 0.5, "targets": "servers"}},
            {"time": 3.0, "kind": "link-garbage", "args": {"per_link": 1}},
            {"time": 4.0, "kind": "burst",
             "args": {"fraction": 1.0, "targets": "servers"}},
        ),
        max_events=2_000_000)
    base.update(overrides)
    return FuzzCase.from_dict(base)       # the flat rendering, untagged


class TestHarness:
    def test_good_case_is_ok_on_both_backends(self):
        case = generate_case(GOOD_SEED)
        fast = run_case(case, backend="null")
        assert fast.ok and fast.completed and fast.stable
        assert fast.signature == ()
        full = confirm_case(case, fast)
        assert full.ok
        assert full.history_digest == fast.history_digest

    def test_counters_and_timings_are_populated(self):
        outcome = run_case(small_case())
        assert outcome.counters["ops"] == 4
        assert outcome.counters["timeline_events"] == 3
        assert outcome.timings["tau_no_tr"] == 4.0
        assert outcome.timings["tau_adversary"] == 4.0

    def test_crashing_case_is_contained_as_error_violation(self):
        # n < 8t + 1 violates the resilience bound -> ValueError inside
        # the scenario, contained as a violation instead of raising.
        case = small_case(n=5)
        outcome = run_case(case)
        assert not outcome.ok
        assert outcome.signature == ("error:ValueError",)

    def test_injection_hook_flags_matching_timelines(self, monkeypatch):
        monkeypatch.setenv(INJECT_ENV, "burst")
        outcome = run_case(small_case())
        assert not outcome.ok
        assert "injected:burst" in outcome.signature

    def test_injection_hook_ignores_non_matching_timelines(self,
                                                           monkeypatch):
        monkeypatch.setenv(INJECT_ENV, "partition")
        assert run_case(small_case()).ok

    def test_outcome_dict_is_json_ready(self):
        import json
        outcome = run_case(small_case())
        json.dumps(outcome.to_dict(), sort_keys=True)


class TestShrink:
    def test_rejects_passing_case(self):
        with pytest.raises(ValueError):
            shrink_case(small_case())

    def test_shrinks_injected_case_to_single_event(self, monkeypatch):
        monkeypatch.setenv(INJECT_ENV, "burst")
        result = shrink_case(small_case())
        assert result.signature == ("injected:burst",)
        assert result.events_before == 3
        assert result.events_after == 1
        assert result.case.timeline[0]["kind"] == "burst"
        # parameter ladders fired too: minimal workload.
        assert result.case.params["num_writes"] == 1
        assert result.case.params["num_reads"] == 1
        assert not result.outcome.ok

    def test_shrinking_is_deterministic(self, monkeypatch):
        monkeypatch.setenv(INJECT_ENV, "burst")
        first = shrink_case(small_case())
        second = shrink_case(small_case())
        assert first.case == second.case
        assert first.steps == second.steps
        assert first.oracle_calls == second.oracle_calls

    def test_budget_is_respected(self, monkeypatch):
        monkeypatch.setenv(INJECT_ENV, "burst")
        result = shrink_case(small_case(), max_oracle_calls=3)
        assert result.oracle_calls <= 3
        # with a tiny budget the case survives, possibly unshrunk
        assert result.events_after >= 1

    def test_shrunk_case_still_fails_under_full_trace(self, monkeypatch):
        monkeypatch.setenv(INJECT_ENV, "burst")
        result = shrink_case(small_case())
        full = confirm_case(result.case)
        assert "injected:burst" in full.signature

    def test_topology_reduction_respects_referenced_servers(self):
        from repro.fuzz.shrink import _parameter_candidates
        case = small_case(n=13, timeline=(
            {"time": 2.0, "kind": "crash", "args": {"servers": ["s13"]}},
            {"time": 3.0, "kind": "recover", "args": {"servers": ["s13"]}},
        ))
        labels = [label for label, _ in _parameter_candidates(case)]
        # shrinking n below 13 would KeyError on s13 — not proposed
        assert not any(label.startswith("n=") for label in labels)
        case = small_case(n=13)
        labels = [label for label, _ in _parameter_candidates(case)]
        assert "n=9" in labels

    def test_t_reduction_respects_rotation_set_sizes(self):
        from repro.fuzz.shrink import _parameter_candidates
        rotation = {"time": 20.0, "kind": "byzantine",
                    "args": {"servers": ["s1", "s2"],
                             "strategy": "random-garbage"}}
        case = small_case(n=17, t=2, timeline=(rotation,))
        labels = [label for label, _ in _parameter_candidates(case)]
        # a 2-server rotation pins t=2: no t-reduction proposed
        assert not any(label.startswith("t=") for label in labels)
        rotation = {"time": 20.0, "kind": "byzantine",
                    "args": {"servers": ["s1"],
                             "strategy": "random-garbage"}}
        case = small_case(n=17, t=2, timeline=(rotation,))
        labels = [label for label, _ in _parameter_candidates(case)]
        assert "t=1" in labels

    def test_real_wsn_jump_counterexample_shrinks(self):
        """The fuzzer-found Lemma 13 edge (see tests/replays) shrinks:

        client-targeted bursts against an atomic case are outside the
        default envelope but remain expressible — and minimizable.
        Loaded from the committed artifact so there is one source of
        truth for the counterexample.
        """
        import os
        from repro.fuzz.replay import ReplayArtifact
        artifact = ReplayArtifact.load(
            os.path.join(os.path.dirname(__file__), "replays",
                         "wsn-jump-atomic.json"))
        case = artifact.case
        fast = run_case(case)
        assert fast.signature == ("unstable",)
        full = confirm_case(case, fast)
        assert full.signature == ("regularity",)
        result = shrink_case(case)
        assert result.events_after <= 2
        assert any(event["kind"] == "burst"
                   for event in result.case.timeline)

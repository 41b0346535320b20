"""Generator properties of the default (swsr) family: profile, envelope.

Purity, serialization and the scenario-kwargs fit are checked for every
family at once in ``tests/test_fuzz_families.py``.
"""

import random

import pytest

from repro.faults.schedule import FaultTimeline
from repro.fuzz.families import (ROTATION_STRATEGIES, STATIC_STRATEGIES,
                                 TOPOLOGIES)
from repro.fuzz.gen import FuzzProfile, generate_case

SEEDS = [random.Random(99).randrange(2 ** 32) for _ in range(200)]


def fault_timeline(case) -> FaultTimeline:
    return FaultTimeline.from_dict(case.scenario_kwargs()["fault_timeline"])


class TestProfile:
    def test_profile_round_trip(self):
        profile = FuzzProfile(max_rotations=1, datalink_weight=0.5)
        assert FuzzProfile.from_dict(profile.to_dict()) == profile
        assert FuzzProfile.from_dict(None) == FuzzProfile()

    def test_profile_changes_cases(self):
        tame = FuzzProfile(max_transient_events=0, max_rotations=0)
        for seed in SEEDS[:50]:
            assert len(generate_case(seed, tame).timeline) == 0


class TestEnvelope:
    """Every generated case stays inside the paper's guarantees."""

    @pytest.fixture(scope="class")
    def cases(self):
        return [generate_case(seed) for seed in SEEDS]

    def test_topologies_satisfy_resilience(self, cases):
        for case in cases:
            n, t = case.params["n"], case.params["t"]
            assert (n, t) in TOPOLOGIES
            assert n >= 8 * t + 1

    def test_workload_nonempty(self, cases):
        for case in cases:
            assert case.params["num_writes"] >= 1
            assert case.params["num_reads"] >= 1

    def test_static_byzantine_within_t(self, cases):
        for case in cases:
            assert 0 <= case.params["byzantine_count"] <= case.params["t"]
            assert case.params["byzantine_strategy"] in STATIC_STRATEGIES

    def test_rotations_are_responsive_and_bounded(self, cases):
        for case in cases:
            for event in case.timeline:
                if event["kind"] != "byzantine":
                    continue
                assert len(event["args"]["servers"]) <= case.params["t"]
                assert event["args"]["strategy"] in ROTATION_STRATEGIES

    def test_atomic_bursts_target_servers_only(self, cases):
        """Client-state bursts can void Lemma 13 (wsn ring jump) — the

        default envelope keeps them away from atomic cases (see
        tests/replays/wsn-jump-atomic.json).
        """
        for case in cases:
            if case.params["kind"] != "atomic":
                continue
            for event in case.timeline:
                if event["kind"] == "burst":
                    assert event["args"]["targets"] == "servers"

    def test_partitions_only_on_direct_transport(self, cases):
        for case in cases:
            if case.params["transport"] == "datalink":
                kinds = {event["kind"] for event in case.timeline}
                assert "partition" not in kinds

    def test_transient_events_precede_workload(self, cases):
        """Assumption (b): writes start after the last transient fault."""
        for case in cases:
            timeline = fault_timeline(case)
            start = timeline.tau_no_tr + 1.0
            for event in case.timeline:
                if event["kind"] != "byzantine":
                    assert event["time"] <= timeline.tau_no_tr
                else:
                    assert event["time"] >= start

    def test_rotations_leave_a_read_suffix(self, cases):
        """Every rotation precedes the last scheduled read invocation

        (within 60% of the read span, so stabilization is never judged
        on an empty read suffix — a vacuous verdict).
        """
        for case in cases:
            timeline = fault_timeline(case)
            start = timeline.tau_no_tr + 1.0
            p = case.params
            offset = (p["reader_offset"] if p["reader_offset"] is not None
                      else p["op_gap"] / 2.0)
            last_read = start + (p["num_reads"] - 1) * p["op_gap"] + offset
            for event in case.timeline:
                if event["kind"] == "byzantine":
                    # 0.05 covers the one-decimal quantization
                    assert event["time"] <= \
                        start + 0.6 * (last_read - start) + 0.05
                    assert event["time"] <= last_read + 1e-9

    def test_times_are_quantized(self, cases):
        for case in cases:
            for event in case.timeline:
                assert round(event["time"], 1) == event["time"]

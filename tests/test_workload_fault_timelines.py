"""The FaultTimeline scenario families: determinism, drops, rotation."""

import pytest

from repro.capture import load_capture, record_scenario
from repro.faults.schedule import FaultTimeline, TimelineEvent
from repro.faults.transient import TransientFaultInjector
from repro.registers.system import Cluster, ClusterConfig, build_swsr_regular
from repro.runner.engine import run_sweep
from repro.runner.spec import SweepSpec
from repro.workloads import scenarios
from repro.workloads.spec import run_scenario


class TestPartitionScenario:
    def test_same_seed_same_summary(self):
        first = run_scenario("partition", seed=11).summarize()
        second = run_scenario("partition", seed=11).summarize()
        assert first == second

    def test_different_seeds_diverge(self):
        first = run_scenario("partition", seed=11).summarize()
        second = run_scenario("partition", seed=12).summarize()
        assert first.history_digest != second.history_digest

    def test_partition_drops_messages_and_still_stabilizes(self):
        result = run_scenario("partition", seed=3)
        assert result.completed
        assert result.report is not None and result.report.stable
        assert result.cluster.network.messages_dropped > 0
        # the healed network stops dropping: totals are consistent
        network = result.cluster.network
        assert network.messages_delivered <= network.messages_sent

    def test_partitioning_more_than_t_servers_can_starve(self):
        # 2 of 9 servers unreachable with t=1: the n-t ack quorum cannot
        # form while the partition lasts; with a long enough partition the
        # run must exhaust its budget rather than terminate.
        result = run_scenario("partition", seed=3, partition_count=2,
                              partition_duration=1_000.0,
                              max_events=100_000)
        assert not result.completed

    def test_atomic_kind_supported(self):
        result = run_scenario("partition", kind="atomic", seed=4)
        assert result.completed
        assert result.report is not None and result.report.stable

    @pytest.mark.parametrize("params, match", [
        (dict(transport="datalink"), "direct transport"),
        # n=9: a count outside 0..n used to slice a silently wrong group
        # (12 cut 3 servers, -2 cut none) under a clean partition verdict
        (dict(partition_count=12), "partition_count"),
        (dict(partition_count=-2), "partition_count"),
    ])
    def test_rejects_unrunnable_parameters(self, params, match):
        with pytest.raises(ValueError, match=match):
            run_scenario("partition", **params)


class TestMobileByzantineScenario:
    def test_same_seed_same_summary(self):
        first = run_scenario("mobile-byz", seed=21).summarize()
        second = run_scenario("mobile-byz", seed=21).summarize()
        assert first == second

    def test_rotation_moves_the_byzantine_set(self):
        result = run_scenario("mobile-byz", seed=2, rotations=3)
        assert result.completed
        # after 3 rotations of size t=1 the set sits on the 3rd server
        assert result.cluster.byzantine_ids == ["s3"]
        # recovering servers re-join with corrupted state
        assert result.extra["injector"].corruptions > 0

    def test_rotation_respects_t_bound(self):
        with pytest.raises(ValueError):
            run_scenario("mobile-byz", seed=0, rotation_size=2)  # t=1

    def test_stabilizes_after_last_rotation(self):
        result = run_scenario("mobile-byz", seed=5, rotations=2)
        assert result.completed
        assert result.report is not None and result.report.stable
        assert result.tau_no_tr >= 1.0  # last rotation instant


class TestHandoverStarvation:
    """PR 2's documented liveness edge, pinned as a regression.

    With ``rotation_gap=10.5`` and ``op_gap=10`` the second rotation
    fires at t=11.5 — strictly inside the broadcast of write #1 (sent
    t=11.0, deliveries spread over [11.1, 13.0]).  Under a
    *non-responsive* rotation strategy the old member can drop its copy
    before the handover and the new member after it: two mute servers
    against an ``n - t`` wait sized for one, so the operation legally
    starves.  Responsive-liar rotations with the *same* timing keep
    every broadcast answered and must complete and stabilize — which is
    why the strict sweeps (and the fuzzer's generator envelope) rotate
    responsive strategies only.
    """

    STRADDLE = dict(seed=0, rotations=3, rotation_gap=10.5,
                    num_writes=4, num_reads=4, max_events=300_000)

    def test_silent_rotation_straddling_a_broadcast_starves(self):
        result = run_scenario(
            "mobile-byz", rotation_strategy="silent", **self.STRADDLE)
        assert not result.completed  # the documented starvation
        # starvation is budget exhaustion, not a crash: the history holds
        # the operations that did finish, and no report is produced
        assert result.report is None

    @pytest.mark.parametrize("strategy", ["random-garbage", "stale"])
    def test_responsive_rotation_same_timing_completes(self, strategy):
        result = run_scenario(
            "mobile-byz", rotation_strategy=strategy, **self.STRADDLE)
        assert result.completed
        assert result.report is not None and result.report.stable

    def test_starvation_is_deterministic(self):
        first = run_scenario("mobile-byz", rotation_strategy="silent",
                             **self.STRADDLE).summarize()
        second = run_scenario("mobile-byz", rotation_strategy="silent",
                              **self.STRADDLE).summarize()
        assert first == second
        assert not first.completed


class TestTimelineSerialization:
    def test_round_trip(self):
        timeline = (FaultTimeline()
                    .burst(2.0, fraction=0.5, targets="servers")
                    .partition(10.0, 20.0, ["s1"])
                    .crash_recovery(5.0, 8.0, ["s2"])
                    .byzantine(12.0, ["s3"], "stale")
                    .link_garbage(2.0, per_link=2))
        restored = FaultTimeline.from_dict(timeline.to_dict())
        assert restored == timeline
        assert restored.tau_no_tr == timeline.tau_no_tr

    def test_tau_excludes_byzantine_rotation(self):
        timeline = (FaultTimeline()
                    .burst(2.0)
                    .byzantine(50.0, ["s1"]))
        assert timeline.tau_no_tr == 2.0
        assert timeline.last_event_time == 50.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            TimelineEvent(1.0, "meteor-strike")
        with pytest.raises(ValueError):
            FaultTimeline().partition(5.0, 5.0, ["s1"])  # must heal later

    def test_rejected_timeline_installs_nothing(self):
        # validation happens before scheduling: a timeline whose later
        # event is invalid must not leave earlier events on the scheduler.
        from repro.faults.transient import TransientFaultInjector
        from repro.registers.system import (Cluster, ClusterConfig,
                                            build_swsr_regular)
        cluster = Cluster(ClusterConfig(n=9, t=1, seed=0))
        build_swsr_regular(cluster, initial="v")
        injector = TransientFaultInjector.for_cluster(cluster)
        timeline = (FaultTimeline()
                    .burst(2.0)
                    .byzantine(5.0, ["s1", "s2"]))  # exceeds t=1
        before = cluster.scheduler.pending_count()
        with pytest.raises(ValueError):
            timeline.install(cluster, injector)
        assert cluster.scheduler.pending_count() == before

    def test_partitioning_unknown_pid_is_loud(self):
        from repro.sim.errors import UnknownProcessError
        from repro.registers.system import Cluster, ClusterConfig
        cluster = Cluster(ClusterConfig(n=9, t=1, seed=0))
        with pytest.raises(UnknownProcessError):
            cluster.network.set_partition(["s99"])

    def test_byzantine_rotation_leaves_crashed_servers_alone(self):
        # regression: a rotation during a crash window must not revive
        # the crashed server early — only its `recover` event may.
        from repro.faults.transient import TransientFaultInjector
        from repro.registers.system import (Cluster, ClusterConfig,
                                            build_swsr_regular)
        cluster = Cluster(ClusterConfig(n=9, t=1, seed=0))
        build_swsr_regular(cluster, initial="v")
        injector = TransientFaultInjector.for_cluster(cluster)
        timeline = (FaultTimeline()
                    .crash_recovery(4.0, 9.0, ["s5"])
                    .byzantine(6.0, ["s1"]))
        timeline.install(cluster, injector)
        cluster.run(until=7.0)
        assert sorted(cluster.byzantine_ids) == ["s1", "s5"]  # still down
        cluster.run(until=10.0)
        assert cluster.byzantine_ids == ["s1"]  # recover event revived s5
        assert injector.corruptions > 0  # with arbitrary state

    def test_swsr_scenario_accepts_timeline_dict(self):
        timeline = FaultTimeline().burst(3.0, fraction=0.5)
        result = run_scenario("swsr", seed=9, num_writes=2, num_reads=2,
                              fault_timeline=timeline.to_dict())
        assert result.completed
        # the timeline's burst pushed tau (and hence the workload) out
        assert result.tau_no_tr == 3.0
        assert result.extra["injector"].corruptions > 0


def bare_cluster():
    cluster = Cluster(ClusterConfig(n=9, t=1, seed=0))
    build_swsr_regular(cluster, initial="v")
    return cluster, TransientFaultInjector.for_cluster(cluster)


class TestTimelineValidation:
    @pytest.mark.parametrize("kind, args, match", [
        # a typo'd optional argument used to fall back to its default:
        # "fracton" corrupted every variable instead of a tenth of them
        ("burst", {"fracton": 0.1}, "'burst' has no argument 'fracton'"),
        ("link-garbage", {"per_links": 2}, "no argument 'per_links'"),
        ("byzantine", {"server": ["s1"]}, "no argument 'server'"),
        ("crash", {}, "'crash' needs argument 'servers'"),
        ("reshard_merge", {"source": 1}, "needs argument 'into'"),
    ])
    def test_argument_names_are_checked(self, kind, args, match):
        with pytest.raises(ValueError, match=match):
            TimelineEvent(1.0, kind, args)

    def test_typo_rejected_through_a_scenario(self):
        with pytest.raises(ValueError, match="fracton"):
            run_scenario("swsr", seed=1, fault_timeline={"events": [
                {"time": 2.0, "kind": "burst", "args": {"fracton": 0.1}}]})

    @pytest.mark.parametrize("family, params", [
        # fractions outside [0, 1] used to run as 0 (fault-free, yet
        # reported stable) or as 1
        ("swsr", dict(corruption_times=[2.0], corruption_fraction=-0.5)),
        ("swsr", dict(corruption_times=[2.0], corruption_fraction=1.5)),
        ("swsr", dict(corruption_times=[2.0, 3.0],
                      corruption_fraction=[0.5, 2.0])),
        ("mwmr", dict(corruption_times=[2.0], corruption_fraction=-0.1)),
        ("soak", dict(corruption_fraction=1.01)),
        ("kv", dict(corruption_times=[2.0], corruption_fraction=-1.0)),
        # negative link garbage used to run as none
        ("swsr", dict(corruption_times=[2.0], link_garbage=-3)),
        # timeline per_link <= 0 used to load nothing yet count toward τ
        ("swsr", dict(fault_timeline={"events": [
            {"time": 2.0, "kind": "link-garbage", "args": {"per_link": 0}}]})),
        ("swsr", dict(fault_timeline={"events": [
            {"time": 2.0, "kind": "burst", "args": {"fraction": 1.5}}]})),
    ])
    def test_out_of_range_fault_sizes_rejected(self, family, params):
        with pytest.raises(ValueError, match="fraction|link_garbage|per_link"):
            run_scenario(family, seed=1, **params)

    @pytest.mark.parametrize("event, match", [
        (TimelineEvent(50.0, "crash", {"servers": ["s99"]}), "s99"),
        (TimelineEvent(50.0, "recover", {"servers": ["s99"]}), "s99"),
        (TimelineEvent(50.0, "byzantine", {"servers": ["s99"]}), "s99"),
        (TimelineEvent(50.0, "partition", {"group": ["s99"]}), "s99"),
        (TimelineEvent(50.0, "burst", {"targets": ["w", "x9"]}), "x9"),
        (TimelineEvent(50.0, "burst", {"targets": "server"}),
         "unknown burst target group 'server'"),
        (TimelineEvent(50.0, "byzantine",
                       {"servers": ["s1"], "strategy": "nope"}),
         "unknown Byzantine strategy 'nope'"),
    ])
    def test_bad_targets_fail_at_install(self, event, match):
        # these used to raise only when the event fired, mid-run
        cluster, injector = bare_cluster()
        timeline = FaultTimeline([TimelineEvent(1.0, "burst"), event])
        before = cluster.scheduler.pending_count()
        with pytest.raises(ValueError, match=match):
            timeline.install(cluster, injector)
        assert cluster.scheduler.pending_count() == before


def _faults_and_summary(path, family, params):
    result = record_scenario(family, str(path), **params)
    _, events, _ = load_capture(str(path))
    return (result.summarize().to_dict(),
            [event for event in events if event["kind"] == "fault"])


SWSR = dict(seed=1, num_writes=3, num_reads=3)
KV = dict(shard_count=2, num_keys=2, rounds=1, seed=3)
KV_BURSTS = (FaultTimeline().burst(1.0, fraction=0.2, targets="servers")
             .burst(2.0, fraction=0.2, targets="servers")).to_dict()
MWMR = dict(m=2, seed=3, ops_per_process=1)
SOAK = dict(seed=3, num_writes=6, num_reads=6, rotations=1)


class TestScalarKnobsAreTimelines:
    """Every scalar fault knob is shorthand for timeline events: the two
    spellings run the same execution and record the same faults."""

    @pytest.mark.parametrize("family, knobs, explicit, substitute", [
        ("swsr", dict(SWSR, corruption_times=[2.0, 4.0],
                      corruption_fraction=[0.5, 1.0], link_garbage=2),
         dict(SWSR, fault_timeline=FaultTimeline()
              .burst(2.0, fraction=0.5).burst(4.0, fraction=1.0)
              .link_garbage(2.0, per_link=2).to_dict()), None),
        ("kv", dict(KV, corruption_times=[1.0, 2.0]),
         dict(KV, fault_timelines={0: KV_BURSTS, 1: KV_BURSTS}), None),
        # mwmr and soak take no timeline parameter: the explicit spelling
        # stands in for the bursts the family compiles from its knobs.
        ("mwmr", dict(MWMR, corruption_times=[1.0, 3.0]), MWMR,
         FaultTimeline().burst(1.0, fraction=0.3).burst(3.0, fraction=0.3)),
        ("soak", dict(SOAK, fault_bursts=2), dict(SOAK, fault_bursts=0),
         FaultTimeline().burst(5.0, fraction=0.3, targets="servers")
         .burst(10.0, fraction=0.3, targets="servers")),
    ])
    def test_scalar_knobs_equal_their_timeline_spelling(
            self, tmp_path, monkeypatch, family, knobs, explicit,
            substitute):
        by_knob = _faults_and_summary(tmp_path / "knob.jsonl", family,
                                      knobs)
        if substitute is not None:
            monkeypatch.setattr(scenarios, "_bursts",
                                lambda *args: FaultTimeline(
                                    substitute.events))
        by_timeline = _faults_and_summary(tmp_path / "timeline.jsonl",
                                          family, explicit)
        assert by_knob[1], "the cell must record faults"
        assert by_knob == by_timeline


class TestSweepIntegration:
    def test_new_families_run_through_the_runner(self):
        specs = [
            SweepSpec(name="tl-partition", scenario="partition",
                      base={"n": 9, "t": 1, "num_writes": 4,
                            "num_reads": 4},
                      grid={"kind": ["regular", "atomic"]}, seeds=[0]),
            SweepSpec(name="tl-mobile", scenario="mobile-byz",
                      base={"n": 9, "t": 1, "num_writes": 6,
                            "num_reads": 6, "rotations": 2},
                      grid={"rotation_strategy": ["random-garbage",
                                                  "stale"]},
                      seeds=[0]),
        ]
        sweep = run_sweep(specs, workers=1)
        assert len(sweep.cells) == 4
        assert sweep.all_ok
        partition_cells = [cell for cell in sweep.cells
                           if cell.scenario == "partition"]
        assert all("messages_dropped" in cell.counters
                   for cell in partition_cells)

    def test_sweep_output_identical_across_worker_counts(self):
        spec = SweepSpec(name="tl-det", scenario="mobile-byz",
                         base={"n": 9, "t": 1, "num_writes": 4,
                               "num_reads": 4, "rotations": 2},
                         grid={"kind": ["regular", "atomic"]},
                         seeds=[0, 1])
        serial = run_sweep(spec, workers=1).to_json()
        parallel = run_sweep(spec, workers=2).to_json()
        assert serial == parallel

"""Tests of the shard-parallel execution engine (``repro.parallel``).

The load-bearing property is *serial equivalence*: for any supported
configuration, ``parallel=1`` (inline) / ``parallel=N`` must produce a
result whose history digest, checker verdicts and ``summarize()`` output
equal the serial run's — including runs the event budget truncates
mid-batch.  These assertions run unconditionally (no perf-gate env var);
the wall-clock speedup itself is gated in
``benchmarks/test_bench_parallel_sim.py``.
"""

import pytest

from repro.kvstore.sharding import HashRing
from repro.faults.schedule import FaultTimeline
from repro.parallel import (ParallelScenarioRunner, ShardExecutor,
                            ShardPlan, execute_shard_plan, kv_shard_plans,
                            normalize_parallel, soak_shard_plans)
from repro.workloads.spec import ScenarioSpec, run_scenario

KV_KWARGS = dict(shard_count=3, n=9, t=1, seed=11, client_count=2,
                 num_keys=6, rounds=2, corruption_times=[2.0],
                 corruption_fraction=0.2, byzantine_count=1)
SOAK_KWARGS = dict(seed=5, num_writes=24, num_reads=24, fault_bursts=2,
                   rotations=1)


def _assert_kv_equal(serial, candidate):
    assert serial.summarize() == candidate.summarize()
    assert serial.per_key_linearizable == candidate.per_key_linearizable
    assert serial.tau_by_shard == candidate.tau_by_shard
    assert serial.completed == candidate.completed
    assert serial.linearizable == candidate.linearizable
    assert len(serial.history) == len(candidate.history)


class TestKVSerialEquivalence:
    def test_inline_and_pool_match_serial(self):
        serial = run_scenario("kv", **KV_KWARGS)
        assert serial.completed            # the config exercises a full run
        _assert_kv_equal(serial, run_scenario("kv", parallel=1, **KV_KWARGS))
        _assert_kv_equal(serial, run_scenario("kv", parallel=2, **KV_KWARGS))

    def test_budget_truncation_matches_serial(self):
        """The serial run stops mid-batch when a flush exhausts its event
        budget; the merge must reconstruct that exact stopping point
        (fully-drained earlier shards, a partially-drained failing shard,
        enqueued-but-undrained later shards)."""
        kwargs = dict(KV_KWARGS, corruption_fraction=0.6, max_events=800,
                      byzantine_count=0)
        serial = run_scenario("kv", **kwargs)
        assert not serial.completed
        assert len(serial.history) > kwargs["num_keys"]  # died *after* create
        _assert_kv_equal(serial, run_scenario("kv", parallel=1, **kwargs))
        _assert_kv_equal(serial, run_scenario("kv", parallel=2, **kwargs))

    def test_create_truncation_matches_serial(self):
        kwargs = dict(KV_KWARGS, max_events=300, byzantine_count=0)
        serial = run_scenario("kv", **kwargs)
        assert not serial.completed
        assert len(serial.history) < kwargs["num_keys"]  # died in create
        _assert_kv_equal(serial, run_scenario("kv", parallel=1, **kwargs))

    def test_per_shard_timelines_match_serial(self):
        timeline = FaultTimeline().burst(1.0, fraction=0.2,
                                         targets="servers")
        kwargs = dict(shard_count=2, num_keys=4, rounds=1, seed=6,
                      fault_timelines={1: timeline.to_dict()})
        serial = run_scenario("kv", **kwargs)
        parallel = run_scenario("kv", parallel=2, **kwargs)
        _assert_kv_equal(serial, parallel)
        assert parallel.tau_by_shard[1] > parallel.tau_by_shard[0]

    def test_merged_result_supports_summary_surface(self):
        result = run_scenario("kv", parallel=1, **KV_KWARGS)
        assert result.store.shard_count == KV_KWARGS["shard_count"]
        assert result.messages_sent > 0
        assert result.store.shard_for("k0") == \
            HashRing(KV_KWARGS["shard_count"]).shard_for("k0")

    def test_requires_pipelined(self):
        with pytest.raises(ValueError, match="pipelined"):
            run_scenario("kv", parallel=2, pipelined=False, **KV_KWARGS)


class TestSoakSerialEquivalence:
    def test_single_shard_matches_legacy_path(self):
        """``shards=1`` through plan/executor/merge must be field-for-
        field the legacy in-process soak — same seed, same verdicts."""
        legacy = run_scenario("soak", **SOAK_KWARGS)
        assert legacy.completed
        merged = run_scenario("soak", parallel=1, **SOAK_KWARGS)
        assert legacy.summarize() == merged.summarize()
        assert legacy.inversions_after(legacy.tau_no_tr) == \
            merged.extra["tracker"].inversions.pairs_after(merged.tau_no_tr)
        assert legacy.extra["tracker"].exact == \
            merged.extra["tracker"].exact
        assert legacy.extra["tracker"].report(legacy.tau_no_tr) == \
            merged.extra["tracker"].report(merged.tau_no_tr)

    def test_multi_shard_pool_matches_inline(self):
        pooled = run_scenario("soak", shards=3, parallel=2, **SOAK_KWARGS)
        inline = run_scenario("soak", shards=3, parallel=1, **SOAK_KWARGS)
        assert pooled.summarize() == inline.summarize()
        assert pooled.completed and pooled.summarize().stable
        # three sub-soaks: triple the single-shard operation count
        single = run_scenario("soak", **SOAK_KWARGS)
        assert pooled.summarize().ops == 3 * single.summarize().ops

    def test_multi_shard_seeds_are_derived(self):
        plans = soak_shard_plans(3, 7, {"kind": "regular"})
        assert len({plan.seed for plan in plans}) == 3
        assert all(plan.seed != 7 for plan in plans)
        solo = soak_shard_plans(1, 7, {"kind": "regular"})
        assert solo[0].seed == 7       # shards=1 keeps the scenario seed


class TestPlansAndDispatch:
    def test_kv_plans_cover_every_operation_on_its_ring_shard(self):
        plans, keys, ring = kv_shard_plans(
            shard_count=3, n=9, t=1, seed=0, client_count=2, num_keys=6,
            rounds=2, byzantine_count=0,
            byzantine_strategy="random-garbage", corruption_times=(),
            corruption_fraction=0.2, fault_timelines=None,
            trace_backend="null", enforce_resilience=True,
            max_events=1000)
        assert keys == [f"k{index}" for index in range(6)]
        total = 0
        for plan in plans:
            for batch in plan.op_batches:
                for kind, client, key, value in batch:
                    assert ring.shard_for(key) == plan.shard_index
                    total += 1
        assert total == 6 * (1 + 2 * 2)    # create + rounds x (put + get)

    def test_plans_are_picklable(self):
        import pickle
        plans, _, _ = kv_shard_plans(
            shard_count=2, n=9, t=1, seed=0, client_count=2, num_keys=2,
            rounds=1, byzantine_count=0,
            byzantine_strategy="random-garbage",
            corruption_times=(2.0,), corruption_fraction=0.2,
            fault_timelines={0: FaultTimeline().burst(
                1.0, fraction=0.2, targets="servers")},
            trace_backend="null", enforce_resilience=True,
            max_events=1000)
        restored = pickle.loads(pickle.dumps(plans))
        assert restored == plans

    def test_out_of_range_timeline_shard_rejected_at_plan_time(self):
        timeline = FaultTimeline().burst(1.0, fraction=0.2,
                                         targets="servers")
        with pytest.raises(ValueError, match="reference shards"):
            run_scenario("kv", parallel=2, shard_count=2, num_keys=2,
                         rounds=1, seed=6,
                         fault_timelines={5: timeline.to_dict()})

    def test_executor_runs_every_stage_in_plan_order_repeatably(self):
        plans, _, _ = kv_shard_plans(
            shard_count=2, n=9, t=1, seed=4, client_count=2, num_keys=4,
            rounds=1, byzantine_count=0,
            byzantine_strategy="random-garbage",
            corruption_times=(2.0,), corruption_fraction=0.2,
            fault_timelines=None, trace_backend="null",
            enforce_resilience=True, max_events=100_000)
        one_shot = execute_shard_plan(plans[0])
        outcome = ShardExecutor(plans[0]).run()
        assert list(outcome.status) == plans[0].stage_names()
        assert set(outcome.status.values()) == {"ok"}
        assert outcome.status == one_shot.status
        assert outcome.post_counters == one_shot.post_counters
        assert [op.value for ops in outcome.records.values()
                for op in ops] == \
            [op.value for ops in one_shot.records.values() for op in ops]

    def test_normalize_parallel(self):
        assert normalize_parallel(None) == 1
        assert normalize_parallel(1) == 1
        assert normalize_parallel(4) == 4
        for bad in (0, -2, "threads", "interleave", 2.5, True):
            with pytest.raises(ValueError):
                normalize_parallel(bad)

    def test_runner_runs_plans_in_order(self):
        plans = soak_shard_plans(2, 3, dict(
            kind="regular", n=9, t=1, transport="direct", num_writes=4,
            num_reads=4, op_gap=4.0, reader_offset=None, fault_bursts=1,
            fault_period=5.0, corruption_fraction=0.3, rotations=0,
            rotation_gap=None, rotation_size=None,
            rotation_strategy="random-garbage", byzantine_count=0,
            byzantine_strategy="random-garbage", initial="v_init",
            enforce_resilience=True, max_events=1_000_000,
            trace_backend="null", keep_history=False, write_window=64,
            read_window=64, max_records=64, candidate_cap=4096,
            chunk_ops=256))
        outcomes = ParallelScenarioRunner(plans, parallel=1).run()
        assert [outcome.shard_index for outcome in outcomes] == [0, 1]
        assert all(outcome.completed for outcome in outcomes)
        assert all(outcome.records["run"] for outcome in outcomes)


class TestSpecIntegration:
    def test_parallel_params_are_spec_valid(self):
        spec = ScenarioSpec("kv", seed=1, shard_count=2, num_keys=2,
                            rounds=1, parallel=1)
        result = spec.run()
        assert result.completed and result.linearizable
        soak = ScenarioSpec("soak", seed=1, num_writes=8, num_reads=8,
                            fault_bursts=1, shards=2, parallel=2)
        merged = soak.run()
        assert merged.completed

    def test_run_scenario_threads_parallel_through(self):
        serial = run_scenario("kv", seed=2, shard_count=2, num_keys=3,
                              rounds=1)
        parallel = run_scenario("kv", seed=2, shard_count=2, num_keys=3,
                                rounds=1, parallel=1)
        assert serial.summarize() == parallel.summarize()

    def test_invalid_parallel_rejected(self):
        with pytest.raises(ValueError):
            run_scenario("kv", seed=1, shard_count=2, num_keys=2,
                         rounds=1, parallel="threads")
        with pytest.raises(ValueError):
            run_scenario("soak", seed=1, num_writes=4, num_reads=4,
                         shards=0)

"""Tests of the shard-parallel execution engine (``repro.parallel``).

The load-bearing property is *serial equivalence*: for any supported
configuration, ``parallel=1`` (inline) / ``parallel=N`` must produce a
result whose history digest, checker verdicts and ``summarize()`` output
equal the serial run's — including runs the event budget truncates
mid-batch.  These assertions run unconditionally (no perf-gate env var);
the wall-clock speedup itself is gated in
``benchmarks/test_bench_parallel_sim.py``.
"""

import pickle

import pytest

import repro.parallel as parallel
from repro.kvstore.sharding import HashRing, derive_shard_seed
from repro.faults.schedule import FaultTimeline
from repro.runner.engine import map_in_order
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
        """``shards=1`` through the shard worker and merge must be field-for-
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
        """A sharded soak is the sub-soaks at the derived seeds, merged:
        its ops, messages and events are theirs summed."""
        kwargs = dict(SOAK_KWARGS, seed=7)
        merged = run_scenario("soak", shards=2, **kwargs).summarize()
        solos = [run_scenario("soak", **dict(
            kwargs, seed=derive_shard_seed(7, shard))).summarize()
            for shard in range(2)]
        for name in ("ops", "messages_sent", "events_processed"):
            assert getattr(merged, name) == sum(
                getattr(solo, name) for solo in solos), name
        assert merged.sim_end == max(solo.sim_end for solo in solos)
        assert len({derive_shard_seed(7, shard) for shard in range(3)}
                   - {7}) == 3


def _shards(monkeypatch, family, workers, **kwargs):
    """``(worker function, shard list)`` a scenario hands the pool."""
    handed = []

    def spy(function, items, count):
        handed.append((function, items))
        return map_in_order(function, items, count)

    monkeypatch.setattr(parallel, "map_in_order", spy)
    run_scenario(family, parallel=workers, **kwargs)
    return handed[0]


class TestPlansAndDispatch:
    KV = dict(shard_count=3, n=9, t=1, seed=4, client_count=2, num_keys=6,
              rounds=2, corruption_times=[2.0], corruption_fraction=0.2,
              fault_timelines={0: FaultTimeline().burst(
                  1.0, fraction=0.2, targets="servers").to_dict()})

    def test_kv_plans_cover_every_operation_on_its_ring_shard(
            self, monkeypatch):
        """Each kv shard is (pool, derived seed, its slice of every batch,
        its timeline): every op sits on its ring shard, and the shard list
        is the same at any worker count."""
        _, shards = _shards(monkeypatch, "kv", 1, **self.KV)
        ring = HashRing(3)
        total = 0
        for index, (pool, seed, batches, timeline) in enumerate(shards):
            assert seed == derive_shard_seed(4, index)
            assert len(batches) == 1 + 2 * 2
            for batch in batches:
                for kind, client, key, value in batch:
                    assert ring.shard_for(key) == index
                    total += 1
        assert total == 6 * (1 + 2 * 2)    # create + rounds x (put + get)
        assert _shards(monkeypatch, "kv", 2, **self.KV)[1] == shards

    def test_plans_are_picklable(self, monkeypatch):
        """The shard tuples, timeline included, survive the pool's pickle
        round trip unchanged."""
        _, shards = _shards(monkeypatch, "kv", 1, **self.KV)
        assert all(timeline["events"] for *_, timeline in shards)
        assert pickle.loads(pickle.dumps(shards)) == shards

    def test_executor_runs_every_stage_in_plan_order_repeatably(
            self, monkeypatch):
        """The kv worker returns records and pre/post counters per step
        (step 0 is create), one entry per batch, the same on every call."""
        worker, shards = _shards(monkeypatch, "kv", 1, **self.KV)
        failed, records, pre, post, tau, corruptions = worker(shards[0])
        assert failed is None and tau > 0
        assert len(records) == len(pre) == len(post) == len(shards[0][2])
        assert [len(step) for step in records] == \
            [len(batch) for batch in shards[0][2]]
        again = worker(shards[0])
        assert again[0] is None
        assert again[2:] == (pre, post, tau, corruptions)
        assert [op.value for step in again[1] for op in step] == \
            [op.value for step in records for op in step]

    def test_normalize_parallel(self):
        """``map_in_order`` takes a worker count: an int of at least 1.
        It returns results in item order, inline or on the pool."""
        items = [3, 1, 2]
        for workers in (1, 2, 4):
            assert map_in_order(abs, items, workers) == items
        for bad in (0, -2, "threads", "interleave", 2.5, True):
            with pytest.raises(ValueError, match="workers must be"):
                map_in_order(abs, items, bad)

    def test_runner_runs_plans_in_order(self, monkeypatch):
        """A sharded soak hands the pool one sub-soak per shard, in shard
        order at the derived seeds, and each one completes with records."""
        worker, shards = _shards(monkeypatch, "soak", 1, shards=2,
                                 **SOAK_KWARGS)
        assert [seed for _, seed in shards] == \
            [derive_shard_seed(SOAK_KWARGS["seed"], shard)
             for shard in range(2)]
        outcomes = map_in_order(worker, shards, 1)
        assert all(completed and records
                   for completed, records, *_ in outcomes)
        pooled = map_in_order(worker, shards, 2)
        assert [outcome[2:] for outcome in pooled] == \
            [outcome[2:] for outcome in outcomes]

    def test_out_of_range_timeline_shard_rejected_at_plan_time(self):
        timeline = FaultTimeline().burst(1.0, fraction=0.2,
                                         targets="servers")
        with pytest.raises(ValueError, match="reference shards"):
            run_scenario("kv", parallel=2, shard_count=2, num_keys=2,
                         rounds=1, seed=6,
                         fault_timelines={5: timeline.to_dict()})


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
        """``parallel`` is a worker count: an int of at least 1, for kv
        and soak alike; a soak needs at least one shard."""
        for family, kwargs in (
                ("kv", dict(shard_count=2, num_keys=2, rounds=1)),
                ("soak", dict(num_writes=4, num_reads=4))):
            for bad in (0, -2, "threads", "interleave", 2.5, True):
                with pytest.raises(ValueError, match="workers must be"):
                    run_scenario(family, seed=1, parallel=bad, **kwargs)
        with pytest.raises(ValueError):
            run_scenario("soak", seed=1, num_writes=4, num_reads=4,
                         shards=0)

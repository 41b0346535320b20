"""Live resharding: the Rebalancer handoff protocol and the reshard
scenario family built on it."""

import json

import pytest

from repro.kvstore import Pipeline, Rebalancer, build_sharded_kv_store
from repro.workloads.spec import run_scenario


def filled_store(shard_count=2, seed=7, keys=8):
    store = build_sharded_kv_store(shard_count=shard_count, seed=seed)
    for index in range(keys):
        store.put_sync("c1", f"k{index}", f"v{index}")
    return store


class TestRebalancer:
    def test_split_preserves_every_keys_state(self):
        store = filled_store()
        report = Rebalancer(store).split(0)
        assert report.kind == "reshard_split"
        assert store.shard_count == 3
        for index in range(8):
            assert store.get_sync("c2", f"k{index}") == f"v{index}"

    def test_join_moves_keys_only_to_the_new_shard(self):
        store = filled_store(keys=12)
        before = {key: store.shard_for(key) for key in store.keys}
        report = Rebalancer(store).join()
        assert report.new_shard == store.shard_count - 1
        for key in report.moved_keys:
            assert store.shard_for(key) == report.new_shard
            assert before[key] != report.new_shard
        untouched = [key for key in store.keys
                     if key not in report.moved_keys]
        assert all(store.shard_for(key) == before[key]
                   for key in untouched)

    def test_merge_retires_the_source_shard(self):
        store = filled_store()
        Rebalancer(store).merge(0, into=1)
        assert store.ring.active_shards() == [1]
        for index in range(8):
            assert store.shard_for(f"k{index}") == 1
            assert store.get_sync("c2", f"k{index}") == f"v{index}"

    def test_transferred_subset_of_moved(self):
        """Keys that moved but never materialized hold no state — they
        appear in ``moved_keys`` but not in ``transferred``."""
        store = build_sharded_kv_store(shard_count=2, seed=7)
        store.put_sync("c1", "written", 1)
        report = Rebalancer(store).merge(store.shard_for("written"),
                                         into=1 - store.shard_for("written"))
        assert set(report.transferred) <= set(report.moved_keys)
        assert "written" in report.transferred

    def test_drains_pipeline_before_mutating(self):
        """Operations in flight when the rebalance starts complete on
        the owner they were routed to — the drain half of the handoff."""
        store = filled_store()
        pipe = Pipeline(store)
        pending = [pipe.put("c1", f"k{index}", f"new{index}")
                   for index in range(8)]
        owners = [handle.shard for handle in pending]
        Rebalancer(store, pipeline=pipe).split(0)
        assert all(handle.done for handle in pending)
        assert [handle.shard for handle in pending] == owners
        for index in range(8):
            assert store.get_sync("c2", f"k{index}") == f"new{index}"

    def test_transfers_are_observable_and_use_migration_client(self):
        store = filled_store()
        observed = []
        rebalancer = Rebalancer(store, observe=observed.append,
                                migration_client=lambda key: "c2")
        report = rebalancer.split(0)
        # one read (old owner) + one write (new owner) per transfer
        assert len(observed) == 2 * len(report.transferred)
        assert all(handle.process_id == "c2" for handle in observed)
        kinds = [handle.meta["kind"] for handle in observed]
        assert set(kinds) <= {"read", "write"}

    def test_transfer_timestamps_are_monotone(self):
        """Clock alignment: every transfer write must not precede the
        read it copies, even though shards tick independent clocks."""
        store = filled_store(shard_count=3, seed=21, keys=10)
        observed = []
        Rebalancer(store, observe=observed.append).merge(0, into=2)
        reads = {handle.meta["register"]: handle.response_time
                 for handle in observed if handle.meta["kind"] == "read"}
        writes = {handle.meta["register"]: handle.invoke_time
                  for handle in observed if handle.meta["kind"] == "write"}
        assert set(writes) == set(reads)
        for register, invoked in writes.items():
            assert invoked >= reads[register]

    def test_apply_event_rejects_cluster_scoped_kinds(self):
        from repro.faults.schedule import FaultTimeline
        store = filled_store()
        event = FaultTimeline().burst(1.0).events[0]
        with pytest.raises(ValueError):
            Rebalancer(store).apply_event(event)

    def test_report_is_json_able(self):
        store = filled_store()
        report = Rebalancer(store).split(0)
        round_tripped = json.loads(json.dumps(report.to_dict()))
        assert round_tripped["kind"] == "reshard_split"
        assert round_tripped["new_shard"] == 2
        assert sorted(round_tripped) == ["dests", "kind", "moved_keys",
                                         "new_shard", "sources", "time",
                                         "transferred"]

    def test_reports_accumulate(self):
        store = filled_store()
        rebalancer = Rebalancer(store)
        rebalancer.split(0)
        rebalancer.migrate(1, 2, count=1)
        assert [report.kind for report in rebalancer.reports] == \
            ["reshard_split", "migrate_vnodes"]


PLAN = {"events": [
    {"time": 6.0, "kind": "reshard_split", "args": {"shard": 0}},
    {"time": 12.0, "kind": "migrate_vnodes",
     "args": {"source": 1, "dest": 2, "count": 1}},
]}


class TestReshardScenario:
    def test_default_plan_splits_and_linearizes(self):
        result = run_scenario("reshard", seed=3, num_keys=3, rounds=2)
        assert result.completed and result.linearizable
        assert [report.kind for report in result.rebalances] == \
            ["reshard_split"]
        assert result.store.shard_count == 3

    def test_one_epoch_tau_per_applied_event(self):
        result = run_scenario("reshard", seed=3, num_keys=4, rounds=2,
                              vnodes=4, reshard_plan=PLAN)
        assert len(result.epoch_taus) == len(result.rebalances) == 2
        for entry, report in zip(result.epoch_taus, result.rebalances):
            assert report.kind in entry["label"]
            assert entry["tau"] is not None
            assert entry["tau"] >= entry["start"]

    def test_strict_mode_passes_on_a_clean_run(self):
        result = run_scenario("reshard", seed=5, num_keys=3, rounds=2,
                              vnodes=4, strict=True, reshard_plan=PLAN)
        assert all(result.per_key_linearizable.values())

    def test_summaries_are_deterministic(self):
        def run():
            return run_scenario("reshard", seed=11, num_keys=4, rounds=2,
                                vnodes=4, corruption_times=[2.0],
                                reshard_plan=PLAN).summarize().to_dict()

        first, second = run(), run()
        assert json.dumps(first, sort_keys=True) == \
            json.dumps(second, sort_keys=True)
        assert first["epoch_taus"] is not None

    def test_survives_faults_during_migration(self):
        result = run_scenario("reshard", seed=9, num_keys=4, rounds=2,
                              vnodes=4, corruption_times=[2.0, 8.0],
                              corruption_fraction=0.2, reshard_plan=PLAN)
        assert result.completed and result.linearizable
        assert all(entry["tau"] is not None
                   for entry in result.epoch_taus)

    def test_rejects_cluster_scoped_plan_events(self):
        with pytest.raises(ValueError, match="store-scoped"):
            run_scenario("reshard", seed=0, reshard_plan={"events": [
                {"time": 1.0, "kind": "burst", "args": {}}]})

    def test_rejects_plans_referencing_future_shards(self):
        with pytest.raises(ValueError, match="exist at that point"):
            run_scenario("reshard", seed=0, shard_count=2,
                         reshard_plan={"events": [
                             {"time": 1.0, "kind": "migrate_vnodes",
                              "args": {"source": 0, "dest": 5}}]})

    def test_split_allocation_is_replayed_statically(self):
        # shard 2 does not exist up front but does once the split ran
        result = run_scenario("reshard", seed=3, num_keys=2, rounds=1,
                              vnodes=4, reshard_plan=PLAN)
        assert result.completed


class TestReshardFuzzFamily:
    """The reshard arm's plan envelope and ring-preserving ladder (purity,
    round-trips and shrink-to-replay: ``tests/test_fuzz_families.py``)."""

    def test_generated_plans_are_statically_feasible(self):
        from repro.faults.schedule import RESHARD_KINDS
        from repro.fuzz.gen import generate_case
        from repro.workloads.scenarios import _reshard_plan
        for seed in range(16):
            case = generate_case(seed, family="reshard")
            assert case.family == "reshard"
            # the flat timeline folds back into the plan, in order
            plan = case.scenario_kwargs()["reshard_plan"]
            assert plan["events"] == [
                event for event in case.timeline
                if event["kind"] in RESHARD_KINDS]
            assert plan["events"], "every reshard case carries a plan"
            times = [event["time"] for event in plan["events"]]
            assert times == sorted(times) and len(set(times)) == len(times)
            # the scenario's own static validation must accept it
            _reshard_plan(plan, case.params["shard_count"])

    def test_shrink_ladder_keeps_the_ring_shape(self):
        from repro.fuzz.gen import generate_case
        from repro.fuzz.shrink import _parameter_candidates
        case = generate_case(42, family="reshard")
        candidates = _parameter_candidates(case)
        assert candidates
        for label, candidate in candidates:
            for fixed in ("shard_count", "vnodes"):
                assert candidate.params[fixed] == case.params[fixed], label
            assert candidate.timeline == case.timeline, label

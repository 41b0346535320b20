"""Tests of the ``kv`` scenario family: scenario, adapter, smoke spec."""

import pickle

import pytest

from repro.faults.schedule import FaultTimeline
from repro.runner.adapters import ADAPTERS
from repro.runner.spec import SweepSpec, expand, smoke_specs
from repro.workloads.spec import run_scenario


class TestRunKVScenario:
    def test_clean_run_completes_and_linearizes(self):
        result = run_scenario("kv", shard_count=2, num_keys=3, rounds=2,
                              seed=0)
        assert result.completed
        assert result.linearizable
        assert set(result.per_key_linearizable) == {"k0", "k1", "k2"}
        # 3 creates + 2 rounds x (3 puts + 3 gets)
        assert len(result.history) == 15

    def test_deterministic_summary(self):
        kwargs = dict(shard_count=2, num_keys=4, rounds=2, seed=7,
                      corruption_times=[2.0], byzantine_count=1)
        assert run_scenario("kv", **kwargs).summarize() == \
            run_scenario("kv", **kwargs).summarize()

    def test_serial_and_pipelined_agree_on_verdicts(self):
        # dense enough that both clients share shards — the regime where
        # pipelining buys simulated-time concurrency
        kwargs = dict(shard_count=2, num_keys=8, rounds=2, seed=3)
        serial = run_scenario("kv", pipelined=False, **kwargs)
        pipelined = run_scenario("kv", pipelined=True, **kwargs)
        assert serial.completed and pipelined.completed
        assert serial.linearizable and pipelined.linearizable
        assert len(serial.history) == len(pipelined.history)
        assert pipelined.store.now < serial.store.now

    def test_burst_and_byzantine_envelope_stabilizes(self):
        result = run_scenario("kv", shard_count=2, num_keys=4, rounds=2,
                              seed=5, corruption_times=[2.0],
                              corruption_fraction=0.2,
                              byzantine_count=1)
        assert result.completed
        assert result.linearizable
        assert result.summarize().corruptions > 0
        assert result.tau_no_tr > 0

    def test_per_shard_timelines_only_hit_their_shard(self):
        timeline = FaultTimeline().burst(1.0, fraction=0.2,
                                         targets="servers")
        result = run_scenario("kv", shard_count=2, num_keys=4, rounds=1,
                              seed=6,
                              fault_timelines={1: timeline.to_dict()})
        assert result.completed and result.linearizable
        assert result.tau_by_shard[1] > result.tau_by_shard[0]

    def test_out_of_range_timeline_shard_rejected(self):
        """A typo'd shard index must error loudly, not silently report a
        fault-free 'survived faults' verdict."""
        timeline = FaultTimeline().burst(1.0, fraction=0.2,
                                         targets="servers")
        with pytest.raises(ValueError, match="reference shards"):
            run_scenario("kv", shard_count=2, num_keys=2, rounds=1, seed=6,
                         fault_timelines={5: timeline.to_dict()})

    def test_keys_judged_against_their_own_shard_tau(self):
        """Shards are independent simulations with different anchors; a
        key must not be judged against another shard's (later) τ."""
        result = run_scenario("kv", shard_count=2, num_keys=4, rounds=2,
                              seed=7, corruption_times=[2.0])
        assert result.completed
        assert result.linearizable
        assert len(set(result.tau_by_shard)) > 1


class TestKVAdapter:
    def test_registered_and_sections_picklable(self):
        assert SweepSpec(name="kv", scenario="kv").scenario in ADAPTERS
        verdicts, counters, timings, digest = ADAPTERS["kv"](
            dict(shard_count=2, num_keys=3, rounds=1, seed=1))
        assert verdicts["completed"] and verdicts["linearizable"] \
            and verdicts["ok"]
        assert counters["shards"] == 2
        assert counters["keys"] == 3
        assert counters["ops"] == 9
        assert timings["sim_end"] > 0
        assert len(digest) == 16
        pickle.dumps((verdicts, counters, timings, digest))

    def test_smoke_sweep_includes_kv_cells(self):
        cells = expand(smoke_specs())
        kv_cells = [cell for cell in cells if cell.scenario == "kv"]
        assert len(kv_cells) == 24
        shard_counts = {cell.params["shard_count"] for cell in kv_cells}
        assert shard_counts == {1, 2, 4}
        assert all("seed" in cell.params for cell in kv_cells)

"""Tests of the kv fuzz family: envelope, harness, campaign.

Purity, serialization, fast-path verdicts and shrink-to-replay are
checked for every family at once in ``tests/test_fuzz_families.py``.
"""

import json

import pytest

from repro.fuzz.campaign import campaign_cases, campaign_spec, run_campaign
from repro.fuzz.families import KV_MAX_BURST_FRACTION
from repro.fuzz.gen import generate_case
from repro.fuzz.harness import INJECT_ENV, confirm_case, run_case
from repro.runner.adapters import run_fuzz_cell
from repro.runner.spec import derive_seed


def kv_case(seed):
    return generate_case(seed, family="kv")


class TestGenerator:
    def test_rendering_carries_the_family_tag(self):
        assert kv_case(42).to_dict()["family"] == "kv"

    def test_envelope_stays_inside_the_guarantees(self):
        for seed in range(30):
            case = kv_case(seed)
            p = case.params
            assert p["n"] >= 8 * p["t"] + 1
            assert p["byzantine_count"] <= p["t"]
            for event in case.timeline:
                assert 0 <= event["shard"] < p["shard_count"]
                if event["kind"] == "burst":
                    assert event["args"]["targets"] == "servers"
                    assert event["args"]["fraction"] <= \
                        KV_MAX_BURST_FRACTION

    def test_scenario_kwargs_group_events_per_shard(self):
        case = kv_case(2)
        kwargs = case.scenario_kwargs()
        flattened = [event
                     for events in kwargs["fault_timelines"].values()
                     for event in events["events"]]
        assert len(flattened) == len(case.timeline)
        assert all("shard" not in event for event in flattened)


class TestHarness:
    def test_backend_agreement_digest_cross_check(self):
        case = kv_case(3)
        fast = run_case(case, backend="null")
        full = confirm_case(case, fast)
        assert full.ok
        assert fast.history_digest == full.history_digest

    def test_injected_violation_flags_kv_cases(self, monkeypatch):
        case = kv_case(5)
        if not any(event["kind"] == "burst" for event in case.timeline):
            pytest.skip("sampled case has no burst event")
        monkeypatch.setenv(INJECT_ENV, "burst")
        outcome = run_case(case, backend="null")
        assert not outcome.ok
        assert "injected:burst" in outcome.signature


class TestCampaign:
    def test_default_family_spec_is_unchanged(self):
        """The kv arm must not move the default family's golden seeds."""
        spec = campaign_spec(7, 4)
        assert spec.name == "fuzz-7"
        assert "family" not in spec.base
        base = {"profile": spec.base["profile"]}
        assert [cell.seed for cell in spec.cells()] == \
            [derive_seed("fuzz-7", "fuzz", base, replicate)
             for replicate in range(4)]

    def test_kv_spec_derives_its_own_seeds(self):
        spec = campaign_spec(7, 4, family="kv")
        assert spec.name == "fuzz-kv-7"
        assert spec.base["family"] == "kv"
        default = campaign_spec(7, 4)
        assert [cell.seed for cell in spec.cells()] != \
            [cell.seed for cell in default.cells()]

    def test_campaign_cases_are_kv_cases(self):
        pairs = campaign_cases(7, 3, family="kv")
        assert len(pairs) == 3
        assert all(case.family == "kv" for _, case in pairs)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            campaign_spec(7, 4, family="nope")

    def test_kv_campaign_deterministic_across_workers(self):
        serial = run_campaign(11, 6, workers=1, family="kv")
        parallel = run_campaign(11, 6, workers=2, family="kv")
        assert serial.to_json() == parallel.to_json()
        assert json.loads(serial.to_json())["campaign"]["family"] == "kv"

    def test_adapter_dispatches_on_family(self):
        spec = campaign_spec(9, 1, family="kv")
        cell = spec.cells()[0]
        verdicts, counters, _, digest = run_fuzz_cell(dict(cell.params,
                                                           seed=cell.seed))
        assert verdicts["ok"]
        assert counters["shards"] >= 1
        assert digest

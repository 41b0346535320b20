"""One contract over the ``FUZZ_FAMILIES`` table, plus what the family
tag promises: every arm's cases are pure, round-trip, fit their scenario
family, pass on a correct implementation, and shrink to artifacts that
replay — so a new table entry is covered the moment it is added."""

import json
import os

import pytest

from repro.fuzz.campaign import campaign_spec
from repro.fuzz.families import FUZZ_FAMILIES
from repro.fuzz.gen import FuzzCase, generate_case
from repro.fuzz.harness import INJECT_ENV, run_case
from repro.fuzz.replay import ReplayArtifact, replay
from repro.fuzz.shrink import shrink_case
from repro.workloads.spec import FAMILIES

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

families = pytest.mark.parametrize("family", list(FUZZ_FAMILIES))


def test_every_fuzz_family_is_a_scenario_family():
    assert set(FUZZ_FAMILIES) <= set(FAMILIES)


@families
class TestFamilyContract:
    def test_case_is_a_pure_function_of_its_seed(self, family):
        for seed in (0, 1, 7, 42, 20260808):
            case = generate_case(seed, family=family)
            assert case == generate_case(seed, family=family)
            assert (case.family, case.seed) == (family, seed)

    def test_round_trips_through_json(self, family):
        for seed in range(20):
            case = generate_case(seed, family=family)
            clone = FuzzCase.from_dict(json.loads(json.dumps(case.to_dict())))
            assert clone == case
            assert clone.to_dict() == case.to_dict()

    def test_scenario_kwargs_fit_the_scenario_family(self, family):
        defaults = FAMILIES[family].defaults
        for seed in range(20):
            case = generate_case(seed, family=family)
            kwargs = case.scenario_kwargs()
            assert set(kwargs) <= set(defaults)
            folded = sum(
                len(kwargs.get(key, {}).get("events", ()))
                for key in ("fault_timeline", "reshard_plan")) + sum(
                len(timeline["events"])
                for timeline in kwargs.get("fault_timelines", {}).values())
            assert folded == len(case.timeline)   # no event dropped

    def test_generated_cases_pass_on_the_fast_path(self, family):
        for seed in range(8):
            outcome = run_case(generate_case(seed, family=family))
            assert outcome.ok, (seed, outcome.violations)

    def test_injected_failure_shrinks_to_a_replayable_artifact(
            self, family, monkeypatch, tmp_path):
        case = next(case for case in (generate_case(seed, family=family)
                                      for seed in range(50))
                    if len(case.timeline) >= 2)
        kind = case.timeline[-1]["kind"]
        monkeypatch.setenv(INJECT_ENV, kind)
        failing = run_case(case)
        assert failing.signature == (f"injected:{kind}",)
        result = shrink_case(case, known_failure=failing)
        # only events of the injected kind can carry the signature
        assert 1 <= result.events_after <= result.events_before
        assert all(event["kind"] == kind for event in result.case.timeline)
        path = str(tmp_path / "replay.json")
        ReplayArtifact(case=result.case,
                       violations=result.outcome.violations,
                       original_case=case, shrink=result.to_dict()
                       ).write(path)
        artifact = ReplayArtifact.load(path)
        assert (artifact.case, artifact.original_case) == (result.case, case)
        assert replay(artifact).reproduced


@pytest.mark.parametrize("family, campaign_seed, fixture", [
    ("kv", 20260730, "fuzz_case_kv0.json"),
    ("reshard", 20260808, "fuzz_case_reshard0.json"),
])
def test_first_ci_campaign_case_matches_golden_fixture(family, campaign_seed,
                                                       fixture):
    """Full sampled case == committed golden JSON (MT stability guard),
    as ``fuzz_case_smoke0.json`` is for the default family."""
    with open(os.path.join(GOLDEN_DIR, fixture), encoding="utf-8") as handle:
        golden = json.load(handle)
    seed = campaign_spec(campaign_seed, 24, family=family).cells()[0].seed
    assert generate_case(seed, family=family).to_dict() == golden


class TestFamilyTagIsTheDispatch:
    def test_absent_tag_loads_the_default_family(self):
        data = generate_case(7).to_dict()
        assert "family" not in data          # the committed corpus has none
        assert FuzzCase.from_dict(data).family == "swsr"

    def test_explicit_default_tag_loads(self):
        case = generate_case(7)
        tagged = {**case.to_dict(), "family": "swsr"}
        assert FuzzCase.from_dict(tagged) == case

    def test_known_tag_loads_that_family(self):
        for family in FUZZ_FAMILIES:
            case = generate_case(7, family=family)
            assert FuzzCase.from_dict(case.to_dict()).family == family

    def test_unknown_tag_is_rejected_not_sniffed(self):
        data = {**generate_case(7, family="kv").to_dict(), "family": "nope"}
        with pytest.raises(ValueError, match=r"'nope'.*swsr, kv, reshard"):
            FuzzCase.from_dict(data)

    def test_parameter_the_family_does_not_have_is_rejected(self):
        data = generate_case(7, family="kv").to_dict()
        data["reader_offset"] = 0.5           # an swsr parameter
        with pytest.raises(ValueError, match="reader_offset.*valid param"):
            FuzzCase.from_dict(data)
        with pytest.raises(ValueError, match="vnodez"):
            generate_case(7, family="reshard").with_params(vnodez=4)

    def test_event_the_family_has_no_timeline_for_is_rejected(self):
        data = generate_case(7, family="kv").to_dict()
        data["timeline"] = [{"time": 1.0, "kind": "burst", "args": {}}]
        with pytest.raises(ValueError, match="fault_timeline"):
            FuzzCase.from_dict(data)          # kv events need a shard

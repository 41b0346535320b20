"""ScenarioSpec: validation, serialization, registry resolution."""

from functools import partial

import pytest

from repro.registers.system import ClusterConfig
from repro.workloads.spec import (FAMILIES, ScenarioSpec, run_scenario,
                                  scenario_families)

#: small-footprint parameters for the runs below.
QUICK_PARAMS = {
    "swsr": dict(seed=3, num_writes=2, num_reads=2),
}


class TestValidation:
    def test_unknown_family_rejected(self):
        assert scenario_families() == tuple(sorted(FAMILIES))
        with pytest.raises(ValueError, match="unknown scenario family"):
            ScenarioSpec("not-a-family")

    @pytest.mark.parametrize("family", scenario_families())
    def test_unknown_parameter_rejected_with_vocabulary(self, family):
        with pytest.raises(TypeError) as excinfo:
            ScenarioSpec(family, bogus_knob=1)
        message = str(excinfo.value)
        assert "bogus_knob" in message and repr(family) in message
        vocabulary = message.split("valid parameters: ")[1].split(", ")
        assert vocabulary == list(FAMILIES[family].defaults)

    @pytest.mark.parametrize("alias", ["mobile-byzantine",
                                       "mobile_byzantine", "mobile-byz"])
    def test_mobile_byzantine_aliases(self, alias):
        """A family has one spelling: the old aliases are unknown names,
        and the error lists the name to use instead."""
        if alias == "mobile-byz":
            assert ScenarioSpec(alias).family == "mobile-byz"
            return
        with pytest.raises(ValueError, match="unknown scenario family") \
                as excinfo:
            ScenarioSpec(alias)
        assert "mobile-byz" in str(excinfo.value)

    def test_positional_and_keyword_params_must_not_overlap(self):
        with pytest.raises(TypeError, match="both"):
            ScenarioSpec("swsr", {"seed": 1}, seed=2)

    def test_non_string_family_rejected(self):
        with pytest.raises(TypeError):
            ScenarioSpec(7)

    #: trace knobs that went with the counting backend: each one must
    #: fail loudly, never be accepted and ignored.
    REMOVED_TRACE_KNOBS = [
        *[pytest.param(partial(run_scenario, family, record_trace=True),
                       TypeError, ("record_trace", "valid parameters: n, t"),
                       id=f"{family}-record_trace")
          for family in ("swsr", "partition", "mobile-byz")],
        *[pytest.param(partial(run_scenario, family,
                               trace_backend="counting"),
                       ValueError, ("'counting'", "('full', 'null')"),
                       id=f"{family}-counting")
          for family in scenario_families()],
        pytest.param(partial(ClusterConfig, record_kinds=set()), TypeError,
                     ("record_kinds",), id="ClusterConfig-record_kinds"),
    ]

    @pytest.mark.parametrize("call, error, fragments", REMOVED_TRACE_KNOBS)
    def test_removed_trace_knobs_fail_loudly(self, call, error, fragments):
        with pytest.raises(error) as excinfo:
            call()
        assert all(fragment in str(excinfo.value) for fragment in fragments)


class TestCountsAreRangeChecked:
    """``byzantine_count=99`` on n=9 used to slice all nine servers into
    the Byzantine set, and ``-1`` — like a negative op count — was read
    as zero: each under a verdict that looked earned.  The shared steps
    reject them, so every family built on those steps does."""

    @pytest.mark.parametrize("family", sorted(
        name for name, entry in FAMILIES.items()
        if "byzantine_count" in entry.defaults))
    @pytest.mark.parametrize("count", [99, 10, -1])
    def test_byzantine_count_outside_0_to_n(self, family, count):
        with pytest.raises(ValueError, match=r"byzantine_count.*0\.\.n=9"):
            run_scenario(family, byzantine_count=count)

    def test_more_than_t_up_to_n_stays_legal(self):
        # the bound-tightness experiments put more than t servers under
        # the adversary on purpose.
        result = run_scenario("swsr", byzantine_count=9, num_writes=1,
                              num_reads=1, max_events=20_000)
        assert len(result.cluster.byzantine_ids) == 9

    @pytest.mark.parametrize("family", sorted(
        name for name, entry in FAMILIES.items()
        if "num_writes" in entry.defaults))
    @pytest.mark.parametrize("name", ["num_writes", "num_reads"])
    def test_negative_op_counts(self, family, name):
        with pytest.raises(ValueError, match=f"{name} must be >= 0"):
            run_scenario(family, **{name: -1})


class TestSpecValue:
    def test_equality_and_round_trip(self):
        spec = ScenarioSpec("swsr", seed=1, num_writes=2)
        assert spec == ScenarioSpec("swsr", {"num_writes": 2, "seed": 1})
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_extra_keys(self):
        with pytest.raises(ValueError, match="unexpected spec keys"):
            ScenarioSpec.from_dict({"family": "swsr", "params": {},
                                    "oops": 1})

    def test_with_params_overlays(self):
        base = ScenarioSpec("swsr", seed=1, num_writes=2)
        tweaked = base.with_params(seed=9)
        assert tweaked.params == {"seed": 9, "num_writes": 2}
        assert base.params == {"seed": 1, "num_writes": 2}  # unchanged

    @pytest.mark.parametrize("family", scenario_families())
    def test_resolved_overlays_defaults(self, family):
        spec = ScenarioSpec(family, seed=5)
        resolved = spec.resolved()
        assert resolved["seed"] == 5
        assert resolved["n"] == 9                       # family default
        assert spec.defaults() == dict(FAMILIES[family].defaults)
        assert resolved == {**FAMILIES[family].defaults, "seed": 5}
        assert spec.params == {"seed": 5}     # defaults not materialized


def test_run_scenario_accepts_all_three_shapes():
    params = QUICK_PARAMS["swsr"]
    spec = ScenarioSpec("swsr", params)
    by_name = run_scenario("swsr", **params).summarize()
    by_spec = run_scenario(spec).summarize()
    by_dict = run_scenario(spec.to_dict()).summarize()
    assert by_name == by_spec == by_dict


def test_run_scenario_spec_with_overrides():
    spec = ScenarioSpec("swsr", seed=1, num_writes=2, num_reads=2)
    overridden = run_scenario(spec, seed=3).summarize()
    direct = run_scenario("swsr", seed=3, num_writes=2,
                          num_reads=2).summarize()
    assert overridden == direct


def test_run_scenario_rejects_garbage():
    with pytest.raises(TypeError, match="spec must be"):
        run_scenario(42)


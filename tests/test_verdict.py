"""The one judge: ``repro.workloads.verdict.judge``.

The sweep runner and the fuzz harness both read it, so a verdict means
the same thing in a sweep cell and in a fuzz case; a verdict over an
empty judged suffix is a failure, not a pass; and the benchmark's frozen
``cell_ok`` copy of the judgement is pinned against it.
"""

import pathlib
import sys

import pytest

from repro.checkers.stabilization import stabilization_report
from repro.fuzz.families import FUZZ_FAMILIES
from repro.fuzz.gen import generate_case
from repro.fuzz.harness import run_case
from repro.runner.adapters import ADAPTERS
from repro.workloads.scenarios import INITIAL
from repro.workloads.spec import run_scenario
from repro.workloads.verdict import judge

ROOT = pathlib.Path(__file__).resolve().parents[1]


class TestAVerdictOverNothingIsNotAPass:
    """Each row used to be reported as a success: a run whose judged
    suffix holds no read, or a workload with no operation at all."""

    @pytest.mark.parametrize("family, params, expected", [
        # the last rotations never fire: every read precedes τ = 101
        ("mobile-byz", {"seed": 1, "rotations": 6},
         "tau=101.000 (last read invoked: 76.000; sim_end=79.302)"),
        ("swsr", {"seed": 1, "num_reads": 0},
         "tau=0.000 (last read invoked: none; sim_end=54.338)"),
        # history-free: the tracker alone knows the last read
        ("soak", {"seed": 1, "num_writes": 2, "num_reads": 2,
                  "rotations": 3}, "last read invoked"),
        ("kv", {"num_keys": 0}, ValueError("num_keys must be >= 1")),
        ("reshard", {"num_keys": 0}, ValueError("num_keys must be >= 1")),
        ("mwmr", {"ops_per_process": 0},
         ValueError("ops_per_process must be >= 1")),
    ], ids=["mobile-byz-rotations-past-the-reads", "swsr-no-reads",
            "soak-rotations-past-the-reads", "kv-no-keys",
            "reshard-no-keys", "mwmr-no-ops"])
    def test_vacuous_inputs(self, family, params, expected):
        if isinstance(expected, ValueError):
            with pytest.raises(ValueError, match=str(expected)):
                ADAPTERS[family](params)
            return
        verdicts, _, _, _ = ADAPTERS[family](params)
        assert verdicts["completed"] and not verdicts["ok"]
        verdict = judge(family, run_scenario(family, **params))
        assert [entry["kind"] for entry in verdict.violations] == \
            ["vacuous"]
        assert expected in verdict.violations[0]["detail"]

    def test_unknown_family_has_no_rule(self):
        with pytest.raises(ValueError, match="no verdict rule"):
            judge("figure1", None)


def test_dirty_reads_do_not_depend_on_tau():
    """``dirty_reads`` counts violating reads from time 0, online and
    offline alike, so the fuzz harness (judging from the adversary's
    last action) and the sweep (from the scenario's τ) report one
    number."""
    result = run_scenario("swsr", seed=2, kind="atomic", num_writes=6,
                          num_reads=6, corruption_times=[2.0],
                          corruption_fraction=1.0, link_garbage=2,
                          reader_offset=0.3)
    tracker = result.extra["tracker"]
    early, late = result.tau_no_tr, tracker.report(result.tau_no_tr).tau_stab
    assert late > early
    assert tracker.report(early).dirty_reads == \
        tracker.report(late).dirty_reads == 5
    assert stabilization_report(result.history, mode="atomic",
                                initial=INITIAL,
                                tau_no_tr=late).dirty_reads == 5
    assert judge("swsr", result, after=late).counters["dirty_reads"] == \
        judge("swsr", result).counters["dirty_reads"] == 5


@pytest.mark.parametrize("family", sorted(FUZZ_FAMILIES))
def test_sweep_and_fuzz_read_one_judgement(family):
    """A generated case run as a sweep cell and as a fuzz case: same
    verdict, same counter keys (bar the fuzz-only ``timeline_events``)."""
    for seed in range(3):
        case = generate_case(seed, family=family)
        verdicts, counters, timings, digest = ADAPTERS[family](
            case.scenario_kwargs())
        outcome = run_case(case)
        assert outcome.ok == verdicts["ok"]
        assert outcome.history_digest == digest
        assert set(outcome.counters) == set(counters) | {"timeline_events"}
        assert set(timings) <= set(outcome.timings)
        assert outcome.counters.get("dirty_reads") == \
            counters.get("dirty_reads")


def _bench_workloads():
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from bench import workloads
    from bench.harness import DEFAULT_SEED
    return workloads, DEFAULT_SEED


#: cells whose warm-up run (two reads) ends before their τ: the judge
#: calls them vacuous, ``cell_ok`` — which predates that rule — passes.
VACUOUS_AT_SETUP = {"soak", "partition"}


@pytest.mark.parametrize("name", ["reg-ladder", "soak-adversary"])
def test_bench_cell_ok_is_the_judge(name, monkeypatch):
    """``bench/workloads.py::cell_ok`` is a frozen fourth copy of the
    judgement; it must not drift from ``judge(...).ok``."""
    workloads, seed = _bench_workloads()
    runner = workloads.WORKLOADS[name](seed)
    # the timed segments' sizes: what cell_ok judges in a benchmark run
    for cell in runner.cells:
        result = runner.run_cell(cell, 0)
        assert workloads.cell_ok(cell, result) == \
            judge(cell.family, result).ok, cell.name
    # setup()'s warm-up sizes
    seen = []
    real = workloads.api.run_scenario

    def recording(family, **params):
        seen.append(real(family, **params))
        return seen[-1]

    monkeypatch.setattr(workloads.api, "run_scenario", recording)
    runner.setup()
    assert len(seen) == len(runner.cells)
    for cell, result in zip(runner.cells, seen):
        kinds = {entry["kind"]
                 for entry in judge(cell.family, result).violations}
        assert ("vacuous" in kinds) == (cell.name in VACUOUS_AT_SETUP)
        assert workloads.cell_ok(cell, result) == (kinds <= {"vacuous"})

"""Experiment T1 — Theorem 1: stabilizing SWSR regular register, t < n/8.

T1a: liveness + eventual regularity across (n, t) and Byzantine strategies.
T1b: stabilization after transient corruption of every variable + links.
T1c: tightness — beyond the bound, liveness is lost under an adversarial
strategy (quorum arithmetic fails).
"""

import pytest

from repro.analysis.tables import Table, verdict
from repro.runner import SweepSpec, run_sweep
from repro.workloads.spec import run_scenario

SETTINGS = [(9, 1), (17, 2), (25, 3)]
STRATEGIES = ["silent", "random-garbage", "stale", "equivocate",
              "inversion-attack"]


def _t1a_specs():
    """One spec per (n, t) setting, sweeping the Byzantine strategy.

    ``seeds=None`` keeps the harness's historical explicit seeds.
    """
    return [
        SweepSpec(name=f"t1a-n{n:02d}", scenario="swsr",
                  base={"kind": "regular", "n": n, "t": t, "seed": 100 + n,
                        "num_writes": 3, "num_reads": 3,
                        "byzantine_count": t},
                  grid={"byzantine_strategy": STRATEGIES}, seeds=None)
        for n, t in SETTINGS
    ]


def test_t1a_claims_matrix(benchmark, report, sweep_workers):
    sweep = benchmark.pedantic(
        lambda: run_sweep(_t1a_specs(), workers=sweep_workers),
        rounds=1, iterations=1)
    table = Table("T1a  Theorem 1 matrix: liveness + eventual regularity "
                  "(async, t Byzantine of n)",
                  ["n", "t", "strategy", "terminates", "regular",
                   "verdict"])
    for cell in sweep.cells:
        table.row(cell.params["n"], cell.params["t"],
                  cell.params["byzantine_strategy"], cell.completed,
                  cell.verdicts.get("stable", False), verdict(cell.ok))
    report(table.render())
    assert sweep.all_ok


def test_t1b_stabilization_after_corruption(benchmark, report):
    def run_one():
        return run_scenario(
            "swsr", kind="regular", n=9, t=1, seed=7, num_writes=5,
            num_reads=5, corruption_times=(2.0, 5.0), link_garbage=2,
            byzantine_count=1)

    result = benchmark.pedantic(run_one, rounds=3, iterations=1)
    table = Table("T1b  stabilization after total corruption "
                  "(all vars fuzzed twice + link garbage, n=9, t=1)",
                  ["tau_no_tr", "tau_1w", "tau_stab", "dirty reads",
                   "stable", "verdict"])
    rep = result.report
    table.row(rep.tau_no_tr, rep.tau_1w, rep.tau_stab,
              f"{rep.dirty_reads}/{rep.total_reads}", rep.stable,
              verdict(rep.stable))
    report(table.render())
    assert rep.stable
    assert rep.tau_stab is not None


def test_t1c_bound_tightness(benchmark, report):
    def beyond():
        return run_scenario(
            "swsr", kind="regular", n=9, t=3, seed=8, enforce_resilience=False,
            num_writes=1, num_reads=1, byzantine_count=3,
            byzantine_strategy="equivocate", max_events=120_000)

    result = benchmark.pedantic(beyond, rounds=1, iterations=1)
    table = Table("T1c  beyond the bound: t = 3 of n = 9 (t >= n/8)",
                  ["n", "t", "outcome", "paper expectation", "verdict"])
    outcome = "terminates" if result.completed else \
        "liveness lost (reads starve)"
    table.row(9, 3, outcome, "no guarantee beyond t < n/8",
              verdict(not result.completed, ok="FAILS AS EXPECTED"))
    report(table.render())
    assert not result.completed

"""Experiment T2 — Theorem 2: synchronous links tolerate t < n/3.

The headline resilience gap: for the same t the synchronous model needs
far fewer servers (timeouts let clients wait for *all* correct servers).
"""

import pytest

from repro.analysis.tables import Table, verdict
from repro.runner import SweepSpec, run_sweep
from repro.workloads.spec import run_scenario

SYNC_SETTINGS = [(4, 1), (7, 2), (10, 3)]


def test_t2_sync_claims_matrix(benchmark, report, sweep_workers):
    specs = [
        SweepSpec(name=f"t2-n{n:02d}", scenario="swsr",
                  base={"kind": "regular", "n": n, "t": t, "seed": 200 + n,
                        "synchronous": True, "num_writes": 3, "num_reads": 3,
                        "byzantine_count": t},
                  grid={"byzantine_strategy": ["silent", "random-garbage",
                                               "stale"]},
                  seeds=None)
        for n, t in SYNC_SETTINGS
    ]
    sweep = benchmark.pedantic(lambda: run_sweep(specs,
                                                 workers=sweep_workers),
                               rounds=1, iterations=1)
    table = Table("T2  Theorem 2 matrix: synchronous links, t < n/3",
                  ["n", "t", "strategy", "terminates", "regular", "verdict"])
    for cell in sweep.cells:
        table.row(cell.params["n"], cell.params["t"],
                  cell.params["byzantine_strategy"], cell.completed,
                  cell.verdicts.get("stable", False), verdict(cell.ok))
    report(table.render())
    assert sweep.all_ok


def test_t2_resilience_gap(benchmark, report):
    """Same t = 2: 7 servers suffice synchronously vs 17 asynchronously."""

    def run_both():
        sync = run_scenario("swsr", kind="regular", n=7, t=2, seed=9,
                            synchronous=True, num_writes=2, num_reads=2,
                            byzantine_count=2)
        asynchronous = run_scenario("swsr", kind="regular", n=17, t=2, seed=9,
                                    num_writes=2, num_reads=2,
                                    byzantine_count=2)
        return sync, asynchronous

    sync, asynchronous = benchmark.pedantic(run_both, rounds=1, iterations=1)
    table = Table("T2b  resilience gap at t = 2 (minimum n per model)",
                  ["model", "n", "bound", "stable", "messages", "verdict"])
    table.row("synchronous", 7, "n >= 3t + 1", sync.report.stable,
              sync.messages_sent, verdict(sync.report.stable))
    table.row("asynchronous", 17, "n >= 8t + 1", asynchronous.report.stable,
              asynchronous.messages_sent,
              verdict(asynchronous.report.stable))
    report(table.render())
    assert sync.report.stable and asynchronous.report.stable


def test_t2_sync_atomic_extension(benchmark, report):
    """Section 4's closing remark: the atomic extension works at t < n/3."""

    def run_one():
        return run_scenario("swsr", kind="atomic", n=7, t=2, seed=10,
                            synchronous=True, num_writes=4, num_reads=4,
                            corruption_times=(2.0,), byzantine_count=2)

    result = benchmark.pedantic(run_one, rounds=2, iterations=1)
    table = Table("T2c  synchronous atomic register (n=7, t=2, corruption)",
                  ["terminates", "atomic", "tau_stab", "verdict"])
    table.row(result.completed, result.report.stable,
              result.report.tau_stab,
              verdict(result.completed and result.report.stable))
    report(table.render())
    assert result.completed and result.report.stable

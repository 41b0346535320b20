"""Experiment P2 — stabilization time vs corruption severity.

Measures ``τ_stab − τ_no_tr`` (and dirty-read counts) as the fraction of
corrupted state grows, for both register kinds.  The paper proves τ_stab is
finite; here we see *how* fast the system heals: stabilization essentially
completes with the first write after τ_no_tr, independent of severity.
"""

import pytest

from repro.analysis.tables import Table
from repro.runner import SweepSpec, run_sweep
from repro.workloads.spec import run_scenario

FRACTIONS = [0.25, 0.5, 0.75, 1.0]


def _sweep(kind, workers=1):
    spec = SweepSpec(
        name=f"p2-{kind}", scenario="swsr",
        base={"kind": kind, "n": 9, "t": 1, "num_writes": 4, "num_reads": 4,
              "corruption_times": [3.0], "link_garbage": 1,
              "byzantine_count": 1},
        grid={"corruption_fraction": FRACTIONS,
              "seed": [600, 601, 602, 603]},
        seeds=None)
    sweep = run_sweep(spec, workers=workers)
    rows = []
    for fraction in FRACTIONS:
        cells = [cell for cell in sweep.cells
                 if cell.params["corruption_fraction"] == fraction]
        assert all(cell.completed for cell in cells)
        stab_times = [cell.timings["stabilization_time"] for cell in cells
                      if "stabilization_time" in cell.timings]
        dirty = sum(cell.counters.get("dirty_reads", 0) for cell in cells)
        total = sum(cell.counters["reads"] for cell in cells)
        average = sum(stab_times) / len(stab_times) if stab_times else None
        rows.append((fraction, average, dirty, total))
    return rows


def test_p2a_regular_stabilization_vs_severity(benchmark, report,
                                               sweep_workers):
    rows = benchmark.pedantic(lambda: _sweep("regular", sweep_workers),
                              rounds=1,
                              iterations=1)
    table = Table("P2a  regular register: stabilization vs corruption "
                  "severity (4 seeds each)",
                  ["corrupted fraction", "avg tau_stab - tau_no_tr",
                   "dirty reads", "total reads"])
    for fraction, average, dirty, total in rows:
        table.row(fraction, average, dirty, total)
    report(table.render())
    assert all(average is not None for _f, average, *_rest in rows)


def test_p2b_atomic_stabilization_vs_severity(benchmark, report,
                                              sweep_workers):
    rows = benchmark.pedantic(lambda: _sweep("atomic", sweep_workers),
                              rounds=1,
                              iterations=1)
    table = Table("P2b  atomic register: stabilization vs corruption "
                  "severity (4 seeds each)",
                  ["corrupted fraction", "avg tau_stab - tau_no_tr",
                   "dirty reads", "total reads"])
    for fraction, average, dirty, total in rows:
        table.row(fraction, average, dirty, total)
    report(table.render())
    assert all(average is not None for _f, average, *_rest in rows)


def test_p2c_stabilization_bounded_by_first_write(benchmark, report):
    """Claim-shape check: τ_stab lands at/before the first read after the

    first post-corruption write (the proofs' τ_1w milestone)."""

    def measure():
        result = run_scenario(
            "swsr", kind="regular", n=9, t=1, seed=610, num_writes=4,
            num_reads=4, corruption_times=(3.0,), corruption_fraction=1.0,
            byzantine_count=1)
        return result.report

    rep = benchmark.pedantic(measure, rounds=2, iterations=1)
    table = Table("P2c  tau_stab vs tau_1w (full corruption)",
                  ["tau_no_tr", "tau_1w", "tau_stab",
                   "stab <= first read after tau_1w"])
    table.row(rep.tau_no_tr, rep.tau_1w, rep.tau_stab, rep.stable)
    report(table.render())
    assert rep.stable

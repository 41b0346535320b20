#!/usr/bin/env python
"""Watching a system stabilize: the τ timeline, measured.

Runs the regular register through the paper's full failure lifecycle —
transient corruption bursts (the last one is τ_no_tr), then the first
write (ending at τ_1w), then reads — and *measures* τ_stab with the
consistency checkers: the earliest instant from which every later read is
regular.

The closing section sweeps corruption severity × seeds in parallel via
``repro.runner`` and reports how the measured stabilization time responds
(it barely does — healing completes with the first post-fault write).

Run:  python examples/stabilization_timeline.py [--workers N]
"""

import argparse

from repro.analysis.summary import summarize
from repro.analysis.tables import Table
from repro.runner import SweepSpec, run_sweep
from repro.workloads.spec import run_scenario


def severity_sweep(workers: int) -> None:
    """τ_stab − τ_no_tr vs corruption severity, across seeds, in parallel."""
    spec = SweepSpec(
        name="timeline-severity", scenario="swsr",
        base={"kind": "regular", "n": 9, "t": 1, "num_writes": 5,
              "num_reads": 5, "corruption_times": [2.0, 4.0, 6.0],
              "link_garbage": 1, "byzantine_count": 1,
              "byzantine_strategy": "stale"},
        grid={"corruption_fraction": [0.25, 0.5, 1.0]},
        seeds=[0, 1, 2, 3])
    sweep = run_sweep(spec, workers=workers)
    table = Table("stabilization time vs corruption severity "
                  "(4 derived seeds per fraction)",
                  ["corrupted fraction", "mean tau_stab - tau_no_tr",
                   "max", "all stable"])
    for fraction in (0.25, 0.5, 1.0):
        cells = [cell for cell in sweep.cells
                 if cell.params["corruption_fraction"] == fraction]
        stats = summarize([cell.timings["stabilization_time"]
                           for cell in cells
                           if "stabilization_time" in cell.timings])
        table.row(fraction, stats.mean if stats else None,
                  stats.maximum if stats else None,
                  all(cell.ok for cell in cells))
    print(table.render())
    print(f"({len(sweep.cells)} cells swept with {workers} workers in "
          f"{sweep.wall_seconds:.2f}s)")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()
    print(__doc__)
    result = run_scenario(
        "swsr", kind="regular", n=9, t=1, seed=4,
        num_writes=5, num_reads=5,
        corruption_times=(2.0, 4.0, 6.0),   # transient bursts; last = tau_no_tr
        corruption_fraction=1.0,
        link_garbage=2,
        byzantine_count=1,
        byzantine_strategy="stale")

    report = result.report
    print("execution history (chronological):")
    print(result.history.format())
    print()
    print("τ timeline:")
    print(f"  τ_no_tr (last transient failure)  = {report.tau_no_tr:7.3f}")
    print(f"  τ_1w    (first write completes)   = {report.tau_1w:7.3f}")
    print(f"  τ_stab  (measured stabilization)  = {report.tau_stab:7.3f}")
    print(f"  stabilization time                = "
          f"{report.stabilization_time:7.3f}")
    print(f"  dirty reads before τ_stab         = "
          f"{report.dirty_reads}/{report.total_reads}")
    print()
    if report.stable:
        print("Lemma 3 verified on this execution: every read invoked after "
              "τ_stab returned the last or a concurrent write's value.")
    else:
        print("execution did not stabilize (should not happen within the "
              "resilience bound!)")
    print()
    severity_sweep(args.workers)


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""The resilience gap: t < n/8 asynchronous vs t < n/3 synchronous.

For each fault budget t, runs the *smallest legal cluster* in both timing
models (Theorems 1 and 2) with t actively Byzantine servers — fanned out
in parallel through the sweep runner (``repro.runner``) — and shows what
goes wrong when the asynchronous bound is violated.

Run:  python examples/sync_vs_async.py [--workers N]
"""

import argparse

from repro.analysis.tables import Table
from repro.runner import SweepSpec, run_sweep
from repro.workloads.spec import run_scenario


def _specs():
    """Six single-cell specs: both timing models at each fault budget."""
    specs = []
    for t in (1, 2, 3):
        specs.append(SweepSpec(
            name=f"sync-t{t}", scenario="swsr",
            base={"kind": "regular", "n": 3 * t + 1, "t": t, "seed": t,
                  "synchronous": True, "num_writes": 3, "num_reads": 3,
                  "byzantine_count": t, "byzantine_strategy": "silent"}))
        specs.append(SweepSpec(
            name=f"async-t{t}", scenario="swsr",
            base={"kind": "regular", "n": 8 * t + 1, "t": t, "seed": t,
                  "num_writes": 3, "num_reads": 3, "byzantine_count": t,
                  "byzantine_strategy": "random-garbage"}))
    return specs


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()
    print(__doc__)
    sweep = run_sweep(_specs(), workers=args.workers)
    table = Table("smallest cluster per fault budget (measured)",
                  ["t", "model", "n", "terminates", "regular after stab"])
    for cell in sorted(sweep.cells,
                       key=lambda c: (c.params["t"],
                                      not c.params.get("synchronous",
                                                       False))):
        model = ("synchronous" if cell.params.get("synchronous")
                 else "asynchronous")
        table.row(cell.params["t"], model, cell.params["n"],
                  cell.completed, cell.verdicts.get("stable", False))
    print(table.render())
    print(f"({len(sweep.cells)} cells swept with {args.workers} workers "
          f"in {sweep.wall_seconds:.2f}s)")

    print("\nBeyond the asynchronous bound (t = 3 of n = 9, adversarial "
          "servers):")
    broken = run_scenario("swsr", kind="regular", n=9, t=3, seed=1,
                          enforce_resilience=False, num_writes=1,
                          num_reads=1, byzantine_count=3,
                          byzantine_strategy="equivocate",
                          max_events=120_000)
    if broken.completed:
        print("  ...survived this schedule (no guarantee it always will)")
    else:
        print("  reads starve: a 2t+1 = 7 quorum can never form out of "
              "n-t = 6 acknowledgements — liveness is lost, as the "
              "t < n/8 requirement predicts.")


if __name__ == "__main__":
    main()

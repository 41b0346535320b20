#!/usr/bin/env python
"""Sweeping over adversaries: declarative FaultTimeline shapes as a grid.

The fault layer is data, not code: a :class:`~repro.faults.FaultTimeline`
serializes to JSON, so a sweep can grid over *what goes wrong* exactly
like it grids over cluster size.  This example runs three adversary
families against the same register stack:

1. partition-during-write (a server group drops off mid-workload, heals);
2. mobile Byzantine rotation (the Byzantine set hops across servers);
3. a hand-built combined timeline (burst + crash/recovery + partition)
   passed straight into ``run_scenario("swsr", fault_timeline=...)``.

Run:  python examples/adversary_timelines.py [--workers N]
"""

import argparse

from repro.analysis.tables import Table
from repro.faults import FaultTimeline
from repro.runner import SweepSpec, run_sweep
from repro.workloads.spec import run_scenario


def adversary_specs():
    partition = SweepSpec(
        name="adv-partition", scenario="partition",
        base={"n": 9, "t": 1, "num_writes": 6, "num_reads": 6},
        grid={"kind": ["regular", "atomic"],
              "partition_duration": [10.0, 40.0]},
        seeds=[0, 1],
    )
    mobile = SweepSpec(
        name="adv-mobile", scenario="mobile-byz",
        base={"n": 9, "t": 1, "num_writes": 8, "num_reads": 8},
        grid={"kind": ["regular", "atomic"],
              "rotation_strategy": ["random-garbage", "stale"]},
        seeds=[0, 1],
    )
    return [partition, mobile]


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workers", type=int, default=4)
    args = parser.parse_args()
    print(__doc__)

    sweep = run_sweep(adversary_specs(), workers=args.workers)
    table = Table("adversary grid (every cell must stabilize)",
                  ["cell", "kind", "stable", "dropped", "τ_stab"])
    for cell in sweep.cells:
        spec_name, _, index = cell.cell_id.split("/")
        table.row(f"{spec_name}/{index}",
                  cell.params.get("kind"),
                  cell.verdicts.get("stable"),
                  cell.counters.get("messages_dropped", "-"),
                  round(cell.timings.get("tau_stab", 0.0), 1))
    print(table.render())
    print(f"{len(sweep.cells)} cells, all ok: {sweep.all_ok} "
          f"[{args.workers} workers, {sweep.wall_seconds:.2f}s]\n")

    print("A combined hand-built timeline through the swsr family")
    print("(the workload starts after the timeline's tau_no_tr — use the")
    print("partition scenario family for faults *during* operations):")
    timeline = (FaultTimeline()
                .burst(2.0, fraction=0.8)
                .link_garbage(2.0, per_link=1)
                .crash_recovery(4.0, 9.0, ["s5"])
                .partition(10.0, 15.0, ["s9"]))
    result = run_scenario("swsr", seed=7, num_writes=6, num_reads=6,
                          fault_timeline=timeline.to_dict())
    print(f"  events: {len(timeline)}  tau_no_tr: {result.tau_no_tr}")
    print(f"  completed: {result.completed}  report: {result.report}")


if __name__ == "__main__":
    main()

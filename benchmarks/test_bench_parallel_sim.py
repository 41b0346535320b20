"""Experiment PAR — shard-parallel execution of a single simulation.

``repro.parallel`` runs each shard of one scenario in its own worker
process and merges the observation streams afterwards.  Two claims, two
enforcement regimes:

* **Serial equivalence** (asserted *unconditionally*, every run): the
  merged ``history_digest``, checker verdicts and full ``summarize()``
  record of the 4-worker run equal the serial run's, bit for bit.  This
  is the property that makes the parallel engine safe to enable at all;
  it is deterministic, so it never flakes.
* **Wall-clock speedup** (gated on ``REPRO_PERF_GATE``): at 4 shards /
  4 workers on the large cells below, the pool must finish in at most
  half the serial wall time.  Wall-clock ratios are meaningless on a
  single-core or noisy shared runner, so without the env var the bench
  still measures, reports and writes ``BENCH_parallel_sim.json`` — it
  just doesn't fail on the ratio.  (The gate also requires at least 2
  usable cores: a 1-core machine cannot express process parallelism,
  and pretending otherwise would gate on the scheduler's timeslicing.)

Both cells route the serial leg through ``parallel=1`` — the same
plan/executor/merge machinery, inline — so the comparison isolates the
process pool itself, and the digests additionally pin the whole
machinery against the legacy serial path (``parallel=None``).
"""

import json
import os
import time

from repro.analysis.tables import Table
from repro.workloads.spec import run_scenario

ARTIFACT_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                             "BENCH_parallel_sim.json")

PERF_GATE = bool(os.environ.get("REPRO_PERF_GATE"))
CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
    else (os.cpu_count() or 1)

SHARDS = 4
WORKERS = 4
MIN_SPEEDUP = 2.0

#: large soak cell: 4 independent sub-soaks, ~2.4k ops each.
SOAK_CELL = dict(seed=202608, num_writes=1200, num_reads=1200,
                 fault_bursts=3, rotations=2, shards=SHARDS)
#: large kv cell: 24 keys x (1 create + 6 put+get rounds) over 4 pools.
KV_CELL = dict(seed=202608, shard_count=SHARDS, n=9, t=1, client_count=4,
               num_keys=24, rounds=6, corruption_times=[2.0],
               corruption_fraction=0.2)


def _measure(family, parallel, **cell):
    started = time.perf_counter()
    result = run_scenario(family, parallel=parallel, **cell)
    wall = time.perf_counter() - started
    return result, wall


def test_parallel_sim_speedup_and_equivalence(report):
    rows = []
    artifact = {"bench": "test_parallel_sim_speedup_and_equivalence",
                "shards": SHARDS, "workers": WORKERS, "cores": CORES,
                "perf_gate": PERF_GATE, "cells": {}}
    speedups = {}
    for family, cell in (("kv", KV_CELL), ("soak", SOAK_CELL)):
        serial, serial_wall = _measure(family, 1, **cell)
        pooled, pooled_wall = _measure(family, WORKERS, **cell)
        serial_summary, pooled_summary = (serial.summarize(),
                                          pooled.summarize())

        # -- the unconditional half: serial equivalence --------------------
        assert serial_summary.history_digest == \
            pooled_summary.history_digest, (
                f"{family}: parallel digest diverged from serial")
        assert serial_summary == pooled_summary, (
            f"{family}: parallel summary diverged from serial")
        assert serial_summary.completed
        if family == "kv":
            assert serial.per_key_linearizable == \
                pooled.per_key_linearizable
            assert serial.tau_by_shard == pooled.tau_by_shard
        # the legacy serial path (no parallel machinery at all) pins the
        # inline leg too, so all three executions agree.
        legacy = run_scenario(family, **cell)
        assert legacy.summarize() == serial_summary

        speedup = serial_wall / pooled_wall
        speedups[family] = speedup
        rows.append((family, serial_summary.ops, serial_wall, pooled_wall,
                     speedup))
        artifact["cells"][family] = {
            "workload": {key: value for key, value in cell.items()},
            "ops": serial_summary.ops,
            "history_digest": serial_summary.history_digest,
            "digest_equal_serial_vs_parallel": True,
            "summary_equal_serial_vs_parallel": True,
            "serial_wall_sec": round(serial_wall, 3),
            "parallel_wall_sec": round(pooled_wall, 3),
            "wall_speedup": round(speedup, 2),
        }

    table = Table(f"PAR  shard-parallel single-simulation execution "
                  f"({SHARDS} shards, {WORKERS} workers, {CORES} cores)",
                  ["cell", "ops", "serial wall (s)", "parallel wall (s)",
                   "speedup", "digests"])
    for family, ops, serial_wall, pooled_wall, speedup in rows:
        table.row(family, ops, f"{serial_wall:.2f}", f"{pooled_wall:.2f}",
                  f"{speedup:.2f}x", "equal")
    report(table.render())

    artifact["min_speedup_gate"] = MIN_SPEEDUP
    artifact["gate_enforced"] = PERF_GATE and CORES >= 2
    with open(ARTIFACT_PATH, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
        handle.write("\n")

    if PERF_GATE and CORES >= 2:
        worst = min(speedups.values())
        assert worst >= MIN_SPEEDUP, (
            f"4-worker run must be >= {MIN_SPEEDUP}x the serial wall "
            f"time (got kv={speedups['kv']:.2f}x, "
            f"soak={speedups['soak']:.2f}x on {CORES} cores)")

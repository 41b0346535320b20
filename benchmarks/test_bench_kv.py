"""Experiment KV — sharded, pipelined service-layer throughput.

The paper's constructions are one-register primitives; the KV service
layer composes them into something deployment-shaped, and this bench
characterizes what the composition buys.  The smoke workload (2 logical
clients, 8 keys, 2 put+get rounds — the same shape the ``smoke-kv``
sweep family runs) executes two ways:

* **serial single-pool** — every key on one shared cluster, one
  operation driven to completion at a time (the historical facade
  pattern, ``pipelined=False, shard_count=1``);
* **pipelined + sharded** — keys consistent-hashed over 4 independent
  clusters with the client-side pipeline keeping one operation in
  flight per (shard, client) lane.

The headline metric is the **simulated-time speedup** (serial makespan /
pipelined makespan): it measures what the architecture delivers to a
service — operation concurrency — and, being pure simulated time, it is
fully deterministic, so the ≥ 2x gate can never flake on a noisy
runner.  Wall-clock events/sec rides along for harness-performance
context (recorded, not gated).  Results land in ``BENCH_kv.json`` so CI
tracks the trajectory, and in ``benchmarks/results.txt`` via the shared
report fixture.
"""

import json
import os
import time

from repro.analysis.tables import Table
from repro.workloads.spec import run_scenario

ARTIFACT_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                             "BENCH_kv.json")

#: the smoke workload: 8 creates + 2 rounds x (8 puts + 8 gets) = 40 ops.
WORKLOAD = dict(n=9, t=1, seed=202607, client_count=2, num_keys=8,
                rounds=2)

#: the acceptance gate: pipelined+sharded must at least halve the
#: serial single-pool makespan on the smoke workload.
MIN_SPEEDUP = 2.0


def _measure(**kwargs):
    started = time.perf_counter()
    result = run_scenario("kv", **kwargs)
    wall = time.perf_counter() - started
    summary = result.summarize()
    return {
        "ok": bool(result.completed and result.linearizable),
        "ops": summary.ops,
        "makespan": summary.sim_end,
        "events": summary.events_processed,
        "messages": summary.messages_sent,
        "events_per_sec": summary.events_processed / wall,
        "ops_per_sim_time": summary.ops / summary.sim_end,
    }


def test_kv_pipelined_sharded_throughput(report):
    """The tentpole claim: pipelined+sharded ≥ 2x serial single-pool.

    Speedup is a ratio of simulated makespans — deterministic for the
    fixed seed, so the gate holds on any machine or Python version.
    """
    serial = _measure(shard_count=1, pipelined=False, **WORKLOAD)
    ladder = {shards: _measure(shard_count=shards, pipelined=True,
                               **WORKLOAD)
              for shards in (1, 2, 4)}

    table = Table("KV  sharded+pipelined service throughput "
                  f"({WORKLOAD['num_keys']} keys, "
                  f"{WORKLOAD['client_count']} clients, 40 ops)",
                  ["configuration", "makespan (sim)", "ops/sim-time",
                   "events/sec (wall)", "speedup vs serial"])
    table.row("serial, 1 pool", f"{serial['makespan']:.1f}",
              f"{serial['ops_per_sim_time']:.3f}",
              int(serial["events_per_sec"]), "1.00x")
    for shards, measured in ladder.items():
        table.row(f"pipelined, {shards} shard(s)",
                  f"{measured['makespan']:.1f}",
                  f"{measured['ops_per_sim_time']:.3f}",
                  int(measured["events_per_sec"]),
                  f"{serial['makespan'] / measured['makespan']:.2f}x")
    report(table.render())

    pipelined = ladder[4]
    speedup = serial["makespan"] / pipelined["makespan"]
    document = {
        "bench": "test_kv_pipelined_sharded_throughput",
        "workload": {key: value for key, value in WORKLOAD.items()},
        "ops": serial["ops"],
        "serial_single_pool": {
            "makespan_sim": round(serial["makespan"], 3),
            "events": serial["events"],
            "events_per_sec": round(serial["events_per_sec"]),
            "ops_per_sim_time": round(serial["ops_per_sim_time"], 5),
        },
        "pipelined_sharded": {
            "shards": 4,
            "makespan_sim": round(pipelined["makespan"], 3),
            "events": pipelined["events"],
            "events_per_sec": round(pipelined["events_per_sec"]),
            "ops_per_sim_time": round(pipelined["ops_per_sim_time"], 5),
        },
        "speedup_pipelined_sharded_vs_serial": round(speedup, 2),
        "speedup_by_shard_count": {
            str(shards): round(serial["makespan"] / measured["makespan"], 2)
            for shards, measured in ladder.items()},
    }
    with open(ARTIFACT_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")

    # every configuration must terminate and linearize ...
    assert serial["ok"]
    assert all(measured["ok"] for measured in ladder.values())
    # ... with identical operation counts (same workload, same verdicts)
    assert {serial["ops"]} == {measured["ops"]
                               for measured in ladder.values()}
    # the acceptance gate — deterministic, so no PERF_GATE escape hatch
    assert speedup >= MIN_SPEEDUP, (
        f"pipelined+sharded must be >= {MIN_SPEEDUP}x the serial "
        f"single-pool baseline (got {speedup:.2f}x)")


def test_kv_speedup_is_deterministic():
    """The speedup ratio is simulated time over simulated time: re-running
    the same seeds must reproduce it bit-for-bit."""
    first = run_scenario("kv", shard_count=4, pipelined=True, **WORKLOAD)
    second = run_scenario("kv", shard_count=4, pipelined=True, **WORKLOAD)
    assert first.summarize() == second.summarize()

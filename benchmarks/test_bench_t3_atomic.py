"""Experiment T3 — Theorem 3: practically stabilizing SWSR atomic register.

T3a: eventual atomicity (no inversions) under corruption + adversaries.
T3b: the *practically* caveat (Lemma 13): with a tiny wsn modulus, pushing
more than system-life-span writes between two reads re-enables staleness.
"""

import pytest

from repro.analysis.tables import Table, verdict
from repro.registers.bounded_seq import WsnConfig
from repro.registers.system import Cluster, ClusterConfig, build_swsr_atomic
from repro.runner import SweepSpec, run_sweep
from repro.workloads.spec import run_scenario

ADVERSARIES = ["inversion-attack", "flip-flop", "stale", "random-garbage"]


def test_t3a_no_inversions_matrix(benchmark, report, sweep_workers):
    spec = SweepSpec(
        name="t3a", scenario="swsr",
        base={"kind": "atomic", "n": 9, "t": 1, "seed": 300,
              "num_writes": 5, "num_reads": 5, "reader_offset": 0.2,
              "corruption_times": [2.0], "byzantine_count": 1},
        grid={"byzantine_strategy": ADVERSARIES}, seeds=None)
    sweep = benchmark.pedantic(lambda: run_sweep(spec,
                                                 workers=sweep_workers),
                               rounds=1, iterations=1)
    table = Table("T3a  Theorem 3: eventual atomicity (n=9, t=1, "
                  "corruption at t=2.0, overlapping ops)",
                  ["adversary", "terminates", "atomic", "inversions",
                   "verdict"])
    for cell in sweep.cells:
        table.row(cell.params["byzantine_strategy"], cell.completed,
                  cell.verdicts.get("stable", False),
                  cell.counters.get("new_old_inversions", "-"),
                  verdict(cell.ok))
    report(table.render())
    assert sweep.all_ok


def test_t3b_system_life_span_caveat(benchmark, report):
    """Lemma 13's bound is real: exceed it and the reader serves stale data."""

    def run_wraparound():
        cluster = Cluster(ClusterConfig(n=9, t=1, seed=301))
        writer, reader = build_swsr_atomic(cluster, initial="v_init",
                                           config=WsnConfig(7))
        outcomes = {}
        cluster.run_ops([writer.write("early")])
        cluster.run_ops([reader.read()])
        # within the life span (< 7//2 writes): fine
        cluster.run_ops([writer.write("mid")])
        handle = reader.read()
        cluster.run_ops([handle])
        outcomes["within"] = handle.result
        # exceed the life span: 4 > 7//2 writes between reads
        for index in range(4):
            cluster.run_ops([writer.write(f"burst{index}")])
        handle = reader.read()
        cluster.run_ops([handle])
        outcomes["beyond"] = handle.result
        return outcomes

    outcomes = benchmark.pedantic(run_wraparound, rounds=2, iterations=1)
    table = Table("T3b  system-life-span caveat (wsn modulus = 7, "
                  "life span = 4 writes)",
                  ["writes between reads", "read returned",
                   "paper expectation", "verdict"])
    table.row("1 (within)", outcomes["within"], "latest value",
              verdict(outcomes["within"] == "mid"))
    table.row("4 (beyond)", outcomes["beyond"],
              "staleness possible (practically stabilizing only)",
              verdict(outcomes["beyond"] != "burst3",
                      ok="STALE AS PREDICTED", bad="unexpectedly fresh"))
    report(table.render())
    assert outcomes["within"] == "mid"
    assert outcomes["beyond"] != "burst3"


def test_t3c_default_modulus_equals_paper(benchmark, report):
    """With the paper's 2^64+1 modulus, bursts never hit the caveat."""

    def run_default():
        return run_scenario("swsr", kind="atomic", n=9, t=1, seed=302,
                            num_writes=8, num_reads=2, op_gap=4.0)

    result = benchmark.pedantic(run_default, rounds=2, iterations=1)
    table = Table("T3c  default modulus 2^64 + 1: no wrap-around in practice",
                  ["writes", "reads", "atomic", "verdict"])
    table.row(8, 2, result.report.stable, verdict(result.report.stable))
    report(table.render())
    assert result.report.stable

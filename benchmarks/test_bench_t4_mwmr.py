"""Experiment T4 — Theorem 4: MWMR atomic register from SWMR + epochs.

T4a: histories linearize across m, with and without concurrency/Byzantine.
T4b: epoch renewal — sequence exhaustion and corrupted incomparable epochs.
"""

import pytest

from repro.analysis.tables import Table, verdict
from repro.checkers.atomicity import check_linearizable
from repro.registers.epochs import Epoch
from repro.registers.system import Cluster, ClusterConfig, build_mwmr
from repro.workloads.spec import run_scenario


def test_t4a_linearizability_matrix(benchmark, report):
    def run_all():
        rows = []
        for m, concurrent, byz in [(2, False, 0), (3, False, 0),
                                   (3, True, 0), (3, False, 1),
                                   (5, False, 0)]:
            result = run_scenario(
                "mwmr", m=m, n=9, t=1, seed=400 + m, ops_per_process=2,
                concurrent=concurrent, byzantine_count=byz,
                byzantine_strategy="random-garbage")
            ok = result.completed and check_linearizable(result.history).ok
            rows.append((m, concurrent, byz, result.completed, ok))
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    table = Table("T4a  Theorem 4: MWMR linearizability (n=9, t=1)",
                  ["m", "concurrent", "byzantine", "terminates",
                   "linearizable", "verdict"])
    for m, concurrent, byz, terminated, ok in rows:
        table.row(m, concurrent, byz, terminated, ok, verdict(ok))
    report(table.render())
    assert all(r[4] for r in rows)


def test_t4b_seq_exhaustion_renewal(benchmark, report):
    """Writer-side renewal (Figure 4 lines 02-03) is transparent: six

    writes against ``seq_bound = 4`` force a renewal mid-stream, and the
    reader still sees the latest value.

    Caveat recorded in EXPERIMENTS.md: if the *last* write parks the
    register exactly at ``seq == bound``, the next **reader** renews (line
    11) and publishes its own stale value — with the paper's ``2^64`` bound
    that state needs ``2^64`` writes, which is exactly why the register is
    only *practically* stabilizing.
    """

    def run_exhaustion():
        cluster = Cluster(ClusterConfig(n=9, t=1, seed=401,
                                        trace_backend="null"))
        register = build_mwmr(cluster, 2, seq_bound=4)
        for index in range(6):
            cluster.run_ops([register.write("p1", f"v{index}")],
                            max_events=4_000_000)
        handle = register.read("p2")
        cluster.run_ops([handle], max_events=4_000_000)
        return handle.result

    result_value = benchmark.pedantic(run_exhaustion, rounds=1, iterations=1)
    table = Table("T4b  epoch renewal on sequence exhaustion "
                  "(seq bound = 4, 6 writes)",
                  ["reads latest", "paper expectation", "verdict"])
    table.row(result_value == "v5", "writer renewal transparent to readers",
              verdict(result_value == "v5"))
    report(table.render())
    assert result_value == "v5"


def test_t4c_corrupted_epoch_antichain(benchmark, report):
    def run_antichain():
        cluster = Cluster(ClusterConfig(n=9, t=1, seed=402,
                                        trace_backend="null"))
        register = build_mwmr(cluster, 3)
        cluster.run_ops([register.write("p1", "before")],
                        max_events=4_000_000)
        # corrupt two registers into an incomparable epoch pair
        a = Epoch(1, frozenset({2, 3, 4}))
        b = Epoch(2, frozenset({1, 3, 4}))
        for server in cluster.servers:
            for automaton_id, automaton in server.automatons.items():
                if automaton_id.startswith("mwmr/0/"):
                    automaton.last_val = (1, ("x", a, 1))
                if automaton_id.startswith("mwmr/1/"):
                    automaton.last_val = (1, ("y", b, 1))
        cluster.run_ops([register.write("p3", "after")],
                        max_events=4_000_000)
        handle = register.read("p2")
        cluster.run_ops([handle], max_events=4_000_000)
        return handle.result

    value = benchmark.pedantic(run_antichain, rounds=1, iterations=1)
    table = Table("T4c  renewal escapes a corrupted epoch antichain",
                  ["read after corruption+write", "paper expectation",
                   "verdict"])
    table.row(value, "the post-corruption write wins",
              verdict(value == "after"))
    report(table.render())
    assert value == "after"

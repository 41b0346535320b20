"""Experiment P1 — performance characterization: latency & messages vs n.

The paper reports no numbers (theory only); these benches characterize the
implementation so downstream users can size deployments: simulated
operation latency, messages per operation, and the construction cost
ladder (regular -> atomic -> SWMR -> MWMR) — plus the simulation-core
throughput ladder across trace backends (P1d/P1e), whose events/sec
numbers are persisted to ``BENCH_simcore.json`` so CI can track the perf
trajectory from PR 2 onward.
"""

import json
import os
import time

import pytest

from repro.analysis.tables import Table
from repro.sim.network import AsyncDelay, Network
from repro.sim.process import Process
from repro.sim.random_source import RandomSource
from repro.sim.scheduler import Scheduler
from repro.sim.trace import BACKENDS, build_trace
from repro.workloads.spec import run_scenario

ARTIFACT_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                             "BENCH_simcore.json")

#: Hard events/sec thresholds (>=2x storm, >1.2x scenario) only apply when
#: this is set — CI's dedicated perf-smoke job sets it.  The tier-1 test
#: matrix also collects this file, and wall-clock ratios on noisy shared
#: runners must not fail a correctness leg; there the test still measures,
#: reports and writes the artifact, but only sanity-checks the ordering.
PERF_GATE = bool(os.environ.get("REPRO_PERF_GATE"))

#: Absolute NullTrace events/sec floors, armed together with PERF_GATE.
#: The fused-send kernel rewrite measured 870-930k storm and 250-325k
#: scenario best-of on the reference container depending on its load
#: phase (seed kernel: ~630k / ~207k), on a calendar queue that a plain
#: binary heap later replaced at 2-8 % less CPU per op; the floors sit
#: below the slow-phase measurements to absorb runner noise while still
#: catching any regression back towards the seed numbers.
STORM_FLOOR = int(os.environ.get("REPRO_STORM_FLOOR", "660000"))
SCENARIO_FLOOR = int(os.environ.get("REPRO_SCENARIO_FLOOR", "230000"))


def _op_latencies(history):
    return [op.response - op.invoke for op in history]


def test_p1a_swsr_scaling_with_n(benchmark, report):
    def run_all():
        rows = []
        for n, t in [(9, 1), (17, 2), (25, 3), (33, 4)]:
            result = run_scenario("swsr", kind="regular", n=n, t=t,
                                  seed=500 + n, num_writes=3,
                                  num_reads=3)
            ops = len(result.history)
            rows.append((n, t, result.messages_sent / ops,
                         sum(_op_latencies(result.history)) / ops))
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    table = Table("P1a  SWSR regular register: cost vs cluster size",
                  ["n", "t", "messages/op", "sim latency/op"])
    for n, t, messages, latency in rows:
        table.row(n, t, messages, latency)
    report(table.render())
    # messages per op must grow roughly linearly in n
    assert rows[-1][2] > rows[0][2]


def test_p1b_construction_ladder(benchmark, report):
    def run_ladder():
        regular = run_scenario("swsr", kind="regular", n=9, t=1, seed=501,
                               num_writes=3, num_reads=3)
        atomic = run_scenario("swsr", kind="atomic", n=9, t=1, seed=501,
                              num_writes=3, num_reads=3)
        mwmr = run_scenario("mwmr", m=3, n=9, t=1, seed=501,
                            ops_per_process=1)
        return regular, atomic, mwmr

    regular, atomic, mwmr = benchmark.pedantic(run_ladder, rounds=1,
                                               iterations=1)
    table = Table("P1b  construction cost ladder (n=9, t=1, messages/op)",
                  ["construction", "ops", "messages", "messages/op"])
    for name, result in [("SWSR regular (Fig 2)", regular),
                         ("SWSR atomic (Fig 3)", atomic),
                         ("MWMR (Fig 4)", mwmr)]:
        ops = len(result.history)
        table.row(name, ops, result.messages_sent,
                  result.messages_sent / max(ops, 1))
    report(table.render())
    # the MWMR construction is strictly costlier per op than plain SWSR
    assert mwmr.messages_sent / max(len(mwmr.history), 1) > \
        regular.messages_sent / max(len(regular.history), 1)


def test_p1c_single_write_latency(benchmark):
    """Raw harness speed: one complete SWSR write+read cycle."""

    def cycle():
        return run_scenario("swsr", kind="regular", n=9, t=1, seed=502,
                            num_writes=1, num_reads=1)

    result = benchmark(cycle)
    assert result.completed


# ----------------------------------------------------------------------
# P1d/P1e — simulation-core throughput across trace backends
# ----------------------------------------------------------------------
class _EchoProcess(Process):
    """Relays every delivered message until the shared budget drains.

    The relay chain exercises exactly the fused ``send -> schedule ->
    _deliver`` path with no register protocol on top, so its events/sec is
    the simulation core's ceiling.
    """

    def __init__(self, pid, scheduler, trace, peers, budget):
        super().__init__(pid, scheduler, trace)
        self.peers = peers
        self.budget = budget

    def on_message(self, src, message):
        if self.budget[0] > 0:
            self.budget[0] -= 1
            self.send(self.peers[message % len(self.peers)], message + 1)


def _message_storm(backend: str, n_procs: int = 10,
                   messages: int = 30_000):
    """Drive ``messages`` relayed sends; return (events/sec, events)."""
    scheduler = Scheduler()
    trace = build_trace(backend)
    network = Network(scheduler, RandomSource(42), trace,
                      default_delay=AsyncDelay(0.1, 2.0))
    pids = [f"p{index}" for index in range(n_procs)]
    budget = [messages]
    for pid in pids:
        network.register(_EchoProcess(pid, scheduler, trace, pids, budget))
    for index, pid in enumerate(pids):
        network.send(pid, pids[(index + 1) % n_procs], index)
    started = time.perf_counter()
    scheduler.run()
    elapsed = time.perf_counter() - started
    return scheduler.events_processed / elapsed, scheduler.events_processed


def _best_of(runs, fn, *args):
    best = 0.0
    events = 0
    for _ in range(runs):
        rate, events = fn(*args)
        best = max(best, rate)
    return best, events


def test_p1d_simcore_throughput_vs_trace_backend(report):
    """The tentpole claim: the NullTrace fused delivery path must clear

    at least twice the events/sec of the full-trace path (which still
    runs the seed machinery: labelled, cancellable events plus recorded
    SEND/DELIVER detail dicts).  Results land in ``BENCH_simcore.json``
    so the perf trajectory is tracked across PRs.
    """
    rates = {}
    events = 0
    for backend in BACKENDS:
        rates[backend], events = _best_of(3, _message_storm, backend)

    # end-to-end scenario throughput rides along for context: protocol
    # work (quorums, coroutines) dilutes the substrate win here.
    scenario_rates = {}
    for backend in BACKENDS:
        def scenario_rate(backend=backend):
            started = time.perf_counter()
            result = run_scenario("swsr", kind="regular", n=25, t=3, seed=7,
                                  num_writes=12, num_reads=12,
                                  trace_backend=backend)
            elapsed = time.perf_counter() - started
            processed = result.cluster.scheduler.events_processed
            return processed / elapsed, processed
        # each scenario run is short (~0.15 s), so a wider best-of is
        # cheap and keeps the gated figure robust on noisy runners
        scenario_rates[backend], _ = _best_of(5, scenario_rate)

    table = Table("P1d  simulation-core throughput (events/sec)",
                  ["workload", "backend", "events/sec", "vs full"])
    for backend in BACKENDS:
        table.row("message storm", backend, int(rates[backend]),
                  f"{rates[backend] / rates['full']:.2f}x")
    for backend in BACKENDS:
        table.row("SWSR n=25 scenario", backend,
                  int(scenario_rates[backend]),
                  f"{scenario_rates[backend] / scenario_rates['full']:.2f}x")
    report(table.render())

    document = {
        "bench": "test_p1d_simcore_throughput_vs_trace_backend",
        "storm_events": events,
        "events_per_sec": {key: round(value)
                           for key, value in rates.items()},
        "scenario_events_per_sec": {key: round(value)
                                    for key, value in
                                    scenario_rates.items()},
        "speedup_null_vs_full": round(rates["null"] / rates["full"], 2),
        "scenario_speedup_null_vs_full": round(
            scenario_rates["null"] / scenario_rates["full"], 2),
    }
    with open(ARTIFACT_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")

    # correctness-matrix runs only check the artifact exists; any timing
    # inequality, however generous, could flake a correctness leg.
    assert os.path.exists(ARTIFACT_PATH)
    if PERF_GATE:
        assert rates["null"] >= 2.0 * rates["full"], (
            f"NullTrace fast path must be >= 2x the full-trace path "
            f"(got {rates['null'] / rates['full']:.2f}x)")
        assert scenario_rates["null"] > 1.2 * scenario_rates["full"]
        assert rates["null"] >= STORM_FLOOR, (
            f"storm throughput regressed below the {STORM_FLOOR} "
            f"events/sec floor (got {rates['null']:.0f})")
        assert scenario_rates["null"] >= SCENARIO_FLOOR, (
            f"scenario throughput regressed below the {SCENARIO_FLOOR} "
            f"events/sec floor (got {scenario_rates['null']:.0f})")


def test_p1e_backends_agree_on_execution(report):
    """Perf must not buy divergence: identical histories and counters

    across backends for the same seeded scenario (the cheap in-bench
    version of tests/test_trace_backends.py).
    """
    digests = {}
    messages = {}
    for backend in BACKENDS:
        result = run_scenario("swsr", kind="atomic", n=9, t=1, seed=77,
                              num_writes=4, num_reads=4,
                              corruption_times=[2.0],
                              trace_backend=backend)
        digests[backend] = result.summarize().history_digest
        messages[backend] = result.messages_sent
    assert len(set(digests.values())) == 1
    assert len(set(messages.values())) == 1

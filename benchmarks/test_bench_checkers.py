"""Experiment C — streaming observation pipeline vs offline batch checking.

The streaming refactor's two gates, persisted to ``BENCH_checkers.json``
so CI tracks them across PRs:

* **C1 — check throughput**: replaying a soak-sized history through the
  online checkers must not be slower than the offline batch pass
  (``stabilization_report`` + ``find_new_old_inversions``) over the same
  history.  The offline τ-scan re-checks the whole history per candidate
  cut (O(n²)); the online tracker is a single pass.
* **C2 — bounded-memory soak**: a history-free soak run at least 10× the
  largest smoke-workload op count must complete, stabilize, stay exact
  (no checker window overran) and hold its peak traced memory under a
  hard budget; a 5× deeper run must not grow the peak materially (the
  pipeline's memory is set by its windows, not the run length).

Hard wall-clock gates only apply under ``REPRO_PERF_GATE`` (CI's
perf-smoke job); the correctness matrix still measures, asserts the
deterministic facts (ops, verdicts, equivalence, the absolute memory
budget) and writes the artifact.
"""

import json
import os
import time
import tracemalloc

from repro.analysis.tables import Table
from repro.checkers.atomicity import find_new_old_inversions
from repro.checkers.online import OnlineTauTracker
from repro.checkers.stabilization import stabilization_report
from repro.workloads.scenarios import INITIAL
from repro.workloads.spec import run_scenario

ARTIFACT_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                             "BENCH_checkers.json")

PERF_GATE = bool(os.environ.get("REPRO_PERF_GATE"))

#: the largest op count any smoke-sweep cell drives (the kv family:
#: 4 creates + 2 rounds × (4 puts + 4 gets) = 20) — the soak gate's
#: "current max smoke-workload ops" baseline.
SMOKE_MAX_OPS = 20

#: hard peak-traced-memory budget for the C2 soak run (MiB).  Measured
#: ~1.5 MiB; the 10× headroom keeps the guard robust across CPython
#: versions while still catching any O(run-length) regression in the
#: pipeline.  Overridable for exploratory runs.
SOAK_BUDGET_MIB = float(os.environ.get("REPRO_SOAK_BUDGET_MIB", "16"))

SOAK_KWARGS = dict(seed=7, n=9, t=1, num_writes=1000, num_reads=1000,
                   op_gap=4.0, fault_bursts=3, fault_period=5.0)


def _traced(fn):
    tracemalloc.start()
    started = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - started
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result, elapsed, peak / 2 ** 20


def test_c1_streaming_check_throughput_vs_offline(report):
    """Online single-pass checking vs the offline batch pass, same history."""
    result = run_scenario("soak", keep_history=True, **SOAK_KWARGS)
    assert result.completed
    history = result.history
    tau = result.tau_no_tr

    started = time.perf_counter()
    offline_report = stabilization_report(history, mode="regular",
                                          initial=INITIAL, tau_no_tr=tau)
    offline_inversions = len(find_new_old_inversions(
        history, after=tau, initial=INITIAL))
    offline_seconds = time.perf_counter() - started

    ops = sorted(history.ops,
                 key=lambda op: (op.response, op.invoke, op.op_id))
    started = time.perf_counter()
    tracker = OnlineTauTracker(mode="regular", initial=INITIAL)
    for op in ops:
        tracker.observe(op)
    online_report = tracker.report(tau)
    online_inversions = tracker.inversions.pairs_after(tau)
    online_seconds = time.perf_counter() - started

    # equivalence is a hard (deterministic) assertion, not a perf gate
    assert (online_report.tau_stab, online_report.dirty_reads,
            online_report.stable) == \
        (offline_report.tau_stab, offline_report.dirty_reads,
         offline_report.stable)
    assert online_inversions == offline_inversions

    speedup = offline_seconds / max(online_seconds, 1e-9)
    table = Table("C1  checking a soak history: streaming vs offline",
                  ["checker", "ops", "seconds", "vs offline"])
    table.row("offline batch pass", len(history), round(offline_seconds, 3),
              "1.00x")
    table.row("online single pass", len(history), round(online_seconds, 3),
              f"{speedup:.1f}x")
    report(table.render())

    document = _load_artifact()
    document["c1_ops"] = len(history)
    document["c1_offline_seconds"] = round(offline_seconds, 4)
    document["c1_online_seconds"] = round(online_seconds, 4)
    document["c1_speedup_online_vs_offline"] = round(speedup, 2)
    _write_artifact(document)

    if PERF_GATE:
        assert online_seconds <= offline_seconds, (
            f"streaming check must not be slower than the offline pass "
            f"(online {online_seconds:.3f}s vs offline "
            f"{offline_seconds:.3f}s)")


def test_c2_soak_runs_10x_smoke_ops_under_memory_budget(report):
    """The history-free soak gate: ≥10× smoke ops, bounded peak memory."""
    result, seconds, peak_mib = _traced(
        lambda: run_scenario("soak", **SOAK_KWARGS))
    summary = result.summarize()
    tracker = result.extra["tracker"]

    deep_kwargs = dict(SOAK_KWARGS, num_writes=5000, num_reads=5000)
    deep, deep_seconds, deep_peak_mib = _traced(
        lambda: run_scenario("soak", **deep_kwargs))
    deep_summary = deep.summarize()

    table = Table("C2  history-free soak under a peak-memory budget",
                  ["run", "ops", "stable", "seconds", "peak MiB",
                   "budget MiB"])
    table.row("soak", summary.ops, summary.stable, round(seconds, 2),
              round(peak_mib, 2), SOAK_BUDGET_MIB)
    table.row("soak 5x deeper", deep_summary.ops, deep_summary.stable,
              round(deep_seconds, 2), round(deep_peak_mib, 2),
              SOAK_BUDGET_MIB)
    report(table.render())

    document = _load_artifact()
    document["c2_soak_ops"] = summary.ops
    document["c2_smoke_max_ops"] = SMOKE_MAX_OPS
    document["c2_ops_ratio_vs_smoke"] = round(summary.ops / SMOKE_MAX_OPS, 1)
    document["c2_peak_mib"] = round(peak_mib, 2)
    document["c2_deep_ops"] = deep_summary.ops
    document["c2_deep_peak_mib"] = round(deep_peak_mib, 2)
    document["c2_budget_mib"] = SOAK_BUDGET_MIB
    document["c2_stable"] = bool(summary.stable)
    document["c2_exact"] = bool(tracker.exact)
    _write_artifact(document)

    # deterministic facts — asserted on every leg, not just perf-smoke
    assert summary.completed and summary.stable
    assert tracker.exact, "a checker window overran on a clean soak run"
    assert result.history is None
    assert summary.ops >= 10 * SMOKE_MAX_OPS
    assert deep_summary.completed and deep_summary.stable
    assert peak_mib < SOAK_BUDGET_MIB, (
        f"soak peak memory {peak_mib:.2f} MiB exceeds the "
        f"{SOAK_BUDGET_MIB} MiB budget")
    assert deep_peak_mib < SOAK_BUDGET_MIB
    if PERF_GATE:
        # 5× the ops must not grow the peak materially: the pipeline's
        # memory is set by its windows, not the run length.
        assert deep_peak_mib <= 2.0 * max(peak_mib, 1.0)


def _load_artifact():
    if os.path.exists(ARTIFACT_PATH):
        with open(ARTIFACT_PATH, "r", encoding="utf-8") as handle:
            document = json.load(handle)
            if document.get("bench") == "test_bench_checkers":
                return document
    return {"bench": "test_bench_checkers"}


def _write_artifact(document):
    with open(ARTIFACT_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")

"""The traced run of one workload: per-layer metrics, never end-to-end ones.

Segment ``k`` runs untraced, then again traced, for half the time budget
(so a quarter of it is traced): their difference is the tracing overhead,
the spans fold into the layer metrics (``bench.layers``), and the rest of
the budget goes to the workload's side rungs.
"""

from __future__ import annotations

import gc
import statistics
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from . import layers
from .harness import BENCH_DIR, Timed, timed_segment, verify
from .trace import Installed, Tracer
from .workloads import WORKLOADS, Segment


def _cell_metrics(untraced: List[Timed], first: Segment,
                  marks: List[Tuple[int, float]]) -> Dict[str, float]:
    """Per-cell register costs of a scenario workload: exact counts and
    simulated latency from the first traced pass, throughput as the
    median over the untraced passes."""
    metrics: Dict[str, float] = {}
    observed, latency = 0, 0.0
    for (name, facts), mark in zip(first.facts.items(), marks):
        ops = facts["ops"]
        metrics[f"registers.msgs_per_op.{name}"] = facts["messages"] / ops
        metrics[f"registers.events_per_op.{name}"] = facts["events"] / ops
        metrics[f"registers.sim_latency_per_op.{name}"] = \
            (mark[1] - latency) / (mark[0] - observed)
        observed, latency = mark
        metrics[f"registers.ops_per_s.{name}"] = ops / statistics.median(
            entry.segment.latencies[name][0] for entry in untraced)
    return metrics


def _rungs(name: str, seed: int, size: float, first: Segment
           ) -> Dict[str, float]:
    """The side rungs that belong to ``name``, run with tracing off."""
    if name == "svc-single":
        metrics = layers.store_op_rung(seed, int(200 * size))
        metrics["service.tcp_extra_us_per_req"] = \
            layers.tcp_extra_us_per_req(seed, int(2000 * size))
        return metrics
    if name == "svc-batch":
        return layers.direct_rung(seed, max(1, int(2 * size)))
    facts = first.facts
    if name == "reg-ladder":
        datalink = facts["swsr-atomic-n17-dl"]
        metrics = layers.ladder_rungs(seed, size)
        metrics["datalink.events_per_op"] = \
            datalink["events"] / datalink["ops"]
        return metrics
    # scratch space inside the benchmark's own directory: a run may write
    # nowhere else
    with tempfile.TemporaryDirectory(prefix=".work-",
                                     dir=BENCH_DIR) as scratch:
        metrics = layers.adversary_rungs(seed, facts, Path(scratch))
    cells = list(facts.values())
    metrics.update({
        "faults.corruptions": sum(cell["corruptions"] for cell in cells),
        "faults.dropped_msgs": sum(cell["dropped"] for cell in cells),
        "faults.dirty_reads": sum(cell["dirty_reads"] or 0
                                  for cell in cells),
        "faults.tau_stab_sim": max(cell["tau_stab"] or 0.0
                                   for cell in cells)})
    return metrics


def measure_traced(name: str, seed: int, seconds: float, quick: bool
                   ) -> Dict[str, Any]:
    size = 0.1 if quick else 1.0
    taps = layers.Taps()
    tracer = Tracer()
    tracer.enabled = False
    wrappers = layers.targets(taps)
    plain = WORKLOADS[name](seed)
    plain.setup()
    # A service binds ``stream.observe_handle`` when it is built, so the
    # traced instance is built under the wrappers and only ever runs under
    # them; the untraced one never meets a wrapper.
    with Installed(tracer, wrappers):
        traced = WORKLOADS[name](seed)
        traced.setup()

    # Segment k untraced, then the same segment traced, for half the
    # budget (so a quarter of it is traced); the rungs use the rest.
    untraced_side: List[Timed] = []
    traced_side: List[Timed] = []
    gc.collect()
    began = time.perf_counter()
    while True:
        index = len(traced_side)
        untraced_side.append(timed_segment(plain, index))
        with Installed(tracer, wrappers):
            tracer.enabled = True
            try:
                traced_side.append(timed_segment(traced, index))
            finally:
                tracer.enabled = False
        if index == 0:
            counts = layers.count_metrics(
                tracer.spans(), taps, traced_side[0].segment.events)
            marks = list(taps.scenario_marks)
        pair = untraced_side[-1].wall + traced_side[-1].wall
        if time.perf_counter() - began + pair / 2 >= seconds / 2:
            break
    plain.close()
    traced.close()

    report = verify(name, seed, untraced_side, traced_side)
    if report["problems"]:
        return report

    metrics = layers.time_metrics(
        tracer.spans(), sum(entry.wall for entry in traced_side),
        sum(entry.segment.events for entry in traced_side),
        layers.storm_ns_per_event(seed, int(30_000 * size)))
    metrics.update(counts)
    # segment k ran the same operations on both sides: compare pairwise
    metrics["trace.overhead_frac"] = statistics.median(
        with_spans.wall / without.wall
        for with_spans, without in zip(traced_side, untraced_side)) - 1.0
    first = traced_side[0].segment
    if marks:
        metrics.update(_cell_metrics(untraced_side, first, marks))
    else:
        pooled: Dict[str, List[float]] = {}
        for entry in untraced_side:
            for kind, values in entry.segment.latencies.items():
                pooled.setdefault(kind, []).extend(values)
        metrics.update(layers.latency_metrics(pooled))
    metrics.update(_rungs(name, seed, size, first))
    report.update(metrics=metrics, segments=len(traced_side),
                  spans=len(tracer))
    return report

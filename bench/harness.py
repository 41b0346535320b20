"""The untraced run of one workload: timed segments, the correctness
gate, and the end-to-end metrics reduced from them.

Nothing is wrapped here and ``bench.layers`` is not even imported, so
``setup_s`` is what a user of the workload pays.  The outputs are checked
before anything is reported; a failed check yields no metric.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, NamedTuple

from .stats import (calibrate, noisy_segments, percentile, segment_median,
                    spread, unresolved)
from .workloads import WORKLOADS, Segment

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_SEED = 20260926
#: fresh-process set-ups per run; ``setup_s`` is their median
SETUP_SAMPLES = 5
#: segments of the default seed whose facts ``expected.json`` pins
PINNED_SEGMENTS = 3


def declared() -> Dict[str, Any]:
    """``BENCHMARK.json``: the one list of workloads, metrics, units and
    bounds — the harness emits exactly what it declares."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class Timed(NamedTuple):
    wall: float
    cpu: float
    segment: Segment

    @property
    def verified(self) -> int:
        return self.segment.attempted - self.segment.failed


def timed_segment(workload: Any, index: int) -> Timed:
    wall, cpu = time.perf_counter(), time.process_time()
    segment = workload.run_segment(index)
    return Timed(time.perf_counter() - wall, time.process_time() - cpu,
                 segment)


def setup_seconds(name: str, seed: int, samples: int) -> List[float]:
    """Import + build + warm-up, timed in ``samples`` fresh processes."""
    seconds = []
    for _ in range(samples):
        child = subprocess.run(
            [sys.executable, "-m", "bench", "--workload", name, "--seed",
             str(seed), "--setup-only"], cwd=ROOT, capture_output=True,
            text=True, timeout=170, check=True)
        seconds.append(float(child.stdout.split()[-1]))
    return seconds


def _differences(want: Any, got: Any, where: str) -> Iterator[str]:
    if isinstance(want, dict) and isinstance(got, dict):
        for key in sorted(set(want) | set(got)):
            yield from _differences(want.get(key), got.get(key),
                                    f"{where}.{key}")
    elif want != got:
        yield f"{where}: expected {want!r}, got {got!r}"


def check_pins(name: str, seed: int, facts: List[Dict[str, Any]]
               ) -> List[str]:
    """For the default seed, the first segments' digests and counts must
    equal the pinned ones; other seeds rely on the model and the checker
    verdicts alone."""
    if seed != DEFAULT_SEED:
        return []
    pinned = json.loads((BENCH_DIR / "expected.json").read_text(
        encoding="utf-8"))[name]
    return [difference
            for index, (want, got) in enumerate(zip(pinned, facts))
            for difference in _differences(want, got, f"segment {index}")]


def verify(name: str, seed: int, *sides: List[Timed]) -> Dict[str, Any]:
    """The correctness gate over a run's segments (``sides``: each an
    independent execution of segments 0, 1, ... of the workload)."""
    attempted = sum(entry.segment.attempted
                    for side in sides for entry in side)
    failed = sum(entry.segment.failed for side in sides for entry in side)
    problems = [problem for side in sides for problem in check_pins(
        name, seed, [entry.segment.facts for entry in side])]
    if failed:
        problems.append(f"{failed} of {attempted} ops failed, were refused "
                        "or returned an unverified result")
    return {"attempted": attempted, "failed": failed, "problems": problems}


def segment_series(timed: List[Timed]) -> Dict[str, List[float]]:
    """The per-segment value of every metric that is reduced over
    segments (latency percentiles are taken inside each segment)."""
    def latency(entry: Timed, fraction: float) -> float:
        return 1e3 * percentile(
            [value for values in entry.segment.latencies.values()
             for value in values], fraction)

    return {
        "ops_per_s": [entry.verified / entry.wall for entry in timed],
        "cpu_us_per_op": [entry.cpu / entry.verified * 1e6
                          for entry in timed],
        "req_p50_ms": [latency(entry, 0.50) for entry in timed],
        "req_p95_ms": [latency(entry, 0.95) for entry in timed],
    }


def end_to_end(series: Dict[str, List[float]], noisy: List[bool],
               setup: List[float]) -> Dict[str, Dict[str, float]]:
    """Each end-to-end metric with the spread of what it was reduced
    from: the median over the clean segments, so that a slow machine
    phase moves some segments and not the reported number."""
    metrics = {}
    for name, values in series.items():
        summary = segment_median(values, noisy)
        metrics[name] = {"value": summary.median, "spread": summary.spread}
    metrics["setup_s"] = {"value": statistics.median(setup),
                          "spread": spread(setup)}
    metrics["peak_rss_mib"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spread": 0.0}
    return metrics


def measure_untraced(name: str, seed: int, seconds: float, quick: bool,
                     started: float) -> Dict[str, Any]:
    """``started`` is when this process began, so that its own import +
    build + warm-up is the first ``setup_s`` sample."""
    workload = WORKLOADS[name](seed)
    workload.setup()
    setup = [time.perf_counter() - started]
    gc.collect()
    timed: List[Timed] = []
    calibration = [calibrate()]
    began = time.perf_counter()
    while True:
        timed.append(timed_segment(workload, len(timed)))
        calibration.append(calibrate())
        # stop once another segment would overshoot by more than it fits
        if time.perf_counter() - began + timed[-1].wall / 2 >= seconds:
            break
    workload.close()
    report = verify(name, seed, timed)
    if report["problems"]:
        return report
    if not quick:
        setup += setup_seconds(name, seed, SETUP_SAMPLES - 1)
    series = segment_series(timed)
    noisy = noisy_segments(calibration,
                           [entry.cpu / entry.wall for entry in timed])
    report.update(
        metrics=end_to_end(series, noisy, setup), segments=len(timed),
        noisy=sum(noisy), unresolved=unresolved(noisy),
        series=dict(series, noisy=noisy, calibration=calibration,
                    setup_s=setup),
        samples=sum(len(values) for entry in timed
                    for values in entry.segment.latencies.values()),
        facts=[entry.segment.facts for entry in timed[:PINNED_SEGMENTS]])
    return report

"""Order statistics, the noise guard and the environment fingerprint."""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Sequence

#: A segment is noisy when the calibration loops on both sides of it ran
#: more than this much slower than the run's good calibrations (their lower
#: quartile) ...
#:
#: The issue that defined the benchmark asked for "> 5 % off the run's
#: best".  Measured on the 2-core container over 150 segments, the loop
#: itself reads 1.08-1.16x its best in quiet phases, with isolated spikes
#: to 1.4x that say nothing about the segment beside them — that rule
#: flags every segment.  A machine phase worth excluding (they reach 40 %
#: and last seconds) shows on both sides of a segment and clears 10 %.
CALIBRATION_TOLERANCE = 0.10
#: ... or when it spent more than this share of its wall time off the CPU:
#: the generator is one thread that never blocks, so that is preemption.
OFF_CPU_TOLERANCE = 0.03
#: A run with more than this share of noisy segments is unresolved.
MAX_NOISY_SHARE = 0.3


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in 0..1) of unsorted values."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1,
                       int(fraction * (len(ordered) - 1) + 0.5))]


def spread(values: Sequence[float]) -> float:
    """Inter-quartile range as a share of the median (0 for < 2 values) —
    the same arithmetic the acceptance check applies across runs."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / middle if middle else 0.0


class Summary(NamedTuple):
    """A per-segment quantity reduced over the clean segments."""

    median: float
    spread: float       #: IQR / median of the values used
    used: int           #: how many segments fed the median


def segment_median(values: Sequence[float],
                   noisy: Sequence[bool]) -> Summary:
    """Median over the segments not marked noisy (over all of them when
    every one is noisy — the run is then reported unresolved anyway)."""
    clean = [value for value, flag in zip(values, noisy) if not flag]
    used = clean or list(values)
    return Summary(statistics.median(used), spread(used), len(used))


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop (~30 ms): the yardstick that
    tells a slow machine phase from a slow program."""
    started = time.perf_counter()
    total = 0
    for index in range(500_000):
        total += index * index % 7
    return time.perf_counter() - started


def noisy_segments(calibration: Sequence[float],
                   on_cpu: Sequence[float]) -> List[bool]:
    """One flag per segment, from the ``segments + 1`` calibration samples
    taken before, between and after them and each segment's CPU ÷ wall."""
    if len(calibration) < 4:            # too few to know what good is
        limit = float("inf")
    else:
        limit = (statistics.quantiles(calibration, n=4)[0]
                 * (1.0 + CALIBRATION_TOLERANCE))
    return [min(before, after) > limit or share < 1.0 - OFF_CPU_TOLERANCE
            for before, after, share
            in zip(calibration, calibration[1:], on_cpu)]


def unresolved(noisy: Sequence[bool]) -> bool:
    return sum(noisy) > MAX_NOISY_SHARE * len(noisy)


def fingerprint(root: Path) -> Dict[str, object]:
    """Where the numbers come from: cores, interpreter, platform, commit."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"      # e.g. an exported checkout without .git
    cores = (len(os.sched_getaffinity(0))
             if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    return {"nproc": cores, "python": sys.version.split()[0],
            "platform": platform.platform(), "commit": commit}

"""``python -m bench compare A.json B.json``: did B get worse than A?

One row per end-to-end metric and workload: both values, B / A, the
bound ``BENCHMARK.json`` fixes for the metric, and a verdict —

* ``regressed``: B is worse than A by more than the bound;
* ``unresolved``: either run had too many noisy segments, or the spread
  within a run is wider than the bound, so the row cannot be called
  unchanged;
* ``ok`` otherwise.

``failed_frac`` may not rise at all, and what a seed fixes — segment
digests and counts, the exact layer metrics — must be identical when both
sets ran the same seed.  Exit status 1 if any row is not ``ok``.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, Iterator, List, Tuple

from .harness import declared
from .layers import EXACT

Row = Tuple[str, str, str, str, str, str, str]


def verdict(before: float, after: float, better: str, bound: float,
            spread: float, noisy: bool) -> str:
    worse = (after - before) / before
    if better == "higher":
        worse = -worse
    if worse > bound:
        return "regressed"
    if noisy or spread > bound:
        return "unresolved"
    return "ok"


def _end_to_end_rows(name: str, before: Dict[str, Any],
                     after: Dict[str, Any], spec: Dict[str, Any]
                     ) -> Iterator[Row]:
    details = (before["detail"], after["detail"])
    noisy = any(detail["unresolved"] for detail in details)
    for metric in spec["end_to_end"]:
        key = metric["name"]
        old = before["metrics"][key]["value"]
        new = after["metrics"][key]["value"]
        # set-up and memory are not reduced over segments, so segment
        # noise says nothing about them
        per_segment = key not in ("setup_s", "peak_rss_mib")
        yield (name, key, f"{old:.6g}", f"{new:.6g}", f"{new / old:.4f}",
               f"{metric['bound']:.0%}",
               verdict(old, new, metric["better"], metric["bound"],
                       max(detail["spread"][key] for detail in details),
                       noisy and per_segment))
    old = before["failed"] / before["attempted"]
    new = after["failed"] / after["attempted"]
    yield (name, "failed_frac", f"{old:.6g}", f"{new:.6g}", "-", "0%",
           "regressed" if new > old else "ok")


def _exact_rows(name: str, before: Dict[str, Any], after: Dict[str, Any]
                ) -> Iterator[Row]:
    pairs: List[Tuple[str, Any, Any]] = []
    facts = (before["end_to_end"]["detail"]["facts"],
             after["end_to_end"]["detail"]["facts"])
    # a run pins as many segments as it completed: compare what both have
    pairs += [(f"segment {index} facts", old, new)
              for index, (old, new) in enumerate(zip(*facts))]
    if "per_layer" in before and "per_layer" in after:
        old_layers = before["per_layer"]["metrics"]
        new_layers = after["per_layer"]["metrics"]
        pairs += [(key, old_layers[key]["value"], new_layers[key]["value"])
                  for key in old_layers if key.startswith(EXACT)]
    for key, old, new in pairs:
        if old != new:
            yield (name, key, str(old)[:24], str(new)[:24], "-", "exact",
                   "regressed")


def compare(before: Dict[str, Any], after: Dict[str, Any],
            spec: Dict[str, Any]) -> List[Row]:
    """Every end-to-end row, plus one row per exact value that differs."""
    rows: List[Row] = []
    for workload in spec["workloads"]:
        name = workload["name"]
        old, new = before["workloads"][name], after["workloads"][name]
        rows += _end_to_end_rows(name, old["end_to_end"], new["end_to_end"],
                                 spec)
        if before["seed"] == after["seed"]:
            rows += _exact_rows(name, old, new)
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: python -m bench compare A.json B.json",
              file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    if any(document["quick"] for document in documents):
        print("bench: a --quick result set is not comparable",
              file=sys.stderr)
        return 2
    rows = compare(documents[0], documents[1], declared())
    header = ("workload", "metric", "A", "B", "B/A", "bound", "verdict")
    widths = [max(len(row[column]) for row in [header] + rows)
              for column in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(width)
                        for cell, width in zip(row, widths)).rstrip())
    exact = ("same seed: segment facts and exact layer metrics compared"
             if documents[0]["seed"] == documents[1]["seed"]
             else "different seeds: exact values not compared")
    bad = [row for row in rows if row[-1] != "ok"]
    print(f"\n{len(rows)} rows, {len(bad)} not ok; {exact}")
    return 1 if bad else 0

"""``repro-profile`` — cProfile any scenario, JSON top-N output.

The sim-core rewrite (calendar-queue scheduler, fused sends, compact
messages) was guided by exactly this measurement; the entry point keeps
that loop closed for future PRs: point it at any scenario family, get
the hot functions back as machine-readable JSON.

::

    repro-profile --family swsr --param n=25 --param seed=7
    repro-profile --family kv --param seed=3 --top 30 --sort cumulative
    repro-profile --family swsr --out profile.json

Output document::

    {
      "spec": {"family": "swsr", "params": {...}},
      "elapsed_sec": 0.041,
      "events_processed": 2443,
      "events_per_sec": 59585,
      "top": [
        {"function": "...", "file": "...", "line": 358,
         "ncalls": 2443, "tottime": 0.008, "cumtime": 0.04},
        ...
      ]
    }

``events_processed``/``events_per_sec`` are reported when the family's
result exposes its cluster's scheduler (every built-in family does);
they are measured on a separate unprofiled run so the rate is not
distorted by tracing overhead.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import sys
import time
from typing import Any, Dict, List, Optional

#: valid ``--sort`` values (the pstats sort keys that make sense here).
SORT_KEYS = ("tottime", "cumulative", "ncalls")


def _events_processed(result: Any) -> Optional[int]:
    cluster = getattr(result, "cluster", None)
    scheduler = getattr(cluster, "scheduler", None)
    events = getattr(scheduler, "events_processed", None)
    if events is not None:
        return events
    # sharded results (kv/reshard) run one cluster per shard: sum them
    store = getattr(result, "store", None)
    group = getattr(store, "group", None)
    if group is not None:
        return sum(shard.scheduler.events_processed for shard in group)
    return getattr(result, "events_processed", None)


def profile_spec(spec: Any, top: int = 20,
                 sort: str = "tottime") -> Dict[str, Any]:
    """Profile one :class:`~repro.workloads.spec.ScenarioSpec` run.

    Runs the spec twice: once unprofiled for an honest events/sec
    figure, once under :mod:`cProfile` for the top-``N`` table.
    """
    if sort not in SORT_KEYS:
        raise ValueError(f"sort must be one of {SORT_KEYS}, got {sort!r}")
    if top < 1:
        raise ValueError(f"top must be >= 1, got {top}")
    started = time.perf_counter()
    result = spec.run()
    elapsed = time.perf_counter() - started
    events = _events_processed(result)

    profiler = cProfile.Profile()
    profiler.enable()
    spec.run()
    profiler.disable()

    stats = pstats.Stats(profiler)
    stats.sort_stats(sort)
    entries: List[Dict[str, Any]] = []
    for func in stats.fcn_list[:top]:           # (file, line, name)
        cc, ncalls, tottime, cumtime, _callers = stats.stats[func]
        path, line, name = func
        entries.append({
            "function": name,
            "file": path,
            "line": line,
            "ncalls": ncalls,
            "primitive_calls": cc,
            "tottime": round(tottime, 6),
            "cumtime": round(cumtime, 6),
        })

    return {
        "spec": {"family": spec.family, "params": dict(spec.params)},
        "sort": sort,
        "elapsed_sec": round(elapsed, 6),
        "events_processed": events,
        "events_per_sec": (round(events / elapsed)
                           if events and elapsed > 0 else None),
        "top": entries,
    }


def _parse_param(text: str) -> tuple:
    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(
            f"--param expects key=value, got {text!r}")
    try:
        value = json.loads(raw)
    except ValueError:
        value = raw                       # bare strings need no quotes
    return key, value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-profile",
        description="cProfile one scenario run; print top-N hot "
                    "functions as JSON")
    parser.add_argument("--family", required=True,
                        help="scenario family (see repro.api.scenario_families)")
    parser.add_argument("--param", action="append", type=_parse_param,
                        metavar="KEY=VALUE",
                        help="family parameter (repeatable; values parse "
                             "as JSON, bare strings allowed)")
    parser.add_argument("--top", type=int, default=20,
                        help="number of entries to report (default 20)")
    parser.add_argument("--sort", choices=SORT_KEYS, default="tottime",
                        help="pstats sort key (default tottime)")
    parser.add_argument("--out", default=None,
                        help="write the JSON document here instead of stdout")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.top < 1:
        parser.error(f"--top must be at least 1, got {args.top}")
    from .workloads.spec import ScenarioSpec
    try:
        spec = ScenarioSpec(args.family, dict(args.param or ()))
    except (TypeError, ValueError) as exc:
        print(f"repro-profile: {exc}", file=sys.stderr)
        return 2
    document = profile_spec(spec, top=args.top, sort=args.sort)
    text = json.dumps(document, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

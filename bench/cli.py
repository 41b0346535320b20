"""What ``python -m bench`` prints and orchestrates (see ``__main__``)."""

from __future__ import annotations

import json
import subprocess
import sys
import time
from typing import Any, Dict, List

from .harness import (BENCH_DIR, DEFAULT_SEED, PINNED_SEGMENTS, ROOT,
                      declared, measure_untraced)
from .stats import fingerprint
from .workloads import WORKLOADS

__all__ = ["DEFAULT_SEED", "WORKLOADS", "one_workload", "pin", "suite"]

#: a ``--quick`` run is this share of ``run_seconds`` (one segment at least)
QUICK_SHARE = 1 / 20


def _show(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<46} {value:>16.6g} {unit:<10} {note}".rstrip())


def one_workload(args: Any, started: float) -> int:
    """Measure ``args.workload`` here; the last stdout line is the result
    object, the line before it (``detail``) everything else a reader of
    the numbers needs: environment, segment counts, spreads, facts."""
    name, seed = args.workload, args.seed
    if args.setup_only:
        workload = WORKLOADS[name](seed)
        workload.setup()
        print(repr(time.perf_counter() - started))
        workload.close()
        return 0
    spec = declared()
    seconds = (args.seconds if args.seconds is not None
               else spec["run_seconds"])
    env = fingerprint(ROOT)
    print(f"# bench {name}  seed {seed}  trace {args.trace}  {seconds:g} s"
          + ("  QUICK: numbers are not comparable" if args.quick else ""))
    print("# env " + "  ".join(f"{key}={value}"
                               for key, value in env.items()))
    if args.trace:
        # imported only now: the untraced run must not pay (in setup_s)
        # for the runner, capture and parallel packages the rungs touch
        from .traced import measure_traced
        report = measure_traced(name, seed, seconds, args.quick)
        kind = "per_layer"
    else:
        report = measure_untraced(name, seed, seconds, args.quick, started)
        kind = "end_to_end"
    result = {"correct": not report["problems"],
              "attempted": report["attempted"], "failed": report["failed"],
              "metrics": {}}
    if report["problems"]:
        for problem in report["problems"]:
            print(f"bench: {name}: {problem}", file=sys.stderr)
        print(json.dumps(result))
        return 1

    measured = report.pop("metrics")
    units = {metric["name"]: metric["unit"] for metric in spec[kind]}
    undeclared = sorted(set(measured) - set(units))
    if undeclared:
        raise SystemExit(f"bench: metrics missing from BENCHMARK.json: "
                         f"{', '.join(undeclared)}")
    if args.trace:
        print(f"# {report['segments']} traced segments, "
              f"{report['spans']} spans; 0 = layer not exercised here")
        # a layer this workload leaves idle reads 0
        values = {metric: float(measured.get(metric, 0.0))
                  for metric in units}
        for metric, value in values.items():
            _show(metric, value, units[metric])
    else:
        print(f"# {report['segments']} segments, {report['noisy']} noisy"
              + (" -> UNRESOLVED" if report["unresolved"] else "")
              + f"; {report['samples']} latency samples")
        values = {metric: measured[metric]["value"] for metric in units}
        report["spread"] = {metric: measured[metric]["spread"]
                            for metric in units}
        for metric, value in values.items():
            _show(metric, value, units[metric],
                  f"spread {report['spread'][metric]:.2%}")
    result["metrics"] = {metric: {"value": value, "unit": units[metric]}
                         for metric, value in values.items()}
    print("detail " + json.dumps(dict(report, env=env, seed=seed,
                                      quick=args.quick), sort_keys=True))
    print(json.dumps(result))
    return 0


def suite(args: Any) -> int:
    """Every declared workload, each in a fresh process (clean peak RSS,
    no cache shared between workloads).  A failed check stops the suite
    with a non-zero exit before any table is printed."""
    spec = declared()
    seconds = spec["run_seconds"] * (QUICK_SHARE if args.quick else 1)
    document: Dict[str, Any] = {"env": fingerprint(ROOT), "seed": args.seed,
                                "quick": args.quick, "workloads": {}}
    for workload in spec["workloads"]:
        entry = document["workloads"][workload["name"]] = {}
        for trace in (0, 1) if args.traced else (0,):
            command = [sys.executable, "-m", "bench", "--workload",
                       workload["name"], "--seed", str(args.seed),
                       "--seconds", repr(seconds), "--trace", str(trace)]
            if args.quick:
                command.append("--quick")
            child = subprocess.run(command, cwd=ROOT, capture_output=True,
                                   text=True, timeout=180)
            if child.returncode:
                sys.stderr.write(child.stderr)
                print(f"bench: {workload['name']} (trace {trace}) failed; "
                      "no metrics reported", file=sys.stderr)
                return 1
            lines = child.stdout.splitlines()
            entry["per_layer" if trace else "end_to_end"] = dict(
                json.loads(lines[-1]),
                detail=json.loads(lines[-2].split(" ", 1)[1]))

    env = document["env"]
    print("# env " + "  ".join(f"{key}={value}"
                               for key, value in env.items())
          + f"  seed={args.seed}")
    if args.quick:
        print("# QUICK run: every number below is NOT comparable")
    for name, entry in document["workloads"].items():
        run = entry["end_to_end"]
        detail = run["detail"]
        print(f"\n== {name}: {detail['segments']} segments, "
              f"{detail['noisy']} noisy, {detail['samples']} latency "
              f"samples ==")
        for metric, measured in run["metrics"].items():
            if detail["unresolved"] and metric not in ("setup_s",
                                                        "peak_rss_mib"):
                print(f"  {metric:<46} {'unresolved':>16} "
                      f"(too many noisy segments)")
            else:
                _show(metric, measured["value"], measured["unit"],
                      f"spread {detail['spread'][metric]:.2%}")
        _show("failed_frac", run["failed"] / run["attempted"], "1",
              f"{run['failed']} of {run['attempted']} ops")
        for metric, measured in entry.get("per_layer",
                                          {"metrics": {}})["metrics"].items():
            if measured["value"]:
                _show(metric, measured["value"], measured["unit"])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


def pin() -> int:
    """Rewrite ``expected.json``: the first segments' facts of every
    workload at the default seed."""
    pinned: Dict[str, List[Any]] = {}
    for name, build in WORKLOADS.items():
        workload = build(DEFAULT_SEED)
        workload.setup()
        pinned[name] = [workload.run_segment(index).facts
                        for index in range(PINNED_SEGMENTS)]
        workload.close()
    with open(BENCH_DIR / "expected.json", "w", encoding="utf-8") as handle:
        json.dump(pinned, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"pinned {PINNED_SEGMENTS} segments of "
          f"{', '.join(pinned)} at seed {DEFAULT_SEED}")
    return 0

"""``repro-capture`` — record, replay, check and tail trace files.

::

    repro-capture record --family swsr --out trace.jsonl \\
        --param seed=3 --param num_writes=4 --param num_reads=4 \\
        [--metrics metrics.jsonl --metrics-every 50]
    repro-capture replay trace.jsonl [--mode resimulate|recheck] \\
        [--workers N] [--out report.json]
    repro-capture check trace.jsonl
    repro-capture tail metrics.jsonl [-n 10]

``record`` runs a scenario with capture enabled and prints its summary;
``replay`` re-drives a sealed capture (exit 1 on any divergence);
``check`` structurally verifies a capture (checksums, sequencing,
per-lane monotonicity) without replaying it; ``tail`` prints the last
lines of any JSON-lines file (captures or metrics) for quick grepping.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from .format import CaptureError


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


def _count(text: str) -> int:
    # ``tail``'s ``lines[-0:]`` is the whole file and ``lines[1:]`` all
    # but one line; ``replay --workers 0`` fails deep in the runner
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def _cadence(text: str) -> float:
    try:
        every = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {text!r}") from None
    if not every > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return every


def _emit(payload: Dict[str, Any], quiet: bool) -> None:
    if not quiet:
        print(json.dumps(payload, sort_keys=True, indent=2))


def cmd_record(args: argparse.Namespace) -> int:
    from ..workloads.spec import ScenarioSpec
    from .replay import record_scenario
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as handle:
            spec = ScenarioSpec.from_dict(json.load(handle))
        if args.family or args.param:
            print("record: --spec excludes --family/--param",
                  file=sys.stderr)
            return 2
    else:
        if not args.family:
            print("record: one of --family or --spec is required",
                  file=sys.stderr)
            return 2
        spec = ScenarioSpec(args.family, dict(args.param or ()))
    result = record_scenario(spec, args.out, metrics_out=args.metrics,
                             metrics_every=args.metrics_every)
    _emit({"capture": args.out, "metrics": args.metrics,
           "summary": result.summarize().to_dict()}, args.quiet)
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    from .replay import replay_capture
    try:
        report = replay_capture(args.trace, mode=args.mode,
                                workers=args.workers, strict=False)
    except CaptureError as exc:
        print(f"replay: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    payload = report.to_dict()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True, indent=2)
            handle.write("\n")
    _emit(payload, args.quiet)
    if not report.ok:
        print("replay: capture did NOT reproduce", file=sys.stderr)
        return 1
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from .format import verify_capture
    try:
        info = verify_capture(args.trace)
    except CaptureError as exc:
        print(f"check: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    _emit(info, args.quiet)
    return 0


def cmd_tail(args: argparse.Namespace) -> int:
    with open(args.file, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    for line in lines[-args.lines:]:
        sys.stdout.write(line if line.endswith("\n") else line + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-capture",
        description="record / replay / check / tail repro trace files")
    sub = parser.add_subparsers(dest="command", required=True)

    record = sub.add_parser("record", help="run a scenario with capture")
    record.add_argument("--family", help="scenario family to run")
    record.add_argument("--param", action="append", type=_parse_param,
                        metavar="KEY=VALUE",
                        help="family parameter (JSON value or bare "
                             "string); repeatable")
    record.add_argument("--spec", help="JSON spec file instead of "
                                       "--family/--param")
    record.add_argument("--out", required=True,
                        help="capture file to write")
    record.add_argument("--metrics", help="metrics JSON-lines file")
    record.add_argument("--metrics-every", type=_cadence, default=None,
                        help="metrics cadence in simulated time units")
    record.add_argument("--quiet", action="store_true")
    record.set_defaults(func=cmd_record)

    replay = sub.add_parser("replay", help="re-drive a sealed capture")
    replay.add_argument("trace", help="capture file")
    replay.add_argument("--mode", choices=("resimulate", "recheck"),
                        default="resimulate")
    replay.add_argument("--workers", type=_count, default=None,
                        help="re-simulate with a parallel runner "
                             "(kv/soak families)")
    replay.add_argument("--out", help="write the replay report here")
    replay.add_argument("--quiet", action="store_true")
    replay.set_defaults(func=cmd_replay)

    check = sub.add_parser("check", help="structural verification only")
    check.add_argument("trace", help="capture file")
    check.add_argument("--quiet", action="store_true")
    check.set_defaults(func=cmd_check)

    tail = sub.add_parser("tail", help="print the last lines of a "
                                       "JSON-lines file")
    tail.add_argument("file")
    tail.add_argument("-n", "--lines", type=_count, default=10,
                      help="how many lines (default 10, at least 1)")
    tail.set_defaults(func=cmd_tail)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":          # pragma: no cover
    sys.exit(main())

"""Command-line fuzzer.

Usage::

    python -m repro.fuzz --seed 7 --cases 100 --workers 4 --out fuzz.json
    python -m repro.fuzz --smoke --workers 4 --artifacts fuzz-artifacts
    python -m repro.fuzz --dry-run --seed 7 --cases 5
    python -m repro.fuzz --replay fuzz-artifacts/replay-....json
    repro-fuzz --smoke                      # (installed console script)

Campaign mode exits non-zero when any confirmed violation (or worker
crash) survives — finding a counterexample *is* the failure signal, and
each one is shrunk and written to ``--artifacts`` as a replay JSON.  The
``--out`` document is canonical: byte-identical for any ``--workers``
value (the ``fuzz/*`` determinism contracts rely on it).

Replay mode re-runs one artifact under FullTrace.  By default it expects
the recorded violation to reproduce (confirming a counterexample); pass
``--expect clean`` for regression fixtures that a later fix silenced.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..capture.format import CaptureError
from .campaign import campaign_cases, run_campaign
from .families import DEFAULT_FAMILY, DEFAULT_PROFILE, FUZZ_FAMILIES
from .replay import ReplayArtifact, replay

#: the CI smoke budget: fixed seed, fixed case count, strict.
SMOKE_SEED = 20260730
SMOKE_CASES = 64


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Deterministic scenario fuzzer with counterexample "
                    "shrinking over the paper's register constructions.")
    parser.add_argument("--seed", type=int, default=None, metavar="S",
                        help="campaign seed (every case seed is hash-"
                             "derived from it; default 0)")
    parser.add_argument("--cases", type=int, default=None, metavar="N",
                        help="number of generated cases (default 50, "
                             "at least 1)")
    parser.add_argument("--family", choices=tuple(FUZZ_FAMILIES),
                        default=DEFAULT_FAMILY,
                        help="case family (default %(default)s): "
                             + "; ".join(f"{name} = {entry.summary}"
                                         for name, entry
                                         in FUZZ_FAMILIES.items()))
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="worker processes for the fast-path fan-out "
                             "(at least 1)")
    parser.add_argument("--smoke", action="store_true",
                        help=f"CI budget: seed {SMOKE_SEED}, "
                             f"{SMOKE_CASES} cases, strict")
    parser.add_argument("--out", metavar="PATH",
                        help="write the canonical campaign JSON here")
    parser.add_argument("--artifacts", metavar="DIR",
                        help="write shrunk replay artifacts into DIR")
    parser.add_argument("--shrink-budget", type=int, default=200,
                        metavar="N",
                        help="max oracle calls per shrink (default 200; "
                             "0 records failures unshrunk)")
    parser.add_argument("--dry-run", action="store_true",
                        help="list the generated cases without running")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the summary lines")
    parser.add_argument("--replay", metavar="PATH",
                        help="re-run one replay artifact instead of "
                             "fuzzing")
    parser.add_argument("--expect", choices=("violation", "clean"),
                        default="violation",
                        help="replay expectation (default: the recorded "
                             "violation reproduces)")
    return parser


def _run_replay(args: argparse.Namespace) -> int:
    try:
        artifact = ReplayArtifact.load(args.replay)
    except (OSError, ValueError, KeyError, CaptureError) as exc:
        print(f"bad replay artifact: {exc}", file=sys.stderr)
        return 2
    outcome = replay(artifact)
    if not args.quiet:
        print(f"replaying {args.replay}: case seed "
              f"{artifact.case.seed}, recorded "
              f"violations {artifact.signature}")
        print(outcome.describe())
    if args.expect == "violation":
        return 0 if outcome.reproduced else 1
    return 0 if outcome.outcome.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.replay:
        return _run_replay(args)
    if args.smoke:
        if args.seed is not None or args.cases is not None:
            parser.error("--smoke fixes the seed and case budget; "
                         "drop --seed/--cases (or drop --smoke)")
        args.seed = SMOKE_SEED
        args.cases = SMOKE_CASES
    args.seed = 0 if args.seed is None else args.seed
    args.cases = 50 if args.cases is None else args.cases
    # a strict campaign that ran nothing would pass vacuously, and a
    # negative shrink budget would silently act as 0.
    for flag, least in (("cases", 1), ("workers", 1), ("shrink_budget", 0)):
        if getattr(args, flag) < least:
            parser.error(f"--{flag.replace('_', '-')} must be at least "
                         f"{least}, got {getattr(args, flag)}")

    if args.dry_run:
        for cell_id, case in campaign_cases(args.seed, args.cases,
                                            family=args.family):
            pinned = " ".join(f"{name}={value}"
                              for name, value in case.params.items())
            print(f"{cell_id}  seed={case.seed}  {pinned} "
                  f"events={len(case.timeline)}")
        if not args.quiet:
            print(f"{args.cases} cases from campaign seed {args.seed}")
        return 0

    result = run_campaign(args.seed, args.cases, workers=args.workers,
                          profile=DEFAULT_PROFILE,
                          artifacts_dir=args.artifacts,
                          shrink_budget=args.shrink_budget,
                          family=args.family)
    if args.out:
        result.write(args.out)
    if not args.quiet:
        ok = len(result.cells) - len(result.failures)
        print(f"{len(result.cells)} cases, {ok} ok, "
              f"{len(result.failures)} violations "
              f"[seed={result.campaign_seed}, workers={args.workers}, "
              f"wall={result.wall_seconds:.2f}s]")
        for failure in result.failures:
            shrunk = failure.shrink or {}
            print(f"  VIOLATION {failure.cell_id} seed={failure.seed} "
                  f"{failure.confirmed_signature} "
                  f"events {shrunk.get('events_before', '?')} -> "
                  f"{shrunk.get('events_after', '?')} "
                  f"({shrunk.get('oracle_calls', 0)} oracle calls)")
            if failure.error:
                print(f"    error: {failure.error}")
            if failure.artifact_name and args.artifacts:
                print(f"    artifact: {args.artifacts}/"
                      f"{failure.artifact_name}")
        if args.out:
            print(f"wrote {args.out}")
    return 0 if result.all_ok else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

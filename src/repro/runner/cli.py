"""Command-line sweep runner.

Usage::

    python -m repro.runner --smoke --workers 2 --out results.json
    python -m repro.runner --spec sweeps/theorem1.json --workers 8 --strict
    repro-sweep --smoke --dry-run          # (installed console script)

The JSON written to ``--out`` is canonical: byte-identical for the same
spec regardless of ``--workers`` (wall-clock and worker count are printed
to stdout only).  ``--strict`` exits non-zero unless every cell's ``ok``
verdict holds — the CI smoke gate.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .engine import run_sweep
from .spec import SweepSpec, expand, smoke_specs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runner",
        description="Parallel, deterministic experiment sweeps over the "
                    "paper's scenarios.")
    source = parser.add_argument_group("sweep source")
    source.add_argument("--spec", action="append", default=[],
                        metavar="PATH",
                        help="JSON sweep spec (object or list; repeatable)")
    source.add_argument("--smoke", action="store_true",
                        help="run the built-in CI smoke sweep "
                             "(SWSR + MWMR + Figure 1)")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="worker processes (default 1 = inline; at "
                             "least 1)")
    parser.add_argument("--out", metavar="PATH",
                        help="write the canonical sweep JSON here")
    parser.add_argument("--max-cells", type=int, default=None, metavar="N",
                        help="truncate the expansion after N cells (at "
                             "least 1)")
    parser.add_argument("--table", action="store_true",
                        help="print the per-cell claims matrix")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero unless every cell is ok")
    parser.add_argument("--dry-run", action="store_true",
                        help="list the cells without running them")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the summary lines")
    return parser


def _load_specs(args: argparse.Namespace) -> List[SweepSpec]:
    specs: List[SweepSpec] = []
    if args.smoke:
        specs.extend(smoke_specs())
    for path in args.spec:
        specs.extend(SweepSpec.load(path))
    return specs


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # a negative budget would slice cells off the end, a zero one would
    # make --strict pass on nothing.
    for flag, value in (("workers", args.workers),
                        ("max-cells", args.max_cells)):
        if value is not None and value < 1:
            parser.error(f"--{flag} must be at least 1, got {value}")
    try:
        specs = _load_specs(args)
    except (OSError, ValueError, KeyError) as exc:
        # unreadable file, malformed JSON, unknown scenario, missing field
        print(f"bad sweep spec: {exc}", file=sys.stderr)
        return 2
    if not specs:
        print("nothing to run: pass --spec PATH and/or --smoke",
              file=sys.stderr)
        return 2

    try:
        if args.dry_run:
            cells = expand(specs)
            if args.max_cells is not None:
                cells = cells[:args.max_cells]
            for cell in cells:
                print(f"{cell.cell_id}  seed={cell.seed}  {cell.params}")
            if not args.quiet:
                print(f"{len(cells)} cells from {len(specs)} spec(s)")
            return 0
        sweep = run_sweep(specs, workers=args.workers,
                          max_cells=args.max_cells)
    except ValueError as exc:   # e.g. duplicate cell ids across specs
        print(f"bad sweep spec: {exc}", file=sys.stderr)
        return 2

    if args.out:
        sweep.write(args.out)
    if args.table:
        print(sweep.render_tables())
    if not args.quiet:
        ok = len(sweep.cells) - len(sweep.not_ok())
        print(f"{len(sweep.cells)} cells, {ok} ok, "
              f"{len(sweep.failures())} errors "
              f"[workers={args.workers}, "
              f"wall={sweep.wall_seconds:.2f}s]")
        for cell in sweep.not_ok():
            reason = "error" if cell.error is not None else \
                "verdict" if cell.completed else "incomplete"
            print(f"  NOT OK ({reason}): {cell.cell_id} "
                  f"verdicts={cell.verdicts}")
            if cell.error is not None:
                print("    " + cell.error.splitlines()[0])
        if args.out:
            print(f"wrote {args.out}")

    if sweep.failures():
        return 1
    if args.strict and not sweep.all_ok:
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

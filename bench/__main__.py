"""``python -m bench``: the one command that runs the benchmark.

Forms (``PYTHONPATH`` need not be set; ``src/`` is found next to this
package):

* ``python -m bench [--seed N] [--quick] [--traced] [--out FILE]`` — every
  workload, each in a fresh process, checked, every metric printed by name
  with its unit;
* ``python -m bench --workload W --seed N --seconds S --trace 0|1`` — one
  workload in this process, result as one JSON object on the last line
  (the form the benchmark contract in ``BENCHMARK.json`` drives);
* ``python -m bench compare A.json B.json`` — two ``--out`` files, row by
  row against the bounds;
* ``python -m bench pin`` — rewrite ``bench/expected.json``.
"""

import time

_STARTED = time.perf_counter()      # set-up time counts from here

import argparse    # noqa: E402
import sys         # noqa: E402
from pathlib import Path    # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no program to measure ({ROOT / 'src' / 'repro'} "
              "is missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from . import cli
    if sys.argv[1:2] == ["compare"]:
        from .compare import main as compare
        return compare(sys.argv[2:])
    if sys.argv[1:] == ["pin"]:
        return cli.pin()
    parser = argparse.ArgumentParser(prog="python -m bench",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(cli.WORKLOADS))
    parser.add_argument("--seed", type=int, default=cli.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one segment per workload, reduced rungs; "
                             "numbers are not comparable")
    parser.add_argument("--traced", action="store_true",
                        help="also make the traced run of each workload")
    parser.add_argument("--out", help="write the whole result set as JSON")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.workload is None:
        return cli.suite(args)
    return cli.one_workload(args, _STARTED)


if __name__ == "__main__":
    sys.exit(main())

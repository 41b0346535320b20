"""Parallel experiment-sweep runner.

The paper's claims are statements over *families* of executions; this
package turns one-at-a-time scenario calls into declarative, parallel,
deterministic sweeps:

* :class:`~repro.runner.spec.SweepSpec` — a parameter grid over one
  scenario family of the registry (``run_scenario("swsr", ...)``, ...) or
  ``run_figure1``, with deterministic per-cell seed derivation;
* :func:`~repro.runner.engine.run_sweep` — fans the cells out over
  :func:`~repro.runner.engine.map_in_order`, the one process pool (the
  shard-parallel ``kv``/``soak`` paths run on it too); results are
  bit-identical regardless of worker count or completion order;
* :class:`~repro.runner.results.CellResult` — the compact, picklable
  per-cell record (verdicts / counters / sim-timings) built from the
  ``ScenarioResult.summarize()`` boundary;
* ``python -m repro.runner`` — the CLI (see :mod:`repro.runner.cli`).

Quickstart::

    from repro.runner import SweepSpec, run_sweep

    spec = SweepSpec(name="demo", scenario="swsr",
                     base={"n": 9, "t": 1, "num_writes": 3, "num_reads": 3},
                     grid={"kind": ["regular", "atomic"]},
                     seeds=[0, 1, 2])
    sweep = run_sweep(spec, workers=4)
    print(sweep.render_tables())
"""

from .engine import SweepResult, execute_cell, run_sweep
from .results import CellResult, results_to_json
from .spec import Cell, SweepSpec, derive_seed, smoke_specs

__all__ = [
    "Cell", "CellResult", "SweepResult", "SweepSpec", "derive_seed",
    "execute_cell", "results_to_json", "run_sweep", "smoke_specs",
]

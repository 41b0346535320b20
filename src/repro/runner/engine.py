"""The fan-out engine: cells → worker pool → deterministic results.

Each cell is an independent pure function of its parameters (the simulator
is fully seeded), so parallel execution cannot perturb results — the
engine only has to keep the *presentation* canonical: results are sorted
by cell id and serialized with sorted keys, making the output of
``--workers 1`` and ``--workers 8`` byte-identical.

Failure containment: a cell that raises returns a ``CellResult`` with the
exception recorded in ``error`` — one pathological parameter combination
cannot take down a thousand-cell sweep.  Simulation-budget exhaustion
inside a scenario (``Scheduler.run_until`` raising
``SimulationLimitReached``) is *data*, not an error: it surfaces as
``completed=False`` (the bound-tightness experiments rely on exactly
that).
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Union

from .adapters import ADAPTERS
from .results import CellResult, results_to_json
from .spec import Cell, SweepSpec, expand


def execute_cell(cell: Cell) -> CellResult:
    """Run one cell to a :class:`CellResult` (the worker entry point)."""
    started = time.perf_counter()
    try:
        adapter = ADAPTERS[cell.scenario]
        verdicts, counters, timings, digest = adapter(dict(cell.params))
        return CellResult(cell_id=cell.cell_id, scenario=cell.scenario,
                          params=cell.params, seed=cell.seed,
                          verdicts=verdicts, counters=counters,
                          timings=timings, history_digest=digest,
                          wall_seconds=time.perf_counter() - started)
    except Exception as exc:  # noqa: BLE001 - cells must not kill the sweep
        # type and message only: a traceback carries the checkout's paths
        # and line numbers, which the canonical sweep JSON must not
        return CellResult(cell_id=cell.cell_id, scenario=cell.scenario,
                          params=cell.params, seed=cell.seed,
                          verdicts={"completed": False, "ok": False},
                          error=f"{type(exc).__name__}: {exc}",
                          wall_seconds=time.perf_counter() - started)


@dataclass
class SweepResult:
    """All cells of a sweep, in canonical order."""

    specs: List[SweepSpec]
    cells: List[CellResult]
    workers: int = 1
    wall_seconds: float = 0.0

    # -- queries -----------------------------------------------------------
    def failures(self) -> List[CellResult]:
        """Cells that raised (distinct from legitimate ``completed=False``)."""
        return [cell for cell in self.cells if cell.error is not None]

    def not_ok(self) -> List[CellResult]:
        return [cell for cell in self.cells if not cell.ok]

    @property
    def all_ok(self) -> bool:
        return not self.not_ok()

    def by_scenario(self) -> Dict[str, List[CellResult]]:
        grouped: Dict[str, List[CellResult]] = {}
        for cell in self.cells:
            grouped.setdefault(cell.scenario, []).append(cell)
        return grouped

    # -- serialization -----------------------------------------------------
    def to_json(self) -> str:
        """Canonical sweep document: specs + cells + aggregate.

        Deliberately excludes worker count and wall-clock time so the
        rendering is bit-identical however the sweep was parallelized.
        """
        from .aggregate import aggregate
        import json
        document = {
            "specs": [spec.to_dict() for spec in self.specs],
            "cells": [cell.to_dict()
                      for cell in sorted(self.cells,
                                         key=lambda cell: cell.cell_id)],
            "aggregate": aggregate(self.cells),
        }
        return json.dumps(document, sort_keys=True, indent=2)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")

    def render_tables(self) -> str:
        from .aggregate import render_report
        return render_report(self)

    def results_json(self) -> str:
        """Cells only (no specs/aggregate wrapper)."""
        return results_to_json(self.cells)


def run_sweep(specs: Union[SweepSpec, Iterable[SweepSpec]],
              workers: int = 1,
              max_cells: Optional[int] = None) -> SweepResult:
    """Expand ``specs`` and run every cell, fanning out over processes.

    ``workers == 1`` runs inline (no pool, easiest to debug); ``workers >
    1`` uses a ``ProcessPoolExecutor``.  Either way the result list is
    sorted by cell id, so downstream output does not depend on the
    execution schedule.  ``max_cells`` truncates the expansion (smoke/CI
    budget guard); truncation is visible in the returned spec list count
    vs cell count, and the CLI reports it.  Either count below 1 raises
    :class:`ValueError`.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if max_cells is not None and max_cells < 1:
        raise ValueError(f"max_cells must be at least 1, got {max_cells}")
    if isinstance(specs, SweepSpec):
        specs = [specs]
    specs = list(specs)
    cells = expand(specs)
    if max_cells is not None:
        cells = cells[:max_cells]
    started = time.perf_counter()
    if workers == 1 or len(cells) <= 1:
        results = [execute_cell(cell) for cell in cells]
    else:
        with ProcessPoolExecutor(max_workers=min(workers,
                                                 len(cells))) as pool:
            results = list(pool.map(execute_cell, cells))
    results.sort(key=lambda result: result.cell_id)
    return SweepResult(specs=specs, cells=results, workers=workers,
                       wall_seconds=time.perf_counter() - started)

"""Scenario adapters: cell parameters in, picklable result sections out.

Every registry family runs through :func:`run_cell`, which judges the
run with :func:`~repro.workloads.verdict.judge` — the one place that
decides whether the paper's promise held — and reduces it to plain
sections (the result never crosses a process boundary):

* ``verdicts`` — ``completed``, the verdict's named flags and ``ok``
  (*the paper-expected outcome for this cell held*; e.g. a Figure-1 cell
  against the regular register is ``ok`` when the inversion **does**
  appear);
* ``counters`` / ``timings`` — deterministic counts and simulated-time
  instants.

``figure1`` (runner-only, hand-rolled) and ``fuzz`` (a generated case,
judged by the fuzz harness) keep their own adapters.  :data:`ADAPTERS`
is the list of names a sweep spec accepts; keep the sections picklable
(plain scalars only) so cells stay shippable across worker processes.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Tuple

from ..experiments.figure1 import run_figure1
from ..workloads.spec import FAMILIES, IO_OPTIONS, ScenarioSpec
from ..workloads.verdict import judge

Sections = Tuple[Dict[str, bool], Dict[str, int], Dict[str, float], str]


def run_cell(family: str, params: Dict[str, Any]) -> Sections:
    """Scenario-family cell: ``ok`` = the family's promise held — the
    :func:`~repro.workloads.verdict.judge` of the run, rendered as
    ``completed``, its named flags and ``ok``.  The spec-level I/O
    options a cell may carry alongside its params (capture/metrics, see
    ``repro.capture``) are popped off before validation."""
    params = dict(params)
    io = {key: params.pop(key) for key in IO_OPTIONS if key in params}
    verdict = judge(family, ScenarioSpec(family, params, **io).run())
    verdicts = {"completed": verdict.completed, **verdict.flags,
                "ok": verdict.ok}
    return (verdicts, verdict.counters, verdict.timings,
            verdict.history_digest)


def run_fuzz_cell(params: Dict[str, Any]) -> Sections:
    """Generated-case cell (``repro.fuzz``): ``ok`` = no violations.

    ``params["seed"]`` is the hash-derived replicate seed the campaign
    spec produced; the case itself is regenerated from it inside the
    worker (cases never cross the process boundary).  Runs on the
    NullTrace fast path; the campaign re-checks suspicious cells under
    FullTrace in the parent process.
    """
    # lazy import: repro.fuzz.campaign imports the runner engine, which
    # imports this module — binding at call time keeps the cycle open.
    from ..fuzz.families import DEFAULT_FAMILY
    from ..fuzz.gen import FuzzProfile, generate_case
    from ..fuzz.harness import run_case

    case = generate_case(int(params["seed"]),
                         FuzzProfile.from_dict(params.get("profile")),
                         params.get("family", DEFAULT_FAMILY))
    outcome = run_case(case, backend="null")
    verdicts = {"completed": outcome.completed,
                "stable": bool(outcome.stable), "ok": outcome.ok}
    return (verdicts, outcome.counters, outcome.timings,
            outcome.history_digest)


def run_figure1_cell(params: Dict[str, Any]) -> Sections:
    """Figure-1 cell: the regular register must invert, the atomic must not."""
    summary = run_figure1(**params).summarize()
    inverted = summary["inverted"]
    expected = inverted if params.get("kind", "regular") == "regular" \
        else not inverted
    verdicts = {"completed": True, "inverted": inverted, "ok": expected}
    counters = {"inversions": summary["inversions"], "ops": summary["ops"]}
    return verdicts, counters, {}, summary["history_digest"]


ADAPTERS: Dict[str, Callable[[Dict[str, Any]], Sections]] = {
    **{family: partial(run_cell, family) for family in FAMILIES},
    "figure1": run_figure1_cell,
    "fuzz": run_fuzz_cell,
}

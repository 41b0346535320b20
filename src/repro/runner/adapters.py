"""Scenario adapters: cell parameters in, picklable result sections out.

Each adapter runs one family through :func:`run_family`, immediately
reduces the outcome through the ``summarize()`` boundary (the full
:class:`~repro.workloads.scenarios.ScenarioResult` never crosses a
process boundary) and normalizes three sections:

* ``verdicts`` — always includes ``completed`` and ``ok``, where ``ok``
  means *the paper-expected outcome for this cell held* (e.g. a Figure-1
  cell against the regular register is ``ok`` when the inversion **does**
  appear);
* ``counters`` / ``timings`` — deterministic counts and simulated-time
  instants.

Families that share a result shape share a judgement: one function for
the SWSR-shaped (stabilizing) families, one for the store-backed ones,
each extended per family through :data:`EXTRAS`.  Adding a scenario
family = one registry entry in ``repro.workloads.scenarios`` plus, here,
one :data:`ADAPTERS` line (and an :data:`EXTRAS` entry if it reports
more than its shape's shared sections); :data:`ADAPTERS` is also the
list of names a sweep spec accepts.  Keep the returned sections
picklable (plain scalars only) so cells stay shippable across worker
processes.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Tuple

from ..checkers.atomicity import check_linearizable
from ..experiments.figure1 import run_figure1
from ..workloads.spec import IO_OPTIONS, ScenarioSpec

Sections = Tuple[Dict[str, bool], Dict[str, int], Dict[str, float], str]


def run_family(family: str, params: Dict[str, Any]) -> Any:
    """Run one family from cell params; the spec-level I/O options a
    sweep cell may carry alongside them (capture/metrics, see
    ``repro.capture``) are popped off before validation."""
    params = dict(params)
    io = {key: params.pop(key) for key in IO_OPTIONS if key in params}
    return ScenarioSpec(family, params, **io).run()


def timings_from(summary) -> Dict[str, float]:
    timings = {"sim_end": summary.sim_end, "tau_no_tr": summary.tau_no_tr}
    for name in ("tau_1w", "tau_stab", "stabilization_time"):
        value = getattr(summary, name)
        if value is not None:
            timings[name] = float(value)
    return timings


def counters_from(summary) -> Dict[str, int]:
    counters = {
        "corruptions": summary.corruptions,
        "events_processed": summary.events_processed,
        "messages_sent": summary.messages_sent,
        "ops": summary.ops,
        "reads": summary.reads,
        "writes": summary.writes,
    }
    if summary.dirty_reads is not None:
        counters["dirty_reads"] = summary.dirty_reads
    return counters


def _partition_extras(result, verdicts, counters, timings) -> None:
    """Partition cells also report dropped-message counts."""
    counters["messages_dropped"] = result.cluster.network.messages_dropped


def _soak_extras(result, verdicts, counters, timings) -> None:
    """Soak cells are additionally ``ok`` only while the bounded-window
    checkers stayed exact (no window overran)."""
    verdicts["exact"] = bool(result.extra["tracker"].exact)
    verdicts["ok"] = verdicts["ok"] and verdicts["exact"]


def _reshard_extras(result, verdicts, counters, timings) -> None:
    """Reshard cells are additionally ``ok`` only if every migration
    epoch re-stabilizes (its aggregated τ exists); they report the
    rebalance counters and per-epoch τ instants."""
    epochs = result.epoch_taus
    verdicts["stable"] = all(entry["tau"] is not None for entry in epochs)
    verdicts["ok"] = verdicts["ok"] and verdicts["stable"]
    counters["rebalances"] = len(result.rebalances)
    counters["keys_moved"] = sum(len(report.moved_keys)
                                 for report in result.rebalances)
    counters["keys_transferred"] = sum(len(report.transferred)
                                       for report in result.rebalances)
    for index, entry in enumerate(epochs):
        if entry["tau"] is not None:
            timings[f"epoch{index}_tau"] = float(entry["tau"])


#: per-family additions to the shared judgement of the family's shape:
#: ``extras(result, verdicts, counters, timings)`` mutates the sections.
EXTRAS: Dict[str, Callable[..., None]] = {
    "partition": _partition_extras,
    "soak": _soak_extras,
    "reshard": _reshard_extras,
}


def _sections(family: str, result, summary, verdicts, counters) -> Sections:
    timings = timings_from(summary)
    if family in EXTRAS:
        EXTRAS[family](result, verdicts, counters, timings)
    return verdicts, counters, timings, summary.history_digest


def run_stabilizing_cell(family: str, params: Dict[str, Any]) -> Sections:
    """SWSR-shaped cell (``swsr`` regular/atomic/synchronous,
    ``partition``, ``mobile-byz``, ``soak``): ``ok`` = terminates +
    stabilizes.

    Atomic cells additionally count (and must not show) new/old inversions
    after the declared τ — Theorem 3's headline; regular cells report the
    count as a fact only (regularity legally allows inversions, Figure 1's
    point; so are pre-τ inversions during a rotation window).  The
    initial value participates as virtual write #-1, matching the
    stabilization report's judgement (see checkers.atomicity).  Every
    verdict and counter is read off the run's observation stream (the
    online detector saw every completed operation) — a soak cell retains
    no history at all, which is the point of that family.
    """
    result = run_family(family, params)
    inversions = result.inversions_after(result.tau_no_tr)
    summary = result.summarize()
    stable = summary.stable
    ok = summary.completed and (stable is None or bool(stable))
    if params.get("kind", "regular") == "atomic":
        ok = ok and inversions == 0
    verdicts = {"completed": summary.completed, "stable": bool(stable),
                "ok": ok}
    counters = counters_from(summary)
    counters["new_old_inversions"] = inversions
    return _sections(family, result, summary, verdicts, counters)


def run_store_cell(family: str, params: Dict[str, Any]) -> Sections:
    """Store-backed cell (``kv``, ``reshard``): ``ok`` = terminates +
    every key's post-τ history linearizes (each key judged against its
    own shard's τ, straight across every handoff)."""
    result = run_family(family, params)
    summary = result.summarize()
    linearizable = bool(summary.completed and result.linearizable)
    verdicts = {"completed": summary.completed,
                "linearizable": linearizable,
                "ok": summary.completed and linearizable}
    counters = counters_from(summary)
    counters["shards"] = result.store.shard_count
    counters["keys"] = len(result.per_key_linearizable)
    return _sections(family, result, summary, verdicts, counters)


def run_mwmr_cell(params: Dict[str, Any]) -> Sections:
    """MWMR cell: ``ok`` = terminates + the history linearizes."""
    result = run_family("mwmr", params)
    linearizable = bool(result.completed
                        and check_linearizable(result.history).ok)
    summary = result.summarize()
    verdicts = {"completed": summary.completed,
                "linearizable": linearizable,
                "ok": summary.completed and linearizable}
    return (verdicts, counters_from(summary), timings_from(summary),
            summary.history_digest)


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
    verdicts = {
        "completed": outcome.completed,
        "stable": bool(outcome.stable),
        "ok": outcome.ok,
    }
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
    "swsr": partial(run_stabilizing_cell, "swsr"),
    "mwmr": run_mwmr_cell,
    "figure1": run_figure1_cell,
    "partition": partial(run_stabilizing_cell, "partition"),
    "mobile-byz": partial(run_stabilizing_cell, "mobile-byz"),
    "soak": partial(run_stabilizing_cell, "soak"),
    "fuzz": run_fuzz_cell,
    "kv": partial(run_store_cell, "kv"),
    "reshard": partial(run_store_cell, "reshard"),
}

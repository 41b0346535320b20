"""Case execution: fast-path verdicts, full-trace confirmation, checkers.

The campaign runs every case on the NullTrace fast path (PR 2: constant-
cost ``tick``, nothing retained) and computes only the cheap verdict:
*completed and eventually consistent* — read straight off the scenario's
observation stream (the online τ-tracker answers the harness's adversary
cut-off without any history rescan).  Suspicious cases are re-run under
``FullTrace`` — executions are byte-identical across backends, which the
re-run asserts via the history digest — and only then are the retained
histories fed through the offline regularity/atomicity checkers to
extract the concrete violating reads for the replay artifact.

Test-only violation injection
-----------------------------
``REPRO_FUZZ_INJECT=<event-kind>`` makes every case whose timeline
contains an event of that kind report a synthetic
``injected:<event-kind>`` violation.  It exists so the shrinker and the
replay pipeline can be exercised end-to-end (CI acceptance: an injected
violation must shrink to an artifact that reproduces under ``--replay``)
without planting a real bug.  The hook reads the environment at *check*
time, so worker processes inherit it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..checkers.atomicity import find_new_old_inversions
from ..checkers.regularity import check_regularity
from ..runner.adapters import counters_from
from ..workloads.spec import run_scenario
from .gen import INITIAL, FuzzCase, KVFuzzCase, ReshardFuzzCase

#: environment variable enabling the test-only injection hook.
INJECT_ENV = "REPRO_FUZZ_INJECT"


@dataclass
class CaseOutcome:
    """Everything one execution of a case yields (plain data only)."""

    case: FuzzCase
    backend: str
    completed: bool
    stable: Optional[bool]
    ok: bool
    violations: List[Dict[str, Any]] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)
    history_digest: str = ""

    @property
    def signature(self) -> Tuple[str, ...]:
        """Sorted distinct violation kinds — the shrinker's 'same failure'."""
        return tuple(sorted({entry["kind"] for entry in self.violations}))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "backend": self.backend,
            "completed": self.completed,
            "counters": dict(sorted(self.counters.items())),
            "history_digest": self.history_digest,
            "ok": self.ok,
            "stable": self.stable,
            "timings": dict(sorted(self.timings.items())),
            "violations": self.violations,
        }


def _injected_violations(case: FuzzCase) -> List[Dict[str, Any]]:
    kind = os.environ.get(INJECT_ENV)
    if not kind:
        return []
    hits = [event for event in case.timeline if event["kind"] == kind]
    if not hits:
        return []
    return [{"kind": f"injected:{kind}",
             "detail": f"timeline contains {len(hits)} {kind!r} event(s) "
                       f"and {INJECT_ENV} is set"}]


def _violation_details(history, case: FuzzCase, tau: float
                       ) -> List[Dict[str, Any]]:
    """Concrete violating reads after ``tau`` (full-check path only)."""
    details: List[Dict[str, Any]] = []
    for violation in check_regularity(history, after=tau, initial=INITIAL):
        details.append({
            "kind": "regularity",
            "detail": f"read {violation.returned!r} at "
                      f"[{violation.read.invoke:.3f}, "
                      f"{violation.read.response:.3f}] not in allowed set",
        })
    if case.kind == "atomic":
        for inversion in find_new_old_inversions(history, after=tau,
                                                 initial=INITIAL):
            details.append({
                "kind": "new-old-inversion",
                "detail": f"read w#{inversion.first_write_index} then "
                          f"w#{inversion.second_write_index} "
                          f"(invoked {inversion.first.invoke:.3f} / "
                          f"{inversion.second.invoke:.3f})",
            })
    return details


def _contained(family: str, case, backend: str):
    """Run ``case`` through its family; a raising scenario is *contained*
    as an ``error:<Type>`` outcome (returned in place of the result) so
    cases cannot kill campaigns and shrinking works uniformly on crashes
    too."""
    try:
        return run_scenario(family, trace_backend=backend,
                            **case.scenario_kwargs())
    except Exception as exc:  # noqa: BLE001 - cases must not kill campaigns
        return CaseOutcome(
            case=case, backend=backend, completed=False, stable=None,
            ok=False,
            violations=[{"kind": f"error:{type(exc).__name__}",
                         "detail": str(exc)}])


def _outcome(case, backend: str, result, stable: Optional[bool],
             violations: List[Dict[str, Any]], counters: Dict[str, int],
             timings: Dict[str, float]) -> CaseOutcome:
    """Outcome assembly shared by every case family: the family's
    ``violations`` (or ``incomplete`` when the run starved) plus injected
    ones; its ``counters``/``timings`` on top of the summary's."""
    if not result.completed:
        violations = [{
            "kind": "incomplete",
            "detail": "operations did not terminate within "
                      f"max_events={case.max_events}"}]
    violations = violations + _injected_violations(case)
    summary = result.summarize()
    counters = {**counters_from(summary),
                "timeline_events": len(case.timeline), **counters}
    timings = {"sim_end": summary.sim_end, "tau_no_tr": result.tau_no_tr,
               **timings}
    return CaseOutcome(
        case=case, backend=backend, completed=result.completed,
        stable=stable, ok=not violations, violations=violations,
        counters=counters, timings=timings,
        history_digest=summary.history_digest)


def _run_store_case(case, backend: str, detail: bool) -> CaseOutcome:
    """Execute a kv- or reshard-family case.

    Verdict = per-key post-τ linearizability (straight across every
    handoff), **plus**, for a resharding run, per-migration-epoch
    stabilization: every applied rebalance must reach an aggregated
    epoch τ (``epoch-unstable`` otherwise — some key's reads never went
    clean again after the ownership change).  ``detail=True`` (the
    FullTrace confirmation pass) additionally lists the failing key's
    concrete operations — post-τ on its shard, or all of them when
    handoffs moved it between shards — so store replay artifacts are as
    triagable as SWSR ones.
    """
    reshard = isinstance(case, ReshardFuzzCase)
    result = _contained("reshard" if reshard else "kv", case, backend)
    if isinstance(result, CaseOutcome):
        return result
    violations: List[Dict[str, Any]] = []
    for key in sorted(result.per_key_linearizable):
        if result.per_key_linearizable[key]:
            continue
        shard = result.store.shard_for(key)
        entry = (f"key {key!r} (shard {shard}) post-tau history does not "
                 "linearize" + (" across the handoffs" if reshard else ""))
        if detail:
            cutoff = (float("-inf") if reshard
                      else result.tau_by_shard[shard])
            ops = [repr(op) for op in sorted(
                result.history.ops,
                key=lambda op: (op.invoke, op.response))
                if op.register == f"kv/{key}" and op.invoke >= cutoff]
            entry += "; ops: " + " | ".join(ops)
        violations.append({"kind": "kv-linearizability", "detail": entry})
    counters = {"shards": result.store.shard_count}
    if reshard:
        violations.extend(
            {"kind": "epoch-unstable",
             "detail": f"migration epoch {entry['label']} "
                       f"(start {entry['start']:.3f}) never re-stabilized"}
            for entry in result.epoch_taus if entry["tau"] is None)
        counters["rebalances"] = len(result.rebalances)
        counters["keys_transferred"] = sum(
            len(report.transferred) for report in result.rebalances)
    stable = result.completed and result.linearizable   # = summary.stable
    return _outcome(case, backend, result, stable, violations, counters, {})


def run_case(case, backend: str = "null",
             detail: bool = False) -> CaseOutcome:
    """Execute ``case`` on the given trace backend and judge it.

    Dispatches on the case family (:class:`FuzzCase` → SWSR scenario,
    :class:`KVFuzzCase` / :class:`ReshardFuzzCase` → store-backed
    scenario).  ``detail=True`` (the FullTrace confirmation pass)
    additionally lists the concrete violating reads; the fast path only
    needs the boolean verdict.
    """
    if isinstance(case, (KVFuzzCase, ReshardFuzzCase)):
        return _run_store_case(case, backend, detail)
    result = _contained("swsr", case, backend)
    if isinstance(result, CaseOutcome):
        return result
    timeline = case.fault_timeline()
    # judge stabilization from the last adversary action of any kind:
    # rotations may straddle the workload, and the construction only owes
    # consistency on the suffix after the Byzantine set stops moving.
    tau = max(result.tau_no_tr, timeline.last_event_time)
    mode = "atomic" if case.kind == "atomic" else "regular"
    report = None
    if result.completed and result.history.reads():
        # the scenario's online tracker answers any cut-off without a
        # rescan of the history.
        if result.report is not None and tau == result.tau_no_tr:
            report = result.report
        else:
            report = result.stream_report(tau)
    stable = report.stable if report else None

    violations: List[Dict[str, Any]] = []
    if result.completed and stable is False:
        if detail:
            violations.extend(_violation_details(result.history, case, tau))
        if not violations:
            violations.append({
                "kind": "unstable",
                "detail": f"no suffix after tau={tau} satisfies {mode}"})
    timings = {"tau_adversary": tau}
    if report and report.tau_stab is not None:
        timings["tau_stab"] = report.tau_stab
    outcome = _outcome(case, backend, result, stable, violations, {},
                       timings)
    # summary.dirty_reads is judged against the scenario's own τ, not
    # this harness's tau (which also covers rotations) — reporting it
    # here would mix two τ bases.
    outcome.counters.pop("dirty_reads", None)
    return outcome


def confirm_case(case,
                 fast: Optional[CaseOutcome] = None) -> CaseOutcome:
    """FullTrace re-run of a suspicious case, with violation details.

    Asserts the backend-independence invariant when the fast outcome is
    available: the history digest must not depend on the trace backend.
    """
    full = run_case(case, backend="full", detail=True)
    if (fast is not None and fast.history_digest and full.history_digest
            and fast.history_digest != full.history_digest):
        full.violations.append({
            "kind": "backend-divergence",
            "detail": f"null-trace digest {fast.history_digest} != "
                      f"full-trace digest {full.history_digest}"})
        full.ok = False
    return full

"""Case execution: fast-path verdicts, full-trace confirmation.

The campaign runs every case on the NullTrace fast path (constant-cost
``tick``, nothing retained) and asks :func:`~repro.workloads.verdict
.judge` — the one judge the sweep runner uses too — only for the cheap
verdict: *completed and eventually consistent* — read straight off the
scenario's observation stream (the online τ-tracker answers the
adversary cut-off without any history rescan).  Suspicious cases are
re-run under ``FullTrace`` — executions are byte-identical across
backends, which the re-run asserts via the history digest — and only
then does the judge feed the retained histories through the offline
checkers to extract the concrete violating operations for the replay
artifact.

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
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..workloads.spec import run_scenario
from ..workloads.verdict import Verdict, judge
from .gen import FuzzCase

#: environment variable enabling the test-only injection hook.
INJECT_ENV = "REPRO_FUZZ_INJECT"


@dataclass
class CaseOutcome(Verdict):
    """One execution of a case: the run's :class:`~repro.workloads
    .verdict.Verdict` (``ok`` = no violations), plus what ran."""

    case: Optional[FuzzCase] = None
    backend: str = "null"

    @property
    def signature(self) -> Tuple[str, ...]:
        """Sorted distinct violation kinds — the shrinker's 'same failure'."""
        return tuple(sorted({entry["kind"] for entry in self.violations}))

    def to_dict(self) -> Dict[str, Any]:
        return {name: getattr(self, name) for name in (
            "backend", "completed", "counters", "history_digest", "ok",
            "stable", "timings", "violations")}


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


def run_case(case: FuzzCase, backend: str = "null",
             detail: bool = False) -> CaseOutcome:
    """Execute ``case`` on the given trace backend and judge it with the
    sweep's :func:`~repro.workloads.verdict.judge`, from the adversary's
    last action on.  A raising scenario is *contained* as an
    ``error:<Type>`` outcome so cases cannot kill campaigns and
    shrinking works uniformly on crashes too.  ``detail=True`` (the
    FullTrace confirmation pass) also lists the concrete violating
    operations; the fast path only needs the boolean verdict.
    """
    try:
        result = run_scenario(case.family, trace_backend=backend,
                              **case.scenario_kwargs())
    except Exception as exc:  # noqa: BLE001 - cases must not kill campaigns
        return CaseOutcome(
            case=case, backend=backend, completed=False,
            violations=[{"kind": f"error:{type(exc).__name__}",
                         "detail": str(exc)}])
    # judge stabilization from the last adversary action of any kind:
    # rotations may straddle the workload, and the construction only owes
    # consistency on the suffix after the Byzantine set stops moving.
    tau = max(result.tau_no_tr, max(
        (float(event["time"]) for event in case.timeline), default=0.0))
    outcome = CaseOutcome(case=case, backend=backend, **vars(
        judge(case.family, result, after=tau, detail=detail)))
    outcome.violations += _injected_violations(case)
    outcome.counters["timeline_events"] = len(case.timeline)
    if outcome.after is not None:
        outcome.timings["tau_adversary"] = outcome.after
    return outcome


def confirm_case(case: FuzzCase,
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
    return full

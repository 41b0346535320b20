"""Case execution: fast-path verdicts, full-trace confirmation.

The campaign runs every case on the NullTrace fast path (PR 2: constant-
cost ``tick``, nothing retained) and asks the family's judge (its
:data:`~repro.fuzz.families.FUZZ_FAMILIES` entry) only for the cheap
verdict: *completed and eventually consistent* — read straight off the
scenario's observation stream (the online τ-tracker answers the judge's
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
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..runner.adapters import counters_from
from ..workloads.spec import run_scenario
from .families import FUZZ_FAMILIES
from .gen import FuzzCase

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


def run_case(case: FuzzCase, backend: str = "null",
             detail: bool = False) -> CaseOutcome:
    """Execute ``case`` on the given trace backend and judge it.

    The scenario family and the judge both come from the case's
    :data:`~repro.fuzz.families.FUZZ_FAMILIES` entry.  A raising scenario
    is *contained* as an ``error:<Type>`` outcome so cases cannot kill
    campaigns and shrinking works uniformly on crashes too.
    ``detail=True`` (the FullTrace confirmation pass) asks the judge to
    additionally list the concrete violating operations; the fast path
    only needs the boolean verdict.
    """
    try:
        result = run_scenario(case.family, trace_backend=backend,
                              **case.scenario_kwargs())
    except Exception as exc:  # noqa: BLE001 - cases must not kill campaigns
        return CaseOutcome(
            case=case, backend=backend, completed=False, stable=None,
            ok=False,
            violations=[{"kind": f"error:{type(exc).__name__}",
                         "detail": str(exc)}])
    stable, violations, counters, timings = \
        FUZZ_FAMILIES[case.family].judge(case, result, detail)
    if not result.completed:
        violations = [{
            "kind": "incomplete",
            "detail": "operations did not terminate within "
                      f"max_events={case.max_events}"}]
    violations = violations + _injected_violations(case)
    summary = result.summarize()
    counters = {**counters_from(summary),
                "timeline_events": len(case.timeline), **counters}
    # summary.dirty_reads is judged against the scenario's own τ, not the
    # judge's (which may also cover rotations) — reporting it here would
    # mix two τ bases.
    counters.pop("dirty_reads", None)
    return CaseOutcome(
        case=case, backend=backend, completed=result.completed,
        stable=stable, ok=not violations, violations=violations,
        counters=counters,
        timings={"sim_end": summary.sim_end, "tau_no_tr": result.tau_no_tr,
                 **timings},
        history_digest=summary.history_digest)


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
        full.ok = False
    return full

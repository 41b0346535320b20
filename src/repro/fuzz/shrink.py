"""Delta-debugging shrinker: minimal timelines, minimal parameters.

Given a failing :class:`~repro.fuzz.gen.FuzzCase`, the shrinker searches
for the smallest case that still fails *the same way* (same sorted set of
fast-path violation kinds).  Two alternating passes run to a fixpoint
under a deterministic oracle-call budget:

* **event pass** — classic ddmin over the fault timeline: try dropping
  chunks of events (halving granularity), then single events;
* **parameter pass** — the family's candidate ladder, read off its
  :data:`~repro.fuzz.families.FUZZ_FAMILIES` entry (for ``swsr``: fewer
  operations, the smallest resilient topology, no static Byzantine
  server, default reader offset, rounder event arguments), applied
  greedily.

Everything is a pure function of the input case, so shrinking is exactly
as reproducible as the cases themselves; outcomes are memoized on the
case's canonical JSON to keep the oracle-call count meaningful.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .families import FUZZ_FAMILIES, HALVE
from .gen import FuzzCase
from .harness import CaseOutcome, run_case

Oracle = Callable[[FuzzCase], CaseOutcome]


def default_oracle(case: FuzzCase) -> CaseOutcome:
    """Fast-path oracle (NullTrace, boolean verdict only)."""
    return run_case(case, backend="null")


@dataclass
class ShrinkResult:
    """The minimized case plus the bookkeeping the artifact records."""

    case: FuzzCase
    outcome: CaseOutcome
    signature: Tuple[str, ...]
    oracle_calls: int
    events_before: int
    events_after: int
    steps: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "events_after": self.events_after,
            "events_before": self.events_before,
            "oracle_calls": self.oracle_calls,
            "signature": list(self.signature),
            "steps": self.steps,
        }


class _Budget:
    """Counts oracle calls; memoizes outcomes by canonical case JSON."""

    def __init__(self, oracle: Oracle, limit: int):
        self.oracle = oracle
        self.limit = limit
        self.calls = 0
        self._memo: Dict[str, CaseOutcome] = {}

    def exhausted(self) -> bool:
        return self.calls >= self.limit

    def seed(self, case: FuzzCase, outcome: CaseOutcome) -> None:
        """Pre-populate the memo with an already-computed outcome."""
        self._memo[json.dumps(case.to_dict(), sort_keys=True)] = outcome

    def run(self, case: FuzzCase) -> Optional[CaseOutcome]:
        key = json.dumps(case.to_dict(), sort_keys=True)
        if key in self._memo:
            return self._memo[key]
        if self.exhausted():
            return None
        self.calls += 1
        outcome = self.oracle(case)
        self._memo[key] = outcome
        return outcome


def _still_fails(budget: _Budget, case: FuzzCase,
                 signature: Tuple[str, ...]) -> Optional[CaseOutcome]:
    """The candidate's outcome if it reproduces ``signature``, else None.

    A candidate reproducing a *superset* of the original violation kinds
    counts: dropping events must never be rejected because it exposed an
    additional symptom of the same failure.
    """
    outcome = budget.run(case)
    if outcome is None:
        return None
    if set(signature) <= set(outcome.signature):
        return outcome
    return None


def _ddmin_events(case: FuzzCase, signature: Tuple[str, ...],
                  budget: _Budget, steps: List[str]) -> FuzzCase:
    """Minimize ``case.timeline`` by ddmin (chunks, then granularity*2)."""
    events = list(case.timeline)
    chunk = max(1, len(events) // 2)
    while events and chunk >= 1:
        removed_any = False
        start = 0
        while start < len(events):
            candidate_events = events[:start] + events[start + chunk:]
            candidate = case.with_timeline(candidate_events)
            if _still_fails(budget, candidate, signature) is not None:
                steps.append(f"drop events [{start}:{start + chunk}] "
                             f"({len(events)} -> {len(candidate_events)})")
                events = candidate_events
                removed_any = True
                # same start index now names the next chunk
            else:
                start += chunk
            if budget.exhausted():
                return case.with_timeline(events)
        if not removed_any:
            if chunk == 1:
                break
            chunk = max(1, chunk // 2)
    return case.with_timeline(events)


def _parameter_candidates(case: FuzzCase) -> List[Tuple[str, FuzzCase]]:
    """Ordered single-parameter reductions to try (biggest wins first):
    the family's ladder, read off its
    :data:`~repro.fuzz.families.FUZZ_FAMILIES` entry top to bottom."""
    candidates: List[Tuple[str, FuzzCase]] = []
    for step in FUZZ_FAMILIES[case.family].ladder:
        if callable(step):
            candidates.extend(step(case))
            continue
        name, target = step
        value = case.param(name)
        if target is HALVE:
            targets = [half for half in (1, value // 2) if 1 <= half < value]
        else:
            targets = [] if value == target else [target]
        candidates.extend(
            (f"{name}={reduced}", case.with_params(**{name: reduced}))
            for reduced in targets)
    return candidates


def _shrink_parameters(case: FuzzCase, signature: Tuple[str, ...],
                       budget: _Budget, steps: List[str]) -> FuzzCase:
    progress = True
    while progress and not budget.exhausted():
        progress = False
        for label, candidate in _parameter_candidates(case):
            if _still_fails(budget, candidate, signature) is not None:
                steps.append(label)
                case = candidate
                progress = True
                break
    return case


def shrink_case(case: FuzzCase, oracle: Oracle = default_oracle,
                max_oracle_calls: int = 200,
                known_failure: Optional[CaseOutcome] = None) -> ShrinkResult:
    """Minimize a failing case; raises ``ValueError`` if it doesn't fail.

    ``known_failure`` seeds the memo with the caller's already-computed
    fast-path outcome of ``case``, saving one full simulation.
    """
    budget = _Budget(oracle, max_oracle_calls)
    if known_failure is not None:
        budget.seed(case, known_failure)
    original = budget.run(case)
    if original is None or original.ok:
        raise ValueError("shrink_case needs a failing case")
    signature = original.signature
    steps: List[str] = []
    best = case
    # alternate passes until neither makes progress (or budget runs dry).
    while not budget.exhausted():
        after_events = _ddmin_events(best, signature, budget, steps)
        after_params = _shrink_parameters(after_events, signature, budget,
                                          steps)
        if after_params == best:
            break
        best = after_params
    outcome = budget.run(best) or original
    return ShrinkResult(case=best, outcome=outcome, signature=signature,
                        oracle_calls=budget.calls,
                        events_before=len(case.timeline),
                        events_after=len(best.timeline), steps=steps)

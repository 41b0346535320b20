"""Fuzz campaigns: runner-powered fan-out, confirmation, shrinking.

A campaign is a :class:`~repro.runner.SweepSpec` over the ``fuzz``
scenario family: one replicate per case index, each cell's seed *derived*
through the runner's hash-based scheme (spec name + params + replicate —
``hashlib``, never ``hash()``), so the case list is a pure function of
``(campaign_seed, cases, profile)`` and byte-identical for any worker
count or Python version.

Phases:

1. **fan-out** — every case runs on the NullTrace fast path across the
   worker pool (``repro.runner.engine.run_sweep``);
2. **confirm** — suspicious cells re-run inline under FullTrace, history
   digest cross-checked against the fast path, violations detailed;
3. **shrink** — confirmed failures are delta-debugged to minimal cases
   and written as replay artifacts (see :mod:`repro.fuzz.replay`).

The campaign JSON (``FuzzCampaignResult.to_json``) excludes wall-clock
measurements, so ``--workers 1`` and ``--workers 4`` renderings are
byte-identical — the ``fuzz/*`` determinism contracts pin them.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..runner.engine import run_sweep
from ..runner.results import CellResult
from ..runner.spec import SweepSpec
from .families import (DEFAULT_FAMILY, DEFAULT_PROFILE, FuzzProfile,
                       fuzz_family)
from .gen import FuzzCase, generate_case
from .harness import confirm_case, run_case
from .replay import ReplayArtifact, current_inject_env
from .shrink import shrink_case


def spec_name(campaign_seed: int, family: str) -> str:
    """The campaign's sweep-spec name — one source of truth.

    The default family's name (and base) is frozen by the golden-seed
    tests; non-default families get their own namespace so their derived
    case seeds never collide with historical pins.
    """
    if family == DEFAULT_FAMILY:
        return f"fuzz-{campaign_seed}"
    return f"fuzz-{family}-{campaign_seed}"


def campaign_spec(campaign_seed: int, cases: int,
                  profile: FuzzProfile = DEFAULT_PROFILE,
                  family: str = DEFAULT_FAMILY) -> SweepSpec:
    """The sweep spec a campaign expands to (one replicate per case).

    The default family's spec (name *and* base parameters) is frozen by
    the golden-seed tests — the ``family`` key joins the base only for
    non-default families, so historical case seeds stay pinned.
    """
    fuzz_family(family)         # validate the family name
    base: Dict[str, Any] = {"profile": profile.to_dict()}
    if family != DEFAULT_FAMILY:
        base["family"] = family
    return SweepSpec(name=spec_name(campaign_seed, family),
                     scenario="fuzz", base=base,
                     grid={}, seeds=list(range(cases)))


def campaign_cases(campaign_seed: int, cases: int,
                   profile: FuzzProfile = DEFAULT_PROFILE,
                   family: str = DEFAULT_FAMILY
                   ) -> List[Tuple[str, FuzzCase]]:
    """(cell id, generated case) pairs, without running anything."""
    spec = campaign_spec(campaign_seed, cases, profile, family=family)
    return [(cell.cell_id, generate_case(cell.seed, profile, family))
            for cell in spec.cells()]


@dataclass
class CampaignFailure:
    """One confirmed (or crashed) case, after shrinking."""

    cell_id: str
    seed: int
    fast_signature: List[str]
    confirmed_signature: List[str]
    artifact_name: Optional[str]
    shrink: Dict[str, Any]
    shrunk_case: Dict[str, Any]
    #: worker/inline error summary when the failure was a crash rather
    #: than (or in addition to) an invariant violation.
    error: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "artifact_name": self.artifact_name,
            "cell_id": self.cell_id,
            "confirmed_signature": self.confirmed_signature,
            "error": self.error,
            "fast_signature": self.fast_signature,
            "seed": self.seed,
            "shrink": self.shrink,
            "shrunk_case": self.shrunk_case,
        }


@dataclass
class FuzzCampaignResult:
    """Everything a campaign produced, canonically serializable."""

    campaign_seed: int
    cases: int
    profile: FuzzProfile
    cells: List[CellResult]
    failures: List[CampaignFailure] = field(default_factory=list)
    workers: int = 1
    wall_seconds: float = 0.0
    family: str = DEFAULT_FAMILY

    @property
    def all_ok(self) -> bool:
        return not self.failures

    def to_json(self) -> str:
        import json
        document = {
            "campaign": {
                "cases": self.cases,
                "family": self.family,
                "profile": self.profile.to_dict(),
                "seed": self.campaign_seed,
                "spec_name": spec_name(self.campaign_seed, self.family),
            },
            "cells": [cell.to_dict()
                      for cell in sorted(self.cells,
                                         key=lambda cell: cell.cell_id)],
            "failures": [failure.to_dict() for failure in self.failures],
        }
        return json.dumps(document, sort_keys=True, indent=2)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")


def _artifact_name(cell_id: str) -> str:
    return "replay-" + cell_id.replace("/", "-") + ".json"


def _shrink_failure(cell: CellResult, case: FuzzCase, campaign_seed: int,
                    shrink_budget: int, artifacts_dir: Optional[str]
                    ) -> CampaignFailure:
    """Confirm one suspicious cell's (regenerated) case inline, shrink it,
    emit the artifact.

    The FullTrace confirmation of the *original* case is what
    ``confirmed_signature`` reports (including any ``backend-divergence``
    the digest cross-check appends); shrinking runs on the fast-path
    oracle, and the shrunk case gets its own FullTrace confirmation —
    again digest-cross-checked — for the artifact.
    """
    fast = run_case(case, backend="null")
    full = confirm_case(case, fast)
    if not fast.ok and shrink_budget >= 1:
        result = shrink_case(case, max_oracle_calls=shrink_budget,
                             known_failure=fast)
        shrunk_case, shrunk_fast = result.case, result.outcome
        shrink_info: Dict[str, Any] = result.to_dict()
        # reuse the confirmation in hand when shrinking made no progress
        final = (full if shrunk_case == case
                 else confirm_case(shrunk_case, shrunk_fast))
    else:
        # nothing to shrink: either the fast run is ok although the
        # sweep cell failed (a cell error the inline re-run did not
        # reproduce, or a full-trace-only issue), or shrinking is
        # disabled (budget < 1) — record unshrunk, reusing the
        # confirmation already in hand.
        shrunk_case, shrunk_fast, shrink_info = case, fast, {}
        final = full
    # final is authoritative: executions are backend-deterministic and
    # any digest mismatch already surfaces as a backend-divergence entry.
    violations = final.violations
    artifact_name: Optional[str] = None
    if violations and artifacts_dir is not None:
        artifact = ReplayArtifact(
            case=shrunk_case,
            violations=violations,
            original_case=case,
            shrink=shrink_info,
            outcome=final.to_dict(),
            campaign={"cell_id": cell.cell_id, "seed": campaign_seed},
            requires_env=current_inject_env())
        artifact_name = _artifact_name(cell.cell_id)
        os.makedirs(artifacts_dir, exist_ok=True)
        artifact.write(os.path.join(artifacts_dir, artifact_name))
    confirmed = list(full.signature or fast.signature)
    if not confirmed and cell.error:
        # the failure exists only in the worker (the inline re-run was
        # clean): surface it instead of an empty, unactionable record.
        confirmed = ["worker-error"]
    return CampaignFailure(
        cell_id=cell.cell_id, seed=cell.seed,
        fast_signature=list(fast.signature),
        confirmed_signature=confirmed,
        artifact_name=artifact_name,
        shrink=shrink_info, shrunk_case=shrunk_case.to_dict(),
        error=(cell.error.splitlines()[0] if cell.error else None))


def run_campaign(campaign_seed: int, cases: int, workers: int = 1,
                 profile: FuzzProfile = DEFAULT_PROFILE,
                 artifacts_dir: Optional[str] = None,
                 shrink_budget: int = 200,
                 family: str = DEFAULT_FAMILY) -> FuzzCampaignResult:
    """Run a full campaign: fan out, confirm, shrink, emit artifacts."""
    started = time.perf_counter()
    spec = campaign_spec(campaign_seed, cases, profile, family=family)
    sweep = run_sweep(spec, workers=workers)
    failures = []
    for cell in sweep.cells:
        if cell.ok:
            continue
        try:
            case = generate_case(cell.seed, profile, family)
            failures.append(_shrink_failure(cell, case, campaign_seed,
                                            shrink_budget, artifacts_dir))
        except Exception as exc:  # noqa: BLE001 - cells must not kill
            # the campaign: a generator/confirmation crash in the parent
            # still yields a failure record (and the other artifacts).
            failures.append(CampaignFailure(
                cell_id=cell.cell_id, seed=cell.seed, fast_signature=[],
                confirmed_signature=[f"error:{type(exc).__name__}"],
                artifact_name=None, shrink={}, shrunk_case={},
                error=f"{type(exc).__name__}: {exc}"))
    return FuzzCampaignResult(
        campaign_seed=campaign_seed, cases=cases, profile=profile,
        cells=sweep.cells, failures=failures, workers=workers,
        wall_seconds=time.perf_counter() - started, family=family)

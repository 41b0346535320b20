"""Deterministic scenario fuzzing with counterexample shrinking.

The fuzzer searches the space of fault timelines, topologies and workload
programs for executions that violate the paper's invariants (regularity /
atomicity / stabilization), then delta-debugs any violation down to a
minimal, replayable JSON artifact:

* :mod:`repro.fuzz.families` — the one :data:`FUZZ_FAMILIES` table: per
  family, its seeded sampler, judge and shrink ladder;
* :mod:`repro.fuzz.gen` — the one case type and the hash-seeded generator
  over the table (byte-reproducible);
* :mod:`repro.fuzz.harness` — NullTrace fast-path execution, FullTrace
  confirmation, checker integration;
* :mod:`repro.fuzz.shrink` — ddmin over timeline events + parameter
  ladders;
* :mod:`repro.fuzz.replay` — self-contained replay artifacts
  (``python -m repro.fuzz --replay FILE``);
* :mod:`repro.fuzz.campaign` — parallel fan-out through
  :mod:`repro.runner`.
"""

from .campaign import (FuzzCampaignResult, campaign_cases, campaign_spec,
                       run_campaign)
from .families import FUZZ_FAMILIES
from .gen import DEFAULT_PROFILE, FuzzCase, FuzzProfile, generate_case
from .harness import INJECT_ENV, CaseOutcome, confirm_case, run_case
from .replay import ReplayArtifact, ReplayOutcome, replay
from .shrink import ShrinkResult, shrink_case

__all__ = [
    "CaseOutcome", "DEFAULT_PROFILE", "FUZZ_FAMILIES", "FuzzCampaignResult",
    "FuzzCase", "FuzzProfile", "INJECT_ENV", "ReplayArtifact",
    "ReplayOutcome", "ShrinkResult", "campaign_cases", "campaign_spec",
    "confirm_case", "generate_case", "replay", "run_campaign", "run_case",
    "shrink_case",
]

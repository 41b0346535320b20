"""Replay artifacts: a shrunk counterexample as a self-contained file.

An artifact records the *shrunk* case (everything needed to re-run it),
the original case it was minimized from, the shrink bookkeeping, the
confirming FullTrace outcome, and — when the test-only injection hook was
active — the environment it needs to reproduce.  ``python -m repro.fuzz
--replay FILE`` loads one, re-runs the case and reports whether the
recorded violation kinds still reproduce.

Artifacts are one profile of the universal capture format (see
:mod:`repro.capture.format`): a ``"fuzz-replay"`` header carrying the
case, sealed by the checksum footer carrying the violations and shrink
bookkeeping.  The committed regression corpus under ``tests/replays/``
is in this format and replays via ``tests/test_fuzz_replay_fixtures.py``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from .gen import FuzzCase
from .harness import INJECT_ENV, CaseOutcome, confirm_case, run_case

#: Capture-format header profile artifacts are written under.
CAPTURE_PROFILE = "fuzz-replay"


@dataclass
class ReplayArtifact:
    """One shrunk, replayable counterexample."""

    case: FuzzCase
    violations: List[Dict[str, Any]]
    original_case: Optional[FuzzCase] = None
    shrink: Optional[Dict[str, Any]] = None
    outcome: Optional[Dict[str, Any]] = None
    campaign: Optional[Dict[str, Any]] = None
    requires_env: Optional[Dict[str, str]] = None

    @property
    def signature(self) -> List[str]:
        return sorted({entry["kind"] for entry in self.violations})

    def write(self, path: str) -> None:
        """Write the artifact as a sealed capture file.

        The case / campaign / environment live in the header, the
        violations and shrink bookkeeping in the checksum footer — so
        ``repro-capture check`` validates fuzz artifacts like any other
        trace.  Fuzz artifacts carry no event records: replay re-*runs*
        the case from its spec rather than re-driving a log.
        """
        from ..capture.format import CaptureSink
        sink = CaptureSink(
            path, profile=CAPTURE_PROFILE, seed=self.case.seed,
            extra_header={"case": self.case.to_dict(),
                          "campaign": self.campaign,
                          "requires_env": self.requires_env})
        sink.close(
            history_digest=(self.outcome or {}).get("history_digest"),
            summary=self.outcome,
            check={"kind": "fuzz", "signature": self.signature},
            extra_footer={
                "violations": self.violations,
                "shrink": self.shrink,
                "original_case": (self.original_case.to_dict()
                                  if self.original_case else None)})

    @classmethod
    def load(cls, path: str) -> "ReplayArtifact":
        """Read (and structurally validate) a sealed artifact."""
        from ..capture.format import CaptureReader
        reader = CaptureReader(path)
        if reader.header.get("profile") != CAPTURE_PROFILE:
            raise ValueError(
                f"capture profile "
                f"{reader.header.get('profile')!r} is not a fuzz replay "
                f"artifact (expected {CAPTURE_PROFILE!r})")
        footer = reader.read_footer()
        original = footer.get("original_case")
        return cls(
            case=FuzzCase.from_dict(reader.header["case"]),
            violations=list(footer.get("violations") or []),
            original_case=(FuzzCase.from_dict(original)
                           if original else None),
            shrink=footer.get("shrink"),
            outcome=footer.get("summary"),
            campaign=reader.header.get("campaign"),
            requires_env=reader.header.get("requires_env"))


def current_inject_env() -> Optional[Dict[str, str]]:
    """The injection-hook environment, for recording into artifacts."""
    value = os.environ.get(INJECT_ENV)
    return {INJECT_ENV: value} if value else None


@dataclass
class ReplayOutcome:
    """Result of re-running an artifact's case."""

    artifact: ReplayArtifact
    outcome: CaseOutcome
    reproduced: bool
    missing_env: List[str]

    def describe(self) -> str:
        if self.reproduced:
            return (f"REPRODUCED: {', '.join(self.artifact.signature)} "
                    f"(digest {self.outcome.history_digest})")
        status = "CLEAN" if self.outcome.ok else \
            f"DIFFERENT: {', '.join(self.outcome.signature)}"
        hint = ""
        if self.missing_env:
            hint = (" [note: artifact expects "
                    + ", ".join(f"{key}={self.artifact.requires_env[key]}"
                                for key in self.missing_env) + "]")
        return f"{status}{hint}"


def replay(artifact: ReplayArtifact) -> ReplayOutcome:
    """Re-run the shrunk case exactly as the campaign judged it:

    NullTrace fast path first, then the FullTrace confirmation with the
    digest cross-check (so a recorded ``backend-divergence`` violation
    can reproduce too).  "Reproduced" means every recorded violation
    kind appears again; the caller decides whether that is good news
    (confirming a fresh counterexample) or bad news (a regression
    fixture resurfacing).
    """
    outcome = confirm_case(artifact.case,
                           run_case(artifact.case, backend="null"))
    recorded = set(artifact.signature)
    reproduced = bool(recorded) and recorded <= set(outcome.signature)
    missing = [key for key, value in (artifact.requires_env or {}).items()
               if os.environ.get(key) != value]
    return ReplayOutcome(artifact=artifact, outcome=outcome,
                         reproduced=reproduced, missing_env=missing)

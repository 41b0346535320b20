"""Replay: re-drive a sealed capture and hard-assert it reproduces.

Two modes cover the two halves of the determinism claim:

* **re-simulate** — rebuild the originating
  :class:`~repro.workloads.spec.ScenarioSpec` from the header and run
  it again; the fresh run's ``history_digest`` *and entire*
  ``summarize()`` must equal the footer byte-for-byte.  This checks the
  whole simulator, not just the checkers.  ``workers=`` re-runs
  families with a parallel runner (``kv``/``soak``) under that worker
  count — the digest must not care.
* **re-check** — stream the recorded operations straight through fresh
  online checkers (rebuilt from the footer's ``check`` configuration:
  τ-tracker mode/initial, or the linearizer's sealed cutoffs) without
  any simulation: O(events) time, memory bounded by the checker
  windows.  Digest, counters and verdicts must match the footer.

Service captures (``profile: "service"``) are re-driven through a fresh
:class:`~repro.service.server.KVService` — every recorded frame is
re-submitted in recorded (execution) order, drain windows are replayed
so rejected operations reproduce as rejections, and the final
``history_digest`` / ``response_digest`` must equal the footer's.

Any divergence raises :class:`~repro.capture.format.ReplayMismatchError`
(``strict=False`` returns the report with ``ok=False`` instead); a
damaged log never gets this far — the reader fails it with a typed
error first.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..checkers.online import OnlineTauTracker, StreamingLinearizer
from ..checkers.stream import ObservationStream
from ..workloads.spec import ScenarioSpec, as_spec
from .format import (CaptureFormatError, CaptureReader,
                     ReplayMismatchError, canonical_line,
                     decode_operation, decode_value)
from .session import ServiceCaptureSession, decode_initial


@dataclass
class ReplayReport:
    """Outcome of one replay run."""

    mode: str                      #: "resimulate" | "recheck" | "service"
    profile: str                   #: header profile replayed
    events: int                    #: events the capture holds
    ok: bool                       #: everything reproduced
    history_digest: Optional[str]  #: digest the replay computed
    expected_digest: Optional[str]  #: digest the footer promised
    mismatches: List[str] = field(default_factory=list)
    summary: Optional[Dict[str, Any]] = None   #: replay-side summary

    def to_dict(self) -> Dict[str, Any]:
        return {"events": self.events,
                "expected_digest": self.expected_digest,
                "history_digest": self.history_digest,
                "mismatches": list(self.mismatches), "mode": self.mode,
                "ok": self.ok, "profile": self.profile,
                "summary": self.summary}


def record_scenario(spec, path, *, metrics_out=None, metrics_every=None,
                    **params):
    """Run a scenario with capture enabled; returns the run's result.

    ``spec`` is a family name, mapping or :class:`ScenarioSpec`;
    ``params`` overlay its parameters.
    """
    spec = as_spec(spec, **params)
    spec = ScenarioSpec(spec.family, spec.params, capture=path,
                        metrics_out=metrics_out,
                        metrics_every=metrics_every)
    return spec.run()


def _finish_report(report: ReplayReport, strict: bool) -> ReplayReport:
    report.ok = not report.mismatches
    if strict and not report.ok:
        raise ReplayMismatchError(
            f"replay ({report.mode}) diverged from the capture: "
            + "; ".join(report.mismatches))
    return report


def _diff_summaries(expected: Dict[str, Any],
                    actual: Dict[str, Any]) -> List[str]:
    """Byte-level comparison, reported per key for readability."""
    mismatches = []
    for key in sorted(set(expected) | set(actual)):
        want = canonical_line({key: expected.get(key)})
        got = canonical_line({key: actual.get(key)})
        if want != got:
            mismatches.append(f"summary[{key!r}]: expected "
                              f"{expected.get(key)!r}, got "
                              f"{actual.get(key)!r}")
    return mismatches


def replay_capture(source, mode: str = "resimulate",
                   workers: Optional[int] = None,
                   strict: bool = True) -> ReplayReport:
    """Replay one capture file; see the module docstring for modes."""
    reader = CaptureReader(source)
    profile = reader.header.get("profile")
    if profile == "service":
        if workers is not None:
            raise ValueError("service replays are inherently serial")
        return replay_service_capture(source, strict=strict)
    if profile != "scenario":
        raise CaptureFormatError(
            f"cannot replay profile {profile!r} here (fuzz-replay "
            f"captures re-run through repro.fuzz)")
    if mode == "resimulate":
        return _resimulate(reader, workers, strict)
    if mode == "recheck":
        if workers is not None:
            raise ValueError("re-check mode has no workers (no sim)")
        return _recheck(reader, strict)
    raise ValueError(f"unknown replay mode {mode!r}")


def _resimulate(reader: CaptureReader, workers: Optional[int],
                strict: bool) -> ReplayReport:
    footer = reader.read_footer()
    spec = ScenarioSpec.from_dict(reader.header["spec"])
    if workers is not None:
        if "parallel" not in spec.defaults():
            raise ValueError(
                f"family {spec.family!r} has no parallel runner")
        spec = spec.with_params(parallel=int(workers))
    summary = spec.run().summarize().to_dict()
    expected = footer.get("summary") or {}
    report = ReplayReport(
        mode="resimulate", profile="scenario",
        events=footer.get("events", 0), ok=False,
        history_digest=summary.get("history_digest"),
        expected_digest=footer.get("history_digest"),
        mismatches=_diff_summaries(expected, summary), summary=summary)
    return _finish_report(report, strict)


def _recheck(reader: CaptureReader, strict: bool) -> ReplayReport:
    # first pass: full structural validation, and the footer (the check
    # configuration lives there — it is only known once a run ends).
    footer = reader.read_footer()
    expected = footer.get("summary") or {}
    check = footer.get("check") or {"kind": "none"}
    tracker: Optional[OnlineTauTracker] = None
    linearizer: Optional[StreamingLinearizer] = None
    checkers: List[Any] = []
    if check.get("kind") == "tau":
        tracker = OnlineTauTracker(
            mode=check["mode"], register=check.get("register"),
            initial=decode_initial(check.get("initial")))
        checkers.append(tracker)
    elif check.get("kind") == "linearizer":
        linearizer = StreamingLinearizer(
            initial=decode_value(check.get("initial")))
        for register, cutoff in sorted(check.get("cutoffs",
                                                 {}).items()):
            linearizer.seal(register, cutoff)
        checkers.append(linearizer)
    # second pass: stream the operations through the fresh checkers —
    # no simulation, O(events), memory bounded by the checker windows.
    stream = ObservationStream(checkers=checkers, keep_history=False)
    for event in reader.events():
        if event["kind"] == "op":
            stream.observe(decode_operation(event["op"]))
    stream.close()
    mismatches = []
    digest = stream.digest()
    if digest != footer.get("history_digest"):
        mismatches.append(f"history_digest: expected "
                          f"{footer.get('history_digest')}, got {digest}")
    for key, got in (("ops", stream.ops), ("writes", stream.writes),
                     ("reads", stream.reads)):
        if expected.get(key) != got:
            mismatches.append(f"{key}: expected {expected.get(key)}, "
                              f"got {got}")
    replayed: Dict[str, Any] = {"ops": stream.ops,
                                "writes": stream.writes,
                                "reads": stream.reads,
                                "history_digest": digest}
    if tracker is not None:
        verdict = tracker.report(float(expected.get("tau_no_tr", 0.0)))
        for key, got in (("stable", verdict.stable),
                         ("tau_1w", verdict.tau_1w),
                         ("tau_stab", verdict.tau_stab),
                         ("dirty_reads", verdict.dirty_reads),
                         ("total_reads", verdict.total_reads)):
            if expected.get(key) != got:
                mismatches.append(f"{key}: expected "
                                  f"{expected.get(key)}, got {got}")
            replayed[key] = got
    if linearizer is not None:
        verdicts = linearizer.verdicts()
        stable = bool(expected.get("completed")) and all(verdicts.values())
        if expected.get("stable") != stable:
            mismatches.append(f"stable: expected "
                              f"{expected.get('stable')}, got {stable} "
                              f"(verdicts {verdicts})")
        replayed["stable"] = stable
        replayed["verdicts"] = verdicts
    report = ReplayReport(
        mode="recheck", profile="scenario",
        events=footer.get("events", 0), ok=False,
        history_digest=digest,
        expected_digest=footer.get("history_digest"),
        mismatches=mismatches, summary=replayed)
    return _finish_report(report, strict)


def replay_service_capture(source, strict: bool = True) -> ReplayReport:
    """Re-drive a captured service session through a fresh KVService."""
    from ..service.protocol import Request
    from ..service.server import KVService
    reader = CaptureReader(source)
    if reader.header.get("profile") != "service":
        raise CaptureFormatError(
            f"not a service capture: {reader.header.get('profile')!r}")
    store_config = dict(reader.header.get("store") or {})
    max_events = int(reader.header.get("max_events") or 2_000_000)
    service = KVService(max_events=max_events, **store_config)
    mismatches: List[str] = []

    async def drive() -> None:
        for event in reader.events():
            kind = event["kind"]
            if kind == "drain":
                if event["drain"] == "begin":
                    service.begin_drain()
                else:
                    service.end_drain()
            elif kind == "frame":
                frame = event["frame"]
                request = Request.from_payload(dict(frame["request"]))
                response = await service.handle(request)
                got = response.to_payload()
                want = frame["response"]
                if canonical_line(got) != canonical_line(want):
                    mismatches.append(
                        f"frame seq {event['seq']} "
                        f"(request {request.request_id}): expected "
                        f"{want!r}, got {got!r}")

    asyncio.run(drive())
    footer = reader.footer or {}
    check = footer.get("check") or {}
    if service.history_digest != footer.get("history_digest"):
        mismatches.append(
            f"history_digest: expected {footer.get('history_digest')}, "
            f"got {service.history_digest}")
    if service.response_digest != check.get("response_digest"):
        mismatches.append(
            f"response_digest: expected {check.get('response_digest')}, "
            f"got {service.response_digest}")
    report = ReplayReport(
        mode="service", profile="service",
        events=footer.get("events", 0), ok=False,
        history_digest=service.history_digest,
        expected_digest=footer.get("history_digest"),
        mismatches=mismatches, summary=service.stats())
    return _finish_report(report, strict)


def capture_service(path, *, store: Dict[str, Any],
                    max_events: int = 2_000_000) -> ServiceCaptureSession:
    """Open a service capture session (hand it to ``KVService``)."""
    return ServiceCaptureSession(path, store=store, max_events=max_events)

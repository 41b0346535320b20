"""Capture sessions: how a live run feeds a :class:`CaptureSink`.

The lower layers expose *registries*, not capture knowledge: the
observation stream offers every newly constructed stream to
:func:`~repro.checkers.stream.register_stream_tap` factories, every
fault timeline announces each firing through
:func:`~repro.faults.schedule.register_fault_tap`, and the rebalancer
reports ring mutations through
:func:`~repro.kvstore.rebalance.register_reshard_tap`.  This module
registers one tap of each kind at import; the taps forward to whichever
:class:`CaptureSession` is *active* (a stack, pushed by
:func:`capturing`), and do nothing when none is.

A scenario session claims the **first** stream a run constructs (every
serial scenario family builds exactly one), attaches a recorder +
metrics checker to it, and — once the family returns — seals the log
with the run's ``summarize()`` and the checker configuration replay
needs (τ-tracker mode/initial, or the linearizer's sealed cutoffs).

Service captures do not go through the session stack at all: a
:class:`ServiceCaptureSession` is handed straight to
:class:`~repro.service.server.KVService` (duck-typed — the service
layer never imports capture) and records frames and drain transitions
in execution order.
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, Iterator, Optional

from ..checkers.online import (OnlineChecker, OnlineTauTracker,
                               StreamingLinearizer)
from ..checkers.regularity import NO_INITIAL
from ..checkers.stream import register_stream_tap
from ..checkers.history import Operation
from ..faults.schedule import register_fault_tap
from ..kvstore.rebalance import register_reshard_tap
from .format import CaptureSink, encode_value, jsonable_params
from .metrics import MetricsEmitter

#: Families whose header records a ring shape.
_SHARDED_FAMILIES = ("kv", "reshard")

#: Stack of active sessions; the innermost one receives tap events.
_ACTIVE: list = []


def _encode_initial(value: Any) -> Any:
    if value is NO_INITIAL:
        return {"$no_initial": True}
    return encode_value(value)


def decode_initial(payload: Any) -> Any:
    if isinstance(payload, dict) and payload.get("$no_initial") is True:
        return NO_INITIAL
    from .format import decode_value
    return decode_value(payload)


class _SessionChecker(OnlineChecker):
    """The per-stream rider: forwards ops to the sink and the metrics."""

    def __init__(self, session: "CaptureSession"):
        self._session = session

    def observe(self, op: Operation) -> None:
        sink = self._session.sink
        if sink is not None:
            sink.observe(op)
        metrics = self._session.metrics
        if metrics is not None:
            metrics.observe(op)

    def finish(self) -> None:
        metrics = self._session.metrics
        if metrics is not None:
            metrics.finish()


class CaptureSession:
    """One scenario run's recording state (sink and/or metrics)."""

    def __init__(self, sink: Optional[CaptureSink],
                 metrics: Optional[MetricsEmitter]):
        self.sink = sink
        self.metrics = metrics
        self._claimed = False
        self._finalized = False

    @classmethod
    def for_spec(cls, spec) -> "CaptureSession":
        """Build the session a :class:`ScenarioSpec` run asked for."""
        sink = None
        if spec.capture is not None:
            resolved = spec.resolved()
            ring = None
            if spec.family in _SHARDED_FAMILIES:
                ring = {"shards": resolved.get("shard_count"),
                        "vnodes": resolved.get("vnodes")}
            sink = CaptureSink(
                spec.capture, profile="scenario",
                spec={"family": spec.family,
                      "params": jsonable_params(dict(spec.params))},
                seed=resolved.get("seed"), ring=ring)
        metrics = None
        if spec.metrics_every is not None or spec.metrics_out is not None:
            metrics = MetricsEmitter(every=spec.metrics_every,
                                     out=spec.metrics_out)
        return cls(sink, metrics)

    # -- tap entry points --------------------------------------------------
    def claim_stream(self, stream) -> Optional[OnlineChecker]:
        """First stream of the run gets the recorder; later ones don't."""
        if self._claimed:
            return None
        self._claimed = True
        if self.metrics is not None:
            self.metrics.bind(stream)
        return _SessionChecker(self)

    def record_fault(self, t: float, lane: str, fault: str,
                     detail: Dict[str, Any]) -> None:
        if self.sink is not None:
            self.sink.record_fault(t, lane, fault, detail)

    def record_reshard(self, report) -> None:
        if self.sink is not None:
            self.sink.record_reshard(report.time, report.to_dict())

    # -- sealing -----------------------------------------------------------
    def finalize(self, result) -> None:
        """Seal the capture with the finished run's result."""
        self._finalized = True
        if self.metrics is not None:
            self.metrics.finish()           # idempotent
        if self.sink is None:
            return
        summary = result.summarize().to_dict()
        self.sink.close(history_digest=summary.get("history_digest"),
                        summary=summary, check=self._check_info(result))

    def abandon(self) -> None:
        """Run failed before sealing: release the file, leave it
        footer-less (replay will fail loudly with a truncation error)."""
        if not self._finalized and self.sink is not None:
            self.sink.abandon()

    def _check_info(self, result) -> Dict[str, Any]:
        extra = getattr(result, "extra", None) or {}
        tracker = extra.get("tracker")
        if isinstance(tracker, OnlineTauTracker):
            return {"kind": "tau", "mode": tracker.mode,
                    "register": tracker.register,
                    "initial": _encode_initial(tracker.initial)}
        linearizer = extra.get("linearizer")
        if isinstance(linearizer, StreamingLinearizer):
            return {"kind": "linearizer",
                    "initial": encode_value(linearizer.initial),
                    "cutoffs": linearizer.cutoffs()}
        return {"kind": "none"}


@contextlib.contextmanager
def capturing(spec) -> Iterator[CaptureSession]:
    """Run a spec's family under an active capture session."""
    session = CaptureSession.for_spec(spec)
    _ACTIVE.append(session)
    try:
        yield session
    finally:
        _ACTIVE.remove(session)
        session.abandon()


class ServiceCaptureSession:
    """Recording seam handed to :class:`~repro.service.server.KVService`.

    The service calls (duck-typed): :meth:`operation_recorder` once at
    construction to get a checker for its observation stream, then
    :meth:`record_frame` / :meth:`record_drain` as traffic flows.
    :meth:`close` seals the log with the service's final digests and
    :meth:`~repro.service.server.KVService.stats` snapshot.
    """

    def __init__(self, path, *, store: Dict[str, Any],
                 max_events: int = 2_000_000):
        self.store_config = dict(store)
        self.max_events = int(max_events)
        self.sink = CaptureSink(
            path, profile="service", spec=None,
            seed=self.store_config.get("seed"),
            ring={"shards": self.store_config.get("shard_count"),
                  "vnodes": None},
            extra_header={"store": self.store_config,
                          "max_events": self.max_events})
        self._closed = False

    def operation_recorder(self) -> OnlineChecker:
        return self.sink

    def record_frame(self, t: float, request: Dict[str, Any],
                     response: Dict[str, Any]) -> None:
        self.sink.record_frame(t, request, response)

    def record_drain(self, t: float, transition: str) -> None:
        self.sink.record_drain(t, transition)

    def close(self, service) -> None:
        """Seal with the live service's digests and stats."""
        if self._closed:
            return
        self._closed = True
        stats = service.stats()
        self.sink.close(
            history_digest=service.history_digest,
            summary=stats,
            check={"kind": "service",
                   "response_digest": service.response_digest})


# -- the module-level taps (installed once, at import) ---------------------

def _stream_tap(stream):
    if not _ACTIVE:
        return None
    return _ACTIVE[-1].claim_stream(stream)


def _fault_tap(t, lane, kind, detail):
    if _ACTIVE:
        _ACTIVE[-1].record_fault(t, lane, kind, jsonable_params(detail))


def _reshard_tap(report):
    if _ACTIVE:
        _ACTIVE[-1].record_reshard(report)


register_stream_tap(_stream_tap)
register_fault_tap(_fault_tap)
register_reshard_tap(_reshard_tap)

"""Universal trace capture/replay + soak observability.

``repro.capture`` generalizes the fuzz replay artifact into a
packet-log-style record/replay format for *any* run this repo can
produce — scenario families, fuzz cases and live ``repro.service``
traffic — plus the live-metrics half that makes long soaks observable:

* :mod:`repro.capture.format` — the versioned JSON-lines trace format
  (header / events / SHA-256 footer) with its typed error hierarchy,
  the :class:`CaptureSink` recorder and the validating
  :class:`CaptureReader`;
* :mod:`repro.capture.session` — how a live run feeds a sink (stream /
  fault / timeline / reshard taps, service frame recording);
* :mod:`repro.capture.metrics` — periodic JSON-lines snapshots and the
  fire-once ``alert_on_violation`` hook;
* :mod:`repro.capture.replay` — re-simulate or re-check a sealed
  capture and hard-assert it reproduces (imported lazily: pulling in
  the workload and service layers only when replay is actually used);
* :mod:`repro.capture.cli` — the ``repro-capture`` tool
  (``record`` / ``replay`` / ``check`` / ``tail``).

Front-door usage::

    from repro.capture import record_scenario, replay_capture
    record_scenario("swsr", "trace.jsonl", seed=3, num_writes=4,
                    num_reads=4)
    replay_capture("trace.jsonl", mode="recheck")   # raises on mismatch
"""

from .format import (CaptureError, CaptureFormatError, CaptureReader,
                     CaptureSink, CorruptCaptureError, EVENT_KINDS,
                     FORMAT, PROTOCOL_VERSION, ReplayMismatchError,
                     TruncatedCaptureError, load_capture, verify_capture)
from .metrics import DEFAULT_EVERY, MetricsEmitter
from .session import CaptureSession, ServiceCaptureSession, capturing

#: Names resolved from :mod:`repro.capture.replay` on first access.
_LAZY_REPLAY = ("ReplayReport", "capture_service", "record_scenario",
                "replay_capture", "replay_service_capture")

__all__ = ["FORMAT", "PROTOCOL_VERSION", "EVENT_KINDS",
           "CaptureError", "CaptureFormatError", "TruncatedCaptureError",
           "CorruptCaptureError", "ReplayMismatchError",
           "CaptureSink", "CaptureReader", "load_capture",
           "verify_capture", "DEFAULT_EVERY", "MetricsEmitter",
           "CaptureSession", "ServiceCaptureSession", "capturing",
           *_LAZY_REPLAY]


def __getattr__(name):
    if name in _LAZY_REPLAY:
        from . import replay
        return getattr(replay, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Structured execution traces: a trace records or it does not.

Every interesting occurrence in a run — message send/delivery/drop,
operation invocation/response, fault injection, broadcast — is *emitted*
to a trace backend.  There are two:

* :class:`FullTrace` — records every event as a :class:`TraceEvent`; the
  debugging backend, and what the query API (``count``, ``of_kind``,
  ``where``, ...) reads.
* :class:`NullTrace` — records nothing; the default of every scenario
  family and of the KV layers, and what lets the network fuse its sends.

``trace_backend`` names one of them (:data:`BACKENDS`) wherever a run is
configured.  Nothing that feeds verdicts and summaries reads the trace —
operation histories, message counters (``Network.messages_sent``, the
per-link counters) and the observation stream all live outside it — so
runs under either backend produce identical executions (see
``tests/test_trace_backends.py``).  Hot emitters (the network) test
:attr:`TraceBackend.records` once and skip the trace entirely when it is
false.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional


# Event kinds (module-level constants rather than an Enum: traces are large
# and string comparison keeps them cheap and printable).
SEND = "send"
DELIVER = "deliver"
DROP = "drop"
OP_INVOKE = "op_invoke"
OP_RESPONSE = "op_response"
FAULT = "fault"
TIMER = "timer"
BROADCAST = "broadcast"
NOTE = "note"


@dataclass
class TraceEvent:
    """One timestamped occurrence in a simulated execution."""

    time: float
    kind: str
    process: str
    detail: Dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.detail.items())
        return f"[{self.time:.4f}] {self.kind} @{self.process} {inner}"


class TraceBackend:
    """The trace protocol: what a simulation substrate emits into.

    The query API reads the recorded events, so it is uniform across
    backends (:class:`NullTrace` simply answers with empty results).
    """

    #: whether :meth:`emit` keeps the event (hot paths skip the call
    #: entirely when false).
    records: bool = True

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def emit(self, time: float, kind: str, process: str,
             **detail: Any) -> None:
        """Record one event."""
        raise NotImplementedError

    # -- queries -------------------------------------------------------
    def count(self, kind: str) -> int:
        """Number of recorded events of ``kind``."""
        return sum(1 for event in self.events if event.kind == kind)

    def of_kind(self, kind: str) -> Iterator[TraceEvent]:
        return (event for event in self.events if event.kind == kind)

    def by_process(self, process: str) -> Iterator[TraceEvent]:
        return (event for event in self.events if event.process == process)

    def where(self, predicate: Callable[[TraceEvent], bool]) -> List[TraceEvent]:
        return [event for event in self.events if predicate(event)]

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def format(self, limit: Optional[int] = None) -> str:
        """Human-readable rendering of (a prefix of) the trace."""
        shown = self.events if limit is None else self.events[:limit]
        lines = [repr(event) for event in shown]
        if limit is not None and len(self.events) > limit:
            lines.append(f"... ({len(self.events) - limit} more events)")
        return "\n".join(lines)


class NullTrace(TraceBackend):
    """Records nothing: the fast path for every throughput-bound run."""

    records = False

    def emit(self, time: float, kind: str, process: str,
             **detail: Any) -> None:
        pass


class FullTrace(TraceBackend):
    """An append-only log of :class:`TraceEvent` records."""

    def emit(self, time: float, kind: str, process: str,
             **detail: Any) -> None:
        self.events.append(TraceEvent(time, kind, process, detail))


#: Named backend registry (``ClusterConfig.trace_backend`` / scenario
#: ``trace_backend=`` parameters resolve through this).
BACKENDS = ("full", "null")


def build_trace(backend: str = "full") -> TraceBackend:
    """Construct a trace backend by name."""
    if backend == "full":
        return FullTrace()
    if backend == "null":
        return NullTrace()
    raise ValueError(f"unknown trace backend {backend!r} "
                     f"(expected one of {BACKENDS})")

"""The versioned JSON-lines trace format: records, writer, reader.

A capture file is plain JSON-lines — one canonical JSON object per line,
keys sorted, compact separators, no wall-clock anywhere (re-recording
the same spec yields the identical bytes):

* the first line is the **header** (``"record": "header"``) carrying the
  format and service-protocol versions, the originating
  :class:`~repro.workloads.spec.ScenarioSpec` (or service store config),
  the seed and — for sharded families — the ring shape;
* every following line but the last is an **event**
  (``"record": "event"``) with a contiguous ``seq`` number, a
  simulated-time stamp ``t`` that is monotone *per lane* (per register
  for operations, per injector for faults, the service clock for
  frames), and a ``kind`` drawn from a small vocabulary — ``op``
  (completed operations), ``fault`` (fault-timeline firings; bursts and
  link garbage carry their effect counts), ``reshard`` (ring
  mutations), ``frame`` (service request/response pairs in execution
  order) and ``drain`` (service drain-window transitions);
* the last line is the **footer** (``"record": "footer"``) sealing the
  log: the event count, an incremental SHA-256 over the raw bytes of
  every preceding line, the stream's ``history_digest`` and enough
  result/check state for replay to hard-assert equality.

Anything that deviates fails loudly with a typed error — there is no
silent partial replay:

* :class:`CaptureFormatError` — not a capture, or an unknown version;
* :class:`TruncatedCaptureError` — the footer is missing;
* :class:`CorruptCaptureError` — checksum, sequence or monotonicity
  violations, or an undecodable line.

>>> import io
>>> from repro.checkers.history import Operation
>>> buf = io.StringIO()
>>> sink = CaptureSink(buf, profile="scenario", spec=None, seed=3)
>>> _ = sink.observe(Operation("write", "w", "w0", 1.0, 2.0))
>>> sink.close()
>>> lines = buf.getvalue().splitlines()
>>> [json.loads(line)["record"] for line in lines]
['header', 'event', 'footer']
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import (Any, Dict, IO, Iterator, List, Optional, Tuple,
                    Union)

from ..checkers.history import Operation
from ..registers.messages import BOT

#: Format tag stamped into (and demanded from) every capture header.
FORMAT = "repro.capture/1"

#: Service protocol generation recorded alongside the format version.
PROTOCOL_VERSION = 1

#: Event-kind vocabulary (anything else in a v1 file is corrupt).
EVENT_KINDS = ("drain", "fault", "frame", "op", "reshard")


class CaptureError(Exception):
    """Base class for every capture/replay failure."""


class CaptureFormatError(CaptureError):
    """The file is not a capture, or its version is unsupported."""


class TruncatedCaptureError(CaptureError):
    """The log ends without a footer — the run never sealed it."""


class CorruptCaptureError(CaptureError):
    """Checksum / sequencing / monotonicity violation inside the log."""


class ReplayMismatchError(CaptureError):
    """Replay diverged from the captured footer."""


# -- canonical encoding ----------------------------------------------------

def canonical_line(record: Dict[str, Any]) -> str:
    """One record as its canonical JSON line (sorted keys, compact)."""
    try:
        return json.dumps(record, sort_keys=True,
                          separators=(",", ":"), ensure_ascii=True)
    except (TypeError, ValueError) as exc:
        raise CaptureError(f"record is not JSON-able: {exc}") from None


def encode_value(value: Any) -> Any:
    """An operation value as JSON: scalars pass through, ``BOT`` is
    tagged so replay can restore the singleton (repr-faithfully)."""
    if value is BOT:
        return {"$bot": True}
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise CaptureError(f"operation value {value!r} is not capturable")


def decode_value(payload: Any) -> Any:
    if isinstance(payload, dict):
        if payload.get("$bot") is True:
            return BOT
        raise CorruptCaptureError(f"unknown value encoding: {payload!r}")
    return payload


def encode_operation(op: Operation) -> Dict[str, Any]:
    return {"invoke": op.invoke, "kind": op.kind, "process": op.process,
            "register": op.register, "response": op.response,
            "value": encode_value(op.value)}


def decode_operation(payload: Dict[str, Any]) -> Operation:
    try:
        return Operation(kind=payload["kind"], process=payload["process"],
                         value=decode_value(payload["value"]),
                         invoke=payload["invoke"],
                         response=payload["response"],
                         register=payload["register"])
    except KeyError as exc:
        raise CorruptCaptureError(f"op event missing field {exc}") from None


class _LaneClock:
    """Per-(kind, lane) monotonicity guard shared by writer and reader."""

    def __init__(self, side: str):
        self._side = side
        self._last: Dict[Tuple[str, str], float] = {}

    def check(self, seq: int, kind: str, lane: str, t: float) -> None:
        key = (kind, lane)
        last = self._last.get(key)
        if last is not None and t < last:
            raise CorruptCaptureError(
                f"{self._side}: event {seq} ({kind}/{lane}) moves time "
                f"backwards: {t} < {last}")
        self._last[key] = t


class CaptureSink:
    """Streams capture records to a JSON-lines sink as a run executes.

    The sink is :class:`~repro.checkers.online.OnlineChecker`-shaped —
    ``observe(op)`` records one completed operation — so it can ride any
    :class:`~repro.checkers.stream.ObservationStream`; the extra
    ``record_*`` methods cover the non-operation lanes (faults, reshard
    events, service frames and drain windows).  The header is written
    eagerly at construction; :meth:`close` seals the log with the
    SHA-256 footer.  Every line's hash is folded incrementally, so the
    sink holds O(1) state regardless of run length.
    """

    def __init__(self, sink: Union[str, os.PathLike, IO[str]], *,
                 profile: str, spec: Optional[Dict[str, Any]] = None,
                 seed: Optional[int] = None,
                 ring: Optional[Dict[str, int]] = None,
                 extra_header: Optional[Dict[str, Any]] = None):
        if isinstance(sink, (str, os.PathLike)):
            self._file: IO[str] = open(sink, "w", encoding="utf-8")
            self._owns_file = True
            self.path: Optional[str] = os.fspath(sink)
        else:
            self._file = sink
            self._owns_file = False
            self.path = None
        self._sha = hashlib.sha256()
        self._seq = 0
        self._clock = _LaneClock("capture")
        self._closed = False
        self.events = 0
        header = {"record": "header", "format": FORMAT,
                  "protocol": PROTOCOL_VERSION, "profile": profile,
                  "spec": spec, "seed": seed, "ring": ring}
        if extra_header:
            header.update(extra_header)
        self._emit(header)

    # -- low-level line plumbing -------------------------------------------
    def _emit(self, record: Dict[str, Any]) -> None:
        if self._closed:
            raise CaptureError("capture sink is closed")
        line = canonical_line(record) + "\n"
        self._sha.update(line.encode("utf-8"))
        self._file.write(line)

    def _event(self, kind: str, lane: str, t: float,
               payload: Dict[str, Any]) -> None:
        self._clock.check(self._seq, kind, lane, float(t))
        record = {"record": "event", "seq": self._seq, "kind": kind,
                  "lane": lane, "t": float(t)}
        record.update(payload)
        self._emit(record)
        self._seq += 1
        self.events += 1

    # -- the event vocabulary ----------------------------------------------
    def observe(self, op: Operation) -> None:
        """OnlineChecker hook: record one completed operation."""
        self._event("op", op.register, op.response,
                    {"op": encode_operation(op)})

    def finish(self) -> None:
        """OnlineChecker hook: the footer is written by :meth:`close`
        (which needs the run's result), so end-of-stream is a no-op."""

    def record_fault(self, t: float, lane: str, fault: str,
                     detail: Optional[Dict[str, Any]] = None) -> None:
        self._event("fault", lane, t,
                    {"fault": fault, "detail": dict(detail or {})})

    def record_reshard(self, t: float, event: Dict[str, Any]) -> None:
        self._event("reshard", "reshard", t, {"event": event})

    def record_frame(self, t: float, request: Dict[str, Any],
                     response: Dict[str, Any]) -> None:
        self._event("frame", "service", t,
                    {"frame": {"request": request, "response": response}})

    def record_drain(self, t: float, transition: str) -> None:
        self._event("drain", "service", t, {"drain": transition})

    # -- sealing -----------------------------------------------------------
    def close(self, *, history_digest: Optional[str] = None,
              summary: Optional[Dict[str, Any]] = None,
              check: Optional[Dict[str, Any]] = None,
              extra_footer: Optional[Dict[str, Any]] = None) -> None:
        """Seal the log with the checksum footer (idempotent)."""
        if self._closed:
            return
        footer = {"record": "footer", "events": self.events,
                  "history_digest": history_digest, "summary": summary,
                  "check": check}
        if extra_footer:
            footer.update(extra_footer)
        footer["sha256"] = self._sha.hexdigest()
        line = canonical_line(footer) + "\n"
        self._file.write(line)
        self._closed = True
        if self._owns_file:
            self._file.close()
        else:
            self._file.flush()

    def abandon(self) -> None:
        """Release the file **without** a footer — the log stays visibly
        truncated, so replay fails loudly instead of trusting it."""
        if self._closed:
            return
        self._closed = True
        if self._owns_file:
            self._file.close()
        else:
            self._file.flush()


class CaptureReader:
    """Validating, streaming reader for one capture file.

    Iterating :meth:`events` yields event records one at a time with
    O(1) reader state — sequence contiguity, per-lane time monotonicity
    and the rolling SHA-256 are checked as lines stream by, and the
    footer (available as :attr:`footer` afterwards) must match the
    accumulated hash and event count.  All deviations raise the typed
    errors documented in this module.
    """

    def __init__(self, source: Union[str, os.PathLike, IO[str]]):
        self._source = source
        self.header = self._read_header()
        self.footer: Optional[Dict[str, Any]] = None

    def _open(self) -> IO[str]:
        if isinstance(self._source, (str, os.PathLike)):
            return open(self._source, "r", encoding="utf-8")
        self._source.seek(0)
        return self._source

    def _parse(self, line: str, where: str) -> Dict[str, Any]:
        try:
            record = json.loads(line)
        except ValueError:
            raise CorruptCaptureError(
                f"{where}: line is not valid JSON") from None
        if not isinstance(record, dict) or "record" not in record:
            raise CaptureFormatError(f"{where}: not a capture record")
        return record

    def _read_header(self) -> Dict[str, Any]:
        handle = self._open()
        try:
            first = handle.readline()
        finally:
            if isinstance(self._source, (str, os.PathLike)):
                handle.close()
        if not first.strip():
            raise CaptureFormatError("empty file: no capture header")
        header = self._parse(first, "header")
        if header.get("record") != "header":
            raise CaptureFormatError(
                f"first record is {header.get('record')!r}, not a header")
        if header.get("format") != FORMAT:
            raise CaptureFormatError(
                f"unsupported capture format {header.get('format')!r} "
                f"(this reader speaks {FORMAT!r})")
        return header

    def events(self) -> Iterator[Dict[str, Any]]:
        """Yield validated event records in file order."""
        handle = self._open()
        sha = hashlib.sha256()
        clock = _LaneClock("replay")
        expect_seq = 0
        footer = None
        try:
            for index, raw in enumerate(handle):
                if not raw.strip():
                    raise CorruptCaptureError(f"line {index + 1} is blank")
                record = self._parse(raw, f"line {index + 1}")
                kind = record["record"]
                if kind == "footer":
                    footer = record
                    if handle.readline().strip():
                        raise CorruptCaptureError(
                            "trailing data after the footer")
                    break
                sha.update(raw.encode("utf-8") if raw.endswith("\n")
                           else (raw + "\n").encode("utf-8"))
                if kind == "header":
                    if index != 0:
                        raise CorruptCaptureError(
                            f"stray header at line {index + 1}")
                    continue
                if kind != "event":
                    raise CaptureFormatError(
                        f"line {index + 1}: unknown record {kind!r}")
                seq = record.get("seq")
                if seq != expect_seq:
                    raise CorruptCaptureError(
                        f"sequence gap: expected seq {expect_seq}, "
                        f"got {seq!r}")
                expect_seq += 1
                ev_kind = record.get("kind")
                if ev_kind not in EVENT_KINDS:
                    raise CorruptCaptureError(
                        f"event {seq} has unknown kind {ev_kind!r}")
                clock.check(seq, ev_kind, record.get("lane", ""),
                            float(record["t"]))
                yield record
        finally:
            if isinstance(self._source, (str, os.PathLike)):
                handle.close()
        if footer is None:
            raise TruncatedCaptureError(
                "capture ends without a footer (truncated log)")
        if footer.get("events") != expect_seq:
            raise CorruptCaptureError(
                f"footer counts {footer.get('events')} events, "
                f"file holds {expect_seq}")
        if footer.get("sha256") != sha.hexdigest():
            raise CorruptCaptureError(
                "footer checksum does not match the log body")
        self.footer = footer

    def read_footer(self) -> Dict[str, Any]:
        """Validate the whole log and return the footer."""
        for _ in self.events():
            pass
        assert self.footer is not None
        return self.footer


def load_capture(source: Union[str, os.PathLike, IO[str]]
                 ) -> Tuple[Dict[str, Any], List[Dict[str, Any]],
                            Dict[str, Any]]:
    """Fully validate one capture; return ``(header, events, footer)``."""
    reader = CaptureReader(source)
    events = list(reader.events())
    assert reader.footer is not None
    return reader.header, events, reader.footer


def verify_capture(source: Union[str, os.PathLike, IO[str]]
                   ) -> Dict[str, Any]:
    """Structurally verify a capture (checksums, sequencing, per-lane
    monotonicity) without replaying it; returns a small summary dict."""
    reader = CaptureReader(source)
    kinds: Dict[str, int] = {}
    for event in reader.events():
        kinds[event["kind"]] = kinds.get(event["kind"], 0) + 1
    footer = reader.footer or {}
    return {"events": footer.get("events", 0),
            "history_digest": footer.get("history_digest"),
            "kinds": dict(sorted(kinds.items())),
            "profile": reader.header.get("profile"),
            "sha256": footer.get("sha256")}


def jsonable_params(params: Dict[str, Any]) -> Dict[str, Any]:
    """Render scenario params as plain JSON: ``FaultTimeline`` objects
    become their ``to_dict()`` events, tuples become lists.  Dict keys
    pass through ``json.dumps`` stringification (the sharded families
    already coerce shard keys back with ``int()``)."""
    def convert(value: Any) -> Any:
        if hasattr(value, "to_dict") and callable(value.to_dict):
            return convert(value.to_dict())
        if isinstance(value, dict):
            return {key: convert(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [convert(item) for item in value]
        return value
    return {key: convert(value) for key, value in params.items()}


# re-exported for the doctest above
__all__ = ["FORMAT", "PROTOCOL_VERSION", "EVENT_KINDS", "CaptureError",
           "CaptureFormatError", "TruncatedCaptureError",
           "CorruptCaptureError", "ReplayMismatchError", "CaptureSink",
           "CaptureReader", "load_capture", "verify_capture",
           "canonical_line", "encode_value", "decode_value",
           "encode_operation", "decode_operation", "jsonable_params"]

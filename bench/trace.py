"""In-memory spans recorded from the benchmark's side of each layer boundary.

The traced run wraps public entry points of ``repro`` (see
``bench.layers.targets``) for its duration and restores the originals
afterwards; nothing inside ``src/`` knows it is being timed.  Everything
runs on one thread, so one global stack of open spans gives every span
its parent, and a layer's **self time** is its span's duration minus the
part its child spans cover.

A coroutine is only *running* between a resume and the next suspend, so
an ``async`` entry point is recorded as one span per running slice (the
first carries ``resumed=False``, the rest ``True``); the time it spends
suspended, while other tasks run, belongs to those tasks' spans.
"""

from __future__ import annotations

import functools
import time
from array import array
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional


class Span(NamedTuple):
    """One recorded interval (``parent`` indexes the tracer's span list,
    ``-1`` for a root; ``request`` is shared by the spans of one request)."""

    name: str
    start: float
    end: float
    parent: int
    request: Any
    resumed: bool


class LayerTime(NamedTuple):
    """Aggregate of every span with one name."""

    calls: int      #: spans begun (continuation slices not counted)
    total: float    #: summed durations, children included
    self_time: float


def self_times(spans: Iterable[Span]) -> Dict[str, LayerTime]:
    """Fold spans by name: calls, inclusive time and self time.

    Self time of a span = its duration minus its direct children's
    durations (children of one span never overlap on a single thread).
    """
    spans = list(spans)
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    folded: Dict[str, List[float]] = {}
    for span, child_time in zip(spans, covered):
        entry = folded.setdefault(span.name, [0, 0.0, 0.0])
        duration = span.end - span.start
        if not span.resumed:
            entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child_time
    return {name: LayerTime(int(calls), total, own)
            for name, (calls, total, own) in folded.items()}


def root_time(spans: Iterable[Span]) -> float:
    """Wall time covered by at least one span (the sum over roots)."""
    return sum(span.end - span.start for span in spans if span.parent < 0)


class Tracer:
    """Span recorder: ``begin`` opens a span under the innermost open one,
    ``end`` closes it.

    Spans live in flat ``array`` columns, which the garbage collector
    never walks — a list of a million span objects would make every full
    collection, and so the traced program, slower as the run goes on.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: wrappers call straight through while this is false
        self.enabled = True
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._resumed = array("b")
        self._start = array("d")
        self._end = array("d")
        #: explicit request ids by span index; other spans inherit their
        #: parent's when the spans are read out.
        self._requests: Dict[int, Any] = {}
        self._top = -1

    def __len__(self) -> int:
        return len(self._name)

    def name_id(self, name: str) -> int:
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return found

    def begin(self, name_id: int, request: Any = None,
              resumed: bool = False) -> int:
        """Open a span under the innermost open one; returns its index."""
        index = len(self._name)
        self._name.append(name_id)
        self._parent.append(self._top)
        self._resumed.append(resumed)
        self._end.append(0.0)
        if request is not None:
            self._requests[index] = request
        self._top = index
        self._start.append(self.clock())
        return index

    def end(self, index: int) -> None:
        self._end[index] = self.clock()
        self._top = self._parent[index]

    def spans(self) -> List[Span]:
        """Every span in begin order, requests inherited from parents."""
        if self._top != -1:
            raise RuntimeError("spans() called inside an open span")
        spans: List[Span] = []
        requests: List[Any] = []
        for index, name_id in enumerate(self._name):
            parent = self._parent[index]
            request = self._requests.get(index)
            if request is None and parent >= 0:
                request = requests[parent]
            requests.append(request)
            spans.append(Span(self._names[name_id], self._start[index],
                              self._end[index], parent, request,
                              bool(self._resumed[index])))
        return spans


class Target(NamedTuple):
    """One entry point to wrap: ``owner.attr`` recorded as ``name``.

    ``request_of(*args, **kwargs)`` names the request a call belongs to
    (otherwise inherited from the enclosing span); ``tap(result, *args)``
    runs after a synchronous call, for counts read at the boundary.
    """

    owner: Any
    attr: str
    name: str
    is_async: bool = False
    request_of: Optional[Callable[..., Any]] = None
    tap: Optional[Callable[..., None]] = None


class _TracedAwaitable:
    """Drives a coroutine one resume at a time, one span per slice."""

    __slots__ = ("_tracer", "_name", "_inner", "_request")

    def __init__(self, tracer: Tracer, name: int, inner: Any, request: Any):
        self._tracer = tracer
        self._name = name
        self._inner = inner
        self._request = request

    def __await__(self):
        tracer, name, request = self._tracer, self._name, self._request
        steps = self._inner.__await__()
        resumed = False
        value: Any = None
        thrown: Optional[BaseException] = None
        while True:
            index = tracer.begin(name, request, resumed)
            resumed = True
            try:
                if thrown is None:
                    yielded = steps.send(value)
                else:
                    yielded = steps.throw(thrown)
            except StopIteration as stop:
                return stop.value
            finally:
                tracer.end(index)
            try:
                value = yield yielded
                thrown = None
            except GeneratorExit:
                steps.close()
                raise
            except BaseException as exc:  # forwarded, e.g. cancellation
                thrown = exc


def _wrap(tracer: Tracer, target: Target, original: Callable) -> Callable:
    name = tracer.name_id(target.name)
    request_of, tap = target.request_of, target.tap
    if target.is_async:
        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            request = request_of(*args, **kwargs) if request_of else None
            return _TracedAwaitable(tracer, name,
                                    original(*args, **kwargs), request)
    else:
        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            request = request_of(*args, **kwargs) if request_of else None
            index = tracer.begin(name, request)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if tap is not None:
                tap(result, *args)
            return result
    return traced


class Installed:
    """The wrappers currently in place; :meth:`restore` puts the very
    same original functions back."""

    def __init__(self, tracer: Tracer, targets: Iterable[Target]):
        self._originals: List[tuple] = []
        for target in targets:
            original = vars(target.owner)[target.attr]
            self._originals.append((target.owner, target.attr, original))
            setattr(target.owner, target.attr,
                    _wrap(tracer, target, original))

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Installed":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.restore()

"""Incremental online checkers: verdicts while the execution streams by.

The offline checkers (:mod:`repro.checkers.regularity`,
:mod:`repro.checkers.atomicity`, :mod:`repro.checkers.stabilization`) are
pure functions of a fully materialized :class:`~repro.checkers.history
.History` — simple to reason about, but they bound run length by RAM and
only reveal τ_stab after a terminal rescan.  This module re-states each
check as an *online* object consuming completed operations in completion
(response-time) order, the order an :class:`~repro.checkers.stream
.ObservationStream` delivers them:

* :class:`OnlineRegularityChecker` — the allowed-value-set check of
  :func:`~repro.checkers.regularity.check_regularity`, judged per read as
  soon as no future write can overlap it;
* :class:`OnlineInversionDetector` — windowed new/old-inversion detection
  equivalent to :func:`~repro.checkers.atomicity.find_new_old_inversions`,
  with bounded write-window eviction once reads can no longer overlap
  evicted writes;
* :class:`OnlineTauTracker` — first-violation-free-suffix tracking: τ_stab
  is known the moment the run ends, with no rescan, reproducing
  :func:`~repro.checkers.stabilization.find_tau_stab` /
  :func:`~repro.checkers.stabilization.stabilization_report` exactly;
* :class:`StreamingLinearizer` — per-register linearizability via
  concurrency-segment decomposition, equivalent to
  :func:`~repro.checkers.atomicity.check_linearizable` on each register's
  (optionally post-τ) history.

Equivalence contract
--------------------
With unbounded windows (the defaults) every checker is *exactly*
equivalent to its offline counterpart — property-tested against the
offline implementations and their brute-force oracles in
``tests/test_checkers_online.py``.  Bounded windows (the soak
configuration) trade completeness for O(window) memory: verdicts are
still sound (never a false violation), and any situation where the
window was too small to preserve exactness flips :attr:`exact` to
``False`` instead of silently guessing.

Why completion order suffices
-----------------------------
A read ``r`` can be judged once a write invoked strictly after
``r.response`` has completed: the writer is sequential, so every write
that could precede or overlap ``r`` (the only writes the regularity set
and the inversion attribution consult) has already completed.  Pending
reads are therefore buffered only while writes can still overlap them —
memory proportional to the concurrency of the execution, not its length.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right, insort
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

from .atomicity import NewOldInversion
from .history import Operation
from .regularity import NO_INITIAL, RegularityViolation
from .stabilization import StabilizationReport

_NEG_INF = float("-inf")


class OnlineChecker:
    """Base protocol: feed completed operations, then :meth:`finish`."""

    def observe(self, op: Operation) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Flush pending judgements (end of stream).  Idempotent."""


# ----------------------------------------------------------------------
# shared single-writer streaming machinery
# ----------------------------------------------------------------------
class _SingleWriterStream(OnlineChecker):
    """Write log + pending-read buffer shared by the SWSR checkers.

    Subclasses implement :meth:`_finalize` (called once per read, in
    response order, when every write that could precede or overlap the
    read is known).  ``write_window`` bounds the retained write log:
    writes are evicted oldest-first once no *pending* read can still
    overlap them; the last evicted write's value stays available so the
    last-preceding-write computation survives eviction exactly.
    """

    def __init__(self, register: Optional[str] = None,
                 initial: Any = NO_INITIAL,
                 write_window: Optional[int] = None,
                 track_slots: bool = False,
                 listener: Optional[Callable[..., None]] = None):
        self.register = register
        self.initial = initial
        self.write_window = write_window
        self.listener = listener
        #: True while every judgement matched what the offline checker
        #: would compute; bounded windows flip it instead of guessing.
        self.exact = True
        self.total_reads = 0
        self.total_writes = 0
        self._track_slots = track_slots
        self._writes: List[Operation] = []        # retained window
        self._write_base = 0                      # global index of _writes[0]
        self._responses: List[float] = []         # parallel to _writes
        self._invokes: List[float] = []
        self._slots: Dict[Any, List[int]] = {}
        if track_slots and initial is not NO_INITIAL:
            self._slots[initial] = [-1]
        self._pending: Deque[Operation] = deque()
        self._writer: Optional[str] = None
        self._first_write_response: Optional[float] = None
        self._evicted_last: Optional[Operation] = None
        self._evicted_max_response = _NEG_INF
        self._finished = False

    # -- ingestion ---------------------------------------------------------
    def observe(self, op: Operation) -> None:
        if self.register is not None and op.register != self.register:
            return
        if op.kind == "write":
            self._observe_write(op)
        elif op.kind == "read":
            self.total_reads += 1
            self._pending.append(op)

    def _observe_write(self, op: Operation) -> None:
        if self._writer is None:
            self._writer = op.process
        elif op.process != self._writer:
            raise ValueError(
                "online SWSR checkers need a single writer, got "
                f"{sorted({self._writer, op.process})}")
        # completion order + a sequential writer ⇒ invoke order; anything
        # else would silently break the finalization horizon.
        if self._writes and op.invoke < self._writes[-1].invoke:
            raise ValueError("online checkers require writes in invocation "
                             "order (sequential writer, completion-order "
                             "feed)")
        # every pending read that responded before this write was invoked
        # can no longer gain an overlapping write: judge it now.
        self._drain(op.invoke)
        if self._track_slots:
            slots = self._slots.setdefault(op.value, [])
            if any(slot >= 0 for slot in slots):
                raise ValueError(
                    f"written value {op.value!r} is not unique")
            slots.append(self._write_base + len(self._writes))
        self._writes.append(op)
        self._responses.append(op.response)
        self._invokes.append(op.invoke)
        self.total_writes += 1
        if self._first_write_response is None:
            self._first_write_response = op.response
        self._evict()

    def _drain(self, horizon: float) -> None:
        while self._pending and self._pending[0].response < horizon:
            self._finalize(self._pending.popleft())

    def finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        while self._pending:
            self._finalize(self._pending.popleft())

    # -- eviction ----------------------------------------------------------
    @property
    def window_occupancy(self) -> int:
        """Operations currently held in the sliding windows."""
        return len(self._writes) + len(self._pending)

    def _evict(self) -> None:
        if self.write_window is None:
            return
        while len(self._writes) > max(1, self.write_window):
            oldest = self._writes[0]
            if self._pending and \
                    oldest.response >= min(op.invoke for op in self._pending):
                return                      # a pending read still overlaps
            if self._track_slots:
                # an evicted rewrite of the initial value can no longer be
                # attributed exactly; keep the virtual slot, drop exactness.
                slots = self._slots.get(oldest.value)
                if slots is not None and -1 in slots:
                    self._slots[oldest.value] = [-1]
                    self.exact = False
                else:
                    self._slots.pop(oldest.value, None)
            self._evicted_last = oldest
            self._evicted_max_response = oldest.response
            del self._writes[0]
            del self._responses[0]
            del self._invokes[0]
            self._write_base += 1

    # -- write queries (exact on the retained window) ----------------------
    def _any_write_precedes(self, read: Operation) -> bool:
        return (self._first_write_response is not None
                and self._first_write_response < read.invoke)

    def _last_preceding(self, read: Operation) -> Optional[Operation]:
        """The last write that responded before ``read`` was invoked."""
        index = bisect_left(self._responses, read.invoke)
        if index > 0:
            return self._writes[index - 1]
        if self._evicted_last is None:
            return None
        if self._evicted_max_response < read.invoke:
            return self._evicted_last       # exact: evictions are ordered
        self.exact = False                  # true predecessor was evicted
        return self._evicted_last
    # the read-before-window case above is the one bounded-memory
    # compromise: it only triggers for a read whose invocation predates
    # every retained write, i.e. an operation that stayed in flight across
    # more than ``write_window`` writes.

    def _concurrent(self, read: Operation) -> List[Operation]:
        """Retained writes overlapping ``read``'s interval."""
        if self._evicted_max_response >= read.invoke:
            self.exact = False              # an evicted write may overlap
        hi = bisect_right(self._invokes, read.response)
        lo = bisect_left(self._responses, read.invoke)
        return self._writes[lo:hi]

    def _finalize(self, read: Operation) -> None:
        raise NotImplementedError


# ----------------------------------------------------------------------
# regularity
# ----------------------------------------------------------------------
class OnlineRegularityChecker(_SingleWriterStream):
    """Streaming :func:`~repro.checkers.regularity.check_regularity`.

    A read is judged the moment no future write can overlap it, against
    exactly the offline allowed-value set: values of concurrent writes,
    plus the last preceding write's value (or ``initial`` when no write
    precedes).  Violations are recorded as the same
    :class:`~repro.checkers.regularity.RegularityViolation` records the
    offline checker produces.
    """

    def __init__(self, register: Optional[str] = None,
                 initial: Any = NO_INITIAL,
                 write_window: Optional[int] = None,
                 max_records: Optional[int] = None,
                 listener: Optional[Callable[..., None]] = None):
        super().__init__(register, initial, write_window,
                         track_slots=False, listener=listener)
        self.max_records = max_records
        self.violations: List[RegularityViolation] = []
        self.violation_count = 0

    def _finalize(self, read: Operation) -> None:
        concurrent = self._concurrent(read)
        allowed: Set[Any] = {write.value for write in concurrent}
        if self._any_write_precedes(read):
            last = self._last_preceding(read)
            if last is not None:
                allowed.add(last.value)
        elif self.initial is not NO_INITIAL:
            allowed.add(self.initial)
        if not allowed:
            return                          # unconstrained read
        if read.value in allowed:
            return
        self.violation_count += 1
        if self.max_records is None or len(self.violations) < self.max_records:
            self.violations.append(
                RegularityViolation(read, read.value, allowed))
        else:
            # the violation is counted but not recorded, so
            # violations_after() can no longer enumerate it — flag it.
            self.exact = False
        if self.listener is not None:
            self.listener("regularity", read)

    def violations_after(self, after: float) -> List[RegularityViolation]:
        """Recorded violations among reads invoked at or after ``after``."""
        return [violation for violation in self.violations
                if violation.read.invoke >= after]


# ----------------------------------------------------------------------
# new/old inversions
# ----------------------------------------------------------------------
class OnlineInversionDetector(_SingleWriterStream):
    """Streaming :func:`~repro.checkers.atomicity.find_new_old_inversions`.

    Each finalized read is attributed to the feasible write indices of
    its value (including the virtual initial write ``#-1`` and the
    rewrite-ambiguity rules of the offline checker), then compared
    against the window of previously finalized reads: a pair
    ``(first, second)`` with ``first`` preceding ``second`` and
    ``max(attr(second)) < min(attr(first))`` is a new/old inversion —
    the same pair set, attribution and conservatism as offline.

    ``read_window`` bounds the retained finalized reads; evicted reads
    degrade to an aggregate (their maximal minimum-attribution), which
    still detects that *an* inversion exists but can no longer name the
    exact pair — :attr:`exact` flips when that aggregate fires.
    """

    def __init__(self, register: Optional[str] = None,
                 initial: Any = NO_INITIAL,
                 write_window: Optional[int] = None,
                 read_window: Optional[int] = None,
                 max_records: Optional[int] = None,
                 listener: Optional[Callable[..., None]] = None):
        super().__init__(register, initial, write_window,
                         track_slots=True, listener=listener)
        self.read_window = read_window
        self.max_records = max_records
        self.inversions: List[NewOldInversion] = []
        self.inversion_count = 0
        #: attributed reads, eligible as pair members:
        #: (invoke, response, lo, hi, op)
        self._reads: Deque = deque()
        #: finalized reads whose value no completed write has produced yet;
        #: the offline checker attributes them to the (unique) future write
        #: of that value, so they join ``_reads`` retroactively when it
        #: completes (never matched ⇒ offline skips them too).
        self._watch: Dict[Any, List[Operation]] = {}
        self._ev_reads_max_lo: Optional[int] = None
        self._ev_reads_max_response = _NEG_INF
        self._ev_reads_max_invoke = _NEG_INF

    @property
    def window_occupancy(self) -> int:
        return (len(self._writes) + len(self._pending)
                + len(self._reads))

    # -- attribution (mirrors atomicity.find_new_old_inversions) -----------
    def _feasible(self, read: Operation) -> Optional[List[int]]:
        """Feasible write indices for ``read`` — ``None`` means the value
        is (so far) unwritten and the read must be watched; ``[]`` means
        known-but-infeasible (the offline checker skips such reads)."""
        slots = self._slots.get(read.value)
        if slots is None:
            if self._write_base:
                # the value may denote an evicted write we can no longer
                # attribute; offline would know.  Sound to skip, not exact.
                self.exact = False
            return None
        if -1 not in slots:
            # offline parity: the feasibility filters apply only to the
            # initial-rewrite ambiguity — a unique real write is taken as
            # the attribution even when the read precedes it.
            return list(slots)
        if self._any_write_precedes(read):
            slots = [slot for slot in slots if slot >= 0]
        feasible = []
        for slot in slots:
            if slot < 0:
                feasible.append(slot)
                continue
            local = slot - self._write_base
            if local < 0:
                self.exact = False          # evicted rewrite, kept virtual
                continue
            if not read.precedes(self._writes[local]):
                feasible.append(slot)
        return feasible

    def _observe_write(self, op: Operation) -> None:
        super()._observe_write(op)
        watchers = self._watch.pop(op.value, None)
        if watchers:
            index = self._write_base + len(self._writes) - 1
            for read in watchers:
                self._admit(read, index, index)

    def _finalize(self, read: Operation) -> None:
        slots = self._feasible(read)
        if slots is None:
            self._watch.setdefault(read.value, []).append(read)
            if self.read_window is not None:
                watching = sum(len(reads) for reads in self._watch.values())
                if watching > self.read_window:
                    self.exact = False      # sound: unmatched ⇒ skipped
                    self._watch.pop(next(iter(self._watch)))
            return
        if not slots:
            return                          # infeasible ⇒ offline skips too
        self._admit(read, min(slots), max(slots))

    def _admit(self, read: Operation, lo: int, hi: int) -> None:
        """Pair an attributed read against the retained reads (both roles:
        as the later ``second`` and — for late-attributed reads — as the
        earlier ``first``) and add it to the window."""
        for f_invoke, f_response, f_lo, f_hi, f_op in self._reads:
            if f_response < read.invoke and hi < f_lo:
                self._record(f_op, read, f_lo, hi, f_invoke)
            elif read.response < f_invoke and f_hi < lo:
                self._record(read, f_op, lo, f_hi, read.invoke)
        if (self._ev_reads_max_lo is not None
                and self._ev_reads_max_lo > hi):
            if read.invoke > self._ev_reads_max_response:
                # some evicted read certainly inverts with this one, but
                # the exact pair is gone — count it conservatively.
                self.exact = False
                self._record(None, read, self._ev_reads_max_lo, hi,
                             self._ev_reads_max_invoke)
            else:
                self.exact = False
        self._reads.append((read.invoke, read.response, lo, hi, read))
        if self.read_window is not None:
            while len(self._reads) > self.read_window:
                e_invoke, e_response, e_lo, _e_hi, _e_op = \
                    self._reads.popleft()
                if self._ev_reads_max_lo is None \
                        or e_lo > self._ev_reads_max_lo:
                    self._ev_reads_max_lo = e_lo
                self._ev_reads_max_response = max(self._ev_reads_max_response,
                                                  e_response)
                self._ev_reads_max_invoke = max(self._ev_reads_max_invoke,
                                                e_invoke)

    def _record(self, first: Optional[Operation], second: Operation,
                k1: int, k2: int, first_invoke: float) -> None:
        self.inversion_count += 1
        if first is not None and (self.max_records is None
                                  or len(self.inversions) < self.max_records):
            self.inversions.append(NewOldInversion(first, second, k1, k2))
        else:
            # the pair is counted but not recorded, so pairs_after() can
            # no longer enumerate it — flag instead of silently guessing.
            self.exact = False
        if self.listener is not None:
            self.listener("inversion", second, first_invoke)

    def pairs_after(self, after: float) -> int:
        """Inversion pairs whose reads were both invoked at/after ``after``
        (``first`` precedes ``second``, so filtering ``first`` suffices)."""
        return sum(1 for inversion in self.inversions
                   if inversion.first.invoke >= after)


# ----------------------------------------------------------------------
# τ_stab tracking
# ----------------------------------------------------------------------
class OnlineTauTracker(OnlineChecker):
    """First-violation-free-suffix tracking: τ_stab with no rescan.

    Wraps an :class:`OnlineRegularityChecker` and an
    :class:`OnlineInversionDetector` (always both, so inversion counts
    are available even in ``regular`` mode) and maintains, online:

    * ``B`` — the latest invocation instant that still exposes a
      violation (regularity reads; in ``atomic`` mode also the *first*
      read of every inversion pair, matching the offline cut filter);
    * the sorted set of read invocations strictly later than ``B`` —
      τ_stab candidates, evicted as ``B`` grows.

    :meth:`report` then reproduces
    :func:`~repro.checkers.stabilization.stabilization_report` for any
    ``tau_no_tr`` in O(log writes): ``tau_no_tr`` itself when ``B``
    precedes it, else the earliest candidate — exactly the offline scan's
    answer, available the moment the stream ends.
    """

    def __init__(self, mode: str = "regular",
                 register: Optional[str] = None,
                 initial: Any = NO_INITIAL,
                 write_window: Optional[int] = None,
                 read_window: Optional[int] = None,
                 max_records: Optional[int] = None,
                 candidate_cap: Optional[int] = None,
                 tau_hint: Optional[float] = None):
        if mode not in ("regular", "atomic"):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.register = register
        self.initial = initial
        #: τ_stab needs no write log at all; only ``tau_1w`` does.  A
        #: ``tau_hint`` (the one cut-off a soak run will ever report at,
        #: known before its workload starts) collapses the per-write
        #: (invoke, response) arrays to O(1) state; ``None`` retains them
        #: all so ``report()`` stays exact for arbitrary cut-offs.
        self.tau_hint = tau_hint
        self._first_w: Optional[tuple] = None
        self._hint_1w: Optional[float] = None
        # the checkers report into a list ``_apply`` drains: a bound-method
        # listener would point them back at the tracker
        found: List[tuple] = []
        self._found = found
        listener = lambda *violation: found.append(violation)
        self.regularity = OnlineRegularityChecker(
            register, initial, write_window=write_window,
            max_records=max_records, listener=listener)
        self.inversions = OnlineInversionDetector(
            register, initial, write_window=write_window,
            read_window=read_window, max_records=max_records,
            listener=listener)
        self.candidate_cap = candidate_cap
        self.total_reads = 0
        #: latest read invocation seen: does a judged suffix hold a read?
        self.last_read_invoke = _NEG_INF
        self._w_invokes = array("d")
        self._w_responses = array("d")
        self._b_reg = _NEG_INF
        self._b_inv = _NEG_INF
        self._candidates: List[float] = []
        self._cand_dropped = False
        self._dirty_reg: Set[int] = set()
        self._dirty_second: Set[int] = set()
        self._epochs: List[Tuple[float, str]] = []
        self._finished = False

    # -- ingestion ---------------------------------------------------------
    def observe(self, op: Operation) -> None:
        if self.register is not None and op.register != self.register:
            return
        if op.kind == "write":
            if self.tau_hint is None:
                self._w_invokes.append(op.invoke)
                self._w_responses.append(op.response)
            else:
                if self._first_w is None:
                    self._first_w = (op.invoke, op.response)
                if self._hint_1w is None and op.invoke >= self.tau_hint:
                    self._hint_1w = op.response
        elif op.kind == "read":
            self.total_reads += 1
            if op.invoke > self.last_read_invoke:
                self.last_read_invoke = op.invoke
            self._note_candidate(op.invoke)
        self.regularity.observe(op)
        self.inversions.observe(op)
        if self._found:
            self._apply()

    def finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        self.regularity.finish()
        self.inversions.finish()
        self._apply()

    @property
    def exact(self) -> bool:
        return (self.regularity.exact and self.inversions.exact
                and not (self._cand_dropped and not self._candidates))

    @property
    def violation_count(self) -> int:
        """Violation events so far (regularity reads + inversion pairs)."""
        return (self.regularity.violation_count
                + self.inversions.inversion_count)

    @property
    def window_occupancy(self) -> int:
        """Live window footprint across both wrapped checkers."""
        return (self.regularity.window_occupancy
                + self.inversions.window_occupancy
                + len(self._candidates))

    # -- violation bookkeeping ---------------------------------------------
    def _barrier(self) -> float:
        if self.mode == "regular":
            return self._b_reg
        return max(self._b_reg, self._b_inv)

    def _apply(self) -> None:
        """Apply the violations the wrapped checkers reported, in order."""
        for violation in self._found:
            self._on_violation(*violation)
        self._found.clear()

    def _on_violation(self, kind: str, read: Operation,
                      first_invoke: Optional[float] = None) -> None:
        # dedup by op_id, which ObservationStream/History assign uniquely
        # per run — object ids would be recycled once capped records stop
        # keeping violating reads alive.
        if kind == "regularity":
            self._dirty_reg.add(read.op_id)
            self._b_reg = max(self._b_reg, read.invoke)
        else:
            self._dirty_second.add(read.op_id)
            self._b_inv = max(self._b_inv, first_invoke)
        barrier = self._barrier()
        cut = bisect_right(self._candidates, barrier)
        if cut:
            del self._candidates[:cut]

    def _note_candidate(self, invoke: float) -> None:
        if invoke <= self._barrier():
            return
        insort(self._candidates, invoke)
        if self.candidate_cap is not None \
                and len(self._candidates) > self.candidate_cap:
            self._candidates.pop()
            self._cand_dropped = True

    # -- results -----------------------------------------------------------
    @property
    def dirty_reads(self) -> int:
        """Distinct reads violating from time 0 (the offline dirty set)."""
        if self.mode == "regular":
            return len(self._dirty_reg)
        return len(self._dirty_reg | self._dirty_second)

    def tau_stab(self, tau_no_tr: float = 0.0) -> Optional[float]:
        """The offline :func:`find_tau_stab` answer, without a rescan."""
        barrier = self._barrier()
        if barrier < tau_no_tr:
            return tau_no_tr
        index = bisect_right(self._candidates, barrier)
        if index < len(self._candidates):
            return self._candidates[index]
        return None

    # -- migration epochs ---------------------------------------------------
    def begin_epoch(self, time: float, label: str = "") -> None:
        """Record a migration-epoch boundary at ``time``.

        Epochs are the τ cut-offs of *planned* disruptions — the live
        resharding scenario marks one per completed rebalance handoff —
        and reuse the tracker's barrier/candidate state, so they cost
        O(1) here and O(log reads) each at :meth:`epoch_taus` time.
        """
        self._epochs.append((float(time), str(label)))

    def epoch_taus(self) -> List[Dict[str, Any]]:
        """Per-epoch τ_stab: the same first-violation-free-suffix answer
        :meth:`tau_stab` gives, with each epoch's start as the cut-off.

        ``tau == start`` means the epoch was clean (every read from its
        first instant on is consistent); a later ``tau`` is the instant
        the system re-stabilized after the epoch's disruption; ``None``
        means violations persisted to the end of the stream.
        """
        return [{"label": label, "start": start,
                 "tau": self.tau_stab(start)}
                for start, label in self._epochs]

    def tau_1w(self, tau_no_tr: float = 0.0) -> Optional[float]:
        """Response instant of the first write invoked at/after τ_no_tr."""
        if self.tau_hint is not None:
            if self._first_w is not None and tau_no_tr <= self._first_w[0]:
                return self._first_w[1]
            # exact for the hinted cut-off (the only one a hinted run
            # reports at); intermediate cuts were pruned away.
            return self._hint_1w
        index = bisect_left(self._w_invokes, tau_no_tr)
        if index < len(self._w_responses):
            return self._w_responses[index]
        return None

    def report(self, tau_no_tr: float = 0.0) -> StabilizationReport:
        """The full τ-timeline (equals offline ``stabilization_report``)."""
        self.finish()
        tau_stab = self.tau_stab(tau_no_tr)
        return StabilizationReport(
            mode=self.mode,
            tau_no_tr=tau_no_tr,
            tau_1w=self.tau_1w(tau_no_tr),
            tau_stab=tau_stab,
            total_reads=self.total_reads,
            dirty_reads=self.dirty_reads,
            stable=tau_stab is not None,
        )


# ----------------------------------------------------------------------
# streaming linearizability (per-register, MWMR-capable)
# ----------------------------------------------------------------------
class _RegisterLane:
    """Per-register state of the streaming linearizer."""

    __slots__ = ("sealed", "cutoff", "buffer", "open", "open_mr", "closed",
                 "possible", "ok", "collapsed_mr", "exact", "ops_seen")

    def __init__(self, initial: Any):
        self.sealed = False
        self.cutoff: Optional[float] = None
        self.buffer: List[Operation] = []
        self.open: List[Operation] = []
        self.open_mr = _NEG_INF
        self.closed: List = []              # [(segment ops, max response)]
        self.possible: Set[Any] = {initial}
        self.ok = True
        self.collapsed_mr = _NEG_INF
        self.exact = True
        self.ops_seen = 0


class StreamingLinearizer(OnlineChecker):
    """Per-register linearizability by concurrency-segment decomposition.

    Any linearization must order two operations ``a``, ``b`` with
    ``a.response < b.invoke`` as ``a`` before ``b`` — so at every instant
    where *all* previously invoked operations have responded, the history
    cuts into segments that linearize independently, communicating only
    the register value across the cut.  The checker keeps one open
    segment per register (merging back closed segments if a late-finishing
    operation straddles a tentative cut), and collapses each settled
    segment with the same bounded DFS as offline
    :func:`~repro.checkers.atomicity.check_linearizable`, carrying the
    *set* of feasible register values across cuts.  A register fails the
    moment that set empties — equivalent to the offline verdict on the
    register's full (post-cutoff) history.

    * :meth:`seal` fixes a register's post-τ cutoff: buffered and future
      operations invoked before it are discarded, matching the per-key
      post-τ suffix the KV scenario judges.
    * :meth:`settle` collapses closed segments at a known quiesce point
      (e.g. after a pipeline flush), bounding memory by the largest
      concurrency segment instead of the run length; a later operation
      reaching into collapsed territory flips :attr:`exact` (sound, no
      longer provably complete).
    """

    def __init__(self, initial: Any = None, max_states: int = 2_000_000):
        self.initial = initial
        self.max_states = max_states
        self.explored = 0
        self._lanes: Dict[str, _RegisterLane] = {}
        self._finished = False

    def _lane(self, register: str) -> _RegisterLane:
        lane = self._lanes.get(register)
        if lane is None:
            lane = self._lanes[register] = _RegisterLane(self.initial)
        return lane

    # -- ingestion ---------------------------------------------------------
    def observe(self, op: Operation) -> None:
        lane = self._lane(op.register)
        if not lane.sealed:
            lane.buffer.append(op)
            return
        if lane.cutoff is not None and op.invoke < lane.cutoff:
            return
        self._feed(lane, op)

    def seal(self, register: str, cutoff: Optional[float] = None) -> None:
        """Fix ``register``'s cutoff; replay its buffered operations."""
        lane = self._lane(register)
        if lane.sealed:
            raise ValueError(f"register {register!r} already sealed")
        lane.sealed = True
        lane.cutoff = cutoff
        buffered, lane.buffer = lane.buffer, []
        for op in buffered:
            if cutoff is None or op.invoke >= cutoff:
                self._feed(lane, op)

    def _feed(self, lane: _RegisterLane, op: Operation) -> None:
        lane.ops_seen += 1
        if op.invoke <= lane.collapsed_mr:
            lane.exact = False              # straddles a settled cut
        # merge back any tentatively closed segment this op straddles
        while lane.closed and lane.closed[-1][1] >= op.invoke:
            segment, max_response = lane.closed.pop()
            lane.open = segment + lane.open
            lane.open_mr = max(lane.open_mr, max_response)
        if lane.open and op.invoke > lane.open_mr:
            lane.closed.append((lane.open, lane.open_mr))
            lane.open = [op]
            lane.open_mr = op.response
        else:
            lane.open.append(op)
            lane.open_mr = max(lane.open_mr, op.response)

    # -- collapsing --------------------------------------------------------
    def settle(self, register: Optional[str] = None) -> None:
        """Collapse closed segments (call only at quiesce points)."""
        lanes = ([self._lanes[register]] if register is not None
                 else list(self._lanes.values()))
        for lane in lanes:
            closed, lane.closed = lane.closed, []
            for segment, max_response in closed:
                self._collapse(lane, segment, max_response)

    def finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        for register in list(self._lanes):
            lane = self._lanes[register]
            if not lane.sealed:
                self.seal(register)
            self.settle(register)
            if lane.open:
                segment, lane.open = lane.open, []
                self._collapse(lane, segment, lane.open_mr)

    def _collapse(self, lane: _RegisterLane, segment: List[Operation],
                  max_response: float) -> None:
        lane.collapsed_mr = max(lane.collapsed_mr, max_response)
        if not lane.ok:
            return
        finals: Set[Any] = set()
        for value in lane.possible:
            finals |= self._segment_finals(segment, value)
        lane.possible = finals
        if not finals:
            lane.ok = False

    def _segment_finals(self, segment: List[Operation],
                        entry: Any) -> Set[Any]:
        """All register values a linearization of ``segment`` can end on."""
        ops = sorted(segment, key=lambda op: (op.invoke, op.response))
        if not ops:
            return {entry}
        finals: Set[Any] = set()
        seen: Set = set()

        def dfs(remaining, value):
            self.explored += 1
            if self.explored > self.max_states:
                raise RuntimeError(
                    "linearizability search exceeded max_states")
            if not remaining:
                finals.add(value)
                return
            key = (remaining, value)
            if key in seen:
                return
            seen.add(key)
            earliest = min(ops[i].response for i in remaining)
            for i in remaining:
                op = ops[i]
                if op.invoke > earliest:
                    continue
                if op.kind == "read":
                    if op.value == value:
                        dfs(remaining - {i}, value)
                else:
                    dfs(remaining - {i}, op.value)

        dfs(frozenset(range(len(ops))), entry)
        del dfs  # it reaches itself via its closure cell: a cycle holding ``seen``
        return finals

    # -- results -----------------------------------------------------------
    def ok(self, register: str) -> bool:
        """Verdict for one register (vacuously true when never seen)."""
        lane = self._lanes.get(register)
        return True if lane is None else lane.ok

    @property
    def exact(self) -> bool:
        return all(lane.exact for lane in self._lanes.values())

    def verdicts(self) -> Dict[str, bool]:
        """Register → linearizable, for every register observed."""
        return {register: lane.ok
                for register, lane in sorted(self._lanes.items())}

    def cutoffs(self) -> Dict[str, Optional[float]]:
        """Register → sealed cutoff, for every *sealed* register.

        This is the checker's replayable configuration: feeding the same
        operations to a fresh linearizer sealed upfront with these
        cutoffs reproduces every verdict (capture re-check mode does
        exactly that).
        """
        return {register: lane.cutoff
                for register, lane in sorted(self._lanes.items())
                if lane.sealed}

    @property
    def window_occupancy(self) -> int:
        """Operations buffered in open/unsealed segments right now."""
        return sum(len(lane.buffer) + len(lane.open)
                   + sum(len(segment) for segment, _ in lane.closed)
                   for lane in self._lanes.values())

"""Atomicity checkers: new/old inversion detection and linearizability.

Two tools:

* :func:`find_new_old_inversions` — the phenomenon of Figure 1: two reads,
  sequentially ordered, returning values in the opposite of their writing
  order.  Defined for single-writer histories (where the write order is the
  writer's sequence).  A *stabilizing atomic* register must eventually show
  none (Section 2.2), and a *practically* stabilizing one shows none while
  fewer than system-life-span writes separate reads (Lemma 13).

* :func:`check_linearizable` — an exact Wing&Gong-style search deciding
  whether a (small) read/write register history has a linearization.  Used
  for the MWMR construction (Theorem 4), where writes of different
  processes are not totally ordered by real time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from .history import History, Operation
from .regularity import NO_INITIAL


@dataclass
class NewOldInversion:
    """Reads ``first`` then ``second`` returned write ``k2 < k1``."""

    first: Operation
    second: Operation
    first_write_index: int
    second_write_index: int

    def __repr__(self) -> str:
        return (f"NewOldInversion({self.first!r} -> w#{self.first_write_index}"
                f", then {self.second!r} -> w#{self.second_write_index})")


def find_new_old_inversions(history: History, after: float = 0.0,
                            register: Optional[str] = None,
                            initial: Any = NO_INITIAL
                            ) -> List[NewOldInversion]:
    """All new/old inversions among reads invoked at or after ``after``.

    Reads returning values that were never written (arbitrary pre-
    stabilization output) are skipped here — they are flagged by the
    regularity checker instead.  Exception: when ``initial`` is given it
    participates as virtual write ``#-1``, so the pattern "read w0, then
    read the initial value back" *is* an inversion (it has no
    linearization; found by the brute-force oracle of
    ``tests/test_checkers_properties.py``).  A real write may rewrite
    the initial value, making reads of that value ambiguous between
    virtual write #-1 and the rewrite.  Such reads are attributed
    *feasibly* (the virtual write is ruled out once any real write
    completely precedes the read) and then *conservatively* (an
    inversion is reported only if every remaining attribution is one):
    sound on rewrite histories — never a false positive — though pairwise
    attribution may miss inversions that only a globally consistent
    assignment would expose.  Workloads with unique written values (what
    the scenario generators guarantee) are always attributed exactly.
    """
    writers = history.writers(register)
    if len(writers) > 1:
        raise ValueError(
            f"inversion detector needs a single writer, got {writers}")
    writes = history.writes(register)
    # value -> all write indices it may denote (>1 entry only for an
    # initial value that a real write later rewrites).
    write_index: Dict[Any, List[int]] = \
        {} if initial is NO_INITIAL else {initial: [-1]}
    for index, write in enumerate(writes):
        slots = write_index.setdefault(write.value, [])
        if any(slot >= 0 for slot in slots):
            raise ValueError(f"written value {write.value!r} is not unique")
        slots.append(index)

    def feasible(read: Operation) -> List[int]:
        slots = write_index[read.value]
        if -1 not in slots:
            return slots
        # the virtual initial is ruled out once any write completely
        # precedes the read; a real rewrite is ruled out when it is
        # invoked only after the read responded.
        if any(write.precedes(read) for write in writes):
            slots = [slot for slot in slots if slot >= 0]
        return [slot for slot in slots
                if slot < 0 or not read.precedes(writes[slot])]

    reads = [read for read in history.reads(register)
             if read.invoke >= after and read.value in write_index]
    attributions = {read.op_id: feasible(read) for read in reads}
    reads = [read for read in reads if attributions[read.op_id]]
    inversions = []
    for i, first in enumerate(reads):
        for second in reads[i + 1:]:
            if not first.precedes(second):
                continue
            k1 = min(attributions[first.op_id])
            k2 = max(attributions[second.op_id])
            if k2 < k1:
                inversions.append(NewOldInversion(first, second, k1, k2))
    return inversions


def check_atomic_swsr(history: History, after: float = 0.0,
                      register: Optional[str] = None,
                      initial: Any = NO_INITIAL) -> Tuple[List, List]:
    """Eventual atomicity (Section 2.2): regular values + no inversions.

    Returns ``(regularity_violations, inversions)`` for reads invoked at or
    after ``after``.
    """
    from .regularity import check_regularity
    violations = check_regularity(history, after, register, initial)
    inversions = find_new_old_inversions(history, after, register, initial)
    return violations, inversions


def is_atomic_swsr(history: History, after: float = 0.0,
                   register: Optional[str] = None,
                   initial: Any = NO_INITIAL) -> bool:
    violations, inversions = check_atomic_swsr(history, after, register,
                                               initial)
    return not violations and not inversions


# ----------------------------------------------------------------------
# exact linearizability (for MWMR histories)
# ----------------------------------------------------------------------
class LinearizabilityResult:
    """Outcome of the exact search, with a witness order when one exists."""

    def __init__(self, ok: bool, order: Optional[List[Operation]] = None,
                 explored: int = 0):
        self.ok = ok
        self.order = order
        self.explored = explored

    def __bool__(self) -> bool:
        return self.ok


class LinearizationSearch:
    """The exact search over one register's linearizations, shared by
    :func:`check_linearizable` and the streaming linearizer.

    A state is ``(remaining, value)``: a bitmask over ``ops`` (sorted by
    ``(invoke, response)``) and the register value so far; each state is
    expanded once per :meth:`run`, extending one backtracking prefix.  An
    operation may go next only if no remaining one responded before it
    was invoked; in sorted order only an *earlier* one can have, so the
    candidates are the lowest remaining bits up to the first that fails.
    ``explored`` counts visits across runs; past ``max_states`` the search
    raises ``RuntimeError``.
    """

    def __init__(self, ops: List[Operation], max_states: int,
                 explored: int = 0, first: bool = False):
        self.ops = sorted(ops, key=lambda op: (op.invoke, op.response))
        self.max_states = max_states
        self.explored = explored
        self.first = first      # stop at the first witness (offline check)
        self.witness: Optional[List[Operation]] = None
        self._prefix: List[int] = []

    def run(self, entry: Any) -> Set[Any]:
        """The values a linearization entered at ``entry`` can end on (with
        ``first``: the witness's, if there is one)."""
        self._seen: Set[Tuple[int, Any]] = set()
        self._finals: Set[Any] = set()
        if self.ops:
            self._visit((1 << len(self.ops)) - 1, entry)
        else:
            self._finals.add(entry)
        return self._finals

    def _visit(self, remaining: int, value: Any) -> bool:
        """Search on from one state; true once ``first`` has its witness."""
        self.explored += 1
        if self.explored > self.max_states:
            raise RuntimeError("linearizability search exceeded max_states")
        if not remaining:
            self._finals.add(value)
            if self.first:
                self.witness = [self.ops[i] for i in self._prefix]
            return self.first
        if (remaining, value) in self._seen:
            return False
        self._seen.add((remaining, value))
        earliest = float("inf")
        bits = remaining
        while bits:
            low = bits & -bits
            bits ^= low
            index = low.bit_length() - 1
            op = self.ops[index]
            if op.response < earliest:
                earliest = op.response
            if op.invoke > earliest:
                break
            read = op.kind == "read"
            if read and op.value != value:
                continue
            self._prefix.append(index)
            if self._visit(remaining ^ low, value if read else op.value):
                return True
            self._prefix.pop()
        return False


def check_linearizable(history: History, initial: Any = None,
                       register: Optional[str] = None,
                       max_states: int = 2_000_000) -> LinearizabilityResult:
    """Decide whether the register history linearizes.

    Exact depth-first :class:`LinearizationSearch` over completion orders,
    memoized on ``(remaining-ops, current-value)``, stopping at the first
    witness.  Operations may be linearized next only if no other remaining
    operation *responded* before they were invoked.  Raises
    ``RuntimeError`` if ``max_states`` is exceeded (histories in this repo
    are small enough in practice).
    """
    ops = [op for op in history.ops
           if register is None or op.register == register]
    if not ops:
        return LinearizabilityResult(True, [])
    search = LinearizationSearch(ops, max_states, first=True)
    search.run(initial)
    return LinearizabilityResult(search.witness is not None, search.witness,
                                 search.explored)

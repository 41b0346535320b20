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
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

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


def check_linearizable(history: History, initial: Any = None,
                       register: Optional[str] = None,
                       max_states: int = 2_000_000) -> LinearizabilityResult:
    """Decide whether the register history linearizes.

    Exact DFS over completion orders with memoization on
    ``(remaining-ops, current-value)``.  Operations may be linearized next
    only if no other remaining operation *responded* before they were
    invoked.  Raises ``RuntimeError`` if ``max_states`` is exceeded
    (histories in this repo are small enough in practice).
    """
    ops = [op for op in history.ops
           if register is None or op.register == register]
    ops.sort(key=lambda op: (op.invoke, op.response))
    n = len(ops)
    if n == 0:
        return LinearizabilityResult(True, [])

    seen: Set[Tuple[FrozenSet[int], Any]] = set()
    explored = 0

    def candidates(remaining: FrozenSet[int]) -> List[int]:
        earliest_response = min(ops[i].response for i in remaining)
        return [i for i in remaining if ops[i].invoke <= earliest_response]

    def dfs(remaining: FrozenSet[int], value: Any,
            prefix: List[int]) -> Optional[List[int]]:
        nonlocal explored
        if not remaining:
            return prefix
        key = (remaining, value)
        if key in seen:
            return None
        seen.add(key)
        explored += 1
        if explored > max_states:
            raise RuntimeError("linearizability search exceeded max_states")
        for i in candidates(remaining):
            op = ops[i]
            if op.kind == "read":
                if op.value != value:
                    continue
                result = dfs(remaining - {i}, value, prefix + [i])
            else:
                result = dfs(remaining - {i}, op.value, prefix + [i])
            if result is not None:
                return result
        return None

    witness = dfs(frozenset(range(n)), initial, [])
    del dfs  # it reaches itself via its closure cell: a cycle holding ``seen``
    if witness is None:
        return LinearizabilityResult(False, None, explored)
    return LinearizabilityResult(True, [ops[i] for i in witness], explored)

"""One judge per run: did the paper's promise hold for this result?

After τ the register is regular (Fig. 2/5), atomic (Fig. 3: no new/old
inversion) or linearizable per key (Fig. 4 under the store).
:func:`judge` decides that for a finished scenario result, with one rule
per result shape — SWSR-shaped (``swsr``, ``partition``, ``mobile-byz``,
``soak``, parallel soak's merged result included), store (``kv``,
``reshard``) and ``mwmr`` — reading everything off the result itself.
The sweep runner renders the :class:`Verdict` into a cell, the fuzz
harness into a case outcome.  A verdict over nothing is not a pass: a
completed run whose judged suffix holds no read is ``vacuous``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..checkers.atomicity import check_linearizable, find_new_old_inversions
from ..checkers.regularity import check_regularity

__all__ = ["Verdict", "judge"]

#: a tracker's ``last_read_invoke`` before any read.
_NEVER = float("-inf")


@dataclass
class Verdict:
    """One judgement of one run (plain data).  ``stable`` is the
    τ-tracker's answer (``None``: nothing to report on) or, for the
    linearizability shapes, completed-and-linearizable; ``flags`` are
    the named booleans a sweep cell reports; ``after`` is the start of
    the judged suffix (``None`` for the rules that judge every read)."""

    completed: bool
    stable: Optional[bool] = None
    flags: Dict[str, bool] = field(default_factory=dict)
    violations: List[Dict[str, Any]] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)
    history_digest: str = ""
    after: Optional[float] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def violation(self, kind: str, detail: str) -> None:
        self.violations.append({"kind": kind, "detail": detail})


def judge(family: str, result: Any, after: Optional[float] = None,
          detail: bool = False) -> Verdict:
    """Judge a finished run of scenario ``family``.

    ``after`` moves the start of the SWSR shape's judged suffix (default:
    the scenario's τ); ``detail`` also lists the concrete violating
    operations (needs the retained history).

    An unstable atomic run whose reader ends with ``pwsn`` ``>_cd`` the
    writer's ``wsn`` is ``stale-pv``: 13M3 keeps returning the reader's
    corrupted ``pv``.  Its precondition is a read invoked before its
    write's first round trip ends; that read's line 09 clears the
    write's 04M helping pair before any sanity check (N2) sees it
    (``tests/test_registers_swsr_atomic.py``).
    """
    if family not in _RULES:
        raise ValueError(f"no verdict rule for scenario family {family!r} "
                         f"(expected one of {', '.join(_RULES)})")
    summary = result.summarize()
    verdict = Verdict(
        completed=summary.completed,
        counters={name: getattr(summary, name) for name in (
            "corruptions", "events_processed", "messages_sent", "ops",
            "reads", "writes")},
        timings={"sim_end": summary.sim_end, "tau_no_tr": summary.tau_no_tr},
        history_digest=summary.history_digest)
    tau, last_read = _RULES[family](family, result, summary, verdict, after,
                                    detail)
    if not verdict.completed:
        verdict.violations = []
        verdict.violation("incomplete", "operations did not terminate "
                          "within the event budget (stopped at "
                          f"sim_end={summary.sim_end:.3f})")
    elif last_read < tau:
        last = "none" if last_read == _NEVER else f"{last_read:.3f}"
        verdict.violation("vacuous", f"no read to judge at or after "
                          f"tau={tau:.3f} (last read invoked: {last}; "
                          f"sim_end={summary.sim_end:.3f})")
    return verdict


def _swsr_shaped(family, result, summary, verdict, after, detail):
    """Eventually regular (atomic) from ``after`` on, off the tracker."""
    tracker = result.extra["tracker"]
    tau = verdict.after = result.tau_no_tr if after is None else after
    # the summary is the report at the scenario's own τ (None fields when
    # there was none to make); any other cut-off asks the tracker.
    report = summary
    if tau != result.tau_no_tr and summary.stable is not None:
        report = tracker.report(tau)
    verdict.stable = report.stable
    verdict.flags["stable"] = bool(report.stable)
    for name in ("tau_1w", "tau_stab", "stabilization_time"):
        if getattr(report, name) is not None:
            verdict.timings[name] = float(getattr(report, name))
    if report.dirty_reads is not None:      # counted from time 0
        verdict.counters["dirty_reads"] = report.dirty_reads
    inversions = verdict.counters["new_old_inversions"] = \
        tracker.inversions.pairs_after(tau)
    if family == "partition":
        verdict.counters["messages_dropped"] = \
            result.cluster.network.messages_dropped
    if report.stable is False:
        details = (_violation_details(result.history, tracker, tau)
                   if detail and result.history is not None else [])
        verdict.violations += details or [_unstable(result, tracker, tau)]
    elif tracker.mode == "atomic" and inversions:
        verdict.violation("new-old-inversion", f"{inversions} pair(s) with "
                          f"both reads invoked at or after tau={tau}")
    if family == "soak":
        verdict.flags["exact"] = bool(tracker.exact)
        if not tracker.exact:
            verdict.violation("inexact", "a bounded checker window overran")
    return tau, tracker.last_read_invoke


def _unstable(result, tracker, tau: float) -> Dict[str, Any]:
    """``unstable``, or ``stale-pv`` for an atomic reader left ahead."""
    reader = result.extra.get("reader")
    if tracker.mode == "atomic" and reader is not None:
        pwsn, wsn = reader.role.pwsn, result.extra["writer"].role.wsn
        if reader.role.config.gt(pwsn, wsn):
            return {"kind": "stale-pv", "detail": f"the reader ends with "
                    f"pwsn={pwsn} ahead of the writer's wsn={wsn}"}
    return {"kind": "unstable",
            "detail": f"no suffix after tau={tau} satisfies {tracker.mode}"}


def _violation_details(history, tracker, tau: float) -> List[Dict[str, Any]]:
    """Concrete violating reads after ``tau`` (full-check path only)."""
    details = [{"kind": "regularity",
                "detail": f"read {violation.returned!r} at "
                          f"[{violation.read.invoke:.3f}, "
                          f"{violation.read.response:.3f}] not in allowed set"}
               for violation in check_regularity(history, after=tau,
                                                 initial=tracker.initial)]
    if tracker.mode == "atomic":
        details += [{"kind": "new-old-inversion",
                     "detail": f"read w#{inversion.first_write_index} then "
                               f"w#{inversion.second_write_index} "
                               f"(invoked {inversion.first.invoke:.3f} / "
                               f"{inversion.second.invoke:.3f})"}
                    for inversion in find_new_old_inversions(
                        history, after=tau, initial=tracker.initial)]
    return details


def _store(family, result, summary, verdict, after, detail):
    """Per-key post-τ linearizability (straight across every handoff),
    plus, for a run whose ring changed, re-stabilization of every
    migration epoch.  ``detail`` lists a failing key's operations —
    post-τ on its shard, or all of them when handoffs moved it."""
    handoffs = result.epoch_taus is not None    # None: the ring is static
    verdict.stable = verdict.flags["linearizable"] = bool(
        verdict.completed and result.linearizable)
    verdict.counters.update(shards=result.store.shard_count,
                            keys=len(result.per_key_linearizable))
    for key in sorted(result.per_key_linearizable):
        if result.per_key_linearizable[key]:
            continue
        shard = result.store.shard_for(key)
        entry = (f"key {key!r} (shard {shard}) post-tau history does not "
                 "linearize" + (" across the handoffs" if handoffs else ""))
        if detail:
            cutoff = _NEVER if handoffs else result.tau_by_shard[shard]
            entry += "; ops: " + " | ".join(repr(op) for op in sorted(
                result.history.ops, key=lambda op: (op.invoke, op.response))
                if op.register == f"kv/{key}" and op.invoke >= cutoff)
        verdict.violation("kv-linearizability", entry)
    if handoffs:
        epochs, reports = result.epoch_taus, result.rebalances
        verdict.flags["stable"] = all(entry["tau"] is not None
                                      for entry in epochs)
        for index, entry in enumerate(epochs):
            if entry["tau"] is None:
                verdict.violation("epoch-unstable", f"migration epoch "
                                  f"{entry['label']} (start "
                                  f"{entry['start']:.3f}) never "
                                  "re-stabilized")
            else:
                verdict.timings[f"epoch{index}_tau"] = float(entry["tau"])
        verdict.counters.update(
            rebalances=len(reports),
            keys_moved=sum(len(report.moved_keys) for report in reports),
            keys_transferred=sum(len(report.transferred)
                                 for report in reports))
    return summary.tau_no_tr, summary.tau_no_tr if summary.reads else _NEVER


def _mwmr(family, result, summary, verdict, after, detail):
    """The whole MWMR history linearizes."""
    verdict.stable = verdict.flags["linearizable"] = bool(
        verdict.completed and check_linearizable(result.history).ok)
    if verdict.completed and not verdict.stable:
        verdict.violation("linearizability", "the history does not "
                          "linearize")
    return summary.tau_no_tr, summary.tau_no_tr if summary.reads else _NEVER


#: one rule per result shape, by scenario family: each fills the verdict
#: in and returns ``(tau, last_read)`` — the start of its judged suffix
#: and the latest read invocation the run saw (the store and mwmr rules
#: judge every read: their suffix is empty only when nothing was read).
_RULES: Dict[str, Callable[..., Any]] = {
    "swsr": _swsr_shaped, "partition": _swsr_shaped,
    "mobile-byz": _swsr_shaped, "soak": _swsr_shaped,
    "kv": _store, "reshard": _store, "mwmr": _mwmr,
}

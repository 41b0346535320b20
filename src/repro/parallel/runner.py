"""The parallel scenario runner: dispatch shard plans, merge outcomes.

:class:`ParallelScenarioRunner` executes a list of
:class:`~repro.parallel.plan.ShardPlan` objects — in worker processes
(``parallel=N``) or inline, one after the other (``parallel=1``) — and
the merge functions reassemble the S :class:`~repro.parallel.executor
.ShardOutcome` streams into exactly the result object the serial
scenario path would have produced:

* operation records are replayed through one parent-side
  :class:`~repro.checkers.stream.ObservationStream` (plus the family's
  online checkers) **in the serial completion order** — batch by batch,
  shard-index blocks within a batch, mirroring the pipelined drain — so
  the ``history_digest``, counters and checker verdicts are equal by
  construction, not merely equivalent;
* when a shard's event budget exhausted mid-batch, the merge reconstructs
  the serial run's stopping point from the per-stage counter snapshots:
  the serial drain visits shards in index order, so shards before the
  first failing shard are fully drained, the failing shard stops at its
  exception, and later shards are left enqueued-but-undrained.

The equality is hard-asserted by ``tests/test_parallel_sim.py`` (always)
and ``benchmarks/test_bench_parallel_sim.py`` (with the wall-clock
speedup gate under ``REPRO_PERF_GATE``).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..checkers.history import History
from ..checkers.online import OnlineTauTracker, StreamingLinearizer
from ..checkers.stream import ObservationStream
from ..kvstore.sharding import HashRing
from ..workloads.scenarios import ScenarioSummary, StoreScenarioResult
from .executor import ShardOutcome, execute_shard_plan
from .plan import ShardPlan, kv_shard_plans, soak_shard_plans

def normalize_parallel(parallel: Optional[int]) -> int:
    """Validate a scenario's ``parallel`` parameter; returns the count.

    ``None``/``1`` mean inline sequential execution (the serial-order
    reference the pool is compared against), any larger int a
    worker-process count.
    """
    if parallel is None:
        return 1
    if (isinstance(parallel, bool) or not isinstance(parallel, int)
            or parallel < 1):
        raise ValueError(
            f"parallel must be a positive worker count, got {parallel!r}")
    return parallel


class ParallelScenarioRunner:
    """Execute shard plans and collect their outcomes, in plan order."""

    def __init__(self, plans: Sequence[ShardPlan],
                 parallel: Optional[int] = 1):
        self.plans = list(plans)
        self.parallel = normalize_parallel(parallel)

    def run(self) -> List[ShardOutcome]:
        plans = self.plans
        if self.parallel == 1 or len(plans) <= 1:
            return [execute_shard_plan(plan) for plan in plans]
        with ProcessPoolExecutor(
                max_workers=min(self.parallel, len(plans))) as pool:
            return list(pool.map(execute_shard_plan, plans))


# ----------------------------------------------------------------------
# kv: merge S worker streams into one StoreScenarioResult
# ----------------------------------------------------------------------
class _MergedStoreStats:
    """Duck-typed stand-in for ``ShardedKVStore`` in a merged result:
    aggregate counters plus ring placement, with no live clusters."""

    def __init__(self, ring: HashRing, messages_sent: int,
                 events_processed: int, now: float):
        self.ring = ring
        self.messages_sent = messages_sent
        self.events_processed = events_processed
        self.now = now

    @property
    def shard_count(self) -> int:
        return self.ring.shard_count

    def shard_for(self, key: str) -> int:
        return self.ring.shard_for(key)


def run_parallel_kv(parallel: Optional[int], **params: Any):
    """The kv family's shard-parallel execution path (``params``: the
    family's resolved parameters, see :func:`kv_shard_plans`)."""
    plans, keys, ring = kv_shard_plans(**params)
    outcomes = ParallelScenarioRunner(plans, parallel).run()
    return merge_kv_outcomes(outcomes, keys, ring)


def merge_kv_outcomes(outcomes: Sequence[ShardOutcome], keys: List[str],
                      ring: HashRing):
    """Reassemble worker outcomes into the serial run's result."""
    outcomes = sorted(outcomes, key=lambda outcome: outcome.shard_index)
    stages = list(outcomes[0].stages)
    shard_count = len(outcomes)

    # the serial cut: the first stage (stage order) any shard failed in,
    # and within it the lowest failing shard — the serial drain visits
    # shards in index order, so that is where the serial run stopped.
    cut_stage: Optional[str] = None
    cut_shard = shard_count
    for stage in stages:
        failed = [outcome.shard_index for outcome in outcomes
                  if outcome.status.get(stage) == "failed"]
        if failed:
            cut_stage, cut_shard = stage, min(failed)
            break

    linearizer = StreamingLinearizer()
    stream = ObservationStream(checkers=[linearizer], keep_history=True)

    def replay(stage: str) -> bool:
        """Feed one batch's records in serial completion order."""
        for outcome in outcomes:
            if stage == cut_stage and outcome.shard_index > cut_shard:
                break               # serial never drained these shards
            for op in outcome.records.get(stage, ()):
                stream.observe(op)
        return stage != cut_stage

    completed = replay("create")
    if completed:
        linearizer.settle()

    faults_ran = "faults" in stages
    if completed and faults_ran:
        tau_by_shard = [outcome.tau_local for outcome in outcomes]
        corruptions = sum(outcome.corruptions for outcome in outcomes)
    else:
        tau_by_shard = [0.0] * shard_count
        corruptions = 0
    for key in keys:
        linearizer.seal(f"kv/{key}", tau_by_shard[ring.shard_for(key)])

    if completed:
        for stage in stages:
            if stage in ("create", "faults"):
                continue
            completed = replay(stage)
            if not completed:
                break
            linearizer.settle()
    stream.close()

    def serial_counters(outcome: ShardOutcome):
        """This shard's counters at the serial run's stopping point."""
        if cut_stage is None:
            return outcome.post_counters[stages[-1]]
        if outcome.shard_index <= cut_shard:
            return outcome.post_counters[cut_stage]
        return outcome.pre_counters[cut_stage]

    counters = [serial_counters(outcome) for outcome in outcomes]
    stats = _MergedStoreStats(
        ring,
        messages_sent=sum(counter[0] for counter in counters),
        events_processed=sum(counter[1] for counter in counters),
        now=max(counter[2] for counter in counters))
    per_key = {key: bool(linearizer.ok(f"kv/{key}")) for key in keys}
    return StoreScenarioResult(
        store=stats, history=stream.history, completed=completed,
        tau_no_tr=max(tau_by_shard), tau_by_shard=tau_by_shard,
        per_key_linearizable=per_key, stream=stream,
        extra={"corruptions": corruptions, "pipeline": None, "keys": keys,
               "linearizer": linearizer, "outcomes": list(outcomes)})


# ----------------------------------------------------------------------
# soak: merge S sub-soaks into one scenario-result-shaped record
# ----------------------------------------------------------------------
class _AggregateInversions:
    def __init__(self, trackers: Sequence[OnlineTauTracker]):
        self._trackers = list(trackers)

    def pairs_after(self, after: float) -> int:
        return sum(tracker.inversions.pairs_after(after)
                   for tracker in self._trackers)


class _AggregateTracker:
    """Duck-typed tracker over per-shard trackers (``exact`` and the
    inversion counter are what the runner adapter reads)."""

    def __init__(self, trackers: Sequence[OnlineTauTracker]):
        self.trackers = list(trackers)
        self.inversions = _AggregateInversions(self.trackers)

    @property
    def exact(self) -> bool:
        return all(tracker.exact for tracker in self.trackers)

    def report(self, tau_no_tr: float):
        if len(self.trackers) == 1:
            return self.trackers[0].report(tau_no_tr)
        return None


@dataclass
class MergedScenarioResult:
    """Scenario-result-shaped view over merged shard outcomes.

    Duck-types the surface consumers read off a soak
    :class:`~repro.workloads.scenarios.ScenarioResult`: ``summarize()``,
    ``inversions_after``, ``stream_report``, ``extra["tracker"]`` and the
    stream/history pair.  Aggregation rules: verdict fields are
    all-shards conjunctions, τ instants maxima, count fields sums — the
    identity mapping when ``shards == 1``, which is what the equality
    tests pin against the legacy single-cluster path.
    """

    completed: bool
    tau_no_tr: float
    stream: ObservationStream
    history: Optional[History]
    summary: Any
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def messages_sent(self) -> int:
        return self.summary.messages_sent

    def summarize(self):
        return self.summary

    def inversions_after(self, after: float) -> Optional[int]:
        tracker = self.extra.get("tracker")
        if tracker is None:
            return None
        return tracker.inversions.pairs_after(after)

    def stream_report(self, tau_no_tr: float):
        tracker = self.extra.get("tracker")
        if tracker is None:
            return None
        return tracker.report(tau_no_tr)


def run_parallel_soak(shards: int, parallel: Optional[int],
                      seed: int, params: Dict[str, Any]
                      ) -> MergedScenarioResult:
    """The soak family's shard-parallel execution path.

    ``shards`` independent sub-soaks (hash-derived seeds for
    ``shards > 1``, the scenario seed untouched for ``shards == 1``) run
    to completion; per-shard τ-trackers are rebuilt parent-side from the
    record streams, so verdicts equal an in-process run of the same
    shard operation-for-operation.
    """
    plans = soak_shard_plans(shards, seed, params)
    outcomes = ParallelScenarioRunner(plans, parallel).run()
    return merge_soak_outcomes(outcomes, params)


def merge_soak_outcomes(outcomes: Sequence[ShardOutcome],
                        params: Dict[str, Any]) -> MergedScenarioResult:
    outcomes = sorted(outcomes, key=lambda outcome: outcome.shard_index)
    mode = "atomic" if params.get("kind") == "atomic" else "regular"
    stream = ObservationStream(keep_history=params.get("keep_history",
                                                       False))
    trackers: List[OnlineTauTracker] = []
    reports: List[Any] = []
    for outcome in outcomes:
        tracker = OnlineTauTracker(
            mode=mode, initial=params["initial"],
            write_window=params["write_window"],
            read_window=params["read_window"],
            max_records=params["max_records"],
            candidate_cap=params["candidate_cap"],
            tau_hint=outcome.tau_local)
        reads = 0
        for op in outcome.records["run"]:
            stream.observe(op)
            tracker.observe(op)
            if op.kind == "read":
                reads += 1
        tracker.finish()
        trackers.append(tracker)
        reports.append(tracker.report(outcome.tau_local)
                       if outcome.completed and reads else None)
    stream.close()

    completed = all(outcome.completed for outcome in outcomes)
    tau_no_tr = max(outcome.tau_local for outcome in outcomes)
    finals = [outcome.post_counters["run"] for outcome in outcomes]
    if any(report is None for report in reports):
        stable = tau_1w = tau_stab = stabilization_time = None
        dirty_reads = total_reads = None
    else:
        stable = all(report.stable for report in reports)
        tau_1w = max(report.tau_1w for report in reports)
        tau_stab = max(report.tau_stab for report in reports)
        stabilization_time = max(report.stabilization_time
                                 for report in reports)
        dirty_reads = sum(report.dirty_reads for report in reports)
        total_reads = sum(report.total_reads for report in reports)
    summary = ScenarioSummary(
        completed=completed, tau_no_tr=tau_no_tr, ops=stream.ops,
        writes=stream.writes, reads=stream.reads,
        messages_sent=sum(counter[0] for counter in finals),
        events_processed=sum(counter[1] for counter in finals),
        sim_end=max(counter[2] for counter in finals),
        corruptions=sum(outcome.corruptions for outcome in outcomes),
        history_digest=stream.digest(), stable=stable, tau_1w=tau_1w,
        tau_stab=tau_stab, stabilization_time=stabilization_time,
        dirty_reads=dirty_reads, total_reads=total_reads)
    return MergedScenarioResult(
        completed=completed, tau_no_tr=tau_no_tr, stream=stream,
        history=stream.history, summary=summary,
        extra={"tracker": _AggregateTracker(trackers),
               "trackers": trackers, "reports": reports,
               "outcomes": list(outcomes)})

"""Shard-parallel execution of a *single* simulation.

The scenario families whose work decomposes into independent shards
(``kv``: consistent-hashed server pools; ``soak``: independent
sub-soaks) share no scheduler, network, RNG or fault envelope between
shards, so each shard can run its event loop in its own worker process:
``run_scenario("kv", ..., parallel=4)`` or ``run_scenario("soak", ...,
shards=4, parallel=4)``.

A shard is a plain tuple built in the parent from the serial path's own
functions (``derive_shard_seed``, ``kv_op_batches`` sliced by
``partition_ops``, ``shard_timelines``), so the shard list does not
depend on the worker count.  :func:`~repro.runner.engine.map_in_order`
runs it inline or on the sweep runner's pool, and the merge replays the
outcomes in the serial completion order (batch by batch, shard-index
blocks within a batch).  The merged ``history_digest``, verdicts and
``summarize()`` equal the serial run's, including runs that an event
budget cuts mid-batch (``tests/test_parallel_sim.py``, the
``parallel/kv`` contract).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Sequence

from ..checkers.history import History, Operation, operation_from_handle
from ..checkers.online import OnlineTauTracker, StreamingLinearizer
from ..checkers.stream import ObservationStream
from ..faults.schedule import FaultTimeline
from ..faults.transient import TransientFaultInjector
from ..kvstore.pipeline import Pipeline
from ..kvstore.sharding import HashRing, derive_shard_seed, partition_ops
from ..kvstore.store import StabilizingKVStore
from ..registers.system import Cluster, ClusterConfig
from ..runner.engine import map_in_order
from ..workloads.scenarios import (ScenarioSummary, StoreScenarioResult,
                                   _install_byzantine,
                                   install_fault_envelope, kv_op_batches,
                                   run_batch, shard_timelines, soak_shard)

__all__ = ["MergedScenarioResult", "run_parallel_kv", "run_parallel_soak"]

#: the resolved kv parameters a shard worker builds its pool from.
_KV_POOL = ("n", "t", "client_count", "trace_backend", "enforce_resilience",
            "byzantine_count", "byzantine_strategy", "max_events")


def _counters(cluster: Cluster) -> tuple:
    """``(messages_sent, events_processed, now)``: one shard's counters."""
    return (cluster.network.messages_sent,
            cluster.scheduler.events_processed, cluster.scheduler.now)


def _workers(p: SimpleNamespace) -> int:
    """``parallel=None`` (a sharded soak without a worker count) is 1."""
    return 1 if p.parallel is None else p.parallel


# -- kv: one worker per shard, merged at the serial run's batch barriers -----
def run_parallel_kv(p: SimpleNamespace) -> StoreScenarioResult:
    """The kv family's shard-parallel path (``p``: its resolved
    parameters).  Each shard is ``(pool params, seed, its slice of every
    batch, its fault timeline dict or None)``."""
    ring = HashRing(p.shard_count, vnodes=p.vnodes)
    clients = [f"c{index + 1}" for index in range(p.client_count)]
    keys = [f"k{index}" for index in range(p.num_keys)]
    slices = [partition_ops(batch, lambda op: ring.shard_for(op[2]))
              for batch in kv_op_batches(keys, clients, p.rounds)]
    timelines = shard_timelines(p.corruption_times, p.corruption_fraction,
                                p.fault_timelines, p.shard_count)
    faults = bool(p.corruption_times or p.fault_timelines)
    pool = {name: getattr(p, name) for name in _KV_POOL}
    shards = [(pool, derive_shard_seed(p.seed, shard),
               [batch.get(shard, []) for batch in slices],
               timelines[shard].to_dict() if faults else None)
              for shard in range(p.shard_count)]
    return _merge_kv(map_in_order(_run_kv_shard, shards, _workers(p)),
                     keys, ring)


def _run_kv_shard(shard):
    """One kv shard to completion, as the serial run drives it.

    Returns ``(failed step or None, records, pre, post, tau, corruptions)``
    with ``records``/``pre``/``post`` indexed by step: step 0 is create,
    then a put and a get batch per round, and the fault phase runs before
    step 1.  ``pre`` holds the counters with the step's batch enqueued but
    not drained (where the serial run leaves this shard when an earlier
    shard's drain fails that step), ``post`` those after the drain or at
    the budget exception.  The worker stops at its first failed step.
    """
    pool, seed, batches, timeline = shard
    # the construction ShardedKVStore performs for this shard, minus the
    # sibling pools.
    cluster = Cluster(ClusterConfig(
        n=pool["n"], t=pool["t"], seed=seed,
        trace_backend=pool["trace_backend"],
        enforce_resilience=pool["enforce_resilience"]))
    store = StabilizingKVStore(cluster, client_count=pool["client_count"])
    _install_byzantine(cluster, None, pool["byzantine_count"],
                       pool["byzantine_strategy"])
    records: List[List[Operation]] = []
    pre, post = [], []

    def observe(handle) -> None:
        op = operation_from_handle(handle)
        if op is not None:
            records[-1].append(op)

    pipe = Pipeline(store, on_complete=observe)
    tau = 0.0
    corruptions = 0
    for step, ops in enumerate(batches):
        if step == 1 and timeline is not None:
            injector = TransientFaultInjector.for_cluster(cluster)
            tau = install_fault_envelope(cluster, injector,
                                         FaultTimeline.from_dict(timeline))
            corruptions = injector.corruptions
        records.append([])
        drained = run_batch(pipe, ops, pool["max_events"],
                            before_flush=lambda: pre.append(
                                _counters(cluster)))
        post.append(_counters(cluster))
        if not drained:
            return step, records, pre, post, tau, corruptions
    return None, records, pre, post, tau, corruptions


@dataclass
class _MergedStoreStats:
    """Duck-typed stand-in for ``ShardedKVStore`` in a merged result:
    aggregate counters plus ring placement, with no live clusters."""

    ring: HashRing
    messages_sent: int
    events_processed: int
    now: float

    @property
    def shard_count(self) -> int:
        return self.ring.shard_count

    def shard_for(self, key: str) -> int:
        return self.ring.shard_for(key)


def _merge_kv(outcomes: Sequence[tuple], keys: List[str],
              ring: HashRing) -> StoreScenarioResult:
    """Reassemble the shards' outcomes into the serial run's result."""
    # the serial cut: the first step any shard failed in, and within it
    # the lowest failing shard -- the serial drain visits shards in index
    # order, so that is where the serial run stopped.
    cut_step, cut_shard = min(
        ((outcome[0], shard) for shard, outcome in enumerate(outcomes)
         if outcome[0] is not None), default=(None, len(outcomes)))
    linearizer = StreamingLinearizer()
    stream = ObservationStream(checkers=[linearizer], keep_history=True)

    def replay(step: int) -> bool:
        """Feed one step's records in serial completion order."""
        for shard, outcome in enumerate(outcomes):
            if step == cut_step and shard > cut_shard:
                break               # serial never drained these shards
            for op in outcome[1][step]:
                stream.observe(op)
        if step == cut_step:
            return False
        linearizer.settle()
        return True

    completed = replay(0)
    tau_by_shard = [outcome[4] if completed else 0.0 for outcome in outcomes]
    corruptions = sum(outcome[5] for outcome in outcomes) if completed else 0
    for key in keys:
        linearizer.seal(f"kv/{key}", tau_by_shard[ring.shard_for(key)])
    for step in range(1, len(outcomes[0][1])):
        if not completed:
            break
        completed = replay(step)
    stream.close()

    # each shard's counters where the serial run stopped: shards up to the
    # cut drained that step, later ones hold it enqueued but undrained.
    messages, events, nows = zip(*(
        outcome[3][-1] if cut_step is None else
        outcome[3][cut_step] if shard <= cut_shard else outcome[2][cut_step]
        for shard, outcome in enumerate(outcomes)))
    return StoreScenarioResult(
        store=_MergedStoreStats(ring, sum(messages), sum(events), max(nows)),
        history=stream.history, completed=completed,
        tau_no_tr=max(tau_by_shard), tau_by_shard=tau_by_shard,
        per_key_linearizable={key: bool(linearizer.ok(f"kv/{key}"))
                              for key in keys},
        stream=stream,
        extra={"corruptions": corruptions, "pipeline": None, "keys": keys,
               "linearizer": linearizer})


# -- soak: independent sub-soaks, trackers rebuilt in the parent -------------
class _Recorder(list):
    """A checker-shaped tap that keeps operations in completion order."""

    observe = list.append

    def finish(self) -> None:
        pass


def _run_soak_shard(shard):
    """One sub-soak: ``(completed, records, counters, tau, corruptions)``.

    It runs untracked; a tracker holds closures and cannot be pickled, so
    the parent rebuilds it from the records."""
    params, seed = shard
    recorder = _Recorder()
    result = soak_shard(SimpleNamespace(**params), seed, tracked=False,
                        checkers=(recorder,))
    return (result.completed, recorder, _counters(result.cluster),
            result.tau_no_tr, result.extra["injector"].corruptions)


class _AggregateTracker:
    """Duck-typed tracker over per-shard trackers (what the verdict
    reads: ``mode``, ``exact``, ``last_read_invoke`` and the inversion
    counter ``inversions.pairs_after``, which it is itself)."""

    def __init__(self, trackers: Sequence[OnlineTauTracker]):
        self.trackers = list(trackers)
        self.inversions = self
        self.mode = self.trackers[0].mode
        self.initial = self.trackers[0].initial

    def pairs_after(self, after: float) -> int:
        return sum(tracker.inversions.pairs_after(after)
                   for tracker in self.trackers)

    @property
    def exact(self) -> bool:
        return all(tracker.exact for tracker in self.trackers)

    @property
    def last_read_invoke(self) -> float:
        return max(tracker.last_read_invoke for tracker in self.trackers)

    def report(self, tau_no_tr: float):
        if len(self.trackers) == 1:
            return self.trackers[0].report(tau_no_tr)
        return None


@dataclass
class MergedScenarioResult:
    """A soak ``ScenarioResult``'s surface (``summarize()``,
    ``extra["tracker"]``, stream and history) over merged sub-soaks:
    verdicts are all-shards conjunctions, τ instants maxima and counts
    sums, the identity when ``shards == 1``."""

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


def run_parallel_soak(p: SimpleNamespace) -> MergedScenarioResult:
    """The soak family's shard-parallel path (``p``: its resolved
    parameters): ``p.shards`` sub-soaks (derived seeds for more than one,
    the scenario seed for one), whose trackers are rebuilt here from the
    records, so verdicts equal an in-process run of each shard."""
    params = {name: value for name, value in vars(p).items()
              if name not in ("shards", "parallel", "seed")}
    seeds = ([p.seed] if p.shards == 1 else
             [derive_shard_seed(p.seed, index) for index in range(p.shards)])
    outcomes = map_in_order(_run_soak_shard,
                            [(params, seed) for seed in seeds], _workers(p))
    mode = "atomic" if p.kind == "atomic" else "regular"
    stream = ObservationStream(keep_history=p.keep_history)
    trackers: List[OnlineTauTracker] = []
    reports: List[Any] = []
    for completed, records, _, tau, _ in outcomes:
        tracker = OnlineTauTracker(
            mode=mode, initial=p.initial, write_window=p.write_window,
            read_window=p.read_window, max_records=p.max_records,
            candidate_cap=p.candidate_cap, tau_hint=tau)
        for op in records:
            stream.observe(op)
            tracker.observe(op)
        tracker.finish()
        trackers.append(tracker)
        reports.append(tracker.report(tau)
                       if completed and tracker.total_reads else None)
    stream.close()

    completed = all(outcome[0] for outcome in outcomes)
    tau_no_tr = max(outcome[3] for outcome in outcomes)
    messages, events, ends = zip(*(outcome[2] for outcome in outcomes))
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
        messages_sent=sum(messages), events_processed=sum(events),
        sim_end=max(ends),
        corruptions=sum(outcome[4] for outcome in outcomes),
        history_digest=stream.digest(), stable=stable, tau_1w=tau_1w,
        tau_stab=tau_stab, stabilization_time=stabilization_time,
        dirty_reads=dirty_reads, total_reads=total_reads)
    return MergedScenarioResult(
        completed=completed, tau_no_tr=tau_no_tr, stream=stream,
        history=stream.history, summary=summary,
        extra={"tracker": _AggregateTracker(trackers),
               "trackers": trackers, "reports": reports})

"""Shard executors: run one shard's event loop to completion.

A :class:`ShardExecutor` consumes one :class:`~repro.parallel.plan
.ShardPlan` and replays that shard's sub-simulation — the same cluster
construction, operation issue order, fault anchoring and event budgets as
the serial scenario path, restricted to one shard.  Because shards share
no scheduler, network, RNG or fault envelope, the restriction is exact:
the worker's cluster evolves byte-identically to the corresponding shard
of the serial run.

What comes back is a :class:`ShardOutcome` — compact, picklable: the
completion-ordered :class:`~repro.checkers.history.Operation` records of
every stage, per-stage counter snapshots (taken both after enqueue and
after the drain, so the merge step can reconstruct the serial run's exact
stopping point when a budget exhausts mid-batch), the shard's τ and
corruption count from the fault phase, and per-stage success flags.

``execute_shard_plan`` is the module-level worker entry point
(``ProcessPoolExecutor.map``-able under fork *and* spawn).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

from ..checkers.history import Operation, operation_from_handle
from ..faults.schedule import FaultTimeline
from ..faults.transient import TransientFaultInjector
from ..kvstore.pipeline import Pipeline
from ..kvstore.store import StabilizingKVStore
from ..registers.system import Cluster, ClusterConfig
from ..workloads.scenarios import (_install_byzantine,
                                   install_fault_envelope, run_batch,
                                   soak_shard)
from .plan import ShardPlan

#: (messages_sent, events_processed, now) — a shard counter snapshot.
Counters = Tuple[int, int, float]


@dataclass
class ShardOutcome:
    """Everything a worker ships back about one shard's execution."""

    shard_index: int
    family: str
    stages: Tuple[str, ...]
    #: stage -> "ok" | "failed" | "skipped" (after this shard's failure).
    status: Dict[str, str] = field(default_factory=dict)
    #: stage -> completion-ordered operation records (partial when the
    #: stage failed mid-drain — exactly the completions the serial run
    #: would have observed before the budget exhausted).
    records: Dict[str, List[Operation]] = field(default_factory=dict)
    #: stage -> counters after enqueue, before the drain: the state the
    #: serial run leaves this shard in when an *earlier* shard's drain
    #: fails the batch first.
    pre_counters: Dict[str, Counters] = field(default_factory=dict)
    #: stage -> counters after the drain (or at the budget exception).
    post_counters: Dict[str, Counters] = field(default_factory=dict)
    tau_local: float = 0.0
    corruptions: int = 0
    completed: bool = True


class _Recorder:
    """An :class:`~repro.checkers.online.OnlineChecker`-shaped tap that
    collects operations in completion order (the soak worker's stream
    observer)."""

    def __init__(self):
        self.ops: List[Operation] = []

    def observe(self, op: Operation) -> None:
        self.ops.append(op)

    def finish(self) -> None:
        pass


class ShardExecutor:
    """Execution of one :class:`ShardPlan`, stage by stage, in plan order."""

    def __init__(self, plan: ShardPlan):
        self.plan = plan
        self.outcome = ShardOutcome(shard_index=plan.shard_index,
                                    family=plan.family,
                                    stages=tuple(plan.stage_names()))
        # lazily-built simulation state (per family)
        self._cluster: Optional[Cluster] = None
        self._pipe: Optional[Pipeline] = None
        self._stage_records: List[Operation] = []
        self._batch_cursor = 0

    # -- shared plumbing ---------------------------------------------------
    def _counters(self) -> Counters:
        cluster = self._cluster
        return (cluster.network.messages_sent,
                cluster.scheduler.events_processed,
                cluster.scheduler.now)

    def _observe(self, handle) -> None:
        op = operation_from_handle(handle)
        if op is not None:
            self._stage_records.append(op)

    def _setup_kv(self) -> None:
        plan = self.plan
        params = plan.params
        # the exact construction ShardedKVStore performs for this shard
        # index, minus the S-1 sibling pools.
        self._cluster = Cluster(ClusterConfig(
            n=params["n"], t=params["t"], seed=plan.seed,
            trace_backend=params["trace_backend"],
            enforce_resilience=params["enforce_resilience"]))
        store = StabilizingKVStore(self._cluster,
                                   client_count=params["client_count"])
        _install_byzantine(self._cluster, None, params["byzantine_count"],
                           params["byzantine_strategy"])
        self._pipe = Pipeline(store, on_complete=self._observe)

    # -- kv stages ---------------------------------------------------------
    def _run_kv_batch(self, stage: str) -> bool:
        plan, outcome = self.plan, self.outcome
        ops = plan.op_batches[self._batch_cursor]
        self._batch_cursor += 1
        self._stage_records = outcome.records[stage] = []

        def enqueued() -> None:
            # serial equivalence point: when an earlier shard's drain
            # fails this batch, the serial run leaves this shard enqueued
            # but undrained — snapshot that state before flushing.
            outcome.pre_counters[stage] = self._counters()

        drained = run_batch(self._pipe, ops, plan.params["max_events"],
                            before_flush=enqueued)
        if not drained:
            self._pipe.issued.clear()
        outcome.post_counters[stage] = self._counters()
        return drained

    def _run_kv_faults(self) -> bool:
        plan, outcome = self.plan, self.outcome
        injector = TransientFaultInjector.for_cluster(self._cluster)
        # installing schedules events but processes none, so the
        # installed-but-not-yet-run snapshot can be taken up front.
        outcome.pre_counters["faults"] = self._counters()
        outcome.tau_local = install_fault_envelope(
            self._cluster, injector, FaultTimeline.from_dict(plan.timeline))
        outcome.post_counters["faults"] = self._counters()
        outcome.corruptions = injector.corruptions
        return True

    # -- soak stage --------------------------------------------------------
    def _run_soak(self) -> bool:
        recorder = _Recorder()
        outcome = self.outcome
        outcome.pre_counters["run"] = (0, 0, 0.0)
        shard = soak_shard(SimpleNamespace(**self.plan.params),
                           self.plan.seed, tracked=False,
                           checkers=(recorder,))
        self._cluster = shard.cluster
        outcome.records["run"] = recorder.ops
        outcome.post_counters["run"] = self._counters()
        outcome.tau_local = shard.tau_no_tr
        outcome.corruptions = shard.extra["injector"].corruptions
        return shard.completed

    # -- driving -----------------------------------------------------------
    def run(self) -> ShardOutcome:
        """Run every stage (the worker-process entry); stages after a
        failed one are marked skipped.  Returns the outcome."""
        outcome = self.outcome
        for stage in outcome.stages:
            if not outcome.completed:
                outcome.status[stage] = "skipped"
                continue
            if self.plan.family == "soak":
                ok = self._run_soak()
            else:
                if self._pipe is None:
                    self._setup_kv()
                ok = (self._run_kv_faults() if stage == "faults"
                      else self._run_kv_batch(stage))
            outcome.status[stage] = "ok" if ok else "failed"
            outcome.completed = ok
        return outcome


def execute_shard_plan(plan: ShardPlan) -> ShardOutcome:
    """Worker-process entry point: one plan in, one outcome out."""
    return ShardExecutor(plan).run()

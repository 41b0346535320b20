"""Scenario families: one registry entry each, composed from shared steps.

A scenario stands up a cluster (or a sharded store), installs faults
(transient bursts before τ_no_tr, Byzantine strategies throughout),
drives a read/write workload, and returns the history plus stabilization
verdicts.  Every family is one :class:`Family` entry in :data:`FAMILIES`
— a parameter-defaults mapping (shared groups written once, overlaid per
family) plus a short run function — reached through
:class:`~repro.workloads.spec.ScenarioSpec` / ``run_scenario``, which
validate and resolve parameters against that mapping.

A run's faults are one :class:`~repro.faults.schedule.FaultTimeline`:
the family's scalar knobs (``corruption_times``/``corruption_fraction``,
``link_garbage``, ``fault_bursts``, rotations, ``partition_*``) compile
into events in a fixed order — bursts, link garbage, then the family's
own events and the user's timeline — which is installed once and read
for τ.

The run functions compose steps that each exist exactly once: the four
SWSR-shaped families (``swsr``, ``partition``, ``mobile-byz``, ``soak``)
share :class:`_SwsrRig`, the :func:`_drive_swsr` loop, :func:`_bursts`
and :func:`_rotation_timeline`, and differ only in fault timeline,
engine windows and chunk size; the store-backed families (``kv``,
``reshard``) share :func:`kv_op_batches`, :func:`run_batch`,
:func:`shard_timelines` and :func:`install_fault_envelope` — which
:mod:`repro.parallel` also plans and runs its shard workers from, making
the parallel execution serial-equivalent by construction.

Every family runs on the shared
:class:`~repro.workloads.engine.ScenarioEngine`: completed operations are
fed into an :class:`~repro.checkers.stream.ObservationStream` as drivers
finish them, so counters, the history digest and (for SWSR-shaped runs)
the stabilization report are online by-products of the run rather than
terminal passes over a materialized history.  Ordinary scenarios still
retain the full :class:`~repro.checkers.history.History` for replay and
confirmation paths; the long-horizon ``soak`` family switches retention
off and runs arbitrarily long workloads under a bounded peak-memory
envelope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import (Any, Callable, Dict, Iterator, List, Mapping, Optional,
                    Sequence, Tuple, Union)

from ..checkers.history import History
from ..checkers.online import OnlineTauTracker, StreamingLinearizer
from ..checkers.stabilization import StabilizationReport
from ..checkers.stream import ObservationStream
from ..faults.byzantine import strategy_factory
from ..faults.schedule import RESHARD_KINDS, FaultTimeline
from ..faults.transient import TransientFaultInjector
from ..kvstore.pipeline import Pipeline
from ..kvstore.rebalance import RebalanceReport, Rebalancer
from ..kvstore.sharded import ShardedKVStore
from ..registers.bounded_seq import WsnConfig
from ..registers.system import (Cluster, ClusterConfig, build_mwmr,
                                build_swsr_atomic, build_swsr_regular)
from ..sim.errors import SimulationLimitReached
from .engine import ScenarioEngine
from .generators import ValueStream

__all__ = [
    "FAMILIES", "Family", "INITIAL", "ScenarioResult", "ScenarioSummary",
    "StoreScenarioResult",
]

#: default register initial value, shared by every scenario family (the
#: checkers treat it as virtual write #-1 — keep one source of truth).
INITIAL = "v_init"

#: one concrete KV operation: ``(kind, client, key, value-or-None)``.
KVOp = Tuple[str, str, str, Optional[Any]]


@dataclass(frozen=True)
class ScenarioSummary:
    """The picklable cross-process boundary of a scenario run.

    A :class:`ScenarioResult` drags the whole :class:`Cluster` (scheduler,
    network, live client processes) along — none of it picklable, all of it
    useless to an aggregator.  ``ScenarioResult.summarize()`` reduces a run
    to this flat record of verdicts, counters and τ-timings built from
    plain ``str``/``int``/``float``/``bool`` values, which is what sweep
    workers ship back to the parent process (see ``repro.runner``).

    Contract for scenario authors: every field must stay picklable and
    deterministic — derived from the simulated execution only, never from
    wall-clock time, object identities or iteration order of unordered
    containers.  ``history_digest`` fingerprints the full operation history
    so determinism can be asserted without shipping the history itself;
    counters and digest are read straight off the run's observation
    stream (single pass, no history re-render).
    """

    completed: bool
    tau_no_tr: float
    ops: int
    writes: int
    reads: int
    messages_sent: int
    events_processed: int
    sim_end: float
    corruptions: int
    history_digest: str
    stable: Optional[bool] = None
    tau_1w: Optional[float] = None
    tau_stab: Optional[float] = None
    stabilization_time: Optional[float] = None
    dirty_reads: Optional[int] = None
    total_reads: Optional[int] = None
    #: per-migration-epoch τ of live-resharding runs: one
    #: ``{"label", "start", "tau"}`` entry per rebalance handoff
    #: (``None`` for every other family).
    epoch_taus: Optional[Tuple[Dict[str, Any], ...]] = None

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict rendering (JSON-ready, keys sorted: stable order)."""
        payload = dict(sorted(vars(self).items()))
        if self.epoch_taus is not None:
            payload["epoch_taus"] = [dict(sorted(entry.items()))
                                     for entry in self.epoch_taus]
        return payload


def _stream_counters(stream: ObservationStream) -> Dict[str, Any]:
    """The summary's op counters and digest, off the run's stream."""
    return dict(ops=stream.ops, writes=stream.writes, reads=stream.reads,
                history_digest=stream.digest())


@dataclass
class ScenarioResult:
    """Everything a cluster-backed experiment needs to report.

    ``stream`` is the run's observation pipeline; ``history`` is the
    materialized operation history when the scenario retained one
    (``None`` for memory-bounded soak runs).  ``extra["tracker"]`` holds
    the online τ-tracker of SWSR-shaped runs, which answers any cut-off,
    so :func:`~repro.workloads.verdict.judge` reads verdicts off the
    stream instead of re-scanning the history.
    """

    cluster: Cluster
    history: Optional[History]
    completed: bool                      # all operations terminated
    stream: ObservationStream
    report: Optional[StabilizationReport] = None
    tau_no_tr: float = 0.0
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def messages_sent(self) -> int:
        return self.cluster.network.messages_sent

    def inversions_after(self, after: float) -> Optional[int]:
        """New/old-inversion pairs (both reads invoked at/after ``after``)
        counted by the run's online detector; ``None`` without one."""
        tracker = self.extra.get("tracker")
        if tracker is None:
            return None
        return tracker.inversions.pairs_after(after)

    def summarize(self) -> ScenarioSummary:
        """Reduce to the compact, picklable record sweep workers return."""
        injector = self.extra.get("injector")
        report = self.report
        verdict = {} if report is None else {
            name: getattr(report, name) for name in (
                "stable", "tau_1w", "tau_stab", "stabilization_time",
                "dirty_reads", "total_reads")}
        return ScenarioSummary(
            completed=self.completed,
            tau_no_tr=self.tau_no_tr,
            messages_sent=self.messages_sent,
            events_processed=self.cluster.scheduler.events_processed,
            sim_end=self.cluster.scheduler.now,
            corruptions=injector.corruptions if injector else 0,
            **_stream_counters(self.stream), **verdict)


@dataclass
class StoreScenarioResult:
    """Result of a store-backed run: many clusters, one merged history.

    The per-key verdict (``linearizable``) judges the *post-τ* suffix of
    every key's register history — exactly the window in which the MWMR
    construction owes atomicity (writes restart after the last transient
    event; the paper's assumption (b) per shard).  Verdicts come from the
    run's :class:`~repro.checkers.online.StreamingLinearizer`, which
    consumed each shard's completions as they happened.

    A live-resharding run additionally carries its migration record:
    ``rebalances`` (one :class:`~repro.kvstore.rebalance.RebalanceReport`
    per applied plan event, in application order) and ``epoch_taus``
    (per-migration-epoch τ — for each handoff, the instant from which
    every key's reads are consistent again, ``None`` if violations
    persisted to the end of the stream).  Runs whose ring never changes
    (``kv``) leave ``rebalances`` empty and ``epoch_taus`` ``None``.
    """

    store: ShardedKVStore
    history: Optional[History]
    completed: bool
    stream: ObservationStream
    tau_no_tr: float = 0.0
    #: per-shard last-transient instants (shards are independent
    #: simulations, so each key is judged against its *own* shard's τ).
    tau_by_shard: List[float] = field(default_factory=list)
    per_key_linearizable: Dict[str, bool] = field(default_factory=dict)
    rebalances: List[RebalanceReport] = field(default_factory=list)
    epoch_taus: Optional[List[Dict[str, Any]]] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def linearizable(self) -> bool:
        return all(self.per_key_linearizable.values())

    @property
    def messages_sent(self) -> int:
        return self.store.messages_sent

    def summarize(self) -> ScenarioSummary:
        """Reduce to the shared picklable summary: ``stable`` carries the
        all-keys-linearizable verdict (across every handoff, if any) and
        ``epoch_taus`` the per-migration-epoch τ timeline."""
        return ScenarioSummary(
            completed=self.completed,
            tau_no_tr=self.tau_no_tr,
            messages_sent=self.store.messages_sent,
            events_processed=self.store.events_processed,
            sim_end=self.store.now,
            corruptions=int(self.extra.get("corruptions", 0)),
            stable=self.completed and self.linearizable,
            epoch_taus=(None if self.epoch_taus is None else
                        tuple(dict(entry) for entry in self.epoch_taus)),
            **_stream_counters(self.stream))


# -- shared steps: faults ----------------------------------------------------

def _bursts(corruption_times: Sequence[float],
            corruption_fraction: Union[float, Sequence[float]],
            targets: str) -> FaultTimeline:
    """The ``corruption_times`` / ``corruption_fraction`` knobs spelled
    as a timeline: one ``burst`` of ``targets`` per corruption time.

    Passing a sequence of fractions gives each burst its own severity (a
    *corruption schedule*); its length must match.  Every fraction must
    lie in [0, 1] — even with no bursts to apply it to.
    """
    scalar = isinstance(corruption_fraction, (int, float))
    fractions = [float(fraction) for fraction in (
        [corruption_fraction] if scalar else corruption_fraction)]
    if not all(0.0 <= fraction <= 1.0 for fraction in fractions):
        raise ValueError(f"corruption_fraction must be within [0, 1], got "
                         f"{corruption_fraction}")
    if scalar:
        fractions *= len(corruption_times)
    elif len(fractions) != len(corruption_times):
        raise ValueError(
            f"corruption_fraction sequence has {len(fractions)} entries "
            f"for {len(corruption_times)} corruption times")
    timeline = FaultTimeline()
    for time, fraction in zip(corruption_times, fractions):
        timeline.burst(time, fraction=fraction, targets=targets)
    return timeline


def _as_timeline(timeline: Union[dict, FaultTimeline]) -> FaultTimeline:
    if isinstance(timeline, FaultTimeline):
        return timeline
    return FaultTimeline.from_dict(timeline)


def _install_byzantine(cluster: Cluster, byzantine: Optional[Dict[str, str]],
                       byzantine_count: int, byzantine_strategy: str) -> None:
    """Install strategies either from an explicit {server: name} map or

    as ``byzantine_count`` servers all running ``byzantine_strategy``.
    More than ``t`` is legal (the bound-tightness experiments rely on
    it); more than ``n`` — or fewer than none — is a typo.
    """
    n = len(cluster.server_ids)
    if not 0 <= byzantine_count <= n:
        raise ValueError(f"byzantine_count must be within 0..n={n}, got "
                         f"{byzantine_count}; slicing the server list with "
                         "it would silently install a different adversary")
    if byzantine:
        for server_id, name in byzantine.items():
            cluster.make_byzantine([server_id], strategy_factory(name, cluster))
    elif byzantine_count > 0:
        ids = cluster.server_ids[:byzantine_count]
        cluster.make_byzantine(ids,
                               strategy_factory(byzantine_strategy, cluster))


def _rotation_timeline(timeline: FaultTimeline, server_ids: List[str],
                       start: float, p: SimpleNamespace) -> None:
    """Append the mobile-Byzantine rotation plan (footnote 1) to
    ``timeline``.

    The Byzantine set (size ``rotation_size``, default ``t``) hops across
    the server ring every ``rotation_gap`` time units (default
    ``2 * op_gap``), ``rotations`` times, from ``start`` on.  A server
    leaving the set re-joins the correct ones with *arbitrary* local
    state — the timeline corrupts it through the transient injector,
    which is exactly the situation the stabilization property covers.
    """
    size = p.t if p.rotation_size is None else p.rotation_size
    gap = 2.0 * p.op_gap if p.rotation_gap is None else p.rotation_gap
    for index in range(p.rotations):
        members = [server_ids[(index * size + offset) % p.n]
                   for offset in range(size)]
        timeline.byzantine(start + index * gap, members,
                           p.rotation_strategy)


def shard_timelines(corruption_times: Sequence[float],
                    corruption_fraction: Union[float, Sequence[float]],
                    fault_timelines: Optional[Dict[Any, Any]],
                    shard_count: int) -> List[FaultTimeline]:
    """Every shard's relative fault timeline, indexed by shard.

    The scalar bursts (servers only, on every shard) come first, then the
    shard's own ``fault_timelines`` entry (``{shard_index:
    FaultTimeline-or-dict}``, range-checked).
    """
    own = {int(shard): _as_timeline(timeline)
           for shard, timeline in (fault_timelines or {}).items()}
    out_of_range = sorted(shard for shard in own
                          if not 0 <= shard < shard_count)
    if out_of_range:
        raise ValueError(
            f"fault_timelines reference shards {out_of_range} but the "
            f"store has {shard_count} shard(s); a silently dropped "
            "timeline would fake a fault-free verdict")
    bursts = _bursts(corruption_times, corruption_fraction, "servers").events
    return [FaultTimeline(bursts + (own[shard].events if shard in own
                                    else []))
            for shard in range(shard_count)]


def install_fault_envelope(cluster: Cluster,
                           injector: TransientFaultInjector,
                           timeline: FaultTimeline) -> float:
    """One shard's fault phase; returns its τ_local.

    The shard's relative timeline is anchored to its local clock —
    shards are independent simulations, each at its own post-create
    instant — and the shard then runs to τ_local + 1, so the workload
    restarts after its last transient event (the paper's assumption (b)
    per shard).
    """
    anchor = cluster.now
    installed = timeline.shifted(anchor)
    installed.install(cluster, injector)
    tau_local = max(anchor, installed.tau_no_tr)
    cluster.run(until=tau_local + 1.0)
    return tau_local


# -- shared steps: the SWSR-shaped families ----------------------------------

class _SwsrRig:
    """Cluster, writer/reader pair and injector of one SWSR-shaped run.

    Built in the order every such family shares: cluster (``kind`` picks
    the Figure 2/5 regular or Figure 3 atomic construction), static
    Byzantine servers, then the transient injector.
    """

    def __init__(self, p: SimpleNamespace, seed: Optional[int] = None,
                 synchronous: bool = False,
                 wsn_config: Optional[WsnConfig] = None):
        self.cluster = cluster = Cluster(ClusterConfig(
            n=p.n, t=p.t, seed=p.seed if seed is None else seed,
            synchronous=synchronous, transport=p.transport,
            enforce_resilience=p.enforce_resilience,
            trace_backend=p.trace_backend))
        if p.kind == "regular":
            self.writer, self.reader = build_swsr_regular(
                cluster, initial=p.initial)
        elif p.kind == "atomic":
            self.writer, self.reader = build_swsr_atomic(
                cluster, initial=p.initial, config=wsn_config)
        else:
            raise ValueError(f"unknown register kind {p.kind!r}")
        # mobile-byz has no static set: its adversary is the rotation.
        _install_byzantine(cluster, getattr(p, "byzantine", None),
                           getattr(p, "byzantine_count", 0),
                           getattr(p, "byzantine_strategy", None))
        self.injector = TransientFaultInjector.for_cluster(cluster)

    def drive(self, p: SimpleNamespace, timeline: FaultTimeline,
              start: float, tau: float, chunk_ops: Optional[int] = None,
              engine_kwargs: Optional[Dict[str, Any]] = None,
              **extra: Any) -> ScenarioResult:
        """Install ``timeline`` (the run's whole adversary), run the
        workload from ``start`` and assemble the result.

        The stabilization report is judged from ``tau`` and read off the
        engine's online tracker — no post-run pass over the history.
        ``engine_kwargs`` override the default engine (exact checkers,
        retained history, tracker mode from ``kind``).
        """
        timeline.install(self.cluster, self.injector)
        kwargs = {"mode": "atomic" if p.kind == "atomic" else "regular",
                  **(engine_kwargs or {})}
        engine = ScenarioEngine(self.cluster, initial=p.initial, **kwargs)
        completed = _drive_swsr(engine, self.writer, self.reader, start, p,
                                chunk_ops)
        return ScenarioResult(
            cluster=self.cluster, history=engine.history,
            completed=completed, report=engine.report(tau, completed),
            tau_no_tr=tau, stream=engine.stream,
            extra={"writer": self.writer, "reader": self.reader,
                   "injector": self.injector, "tracker": engine.tracker,
                   "timeline": timeline, **extra})


def _drive_swsr(engine: ScenarioEngine, writer, reader, start: float,
                p: SimpleNamespace, chunk_ops: Optional[int]) -> bool:
    """The SWSR drive loop: alternating writes and reads, run to the end.

    Write ``i`` is due at ``start + i * op_gap`` and read ``i``
    ``reader_offset`` later (default ``op_gap / 2``: each read falls
    strictly between two writes; a small offset creates read/write
    concurrency).  Operations are scheduled ``chunk_ops`` indices at a
    time (``None``: the whole workload at once) and stream into
    ``engine.stream`` as they complete.  Returns whether all of them
    terminated within ``p.max_events``.
    """
    for name in ("num_writes", "num_reads"):
        if getattr(p, name) < 0:
            raise ValueError(f"{name} must be >= 0, got {getattr(p, name)}; "
                             "a negative count would silently run none")
    writer_driver = engine.driver(writer)
    reader_driver = engine.driver(reader)
    values = ValueStream()
    scheduler = engine.scheduler
    offset = p.op_gap / 2 if p.reader_offset is None else p.reader_offset
    count = max(p.num_writes, p.num_reads)
    chunk = max(1, count if chunk_ops is None else chunk_ops)
    completed = True
    scheduled = 0
    start_events = scheduler.events_processed
    while completed and scheduled < count:
        upper = min(count, scheduled + chunk)
        # slow operations can outrun the nominal schedule across chunks;
        # clamp to the clock — the sequential drivers queue either way.
        now = scheduler.now
        for index in range(scheduled, upper):
            base = start + index * p.op_gap
            if index < p.num_writes:
                writer_driver.at(max(base, now),
                                 lambda: writer.write(values.next()))
            if index < p.num_reads:
                reader_driver.at(max(base + offset, now), reader.read)
        scheduled = upper
        spent = scheduler.events_processed - start_events
        completed = engine.step(p.max_events - spent)
    engine.stream.close()
    return completed


# -- shared steps: the store-backed families ---------------------------------

def kv_op_batches(keys: Sequence[str], clients: Sequence[str], rounds: int,
                  writer_of: Optional[Mapping[str, str]] = None
                  ) -> Iterator[List[KVOp]]:
    """The store-backed families' batch schedule, one batch per barrier.

    A create batch (one ``put`` per key), then per round a put batch and
    a get batch.  Writers rotate round-robin over ``clients`` unless
    ``writer_of`` designates one writer per key; readers always rotate.
    :class:`ValueStream` is a pure counter, so a consumer that stops
    early (the serial run) and one that materializes every batch up
    front (the parallel planner) see the same value on every operation.
    """
    values = ValueStream()

    def puts(turn: int) -> List[KVOp]:
        return [("put", writer_of[key] if writer_of
                 else clients[(turn + index) % len(clients)], key,
                 values.next()) for index, key in enumerate(keys)]

    yield puts(0)
    for round_index in range(rounds):
        yield puts(round_index)
        yield get_batch(keys, clients, round_index)


def get_batch(keys: Sequence[str], clients: Sequence[str],
              round_index: int) -> List[KVOp]:
    """Round ``round_index``'s read-every-key batch (rotating readers)."""
    return [("get", clients[(round_index + index + 1) % len(clients)], key,
             None) for index, key in enumerate(keys)]


def run_batch(pipe: Pipeline, ops: Sequence[KVOp], max_events: int,
              before_flush: Optional[Callable[[], None]] = None) -> bool:
    """Enqueue one batch on ``pipe`` and drain it; ``False`` on budget.

    ``before_flush`` runs with the batch enqueued and in flight (a live
    rebalance applies there; a parallel worker snapshots its counters).
    Flush is resumable (handles that completed were detached and
    annotated on the exception); scenarios stop the workload instead.
    """
    try:
        for kind, client, key, value in ops:
            if kind == "put":
                pipe.put(client, key, value)
            else:
                pipe.get(client, key)
        if before_flush is not None:
            before_flush()
        pipe.flush(max_events=max_events)
    except SimulationLimitReached:
        return False
    return True


def _build_store(p: SimpleNamespace) -> Tuple[ShardedKVStore, List[str]]:
    """The sharded store (static Byzantine servers installed on every
    shard from the start) and the workload's keys ``k0..k{num_keys-1}``."""
    store = ShardedKVStore(
        shard_count=p.shard_count, n=p.n, t=p.t, seed=p.seed,
        client_count=p.client_count, vnodes=p.vnodes,
        trace_backend=p.trace_backend,
        enforce_resilience=p.enforce_resilience)
    for cluster in store.group:
        _install_byzantine(cluster, None, p.byzantine_count,
                           p.byzantine_strategy)
    return store, [f"k{index}" for index in range(p.num_keys)]


def _check_store_workload(p: SimpleNamespace) -> None:
    if p.rounds < 1:
        raise ValueError("need at least one workload round")
    if p.num_keys < 1:
        raise ValueError(f"num_keys must be >= 1, got {p.num_keys}; a "
                         "store with no key would judge no operation")
    if p.vnodes < 1:
        raise ValueError("need at least one virtual node per shard")


def _drive_store(p: SimpleNamespace, store: ShardedKVStore,
                 keys: List[str], linearizer: StreamingLinearizer,
                 batch: Callable[..., bool], tau_by_shard: List[float],
                 writer_of: Optional[Mapping[str, str]] = None
                 ) -> Tuple[bool, int]:
    """The three phases of a store-backed run; ``(completed, corruptions)``.

    1. **create** — every key receives an initial ``put``, so each shard
       materializes its registers before any fault fires;
    2. **faults** — :func:`install_fault_envelope` on every (initial)
       shard, filling ``tau_by_shard``; then each key is sealed at its
       own shard's τ, which fixes the linearizer's post-τ cutoff and
       replays the (tiny) pre-fault buffer through it;
    3. **workload** — ``rounds`` rounds; each re-``put``\\s every key and
       then ``get``\\s it back, with a flush barrier between the puts and
       the gets (writes-repair-then-read, the paper's stabilization
       posture).  ``batch(ops, live=True)`` marks these batches as the
       ones a live rebalance may ride.
    """
    timelines = shard_timelines(p.corruption_times, p.corruption_fraction,
                                p.fault_timelines, p.shard_count)
    batches = kv_op_batches(keys, store.client_pids, p.rounds, writer_of)
    completed = batch(next(batches))
    corruptions = 0
    if completed and (p.corruption_times or p.fault_timelines):
        for shard, timeline in enumerate(timelines):
            tau_by_shard[shard] = install_fault_envelope(
                store.group[shard], store.injector_for(shard), timeline)
        corruptions = sum(injector.corruptions
                          for injector in store._injectors.values())
    for key in keys:
        linearizer.seal(f"kv/{key}", tau_by_shard[store.shard_for(key)])
    for ops in batches:
        if not completed:
            break
        completed = batch(ops, live=True)
    return completed, corruptions


# -- the families -------------------------------------------------------------

def _run_swsr(p: SimpleNamespace) -> ScenarioResult:
    """Run a full SWSR experiment (Figure 2/3/5 depending on flags).

    * ``kind``: ``"regular"`` (Figure 2 / 5) or ``"atomic"`` (Figure 3).
    * ``synchronous``: use the Appendix-A model (``t < n/3``).
    * ``corruption_times``: transient bursts; the last one is τ_no_tr.
      All server and client protocol variables are corrupted (fraction-
      sampled) and, if ``link_garbage > 0``, garbage lands on every link.
    * ``trace_backend``: "null" (default, shared by every family: record
      nothing, fused sends) or "full" (record every event in
      ``result.cluster.trace``).
    * ``fault_timeline``: a declarative :class:`~repro.faults.FaultTimeline`
      (or its dict form) installed on top of the scalar fault knobs.
    * writes start after τ_no_tr (the paper's assumption (b)); reads are
      offset by ``reader_offset`` (default ``op_gap / 2``: no concurrency).

    >>> from repro.workloads.spec import run_scenario
    >>> result = run_scenario("swsr", kind="atomic", seed=1, num_writes=2,
    ...                       num_reads=2, corruption_times=[2.0])
    >>> result.completed, result.summarize().stable
    (True, True)
    """
    if p.link_garbage < 0:
        raise ValueError(f"link_garbage must be >= 0, got {p.link_garbage}")
    rig = _SwsrRig(
        p, synchronous=p.synchronous,
        wsn_config=WsnConfig(p.wsn_modulus) if p.wsn_modulus else None)
    timeline = _bursts(p.corruption_times, p.corruption_fraction, "all")
    if p.link_garbage > 0 and p.corruption_times:
        timeline.link_garbage(min(p.corruption_times),
                              per_link=p.link_garbage)
    if p.fault_timeline is not None:
        timeline.events += _as_timeline(p.fault_timeline).events
    tau_no_tr = timeline.tau_no_tr
    return rig.drive(p, timeline, tau_no_tr + 1.0, tau_no_tr)


def _run_partition(p: SimpleNamespace) -> ScenarioResult:
    """Partition-during-write: a server group drops off mid-workload.

    After the optional transient bursts settle, the write/read workload
    starts — and *while it is running*, ``partition_count`` servers
    (default ``t``, taken from the tail of the server list so they do not
    overlap a Byzantine prefix) are cut off from the clients for
    ``partition_duration`` time units, then healed.  Messages sent across
    the cut are dropped and counted (``network.messages_dropped``).

    Stabilization is judged from the heal instant: with at most ``t``
    servers partitioned, operations keep terminating (they are
    indistinguishable from silent Byzantine servers to the quorum logic),
    and after the heal the condition must hold again.

    Only meaningful on the ``direct`` transport: the datalink transport's
    packet channels bypass the network's link layer.
    """
    if p.transport != "direct":
        raise ValueError("partition scenarios require the direct transport "
                         "(datalink channels bypass Network links)")
    count = p.t if p.partition_count is None else p.partition_count
    if not 0 <= count <= p.n:
        raise ValueError(f"partition_count must be within 0..n={p.n}, got "
                         f"{count}; a group sliced past the server list "
                         "would report a partition that never happened")
    rig = _SwsrRig(p)
    timeline = _bursts(p.corruption_times, p.corruption_fraction, "all")
    start = timeline.tau_no_tr + 1.0
    group = rig.cluster.server_ids[p.n - count:] if count else []
    cut = (start + 1.5 * p.op_gap if p.partition_start is None
           else p.partition_start)
    duration = (2.0 * p.op_gap if p.partition_duration is None
                else p.partition_duration)
    if group:
        timeline.partition(cut, cut + duration, group)
    return rig.drive(p, timeline, start, timeline.tau_no_tr,
                     partition_group=group)


def _run_mobile_byz(p: SimpleNamespace) -> ScenarioResult:
    """Mobile Byzantine rotation (footnote 1) under a live workload: the
    Byzantine set hops across the server ring (:func:`_rotation_timeline`)
    while the writer and reader keep operating.

    Stabilization is judged from the **last rotation**: a moving set is a
    sequence of transient disruptions, but once it stops moving the
    remaining (static, size ≤ t) Byzantine set must be tolerated forever.

    Liveness caveat: with the *non-responsive* rotation strategy
    (``silent``) a broadcast in flight across a rotation instant can see
    two mute servers — the old member dropped it before the handover, the
    new one after — which exceeds the ``n - t`` wait's fault budget and
    can legitimately starve an operation (``completed=False``).  Strict
    sweeps should rotate responsive liars (``random-garbage``, ``stale``).
    """
    rig = _SwsrRig(p)
    timeline = _bursts(p.corruption_times, p.corruption_fraction, "all")
    start = timeline.tau_no_tr + 1.0
    _rotation_timeline(timeline, rig.cluster.server_ids, start, p)
    return rig.drive(p, timeline, start, timeline.last_event_time)


def _run_soak(p: SimpleNamespace):
    """Long-horizon SWSR soak: N× longer workloads at bounded peak memory.

    The memory-bounded member of the SWSR-shaped family: a periodic
    transient-burst prelude (``fault_bursts`` bursts, ``fault_period``
    apart, servers only — the atomic-safe envelope), optional mobile
    Byzantine rotations straddling the workload, then ``num_writes`` +
    ``num_reads`` alternating operations.  Three things bound memory by
    the *configuration*, not the run length:

    * the engine retains no history (``keep_history=False``) — counters,
      digest and the stabilization verdict stream off the observation
      pipeline;
    * the online checkers run windowed (``write_window`` /
      ``read_window`` / ``max_records`` / ``candidate_cap``) —
      sound verdicts, with :attr:`~repro.checkers.online
      .OnlineTauTracker.exact` flagging any window overrun;
    * operations are scheduled in ``chunk_ops``-sized slices, so the
      event heap holds one chunk, not the whole workload.

    ``benchmarks/test_bench_checkers.py`` gates the payoff: a soak run
    ≥ 10× the biggest smoke-workload op count completing under a hard
    peak-memory budget (``BENCH_checkers.json``).

    ``shards`` > 1 runs that many *independent* sub-soaks (hash-derived
    per-shard seeds) and merges their verdicts; ``parallel`` is the
    worker-process count they run on (``1``: inline, one after the
    other).  ``shards=1, parallel=1`` routes through the same
    plan/executor/merge machinery and is asserted equal to the
    in-process run, field for field (see ``tests/test_parallel_sim.py``).

    >>> from repro.workloads.spec import run_scenario
    >>> result = run_scenario("soak", seed=1, num_writes=8, num_reads=8,
    ...                       fault_bursts=1)
    >>> result.completed, result.summarize().stable, result.history is None
    (True, True, True)
    """
    if p.shards < 1:
        raise ValueError("need at least one soak shard")
    if p.shards != 1 or p.parallel is not None:
        from ..parallel.runner import run_parallel_soak
        params = vars(p).copy()
        return run_parallel_soak(
            shards=params.pop("shards"), parallel=params.pop("parallel"),
            seed=params.pop("seed"), params=params)
    return soak_shard(p, p.seed)


def soak_shard(p: SimpleNamespace, seed: int, tracked: bool = True,
               checkers: Sequence[Any] = ()) -> ScenarioResult:
    """One complete soak sub-simulation (cluster + faults + workload).

    The in-process ``soak`` run, and exactly what a parallel shard worker
    (:mod:`repro.parallel`) executes.  Workers pass ``tracked=False`` (no
    τ-tracker: they ship raw operation records back through ``checkers``
    and the parent re-runs the tracker on the merged stream side).
    """
    rig = _SwsrRig(p, seed=seed)
    timeline = _bursts([p.fault_period * (index + 1)
                        for index in range(p.fault_bursts)],
                       p.corruption_fraction, "servers")
    start = timeline.tau_no_tr + 1.0
    _rotation_timeline(timeline, rig.cluster.server_ids, start, p)
    tau = timeline.last_event_time
    engine_kwargs = dict(
        keep_history=p.keep_history, write_window=p.write_window,
        read_window=p.read_window, max_records=p.max_records,
        candidate_cap=p.candidate_cap, tau_hint=tau,
        retain_handles=p.keep_history, checkers=checkers)
    if not tracked:
        engine_kwargs["mode"] = None
    return rig.drive(p, timeline, start, tau, chunk_ops=p.chunk_ops,
                     engine_kwargs=engine_kwargs,
                     soak={name: getattr(p, name) for name in (
                         "num_writes", "num_reads", "chunk_ops",
                         "write_window", "read_window")})


def _run_mwmr(p: SimpleNamespace) -> ScenarioResult:
    """Run a full MWMR experiment (Figure 4).

    Each of the ``m`` processes alternates ``mwmr_write`` / ``mwmr_read``.
    With ``concurrent=False`` the stagger spaces processes apart so most
    operations are sequential; ``concurrent=True`` makes them collide.

    ``corruption_fraction`` is deliberately partial by default: corrupting
    *every* server copy of a register that is never written again leaves
    its readers without any quorum — and the MWMR scan (Figure 4 line
    01/09) runs *before* the write that would repair it, so full corruption
    of all ``m`` registers deadlocks the construction.  This liveness
    subtlety of the extended abstract is documented in EXPERIMENTS.md
    (T4 notes) and demonstrated by
    ``tests/test_registers_mwmr.py::TestLiveness``.

    >>> from repro.workloads.spec import run_scenario
    >>> result = run_scenario("mwmr", m=2, seed=4, ops_per_process=1)
    >>> result.completed, len(result.history)
    (True, 4)
    """
    if p.ops_per_process < 1:
        raise ValueError(f"ops_per_process must be >= 1, got "
                         f"{p.ops_per_process}; a run with no operation "
                         "would judge nothing")
    cluster = Cluster(ClusterConfig(
        n=p.n, t=p.t, seed=p.seed, transport=p.transport,
        enforce_resilience=p.enforce_resilience,
        trace_backend=p.trace_backend))
    register = build_mwmr(cluster, p.m, seq_bound=p.seq_bound, k=p.k)
    _install_byzantine(cluster, None, p.byzantine_count,
                       p.byzantine_strategy)
    injector = TransientFaultInjector.for_cluster(cluster)
    timeline = _bursts(p.corruption_times, p.corruption_fraction, "all")
    timeline.install(cluster, injector)
    tau_no_tr = timeline.tau_no_tr

    start = tau_no_tr + 1.0
    values = ValueStream()
    # writes are not totally ordered by real time here: counters + digest
    # stream, but no SWSR tau tracker (mode=None).
    engine = ScenarioEngine(cluster)
    for index, process in enumerate(register.processes):
        driver = engine.driver(process)
        offset = 0.0 if p.concurrent else index * p.stagger
        for round_index in range(p.ops_per_process):
            base = start + offset + round_index * p.op_gap
            driver.at(base, lambda q=process: q.mwmr_write(values.next()))
            driver.at(base + p.op_gap / 2, process.mwmr_read)

    completed = engine.run(p.max_events)
    return ScenarioResult(cluster=cluster, history=engine.history,
                          completed=completed, tau_no_tr=tau_no_tr,
                          stream=engine.stream,
                          extra={"register": register,
                                 "injector": injector})


def _run_kv(p: SimpleNamespace) -> StoreScenarioResult:
    """Drive a sharded KV workload end to end (the ``kv`` runner family).

    The three deterministic phases of :func:`_drive_store` — create
    (round-robin across the logical clients), the per-shard fault
    envelope (transient bursts at ``corruption_times`` on *every* shard
    plus optional per-shard ``fault_timelines``, ``{shard_index:
    FaultTimeline-or-dict}``, times relative to the shard clock; static
    Byzantine servers — ``byzantine_count`` per shard, at most ``t`` —
    are installed from the start), and ``rounds`` put-barrier/get-barrier
    rounds.  ``pipelined=True`` drains each batch through the
    :class:`~repro.kvstore.pipeline.Pipeline` (operations in flight on
    every shard and client simultaneously); ``pipelined=False`` runs one
    operation at a time — the serial baseline the KV bench compares
    against.

    Completed operations stream into a per-run
    :class:`~repro.checkers.stream.ObservationStream`; the per-key
    post-τ linearizability verdict is maintained online by a
    :class:`~repro.checkers.online.StreamingLinearizer` (each key sealed
    at its own shard's τ, segments collapsed at the batch barriers) — see
    :class:`StoreScenarioResult`.

    ``parallel`` runs the shards via :mod:`repro.parallel` (in that many
    worker processes; inline for ``1``), with the merged result asserted
    equal to this serial path — digest, verdicts and summary alike.
    Requires ``pipelined=True``.

    Liveness caveat, inherited from the MWMR construction: a burst that
    corrupts *every* server copy of some per-key register livelocks the
    scan until the register's owner rewrites it (see the ``mwmr``
    family's docstring and
    ``tests/test_registers_mwmr.py::TestLiveness``) — keep
    ``corruption_fraction`` partial, as the default does.

    >>> from repro.workloads.spec import run_scenario
    >>> result = run_scenario("kv", shard_count=2, num_keys=2, rounds=1,
    ...                       seed=3)
    >>> result.completed and result.linearizable
    True
    >>> len(result.history)           # 2 creates + 1 round of put+get
    6
    """
    _check_store_workload(p)
    if p.parallel is not None:
        if not p.pipelined:
            raise ValueError(
                "parallel kv execution requires pipelined=True (the "
                "serial completion order the merge reconstructs is the "
                "pipelined per-batch drain)")
        from ..parallel.runner import run_parallel_kv
        params = vars(p).copy()
        del params["pipelined"]
        return run_parallel_kv(**params)
    store, keys = _build_store(p)
    linearizer = StreamingLinearizer()
    stream = ObservationStream(checkers=[linearizer], keep_history=True)
    pipe = (Pipeline(store, on_complete=stream.observe_handle)
            if p.pipelined else None)

    def one_at_a_time(ops: Sequence[KVOp]) -> bool:
        try:
            for kind, client, key, value in ops:
                handle = (store.put(client, key, value)
                          if kind == "put" else store.get(client, key))
                handle.on_done(stream.observe_handle)
                store.run_ops([handle], max_events=p.max_events)
        except SimulationLimitReached:
            return False
        return True

    def batch(ops: Sequence[KVOp], live: bool = False) -> bool:
        drained = (run_batch(pipe, ops, p.max_events) if pipe is not None
                   else one_at_a_time(ops))
        if drained:
            # a drained batch is a quiesce point: nothing is in flight,
            # so the linearizer can collapse settled segments (bounded
            # memory).
            linearizer.settle()
        return drained

    tau_by_shard = [0.0] * p.shard_count
    completed, corruptions = _drive_store(p, store, keys, linearizer, batch,
                                          tau_by_shard)
    stream.close()
    return StoreScenarioResult(
        store=store, history=stream.history, completed=completed,
        tau_no_tr=max(tau_by_shard), tau_by_shard=tau_by_shard,
        per_key_linearizable={key: bool(linearizer.ok(f"kv/{key}"))
                              for key in keys},
        stream=stream,
        extra={"corruptions": corruptions, "pipeline": pipe,
               "keys": keys, "linearizer": linearizer})


#: the shard-index arguments of each store-scoped event kind.
_SHARD_ARGS = {"reshard_split": ("shard",),
               "reshard_merge": ("source", "into"),
               "migrate_vnodes": ("source", "dest")}


def _reshard_plan(reshard_plan: Optional[Union[dict, FaultTimeline]],
                  shard_count: int) -> List[Any]:
    """Validate and order a resharding plan's events.

    Only store-scoped kinds are allowed (cluster-scoped faults belong in
    ``fault_timelines``), and every referenced shard index must exist by
    the time its event applies — splits allocate indices in event order,
    so the check replays that allocation statically.
    """
    if reshard_plan is None:
        plan = FaultTimeline().reshard_split(0.0, 0)
    else:
        plan = _as_timeline(reshard_plan)
    bad = sorted({event.kind for event in plan.events
                  if event.kind not in RESHARD_KINDS})
    if bad:
        raise ValueError(
            f"reshard_plan may only contain store-scoped rebalance "
            f"events {sorted(RESHARD_KINDS)}, got {bad}; put per-shard "
            f"fault events in fault_timelines instead")
    events = sorted(plan.events, key=lambda event: event.time)
    allocated = shard_count
    for event in events:
        out_of_range = [shard for shard in (
            int(event.args[name]) for name in _SHARD_ARGS[event.kind])
            if not 0 <= shard < allocated]
        if out_of_range:
            raise ValueError(
                f"reshard_plan event {event.kind!r} at t={event.time} "
                f"references shard(s) {out_of_range} but only "
                f"{allocated} shard(s) exist at that point")
        if event.kind == "reshard_split":
            allocated += 1
    return events


def _run_reshard(p: SimpleNamespace) -> StoreScenarioResult:
    """Reshard a live KV store under traffic (the ``reshard`` family).

    The ``kv`` family's workload — create keys, install the fault
    envelope, then rounds of put-barrier/get-barrier batches — except
    that each key's writes all come from one designated writer client
    (reads still rotate over every client): the per-key online τ
    trackers are single-writer checkers, and the rebalancer issues each
    moved key's transfer ops from that same writer.  The addition is a
    ``reshard_plan`` (a :class:`~repro.faults
    .schedule.FaultTimeline` of ``reshard_split`` / ``reshard_merge`` /
    ``migrate_vnodes`` events) reshapes the ring *while clients issue*.
    Each plan event applies at the first batch whose group clock has
    reached its time (leftovers apply after the last round): operations
    already enqueued drain on their old owners, the
    :class:`~repro.kvstore.rebalance.Rebalancer` transfers the moved
    keys' state through real quorum operations fed to the observation
    stream, and the next batch routes to the new owners — the
    dual-ownership window is explicit in the history, and the
    :class:`~repro.checkers.online.StreamingLinearizer` hard-checks
    every ``kv/{key}`` lane straight across the handoff (``strict=True``
    raises on any per-key violation).

    Each applied rebalance opens a *migration epoch*: per-key
    :class:`~repro.checkers.online.OnlineTauTracker` instances record
    the boundary (:meth:`~repro.checkers.online.OnlineTauTracker
    .begin_epoch`) and the result's ``epoch_taus`` reports, per epoch,
    the instant from which every key's reads are consistent again — the
    paper's τ, measured per ownership change instead of per transient
    burst.  A final read-all batch after the last rebalance guarantees
    every handoff is observed.

    The default plan splits shard 0 as soon as traffic starts.  The run
    is deterministic end to end — byte-identical summaries for any
    sweep worker count (the ``sweep/smoke`` determinism contract).

    >>> from repro.workloads.spec import run_scenario
    >>> result = run_scenario("reshard", shard_count=2, num_keys=2,
    ...                       rounds=1, seed=3)
    >>> result.completed and result.linearizable
    True
    >>> [report.kind for report in result.rebalances]
    ['reshard_split']
    >>> result.store.shard_count
    3
    >>> entry = result.summarize().epoch_taus[0]
    >>> entry["tau"] is not None
    True
    """
    _check_store_workload(p)
    pending = _reshard_plan(p.reshard_plan, p.shard_count)
    store, keys = _build_store(p)
    clients = store.client_pids
    # per-register online τ trackers are single-writer: every key gets a
    # designated writer client (spread round-robin over the pool), and
    # reads rotate over *all* clients.  The rebalancer issues each moved
    # key's transfer ops from that same writer, so the ``kv/{key}`` lane
    # stays SWSR straight across every handoff.
    writer_of = {key: clients[index % len(clients)]
                 for index, key in enumerate(keys)}
    linearizer = StreamingLinearizer()
    trackers = {key: OnlineTauTracker(mode="atomic", register=f"kv/{key}")
                for key in keys}
    by_register = {f"kv/{key}": tracker
                   for key, tracker in trackers.items()}
    stream = ObservationStream(checkers=[linearizer], keep_history=True)

    def observe_workload(handle: Any) -> None:
        op = stream.observe_handle(handle)
        if op is not None:
            tracker = by_register.get(op.register)
            if tracker is not None:
                tracker.observe(op)

    # state-transfer operations are checker-visible — they enter the
    # history, the digest and the linearizer (value-set semantics) — but
    # *not* the τ trackers: a transfer re-writes the key's current value,
    # and the single-writer trackers require unique written values.
    # Skipping it is sound: later reads return exactly the last write the
    # tracker did observe.
    pipe = Pipeline(store, on_complete=observe_workload)
    rebalancer = Rebalancer(store, pipeline=pipe,
                            observe=stream.observe_handle,
                            migration_client=lambda key: writer_of.get(
                                key, clients[0]),
                            max_events=p.max_events)
    tau_by_shard = [0.0] * p.shard_count
    epoch_marks: List[Tuple[str, float]] = []

    def apply_due(force: bool = False) -> None:
        while pending and (force or store.now >= pending[0].time):
            event = pending.pop(0)
            report = rebalancer.apply_event(event)
            label = f"{event.kind}#{len(rebalancer.reports)}"
            epoch_marks.append((label, report.time))
            for tracker in trackers.values():
                tracker.begin_epoch(report.time, label)
            while len(tau_by_shard) < store.shard_count:
                tau_by_shard.append(0.0)

    def batch(ops: Sequence[KVOp], live: bool = False) -> bool:
        # a live batch rebalances mid-batch: enqueued operations are in
        # flight — the rebalance drains them on their pre-mutation owners.
        drained = run_batch(pipe, ops, p.max_events,
                            before_flush=apply_due if live else None)
        if drained:
            linearizer.settle()
        return drained

    # sealing (inside _drive_store) happens before any rebalance: each
    # key's cutoff is its *initial* owner's τ, so every post-fault op —
    # the whole handoff window included — is hard-checked.
    completed, corruptions = _drive_store(p, store, keys, linearizer, batch,
                                          tau_by_shard, writer_of)
    tau_no_tr = max(tau_by_shard)

    # plan events the clock never reached apply now, then a final
    # read-all batch observes every handoff.
    if completed and pending:
        try:
            apply_due(force=True)
        except SimulationLimitReached:
            completed = False
    if completed:
        completed = batch(get_batch(keys, clients, p.rounds - 1))

    stream.close()
    for tracker in trackers.values():
        tracker.finish()
    per_key = {key: bool(linearizer.ok(f"kv/{key}")) for key in keys}

    # per-epoch τ: aggregate the per-key trackers — the epoch is stable
    # from the latest instant at which *every* key's suffix is clean.
    per_key_epochs = {key: trackers[key].epoch_taus() for key in keys}
    epoch_taus: List[Dict[str, Any]] = []
    for index, (label, start) in enumerate(epoch_marks):
        taus = [per_key_epochs[key][index]["tau"] for key in keys]
        tau = None if any(value is None for value in taus) \
            else (max(taus) if taus else start)
        epoch_taus.append({"label": label, "start": start, "tau": tau})

    if p.strict and completed:
        violated = sorted(key for key, ok in per_key.items() if not ok)
        if violated:
            raise AssertionError(
                f"per-key linearizability violated across rebalance "
                f"handoffs for {violated}")
    return StoreScenarioResult(
        store=store, history=stream.history, completed=completed,
        tau_no_tr=tau_no_tr, tau_by_shard=tau_by_shard,
        per_key_linearizable=per_key,
        rebalances=list(rebalancer.reports), epoch_taus=epoch_taus,
        stream=stream,
        extra={"corruptions": corruptions, "pipeline": pipe,
               "keys": keys, "linearizer": linearizer,
               "trackers": trackers, "rebalancer": rebalancer})


# -- the registry -------------------------------------------------------------

@dataclass(frozen=True)
class Family:
    """One scenario family: what a spec validates, resolves and runs.

    ``defaults`` is the family's whole parameter vocabulary; ``run``
    receives the resolved parameters (defaults overlaid with the spec's
    pins) as one namespace and returns the result.
    """

    defaults: Mapping[str, Any]
    run: Callable[[SimpleNamespace], Any]


# Parameter groups, written once and overlaid per family (a later entry
# overrides an earlier one, so a family restates only what differs).
#: ``trace_backend`` is here, once: every family records nothing unless a
#: run asks for ``"full"``, so every default run takes the fused sends.
_POOL = dict(n=9, t=1, seed=0, enforce_resilience=True,
             trace_backend="null")
_CLUSTER = _POOL | dict(transport="direct")
_STATIC_BYZANTINE = dict(byzantine_count=0,
                         byzantine_strategy="random-garbage")
_BURSTS = dict(corruption_times=(), corruption_fraction=1.0)
_SWSR_WORKLOAD = dict(kind="regular", num_writes=6, num_reads=6,
                      op_gap=10.0, reader_offset=None, initial=INITIAL,
                      max_events=2_000_000)
_ROTATION = dict(rotations=3, rotation_gap=None, rotation_size=None,
                 rotation_strategy="random-garbage")
_STORE = _BURSTS | dict(shard_count=2, client_count=2, num_keys=4, rounds=2,
                        vnodes=64, corruption_fraction=0.2,
                        fault_timelines=None, max_events=6_000_000)

#: canonical family name -> registry entry.
FAMILIES: Dict[str, Family] = {
    "swsr": Family(
        _CLUSTER | _SWSR_WORKLOAD | _BURSTS | _STATIC_BYZANTINE
        | dict(synchronous=False, link_garbage=0, byzantine=None,
               wsn_modulus=None, fault_timeline=None),
        _run_swsr),
    "mwmr": Family(
        _CLUSTER | _BURSTS | _STATIC_BYZANTINE
        | dict(m=3, ops_per_process=2, op_gap=40.0, stagger=7.0,
               corruption_fraction=0.3, seq_bound=2 ** 64, k=None,
               max_events=6_000_000, concurrent=False),
        _run_mwmr),
    "partition": Family(
        _CLUSTER | _SWSR_WORKLOAD | _BURSTS | _STATIC_BYZANTINE
        | dict(partition_count=None, partition_start=None,
               partition_duration=None),
        _run_partition),
    "kv": Family(
        _POOL | _STORE | _STATIC_BYZANTINE
        | dict(pipelined=True, parallel=None),
        _run_kv),
    "reshard": Family(
        _POOL | _STORE | _STATIC_BYZANTINE
        | dict(vnodes=16, reshard_plan=None, strict=False),
        _run_reshard),
    "mobile-byz": Family(
        _CLUSTER | _SWSR_WORKLOAD | _BURSTS | _ROTATION
        | dict(num_writes=8, num_reads=8),
        _run_mobile_byz),
    "soak": Family(
        _CLUSTER | _SWSR_WORKLOAD | _STATIC_BYZANTINE | _ROTATION
        | dict(num_writes=500, num_reads=500, op_gap=4.0, fault_bursts=3,
               fault_period=5.0, corruption_fraction=0.3, rotations=0,
               max_events=100_000_000, keep_history=False, write_window=64,
               read_window=64, max_records=64, candidate_cap=4096,
               chunk_ops=256, shards=1, parallel=None),
        _run_soak),
}

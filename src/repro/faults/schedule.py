"""Declarative fault timelines: what goes wrong, when — as data.

:class:`FaultTimeline` is the one way to inject a fault.  It is a
*declarative, serializable* adversary description: every entry is a
:class:`TimelineEvent` (time, kind, JSON-able args), and the timeline
round-trips through ``to_dict`` / ``from_dict`` so a
:class:`~repro.runner.SweepSpec` can grid over adversary shapes exactly
like it grids over ``n`` or seeds.  Every scenario family compiles its
scalar fault knobs (``corruption_times``, ``link_garbage``, rotations,
partitions) into one timeline, so :meth:`FaultTimeline.install` is the
only place a fault is scheduled and :meth:`FaultTimeline._fire` the only
place one is announced: each firing calls every
:func:`register_fault_tap` observer as ``tap(t, lane, kind, detail)``.

Supported event kinds
---------------------
``burst``           transient state corruption (Section 2.1): corrupt a
                    fraction of the registered variables of the targets
                    (``"servers"``, ``"clients"``, ``"all"`` or a pid list).
``link-garbage``    arbitrary initial link content: ``per_link`` garbage
                    messages on every client<->server link.
``partition``       take every link between ``group`` and the rest down
                    (messages sent meanwhile are dropped and counted).
``heal``            bring those links back up.
``crash``           the listed servers stop responding (crash faults).
``recover``         crashed servers come back — with *arbitrary* local
                    state unless ``corrupt`` is false, which is exactly
                    the situation the stabilization property covers.
``byzantine``       *mobile* Byzantine failures (footnote 1): the
                    Byzantine set moves to ``servers`` (at most ``t``),
                    running ``strategy``; servers leaving the set re-join
                    the correct ones with corrupted state.
``reshard_split``   live resharding: split ``shard`` in two (a joined
                    pool takes half its vnode slots, keys migrate).
``reshard_merge``   retire ``source`` into ``into`` (all its slots and
                    keys move there).
``migrate_vnodes``  move ``count`` vnode slots ``source`` → ``dest``.

An event accepts exactly its kind's argument names (:data:`EVENT_ARGS`);
a misspelt one is a spec error, not a silently applied default.  A tap's
``detail`` is the event's args, except for the two injection kinds,
which report their effect: ``{"corrupted", "targets"}`` for a burst,
``{"links", "per_link"}`` for link garbage.

The three ``reshard_*``/``migrate_vnodes`` kinds are **store-scoped**:
they reshape the whole :class:`~repro.kvstore.sharded.ShardedKVStore`,
not one cluster, so :meth:`FaultTimeline.install` (cluster-scoped)
rejects them — the :class:`~repro.kvstore.rebalance.Rebalancer` applies
them instead, between pipelined batches, composing with the per-shard
cluster-scoped events around them.

τ timeline
----------
``tau_no_tr`` is the last instant of any *transient-style* event (burst,
link garbage, partition/heal, crash/recover) — after it the paper's
assumption "no more transient failures" holds.  Mobile Byzantine rotation
is deliberately excluded: a moving Byzantine set of size ≤ t is a
*permanent* adversary the constructions must tolerate, not a transient
one.  ``last_event_time`` covers everything, for scenarios that want to
judge reads only after the adversary stopped moving.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence

from .byzantine import SilentStrategy, check_strategy, strategy_factory
from .transient import TransientFaultInjector

#: kind -> (required, optional) argument names; an event of any other
#: kind, or with any other argument, is a spec error.
EVENT_ARGS = {
    "burst": ((), ("fraction", "targets")),
    "link-garbage": ((), ("per_link",)),
    "partition": (("group",), ()),
    "heal": (("group",), ()),
    "crash": (("servers",), ()),
    "recover": (("servers",), ("corrupt",)),
    "byzantine": (("servers",), ("strategy",)),
    "reshard_split": (("shard",), ()),
    "reshard_merge": (("source", "into"), ()),
    "migrate_vnodes": (("source", "dest"), ("count",)),
}

#: event kinds a timeline may contain.
EVENT_KINDS = tuple(EVENT_ARGS)

#: the named groups a ``burst`` may target (or an explicit pid list).
_BURST_GROUPS = ("servers", "clients", "all")

#: store-scoped rebalance kinds — applied by the Rebalancer, never
#: schedulable on a single cluster (see module docstring).
RESHARD_KINDS = frozenset({"reshard_split", "reshard_merge",
                           "migrate_vnodes"})

#: kinds that count towards τ_no_tr (see module docstring).  A rebalance
#: is a transient disturbance like a burst: ownership moves, then the
#: system must re-converge.
_TRANSIENT_KINDS = frozenset(EVENT_KINDS) - {"byzantine"}

#: Fault taps: ``tap(t, lane, kind, detail)`` fires after each timeline
#: event executes (``repro.capture`` records through this without the
#: timeline knowing about capture files).
_FAULT_TAPS: List = []


def register_fault_tap(tap) -> None:
    """Register a fault-firing observer (idempotent)."""
    if tap not in _FAULT_TAPS:
        _FAULT_TAPS.append(tap)


class _TimelineCrash(SilentStrategy):
    """Marker strategy for servers crashed by a ``crash`` event.

    Only the matching ``recover`` event revives them: ``byzantine``
    rotation events must not mistake a crashed server for a rotation
    leaver and un-crash it early.
    """


@dataclass(frozen=True)
class TimelineEvent:
    """One declarative fault occurrence: plain data, JSON-able args."""

    time: float
    kind: str
    args: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in EVENT_ARGS:
            raise ValueError(f"unknown timeline event kind {self.kind!r} "
                             f"(expected one of {EVENT_KINDS})")
        required, optional = EVENT_ARGS[self.kind]
        for name in self.args:
            if name not in required and name not in optional:
                raise ValueError(
                    f"timeline event {self.kind!r} has no argument "
                    f"{name!r} (accepted: {', '.join(required + optional)})")
        for name in required:
            if name not in self.args:
                raise ValueError(f"timeline event {self.kind!r} needs "
                                 f"argument {name!r}")
        if not 0.0 <= float(self.args.get("fraction", 1.0)) <= 1.0:
            raise ValueError(f"burst fraction must be within [0, 1], got "
                             f"{self.args['fraction']}")
        if int(self.args.get("per_link", 1)) < 1:
            raise ValueError(f"link-garbage per_link must be >= 1, got "
                             f"{self.args['per_link']}")

    def to_dict(self) -> Dict[str, Any]:
        return {"time": self.time, "kind": self.kind,
                "args": {key: self.args[key] for key in sorted(self.args)}}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TimelineEvent":
        return cls(time=float(data["time"]), kind=data["kind"],
                   args=dict(data.get("args") or {}))


class FaultTimeline:
    """A serializable adversary: an ordered list of fault events.

    Build fluently::

        timeline = (FaultTimeline()
                    .burst(2.0, fraction=0.5)
                    .partition(10.0, 25.0, ["s1", "s2"])
                    .byzantine(0.0, ["s1"], "random-garbage")
                    .byzantine(30.0, ["s2"], "random-garbage"))

    then ``timeline.install(cluster, injector)`` schedules every event on
    the cluster's scheduler, or ``timeline.to_dict()`` ships it through a
    sweep spec.
    """

    def __init__(self, events: Optional[Iterable[TimelineEvent]] = None):
        self.events: List[TimelineEvent] = list(events or [])

    # -- building ----------------------------------------------------------
    def add(self, time: float, kind: str, **args: Any) -> "FaultTimeline":
        self.events.append(TimelineEvent(time, kind, args))
        return self

    def burst(self, time: float, fraction: float = 1.0,
              targets: Any = "all") -> "FaultTimeline":
        return self.add(time, "burst", fraction=fraction, targets=targets)

    def link_garbage(self, time: float, per_link: int = 1) -> "FaultTimeline":
        return self.add(time, "link-garbage", per_link=per_link)

    def partition(self, start: float, end: float,
                  group: Sequence[str]) -> "FaultTimeline":
        """Cut ``group`` off from the rest between ``start`` and ``end``."""
        if end <= start:
            raise ValueError(f"partition must heal after it starts "
                             f"({start} .. {end})")
        self.add(start, "partition", group=list(group))
        return self.add(end, "heal", group=list(group))

    def crash_recovery(self, start: float, end: float,
                       servers: Sequence[str],
                       corrupt: bool = True) -> "FaultTimeline":
        """Crash ``servers`` at ``start``; recover them at ``end``."""
        if end <= start:
            raise ValueError(f"recovery must follow the crash "
                             f"({start} .. {end})")
        self.add(start, "crash", servers=list(servers))
        return self.add(end, "recover", servers=list(servers),
                        corrupt=corrupt)

    def byzantine(self, time: float, servers: Sequence[str],
                  strategy: str = "random-garbage") -> "FaultTimeline":
        """Move the Byzantine set to ``servers`` at ``time`` (mobile)."""
        return self.add(time, "byzantine", servers=list(servers),
                        strategy=strategy)

    def rotation(self, times: Sequence[float],
                 sets: Sequence[Sequence[str]],
                 strategy: str = "random-garbage") -> "FaultTimeline":
        """One ``byzantine`` event per (time, server set) pair."""
        if len(times) != len(sets):
            raise ValueError("need one Byzantine set per rotation time")
        for time, byz_set in zip(times, sets):
            self.byzantine(time, byz_set, strategy)
        return self

    def reshard_split(self, time: float, shard: int) -> "FaultTimeline":
        """Split ``shard`` at ``time`` (a freshly joined pool takes every
        other one of its vnode slots)."""
        return self.add(time, "reshard_split", shard=int(shard))

    def reshard_merge(self, time: float, source: int,
                      into: int) -> "FaultTimeline":
        """Retire ``source`` into ``into`` at ``time``."""
        if source == into:
            raise ValueError("cannot merge a shard into itself")
        return self.add(time, "reshard_merge", source=int(source),
                        into=int(into))

    def migrate_vnodes(self, time: float, source: int, dest: int,
                       count: int = 1) -> "FaultTimeline":
        """Move ``count`` vnode slots from ``source`` to ``dest``."""
        if source == dest:
            raise ValueError("cannot migrate vnodes onto their own shard")
        if count < 1:
            raise ValueError("must migrate at least one vnode")
        return self.add(time, "migrate_vnodes", source=int(source),
                        dest=int(dest), count=int(count))

    def shifted(self, offset: float) -> "FaultTimeline":
        """A copy with every event time moved by ``offset``.

        Lets a *relative* timeline (authored as "burst 2 time units in")
        be installed on a cluster whose clock has already advanced — the
        sharded KV scenarios anchor per-shard timelines this way.

        >>> timeline = FaultTimeline().burst(2.0, fraction=0.5)
        >>> [event.time for event in timeline.shifted(10.0).events]
        [12.0]
        """
        return FaultTimeline(
            TimelineEvent(event.time + offset, event.kind, dict(event.args))
            for event in self.events)

    # -- τ timeline --------------------------------------------------------
    @property
    def tau_no_tr(self) -> float:
        """Last transient-style event (mobile Byzantine excluded)."""
        times = [event.time for event in self.events
                 if event.kind in _TRANSIENT_KINDS]
        return max(times) if times else 0.0

    @property
    def last_event_time(self) -> float:
        return max((event.time for event in self.events), default=0.0)

    # -- (de)serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {"events": [event.to_dict() for event in self.events]}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultTimeline":
        return cls(TimelineEvent.from_dict(entry)
                   for entry in (data.get("events") or []))

    def __len__(self) -> int:
        return len(self.events)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FaultTimeline)
                and self.events == other.events)

    # -- installation ------------------------------------------------------
    def install(self, cluster, injector: TransientFaultInjector) -> None:
        """Schedule every event on ``cluster``'s scheduler.

        Every event is checked against the cluster first — server ids,
        partition groups and explicit burst targets must name processes
        it has, strategies must exist — so a bad timeline fails here,
        before the run executes anything.  Group targets (``"all"``,
        ``"clients"``) are resolved at fire time, so a timeline that
        uses only those can be installed before clients attach.
        """
        # validate everything *before* scheduling anything: a rejected
        # timeline must not leave a partial install behind on the live
        # scheduler.
        now = cluster.scheduler.now
        for event in self.events:
            if event.kind in RESHARD_KINDS:
                raise ValueError(
                    f"timeline event {event.kind!r} is store-scoped: it "
                    f"reshapes the whole sharded store, not one cluster — "
                    f"drive it through repro.kvstore.rebalance.Rebalancer "
                    f"(the reshard scenario family does this)")
            if event.time < now:
                raise ValueError(
                    f"timeline event {event.kind!r} at t={event.time} is "
                    f"in the cluster's past (now={now}); anchor the "
                    f"timeline (shifted()/anchor='now') before installing")
            _check_against(cluster, event)
        # the scheduler's (time, seq) order already runs these in time
        # order, same-time events in declaration order.  Events sit in the
        # cluster's own queue, so they hold the cluster weakly.
        cluster_ref = weakref.ref(cluster)
        for event in self.events:
            cluster.scheduler.schedule_at(
                event.time, self._fire, cluster_ref, injector, event,
                label=f"timeline:{event.kind}")

    # one dispatcher rather than per-kind closures: keeps installation
    # allocation-light and the timeline trivially picklable.
    @staticmethod
    def _fire(cluster_ref, injector: TransientFaultInjector,
              event: TimelineEvent) -> None:
        cluster = cluster_ref()
        kind, args = event.kind, event.args
        detail = args
        if kind == "burst":
            targets = _resolve_targets(cluster, args.get("targets", "all"))
            corrupted = injector.corrupt_all(
                targets, float(args.get("fraction", 1.0)))
            detail = {"corrupted": corrupted, "targets": len(targets)}
        elif kind == "link-garbage":
            per_link = int(args.get("per_link", 1))
            links = injector.garbage_everywhere(
                [client.pid for client in cluster.clients],
                cluster.server_ids, per_link=per_link)
            detail = {"links": links, "per_link": per_link}
        elif kind == "partition":
            cluster.network.set_partition(args["group"], up=False)
        elif kind == "heal":
            cluster.network.set_partition(args["group"], up=True)
        elif kind == "crash":
            cluster.make_byzantine(args["servers"],
                                   lambda server: _TimelineCrash())
        elif kind == "recover":
            cluster.make_byzantine(args["servers"], None)
            if args.get("corrupt", True):
                for pid in args["servers"]:
                    injector.corrupt_process(cluster.server(pid))
        elif kind == "byzantine":
            # servers leaving the set re-join the correct ones with
            # arbitrary state (footnote 1); crashed ones wait for their
            # ``recover`` event.
            factory = strategy_factory(args.get("strategy", "random-garbage"),
                                       cluster)
            leaving = [pid for pid in cluster.byzantine_ids
                       if pid not in args["servers"] and not isinstance(
                           cluster.server(pid).strategy, _TimelineCrash)]
            cluster.make_byzantine(leaving, None)
            for pid in leaving:
                injector.corrupt_process(cluster.server(pid))
            cluster.make_byzantine(args["servers"], factory)
        for tap in _FAULT_TAPS:
            tap(cluster.scheduler.now, injector.label, kind, detail)


def _check_against(cluster, event: TimelineEvent) -> None:
    """Reject what :meth:`FaultTimeline._fire` could only fail on mid-run:
    unknown pids, target groups or strategies, an oversized Byzantine set."""
    args = event.args
    targets = args.get("targets", ())
    if isinstance(targets, str):
        if targets not in _BURST_GROUPS:
            raise ValueError(f"unknown burst target group {targets!r} "
                             f"(expected one of {_BURST_GROUPS} or a pid "
                             f"list)")
        targets = ()
    known = cluster.network.processes
    unknown = ([pid for pid in args.get("servers", ())
                if pid not in cluster.server_ids]
               + [pid for pid in [*args.get("group", ()), *targets]
                  if pid not in known])
    if unknown:
        raise ValueError(f"timeline event {event.kind!r} at t={event.time} "
                         f"names unknown process(es) {unknown}")
    if "strategy" in args:
        check_strategy(args["strategy"])
    if event.kind == "byzantine" and len(args["servers"]) > cluster.params.t:
        raise ValueError(f"Byzantine set {args['servers']} exceeds "
                         f"t={cluster.params.t}")


def _resolve_targets(cluster, spec: Any) -> List:
    """Burst targets: a group name or an explicit (validated) pid list."""
    if spec == "servers":
        return list(cluster.servers)
    if spec == "clients":
        return list(cluster.clients)
    if spec == "all":
        return list(cluster.servers) + list(cluster.clients)
    return [cluster.network.processes[pid] for pid in spec]

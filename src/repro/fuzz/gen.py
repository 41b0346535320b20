"""Seeded scenario generation: one integer in, one reproducible case out.

A :class:`FuzzCase` is a *complete, serializable* description of one
experiment: topology, workload program, static Byzantine placement and a
declarative :class:`~repro.faults.schedule.FaultTimeline`.  Every field is
sampled from a single ``random.Random(seed)`` whose seed is **hash-derived**
(see :mod:`repro.runner.spec`), never ``hash()``-derived, so a case is a
pure function of its seed — byte-identical across processes, worker
counts, Python versions and platforms (guarded by the golden-seed tests in
``tests/test_fuzz_golden_seeds.py``).

Sampling discipline
-------------------
Only Mersenne-Twister primitives with a stable cross-version algorithm are
used (``random``, ``randrange``, ``choice``, ``uniform``); subset picking
is implemented locally instead of ``random.sample`` (whose internal
strategy choice is an implementation detail).  All times are quantized to
one decimal so shrunk counterexamples stay human-readable.

Adversary envelope
------------------
Generated cases must *pass* on a correct implementation, so the sampler
stays inside the paper's guarantees:

* topologies satisfy the resilience bound (``n >= 8t + 1``, asynchronous);
* transient-style events (bursts, link garbage, partitions, crash/recover)
  land before τ_no_tr, matching assumption (b) that writes start after the
  last transient failure;
* mobile Byzantine rotations may straddle the live workload but rotate
  *responsive* strategies and stop before the final reads, leaving a
  suffix for stabilization to be judged on (the documented starvation of
  non-responsive handovers is pinned separately in
  ``tests/test_workload_fault_timelines.py``).
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from ..faults.schedule import FaultTimeline
from ..workloads.scenarios import INITIAL

#: responsive static adversaries (may also be silent: a static mute server
#: is within the n - t wait's budget).
STATIC_STRATEGIES = ("silent", "stale", "random-garbage", "equivocate",
                     "flip-flop", "inversion-attack")

#: rotation strategies must reply (see the mobile-byz family's
#: liveness caveat: two mute servers straddling a handover starve the
#: n - t wait).
ROTATION_STRATEGIES = ("random-garbage", "stale")

#: (n, t) topologies satisfying the asynchronous bound n >= 8t + 1.
TOPOLOGIES = ((9, 1), (10, 1), (11, 1), (13, 1), (17, 2))


def server_name(index: int) -> str:
    """Server pid for a zero-based index — one source of truth for the
    naming convention :class:`~repro.registers.system.Cluster` uses."""
    return f"s{index + 1}"


def server_number(pid: Any) -> Optional[int]:
    """Inverse of :func:`server_name` (the 1-based numeric suffix), or
    ``None`` for pids that are not cluster server names."""
    name = str(pid)
    if name.startswith("s") and name[1:].isdigit():
        return int(name[1:])
    return None


def _quantize(value: float) -> float:
    """One-decimal times: readable cases, exact float round-trips."""
    return round(value, 1)


def _pick_subset(rng: random.Random, items: List[str], size: int) -> List[str]:
    """``size`` distinct items, chosen with stable primitives only."""
    pool = list(items)
    picked = []
    for _ in range(size):
        picked.append(pool.pop(rng.randrange(len(pool))))
    return picked


@dataclass(frozen=True)
class FuzzProfile:
    """Knobs bounding the sampled case space (all JSON-able scalars)."""

    max_transient_events: int = 4
    max_rotations: int = 3
    max_writes: int = 8
    max_reads: int = 8
    max_events: int = 4_000_000
    #: probability of sampling the datalink transport (partition events are
    #: skipped there: packet channels bypass the Network link layer).
    datalink_weight: float = 0.15
    #: probability that the reader offset is small enough to create
    #: read/write concurrency (the inversion-prone regime).
    concurrency_weight: float = 0.35

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Optional[Dict[str, Any]]) -> "FuzzProfile":
        return cls(**(data or {}))


DEFAULT_PROFILE = FuzzProfile()


@dataclass(frozen=True)
class FuzzCase:
    """One generated experiment, fully described by plain data."""

    seed: int
    kind: str                      # "regular" | "atomic"
    n: int
    t: int
    transport: str                 # "direct" | "datalink"
    num_writes: int
    num_reads: int
    op_gap: float
    reader_offset: Optional[float]
    byzantine_count: int
    byzantine_strategy: str
    timeline: Tuple[Dict[str, Any], ...] = field(default_factory=tuple)
    max_events: int = 4_000_000

    # -- derived -----------------------------------------------------------
    def fault_timeline(self) -> FaultTimeline:
        return FaultTimeline.from_dict({"events": list(self.timeline)})

    def scenario_kwargs(self) -> Dict[str, Any]:
        """Parameters of the ``swsr`` family (minus backend)."""
        return {
            "kind": self.kind, "n": self.n, "t": self.t, "seed": self.seed,
            "transport": self.transport, "num_writes": self.num_writes,
            "num_reads": self.num_reads, "op_gap": self.op_gap,
            "reader_offset": self.reader_offset,
            "byzantine_count": self.byzantine_count,
            "byzantine_strategy": self.byzantine_strategy,
            "initial": INITIAL,
            "fault_timeline": self.fault_timeline(),
            "max_events": self.max_events,
        }

    # -- (de)serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        # asdict keeps this in lockstep with the dataclass fields (the
        # shrinker memoizes and artifacts round-trip on this rendering);
        # the timeline re-renders as a plain list for JSON friendliness.
        data = asdict(self)
        data["timeline"] = [dict(event) for event in self.timeline]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FuzzCase":
        fields = dict(data)
        fields["timeline"] = tuple(
            {"time": float(event["time"]), "kind": event["kind"],
             "args": dict(event.get("args") or {})}
            for event in (fields.get("timeline") or ()))
        try:
            return cls(**fields)
        except TypeError as exc:   # missing or unknown fields
            raise ValueError(f"malformed fuzz case: {exc}") from None

    def with_timeline(self, events) -> "FuzzCase":
        """Copy with a replacement event list (shrinker hook)."""
        return replace(self, timeline=tuple(
            event.to_dict() if hasattr(event, "to_dict") else dict(event)
            for event in events))


@dataclass(frozen=True)
class KVFuzzCase:
    """One generated *sharded KV* experiment (the ``kv`` fuzz family).

    Mirrors :class:`FuzzCase` for the ``kv`` scenario family: topology,
    shard/client/key counts, a static Byzantine placement (per shard) and
    per-shard fault-timeline events.
    Timeline events are stored flattened, each carrying its ``shard``
    index, so the ddmin shrinker can drop them one by one exactly like
    SWSR events; :meth:`scenario_kwargs` regroups them per shard.  Event
    times are *relative* — the scenario anchors them to each shard's
    clock after the key-creation phase.
    """

    seed: int
    shard_count: int
    n: int
    t: int
    client_count: int
    num_keys: int
    rounds: int
    byzantine_count: int
    byzantine_strategy: str
    timeline: Tuple[Dict[str, Any], ...] = field(default_factory=tuple)
    max_events: int = 4_000_000

    # -- derived -----------------------------------------------------------
    def scenario_kwargs(self) -> Dict[str, Any]:
        """Parameters of the ``kv`` family (minus backend)."""
        per_shard: Dict[int, List[Dict[str, Any]]] = {}
        for event in self.timeline:
            entry = {key: value for key, value in event.items()
                     if key != "shard"}
            per_shard.setdefault(int(event["shard"]), []).append(entry)
        return {
            "shard_count": self.shard_count, "n": self.n, "t": self.t,
            "seed": self.seed, "client_count": self.client_count,
            "num_keys": self.num_keys, "rounds": self.rounds,
            "byzantine_count": self.byzantine_count,
            "byzantine_strategy": self.byzantine_strategy,
            "fault_timelines": {shard: {"events": events}
                                for shard, events in per_shard.items()},
            "max_events": self.max_events,
        }

    # -- (de)serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data = asdict(self)
        data["timeline"] = [dict(event) for event in self.timeline]
        data["family"] = "kv"
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "KVFuzzCase":
        fields = {key: value for key, value in data.items()
                  if key != "family"}
        fields["timeline"] = tuple(
            {"time": float(event["time"]), "kind": event["kind"],
             "args": dict(event.get("args") or {}),
             "shard": int(event["shard"])}
            for event in (fields.get("timeline") or ()))
        try:
            return cls(**fields)
        except TypeError as exc:   # missing or unknown fields
            raise ValueError(f"malformed kv fuzz case: {exc}") from None

    def with_timeline(self, events) -> "KVFuzzCase":
        """Copy with a replacement event list (shrinker hook)."""
        return replace(self, timeline=tuple(dict(event)
                                            for event in events))


@dataclass(frozen=True)
class ReshardFuzzCase:
    """One generated *live-resharding* experiment (the ``reshard`` family).

    Mirrors :class:`KVFuzzCase` for the ``reshard`` scenario family, with
    one twist: the flattened ``timeline`` holds **both** per-shard fault
    events (each carrying its ``shard`` index) and store-scoped rebalance
    events (``reshard_split`` / ``reshard_merge`` / ``migrate_vnodes``, no
    ``shard`` key).
    :meth:`scenario_kwargs` splits them back into ``fault_timelines`` and
    ``reshard_plan`` — and because they share one event vector, the ddmin
    shrinker minimizes rebalance plans exactly like fault timelines
    (a candidate whose plan drops a split that a later merge references
    simply fails validation and is rejected as a different signature).
    """

    seed: int
    shard_count: int
    n: int
    t: int
    client_count: int
    num_keys: int
    rounds: int
    vnodes: int
    byzantine_count: int
    byzantine_strategy: str
    timeline: Tuple[Dict[str, Any], ...] = field(default_factory=tuple)
    max_events: int = 6_000_000

    # -- derived -----------------------------------------------------------
    def plan_events(self) -> List[Dict[str, Any]]:
        from ..faults.schedule import RESHARD_KINDS
        return [event for event in self.timeline
                if event["kind"] in RESHARD_KINDS]

    def scenario_kwargs(self) -> Dict[str, Any]:
        """Parameters of the ``reshard`` family (minus backend)."""
        from ..faults.schedule import RESHARD_KINDS
        per_shard: Dict[int, List[Dict[str, Any]]] = {}
        plan: List[Dict[str, Any]] = []
        for event in self.timeline:
            if event["kind"] in RESHARD_KINDS:
                plan.append({key: value for key, value in event.items()
                             if key != "shard"})
            else:
                entry = {key: value for key, value in event.items()
                         if key != "shard"}
                per_shard.setdefault(int(event["shard"]), []).append(entry)
        return {
            "shard_count": self.shard_count, "n": self.n, "t": self.t,
            "seed": self.seed, "client_count": self.client_count,
            "num_keys": self.num_keys, "rounds": self.rounds,
            "vnodes": self.vnodes,
            "byzantine_count": self.byzantine_count,
            "byzantine_strategy": self.byzantine_strategy,
            "fault_timelines": {shard: {"events": events}
                                for shard, events in per_shard.items()},
            "reshard_plan": {"events": plan},
            "max_events": self.max_events,
        }

    # -- (de)serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data = asdict(self)
        data["timeline"] = [dict(event) for event in self.timeline]
        data["family"] = "reshard"
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ReshardFuzzCase":
        fields = {key: value for key, value in data.items()
                  if key != "family"}
        events = []
        for event in (fields.get("timeline") or ()):
            entry = {"time": float(event["time"]), "kind": event["kind"],
                     "args": dict(event.get("args") or {})}
            if "shard" in event:
                entry["shard"] = int(event["shard"])
            events.append(entry)
        fields["timeline"] = tuple(events)
        try:
            return cls(**fields)
        except TypeError as exc:   # missing or unknown fields
            raise ValueError(
                f"malformed reshard fuzz case: {exc}") from None

    def with_timeline(self, events) -> "ReshardFuzzCase":
        """Copy with a replacement event list (shrinker hook)."""
        return replace(self, timeline=tuple(dict(event)
                                            for event in events))


def case_from_dict(data: Dict[str, Any]):
    """Load any fuzz-case family from its dict rendering.

    The reshard test must come first: a reshard case also carries
    ``shard_count``, which would otherwise match the kv branch.
    """
    if data.get("family") == "reshard" or "vnodes" in data:
        return ReshardFuzzCase.from_dict(data)
    if data.get("family") == "kv" or "shard_count" in data:
        return KVFuzzCase.from_dict(data)
    return FuzzCase.from_dict(data)


def _sample_transient_events(rng: random.Random, profile: FuzzProfile,
                             server_ids: List[str], transport: str,
                             static_byz: int, kind_reg: str
                             ) -> List[Dict[str, Any]]:
    """Pre-workload transient faults (they all count into τ_no_tr).

    Bursts against *atomic* cases target servers only: corrupting the
    writer's ``wsn`` (or the reader's ``pwsn``) can teleport it up to
    half the bounded sequence ring — indistinguishable from
    system-life-span writes having happened, which voids Lemma 13's
    precondition, so reads may legitimately return the stale ``pv`` for
    the rest of a short history (see ``tests/replays/wsn-jump-atomic
    .json``, a fuzzer-found counterexample kept as documentation).
    Server state, by contrast, is provably repaired by the first
    post-τ write plus the helping mechanism.
    """
    events: List[Dict[str, Any]] = []
    count = rng.randrange(profile.max_transient_events + 1)
    kinds = ["burst", "link-garbage", "crash"]
    if transport == "direct":
        kinds.append("partition")
    for _ in range(count):
        kind = rng.choice(kinds)
        time = _quantize(rng.uniform(0.5, 8.0))
        if kind == "burst":
            fraction = _quantize(rng.uniform(0.2, 1.0))
            targets = rng.choice(["all", "servers", "clients"])
            if kind_reg == "atomic":
                targets = "servers"
            events.append({"time": time, "kind": "burst",
                           "args": {"fraction": fraction,
                                    "targets": targets}})
        elif kind == "link-garbage":
            events.append({"time": time, "kind": "link-garbage",
                           "args": {"per_link": rng.randrange(1, 4)}})
        elif kind == "crash":
            # crashed servers come from the tail so they never overlap the
            # static Byzantine prefix.
            tail = server_ids[static_byz:]
            group = _pick_subset(rng, tail, 1 + rng.randrange(2))
            end = _quantize(time + rng.uniform(0.5, 3.0))
            events.append({"time": time, "kind": "crash",
                           "args": {"servers": sorted(group)}})
            events.append({"time": end, "kind": "recover",
                           "args": {"servers": sorted(group),
                                    "corrupt": rng.random() < 0.8}})
        else:  # partition
            tail = server_ids[static_byz:]
            group = _pick_subset(rng, tail,
                                 1 + rng.randrange(max(1, len(tail) // 3)))
            end = _quantize(time + rng.uniform(0.5, 3.0))
            events.append({"time": time, "kind": "partition",
                           "args": {"group": sorted(group)}})
            events.append({"time": end, "kind": "heal",
                           "args": {"group": sorted(group)}})
    return events


def _sample_rotations(rng: random.Random, profile: FuzzProfile,
                      server_ids: List[str], t: int, start: float,
                      read_span: float) -> List[Dict[str, Any]]:
    """Mobile Byzantine rotations inside the first 60% of the *read*
    schedule (``read_span`` = last read invocation − workload start).

    Sizing the window by reads rather than the whole workload guarantees
    at least the tail reads are invoked after the last rotation —
    stabilization is never judged on an empty read suffix, which would
    be a vacuously 'stable' verdict.
    """
    rotations = rng.randrange(profile.max_rotations + 1)
    if rotations == 0:
        return []
    strategy = rng.choice(list(ROTATION_STRATEGIES))
    size = 1 + rng.randrange(t)
    events = []
    for index in range(rotations):
        time = _quantize(start + rng.uniform(0.0, 0.6 * read_span))
        members = _pick_subset(rng, server_ids, size)
        events.append({"time": time, "kind": "byzantine",
                       "args": {"servers": sorted(members),
                                "strategy": strategy}})
    return events


def generate_case(seed: int,
                  profile: FuzzProfile = DEFAULT_PROFILE) -> FuzzCase:
    """The pure generator: ``(seed, profile) -> FuzzCase``.

    >>> case = generate_case(7)
    >>> case == generate_case(7)                 # pure function of seed
    True
    >>> case.n >= 8 * case.t + 1                 # resilience envelope
    True
    """
    rng = random.Random(seed)
    n, t = TOPOLOGIES[rng.randrange(len(TOPOLOGIES))]
    kind = rng.choice(["regular", "atomic"])
    transport = ("datalink" if rng.random() < profile.datalink_weight
                 else "direct")
    num_writes = 1 + rng.randrange(profile.max_writes)
    num_reads = 1 + rng.randrange(profile.max_reads)
    op_gap = _quantize(rng.uniform(6.0, 14.0))
    if rng.random() < profile.concurrency_weight:
        reader_offset = _quantize(rng.uniform(0.1, 1.5))
    else:
        reader_offset = None
    byzantine_count = rng.randrange(t + 1)
    byzantine_strategy = rng.choice(list(STATIC_STRATEGIES))

    server_ids = [server_name(i) for i in range(n)]
    events = _sample_transient_events(rng, profile, server_ids, transport,
                                      byzantine_count, kind)
    tau = max((event["time"] for event in events), default=0.0)
    start = tau + 1.0
    # last read is scheduled at start + (num_reads-1)*op_gap + offset
    # (see workloads.generators.alternating_schedule).
    offset = reader_offset if reader_offset is not None else op_gap / 2.0
    read_span = (num_reads - 1) * op_gap + offset
    events.extend(_sample_rotations(rng, profile, server_ids, t, start,
                                    read_span))
    # scheduler order is (time, seq); sort for readability, keeping the
    # sampled order among same-time events (sort is stable).
    events.sort(key=lambda event: event["time"])
    return FuzzCase(
        seed=seed, kind=kind, n=n, t=t, transport=transport,
        num_writes=num_writes, num_reads=num_reads, op_gap=op_gap,
        reader_offset=reader_offset, byzantine_count=byzantine_count,
        byzantine_strategy=byzantine_strategy,
        timeline=tuple(events), max_events=profile.max_events)


# ----------------------------------------------------------------------
# the kv family
# ----------------------------------------------------------------------
#: static adversaries safe for the sharded KV stack.  Strategies are
#: per-shard (at most ``t`` servers each), all responsive or within the
#: ``n - t`` wait's silent budget.
KV_STRATEGIES = ("silent", "stale", "random-garbage", "equivocate",
                 "flip-flop")

#: burst fractions stay partial: a burst corrupting *every* server copy
#: of a per-key register livelocks the MWMR scan until the owner
#: rewrites (the kv family's documented liveness caveat).
KV_MAX_BURST_FRACTION = 0.2


def _sample_kv_shard_events(rng: random.Random, profile: FuzzProfile,
                            shard_count: int, server_ids: List[str],
                            static_byz: int) -> List[Dict[str, Any]]:
    """Pre-workload transient events, each pinned to one shard.

    All relative times land in ``(0.5, 6.0)`` and every crash/partition
    resolves before the workload (the scenario anchors τ per shard to
    the last event).  Groups come from the server-list tail so they
    never overlap the static Byzantine prefix.
    """
    events: List[Dict[str, Any]] = []
    count = rng.randrange(profile.max_transient_events + 1)
    for _ in range(count):
        shard = rng.randrange(shard_count)
        kind = rng.choice(["burst", "partition", "crash"])
        time = _quantize(rng.uniform(0.5, 6.0))
        if kind == "burst":
            fraction = _quantize(rng.uniform(0.05, KV_MAX_BURST_FRACTION))
            events.append({"time": time, "kind": "burst",
                           "args": {"fraction": fraction,
                                    "targets": "servers"},
                           "shard": shard})
        else:
            tail = server_ids[static_byz:]
            group = sorted(_pick_subset(rng, tail, 1))
            end = _quantize(time + rng.uniform(0.5, 2.0))
            if kind == "partition":
                events.append({"time": time, "kind": "partition",
                               "args": {"group": group}, "shard": shard})
                events.append({"time": end, "kind": "heal",
                               "args": {"group": group}, "shard": shard})
            else:
                events.append({"time": time, "kind": "crash",
                               "args": {"servers": group}, "shard": shard})
                events.append({"time": end, "kind": "recover",
                               "args": {"servers": group,
                                        "corrupt": rng.random() < 0.8},
                               "shard": shard})
    return events


def generate_kv_case(seed: int,
                     profile: FuzzProfile = DEFAULT_PROFILE) -> KVFuzzCase:
    """The pure kv-family generator: ``(seed, profile) -> KVFuzzCase``.

    >>> case = generate_kv_case(7)
    >>> case == generate_kv_case(7)
    True
    >>> 1 <= case.shard_count <= 3
    True
    """
    rng = random.Random(seed)
    shard_count = 1 + rng.randrange(3)
    n, t = 9, 1
    client_count = 1 + rng.randrange(3)
    num_keys = 1 + rng.randrange(5)
    rounds = 1 + rng.randrange(3)
    byzantine_count = rng.randrange(t + 1)
    byzantine_strategy = rng.choice(list(KV_STRATEGIES))
    server_ids = [server_name(i) for i in range(n)]
    events = _sample_kv_shard_events(rng, profile, shard_count, server_ids,
                                     byzantine_count)
    events.sort(key=lambda event: (event["shard"], event["time"]))
    return KVFuzzCase(
        seed=seed, shard_count=shard_count, n=n, t=t,
        client_count=client_count, num_keys=num_keys, rounds=rounds,
        byzantine_count=byzantine_count,
        byzantine_strategy=byzantine_strategy,
        timeline=tuple(events), max_events=profile.max_events)


# ----------------------------------------------------------------------
# the reshard family
# ----------------------------------------------------------------------
def _sample_reshard_plan(rng: random.Random, shard_count: int,
                         vnodes: int) -> List[Dict[str, Any]]:
    """A statically valid rebalance plan (1-3 store-scoped events).

    Generated cases must pass on a correct implementation, so the
    sampler replays the ring algebra it is about to request: splits
    allocate indices in order, merges empty their source, slot counts
    track every move — no event ever splits a sub-2-slot shard, merges
    an empty one or migrates more slots than the source owns.  Times are
    sampled *increasing* so the scenario's time-ordering of the plan
    preserves the sampled reference order.
    """
    slots = [vnodes] * shard_count        # per-shard owned-slot counts
    events: List[Dict[str, Any]] = []
    time = 0.0
    for _ in range(1 + rng.randrange(3)):
        time = _quantize(time + rng.uniform(2.0, 20.0))
        splittable = [s for s, count in enumerate(slots) if count >= 2]
        occupied = [s for s, count in enumerate(slots) if count >= 1]
        kinds = []
        if splittable:
            kinds.append("reshard_split")
        if len(occupied) >= 2:
            kinds.extend(["reshard_merge", "migrate_vnodes"])
        if not kinds:
            break
        kind = rng.choice(kinds)
        if kind == "reshard_split":
            shard = rng.choice(splittable)
            moved = slots[shard] // 2
            slots[shard] -= moved
            slots.append(moved)
            events.append({"time": time, "kind": "reshard_split",
                           "args": {"shard": shard}})
        elif kind == "reshard_merge":
            source = rng.choice(occupied)
            into = rng.choice([s for s in occupied if s != source])
            slots[into] += slots[source]
            slots[source] = 0
            events.append({"time": time, "kind": "reshard_merge",
                           "args": {"source": source, "into": into}})
        else:
            source = rng.choice([s for s in occupied if slots[s] >= 1])
            dest = rng.choice([s for s in range(len(slots))
                               if s != source])
            count = 1 + rng.randrange(min(2, slots[source]))
            slots[source] -= count
            slots[dest] += count
            events.append({"time": time, "kind": "migrate_vnodes",
                           "args": {"source": source, "dest": dest,
                                    "count": count}})
    return events


def generate_reshard_case(seed: int, profile: FuzzProfile = DEFAULT_PROFILE
                          ) -> ReshardFuzzCase:
    """The pure reshard-family generator: ``(seed, profile) -> case``.

    >>> case = generate_reshard_case(7)
    >>> case == generate_reshard_case(7)
    True
    >>> len(case.plan_events()) >= 1
    True
    """
    rng = random.Random(seed)
    shard_count = 1 + rng.randrange(3)
    n, t = 9, 1
    client_count = 1 + rng.randrange(3)
    num_keys = 1 + rng.randrange(5)
    rounds = 1 + rng.randrange(3)
    vnodes = rng.choice([2, 4, 8])
    byzantine_count = rng.randrange(t + 1)
    byzantine_strategy = rng.choice(list(KV_STRATEGIES))
    server_ids = [server_name(i) for i in range(n)]
    faults = _sample_kv_shard_events(rng, profile, shard_count, server_ids,
                                     byzantine_count)
    faults.sort(key=lambda event: (event["shard"], event["time"]))
    plan = _sample_reshard_plan(rng, shard_count, vnodes)
    return ReshardFuzzCase(
        seed=seed, shard_count=shard_count, n=n, t=t,
        client_count=client_count, num_keys=num_keys, rounds=rounds,
        vnodes=vnodes, byzantine_count=byzantine_count,
        byzantine_strategy=byzantine_strategy,
        timeline=tuple(faults + plan), max_events=profile.max_events)

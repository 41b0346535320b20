"""The fuzz-family table: everything a family-specific fuzz arm supplies.

A fuzz family is a scenario family of :mod:`repro.workloads` — whose
``FAMILIES`` entry owns the parameter vocabulary a case may pin, and
whose verdict rule judges a case as it judges a sweep cell — plus one
:data:`FUZZ_FAMILIES` entry: the :class:`FuzzFamily` (sampler, shrink
ladder, ``--help`` line) that the generic case type, harness, shrinker,
campaign and CLI read.  Nothing else in ``repro.fuzz`` names a family:
adding an arm is one entry here.

Sampling discipline
-------------------
Every field is sampled from a single ``random.Random(seed)`` whose seed is
**hash-derived** (see :mod:`repro.runner.spec`), never ``hash()``-derived,
so a case is a pure function of its seed — byte-identical across
processes, worker counts, Python versions and platforms (guarded by the
golden fixtures of ``tests/test_fuzz_golden_seeds.py`` and
``tests/test_fuzz_families.py``).  Only Mersenne-Twister primitives with
a stable cross-version algorithm are used (``random``, ``randrange``,
``choice``, ``uniform``); subset picking is implemented locally instead
of ``random.sample`` (whose internal strategy choice is an
implementation detail).  All times are quantized to one decimal so shrunk
counterexamples stay human-readable.

Adversary envelope
------------------
Generated cases must *pass* on a correct implementation, so the samplers
stay inside the paper's guarantees:

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
from dataclasses import asdict, dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

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

#: static adversaries safe for the sharded KV stack.  Strategies are
#: per-shard (at most ``t`` servers each), all responsive or within the
#: ``n - t`` wait's silent budget.
KV_STRATEGIES = ("silent", "stale", "random-garbage", "equivocate",
                 "flip-flop")

#: burst fractions stay partial, but 0.2 is not a safe bound: the MWMR
#: scan starves on a per-key register that a burst leaves with too few
#: intact copies for a quorum, and the odds grow with shards x keys x
#: clients (the kv family's liveness caveat).  The sampler's shapes are
#: small (<= 3 shards, <= 3 clients, <= 5 keys).
KV_MAX_BURST_FRACTION = 0.2

Event = Dict[str, Any]
#: ``(params, events)`` — what a sampler returns.
Sample = Tuple[Dict[str, Any], List[Event]]


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


def _outage(rng: random.Random, kind: str, time: float, group: List[str],
            longest: float, **tag: int) -> List[Event]:
    """A crash or partition of ``group`` at ``time`` and the recover/heal
    ending it at most ``longest`` later (four in five recoveries come
    back corrupted)."""
    group = sorted(group)
    end = _quantize(time + rng.uniform(0.5, longest))
    if kind == "crash":
        return [{"time": time, "kind": "crash",
                 "args": {"servers": group}, **tag},
                {"time": end, "kind": "recover",
                 "args": {"servers": group, "corrupt": rng.random() < 0.8},
                 **tag}]
    return [{"time": time, "kind": "partition",
             "args": {"group": group}, **tag},
            {"time": end, "kind": "heal", "args": {"group": group}, **tag}]


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


# ----------------------------------------------------------------------
# samplers
# ----------------------------------------------------------------------
def _sample_transient_events(rng: random.Random, profile: FuzzProfile,
                             server_ids: List[str], transport: str,
                             static_byz: int, kind_reg: str) -> List[Event]:
    """Pre-workload transient faults (they all count into τ_no_tr).

    Bursts against *atomic* cases target servers only.  Not for a wrap
    of the bounded sequence ring: a reader whose ``pwsn`` alone is
    corrupted keeps returning its stale ``pv`` for good when reads
    overlap writes (``test_reader_only_corruption_with_overlapping_reads
    _does_not_stabilize`` in ``tests/test_registers_swsr_atomic.py``;
    ``tests/replays/wsn-jump-atomic.json`` overlaps too).  Clients stay
    out until the ROADMAP's item 16 names that a deviation or a
    precondition of Fig. 3.  Server state is repaired by the first
    post-τ write plus the helping mechanism.
    """
    events: List[Event] = []
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
        else:
            # crashed and cut-off servers come from the tail so they never
            # overlap the static Byzantine prefix.
            tail = server_ids[static_byz:]
            widest = 2 if kind == "crash" else max(1, len(tail) // 3)
            group = _pick_subset(rng, tail, 1 + rng.randrange(widest))
            events += _outage(rng, kind, time, group, 3.0)
    return events


def _sample_rotations(rng: random.Random, profile: FuzzProfile,
                      server_ids: List[str], t: int, start: float,
                      read_span: float) -> List[Event]:
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


def _sample_swsr(rng: random.Random, profile: FuzzProfile) -> Sample:
    """One writer/reader pair: topology, workload program, static
    Byzantine placement, transient faults before τ, rotations after."""
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
    return dict(kind=kind, n=n, t=t, transport=transport,
                num_writes=num_writes, num_reads=num_reads, op_gap=op_gap,
                reader_offset=reader_offset,
                byzantine_count=byzantine_count,
                byzantine_strategy=byzantine_strategy), events


def _sample_kv_shard_events(rng: random.Random, profile: FuzzProfile,
                            shard_count: int, server_ids: List[str],
                            static_byz: int) -> List[Event]:
    """Pre-workload transient events, each pinned to one shard.

    All relative times land in ``(0.5, 6.0)`` and every crash/partition
    resolves before the workload (the scenario anchors τ per shard to
    the last event).  Groups come from the server-list tail so they
    never overlap the static Byzantine prefix.
    """
    events: List[Event] = []
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
            group = _pick_subset(rng, server_ids[static_byz:], 1)
            events += _outage(rng, kind, time, group, 2.0, shard=shard)
    return events


def _sample_reshard_plan(rng: random.Random, shard_count: int,
                         vnodes: int) -> List[Event]:
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
    events: List[Event] = []
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


def _sample_store(rng: random.Random, profile: FuzzProfile,
                  resharding: bool = False) -> Sample:
    """A sharded KV workload: shard/client/key counts, a static Byzantine
    placement (per shard) and per-shard fault events — each carrying its
    ``shard`` index, at times *relative* to the shard's clock after the
    key-creation phase.  ``resharding`` adds the ring size and a
    rebalance plan (store-scoped events, no ``shard`` key) behind them.
    """
    shard_count = 1 + rng.randrange(3)
    n, t = 9, 1
    params = dict(shard_count=shard_count, n=n, t=t,
                  client_count=1 + rng.randrange(3),
                  num_keys=1 + rng.randrange(5),
                  rounds=1 + rng.randrange(3))
    if resharding:
        params["vnodes"] = rng.choice([2, 4, 8])
    byzantine_count = rng.randrange(t + 1)
    params.update(byzantine_count=byzantine_count,
                  byzantine_strategy=rng.choice(list(KV_STRATEGIES)))
    server_ids = [server_name(i) for i in range(n)]
    events = _sample_kv_shard_events(rng, profile, shard_count, server_ids,
                                     byzantine_count)
    events.sort(key=lambda event: (event["shard"], event["time"]))
    if resharding:
        events += _sample_reshard_plan(rng, shard_count, params["vnodes"])
    return params, events


# ----------------------------------------------------------------------
# shrink ladders
# ----------------------------------------------------------------------
#: ladder target: try 1, then half the current value.
HALVE = object()

Candidates = List[Tuple[str, Any]]


def _max_referenced_server(case) -> int:
    """Highest server number named by the timeline (0 when none)."""
    highest = 0
    for event in case.timeline:
        args = event.get("args") or {}
        pids = list(args.get("servers") or ()) + list(args.get("group")
                                                     or ())
        targets = args.get("targets")
        if isinstance(targets, (list, tuple)):   # explicit burst pid list
            pids.extend(targets)
        for pid in pids:
            number = server_number(pid)
            if number is not None:
                highest = max(highest, number)
    return highest


def _smaller_topology(case) -> Candidates:
    """The smallest resilient ``n``, then the smallest ``t``."""
    candidates: Candidates = []
    n, t = case.param("n"), case.param("t")
    # topology reductions must keep every server the timeline names —
    # a smaller cluster would just KeyError, wasting an oracle call.
    named = _max_referenced_server(case)
    min_n = max(8 * t + 1, named)
    if n > min_n:
        candidates.append((f"n={min_n}", case.with_params(n=min_n)))
    if t > 1:
        # t cannot drop below the largest rotation set the timeline
        # installs (FaultTimeline.install rejects sets larger than t).
        largest_rotation = max(
            (len(event.get("args", {}).get("servers") or ())
             for event in case.timeline if event["kind"] == "byzantine"),
            default=0)
        target_t = max(1, largest_rotation)
        small_n = max(8 * target_t + 1, named)
        if target_t < t and small_n <= n:
            candidates.append((f"t={target_t}", case.with_params(
                t=target_t, n=small_n,
                byzantine_count=min(case.param("byzantine_count"),
                                    target_t))))
    return candidates


def _rounder_event_args(case) -> Candidates:
    """Event-argument rounding: fractions to one coarse step, times
    floored."""
    rounded = []
    changed = False
    for event in case.timeline:
        event = dict(event)
        args = dict(event.get("args") or {})
        if "fraction" in args and args["fraction"] != 1.0:
            args["fraction"] = 1.0
            changed = True
        floored = float(int(event["time"]))
        if event["time"] != floored:
            event["time"] = floored
            changed = True
        event["args"] = args
        rounded.append(event)
    return [("round event args", case.with_timeline(rounded))] \
        if changed else []


def _single_shard(case) -> Candidates:
    """One shard, when no event needs another."""
    if case.param("shard_count") > 1 and not any(
            int(event.get("shard", 0)) > 0 for event in case.timeline):
        return [("shard_count=1", case.with_params(shard_count=1))]
    return []


#: the store-backed families' shared reductions: fewer rounds/keys/
#: clients, no static adversary.  Burst fractions are deliberately left
#: alone: a higher fraction corrupts more copies per register and can
#: starve the MWMR scan (the kv family's liveness caveat), which would
#: change the failure signature and just waste oracle calls.
_STORE_LADDER = (("rounds", HALVE), ("num_keys", HALVE),
                 ("client_count", 1), ("byzantine_count", 0))


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FuzzFamily:
    """One fuzz arm over the scenario family of the same name.

    ``sample(rng, profile)`` returns the parameters the case pins (in
    rendering order) and its flat event list; a plain event folds into
    the scenario's ``fault_timeline``, a ``shard``-tagged one into
    ``fault_timelines``, a rebalance event into ``reshard_plan`` (see
    :meth:`~repro.fuzz.gen.FuzzCase.scenario_kwargs`) — which is why
    ddmin minimizes rebalance plans exactly like fault timelines.

    ``ladder`` lists the shrinker's single-parameter reductions, biggest
    wins first: ``(name, HALVE)`` tries 1 then half, ``(name, value)``
    tries that value, and a callable ``step(case)`` returns its own
    ``(label, candidate)`` pairs.
    """

    summary: str
    sample: Callable[[random.Random, FuzzProfile], Sample]
    ladder: Tuple[Any, ...]


FUZZ_FAMILIES: Dict[str, FuzzFamily] = {
    "swsr": FuzzFamily(
        "single register pairs under fault timelines",
        _sample_swsr,
        (("num_writes", HALVE), ("num_reads", HALVE), _smaller_topology,
         ("byzantine_count", 0), ("reader_offset", None),
         ("transport", "direct"), _rounder_event_args)),
    "kv": FuzzFamily(
        "sharded KV workloads",
        _sample_store,
        _STORE_LADDER + (_single_shard,)),
    # shard_count and vnodes stay fixed: both feed the ring algebra the
    # plan events were validated against, and a changed ring just places
    # keys differently (a different case, not a smaller one).  The plan
    # itself shrinks through ddmin: a candidate that drops a split a later
    # merge references fails the scenario's validation and is rejected as
    # a different signature.
    "reshard": FuzzFamily(
        "live resharding under traffic",
        partial(_sample_store, resharding=True),
        _STORE_LADDER),
}

#: the family whose cases and campaigns carry no family tag: its renderings
#: and derived seeds predate the table and are frozen by the golden-seed
#: tests and the committed replay corpus.
DEFAULT_FAMILY = "swsr"


def fuzz_family(name: str) -> FuzzFamily:
    """The table entry for ``name``; ``ValueError`` names the choices."""
    if name not in FUZZ_FAMILIES:
        raise ValueError(f"unknown fuzz family {name!r} "
                         f"(expected one of {', '.join(FUZZ_FAMILIES)})")
    return FUZZ_FAMILIES[name]

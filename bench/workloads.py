"""The four workloads: what each sends, and how it checks what comes back.

A workload is a sequence of fixed-size **segments**.  Segment ``k`` of
seed ``s`` always holds the same operations, so its digests and counts
repeat exactly; a run executes whole segments until its time budget is
spent.  ``--seed`` drives keys, values, the operation mix, the store's
simulation seed and the per-pass scenario seeds — the program under test
receives only those generated inputs.

Load shape: one generator process, one thread.  The service workloads
keep exactly two closed-loop connections (the store's two logical clients
``c1``/``c2``; the paper's processes are sequential, so a client's next
request waits for its previous reply) over an in-process
``ServiceServer`` + ``KVClient.loopback``, which makes client, service
and simulator costs additive on the one thread.  The simulator workloads
run ``trace_backend="null"`` under each family's default ``AsyncDelay``.
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import Any, Dict, List, NamedTuple, Tuple

from repro import api
from repro.service import (KVClient, KVService, ServiceError,
                           ServiceServer)

#: The issue sized the simulator cells for ~20 s per workload; the
#: benchmark contract caps a run lower, so every cell's operation count is
#: scaled by this one common factor (a pass is then ~1 s, like a service
#: segment).
CELL_SCALE = 0.5

STORE = dict(shard_count=4, n=9, t=1, client_count=2)


class Segment(NamedTuple):
    """What one segment did."""

    attempted: int                      #: operations sent
    failed: int                         #: failed, refused or unverified
    latencies: Dict[str, List[float]]   #: request kind -> seconds each
    events: int                         #: simulator events processed
    facts: Dict[str, Any]               #: seed-determined digests/counts


def _value(rng: random.Random) -> str:
    return f"{rng.getrandbits(64):016x}"


class _ServiceUnderLoad:
    """A fresh store + service + two connected loopback clients, driven
    on a private event loop so that segments are plain blocking calls."""

    def __init__(self, seed: int):
        self.loop = asyncio.new_event_loop()
        self.service = KVService(seed=seed, **STORE)
        self.server = ServiceServer(self.service)
        self.clients = [KVClient.loopback(self.server, client=pid)
                        for pid in self.service.store.client_pids]
        self.run(*(client.connect() for client in self.clients))

    def run(self, *coroutines: Any) -> List[Any]:
        async def together() -> List[Any]:
            return await asyncio.gather(*coroutines)
        return self.loop.run_until_complete(together())

    def segment(self, attempted: int, drivers: List[Any],
                latencies: Dict[str, List[float]]) -> Segment:
        """Run one segment's connection drivers (each returns its count
        of failed ops) to completion."""
        store = self.service.store
        events = store.events_processed
        failed = sum(self.run(*drivers))
        # cumulative, so segment k's facts pin segments 0..k
        facts = {"response_digest": self.service.response_digest,
                 "history_digest": self.service.history_digest,
                 "events": store.events_processed,
                 "messages": store.messages_sent,
                 "ops": self.service.stream.ops}
        return Segment(attempted, failed, latencies,
                       store.events_processed - events, facts)

    def close(self) -> None:
        self.run(*(client.close() for client in self.clients))
        self.run(self.server.shutdown())
        self.loop.close()


class SvcSingle:
    """Single-op requests, 70 % GET / 30 % PUT, 128 keys per connection.

    The full trip — ``KVClient`` frame, ``KVService``, ``Pipeline``, MWMR
    register, ``Network``/``Scheduler``, ``ObservationStream``, response —
    with the per-request costs (codec, digests, one flush per op) at their
    largest share; read-heavy.
    """

    name = "svc-single"
    KEYS = 128
    REQUESTS = 1200          #: per segment, split over the two connections
    GET_SHARE = 0.7

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(f"{seed}/{self.name}/keys")
        self.keys = [[f"k{rng.getrandbits(32):08x}" for _ in range(self.KEYS)]
                     for _ in range(STORE["client_count"])]

    def setup(self) -> None:
        self.sut = _ServiceUnderLoad(self.seed)
        #: last PUT in program order per key; each key has one writer.
        self.model: List[Dict[str, str]] = [{} for _ in self.keys]
        self.sut.run(*(self._warm(conn) for conn in range(len(self.keys))))

    async def _warm(self, conn: int) -> None:
        rng = random.Random(f"{self.seed}/{self.name}/warm/{conn}")
        for key in self.keys[conn]:
            value = _value(rng)
            await self.sut.clients[conn].put(key, value)
            self.model[conn][key] = value

    async def _drive(self, conn: int, index: int, gets: List[float],
                     puts: List[float]) -> int:
        rng = random.Random(f"{self.seed}/{self.name}/{index}/{conn}")
        client, keys, model = (self.sut.clients[conn], self.keys[conn],
                               self.model[conn])
        failed = 0
        for _ in range(self.REQUESTS // len(self.keys)):
            key = keys[rng.randrange(self.KEYS)]
            try:
                if rng.random() < self.GET_SHARE:
                    started = time.perf_counter()
                    value = await client.get(key)
                    gets.append(time.perf_counter() - started)
                    failed += value != model[key]
                else:
                    value = _value(rng)
                    started = time.perf_counter()
                    await client.put(key, value)
                    puts.append(time.perf_counter() - started)
                    model[key] = value
            except (ServiceError, ConnectionError):
                failed += 1
        return failed

    def run_segment(self, index: int) -> Segment:
        gets: List[float] = []
        puts: List[float] = []
        return self.sut.segment(
            self.REQUESTS, [self._drive(conn, index, gets, puts)
                            for conn in range(len(self.keys))],
            {"get": gets, "put": puts})

    def close(self) -> None:
        self.sut.close()


class SvcBatch:
    """``BATCH`` requests of 16 ops: 8 PUT then 8 GET of one lane's keys.

    Lane-partitioned like ``repro.service.loadgen``: a lane owns 8 keys
    and belongs to one connection, so each GET must return its batch's
    PUT.  Per-request cost is amortised 16x, ``Pipeline`` lanes queue and
    chain, and the mix is write-heavy — the same service and kvstore code
    used differently, so a per-request gain that costs per-op work shows.
    """

    name = "svc-batch"
    KEYS_PER_LANE = 8
    ops_per_request = 2 * KEYS_PER_LANE
    LANES = 8                #: per connection
    REQUESTS = 100           #: per segment, split over the two connections

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(f"{seed}/{self.name}/keys")
        self.lanes = [[[f"k{rng.getrandbits(32):08x}"
                        for _ in range(self.KEYS_PER_LANE)]
                       for _ in range(self.LANES)]
                      for _ in range(STORE["client_count"])]

    def setup(self) -> None:
        self.sut = _ServiceUnderLoad(self.seed)
        self.sut.run(*(self._drive(conn, "warm", self.LANES, [])
                       for conn in range(len(self.lanes))))

    def schedule(self, conn: int, index: Any, requests: int
                 ) -> List[Tuple[List[str], List[str]]]:
        """``(keys, values)`` of each batch one connection sends."""
        rng = random.Random(f"{self.seed}/{self.name}/{index}/{conn}")
        return [(self.lanes[conn][number % self.LANES],
                 [_value(rng) for _ in range(self.KEYS_PER_LANE)])
                for number in range(requests)]

    async def _drive(self, conn: int, index: Any, requests: int,
                     latencies: List[float]) -> int:
        client = self.sut.clients[conn]
        failed = 0
        for keys, values in self.schedule(conn, index, requests):
            entries = [("put", key, value)
                       for key, value in zip(keys, values)]
            entries.extend(("get", key) for key in keys)
            try:
                started = time.perf_counter()
                results = await client.batch(entries)
                latencies.append(time.perf_counter() - started)
            except (ServiceError, ConnectionError):
                failed += self.ops_per_request
                continue
            reads = results[self.KEYS_PER_LANE:]
            failed += ((len(keys) - len(reads))
                       + sum(got != want for got, want in zip(reads, values)))
        return failed

    def run_segment(self, index: int) -> Segment:
        latencies: List[float] = []
        share = self.REQUESTS // len(self.lanes)
        return self.sut.segment(
            self.REQUESTS * self.ops_per_request,
            [self._drive(conn, index, share, latencies)
             for conn in range(len(self.lanes))],
            {"batch": latencies})

    def close(self) -> None:
        self.sut.close()


def _ops(count: int) -> int:
    return max(1, int(count * CELL_SCALE))


def _swsr(kind: str, n: int, t: int, ops: int, **extra: Any
          ) -> Dict[str, Any]:
    return dict(kind=kind, n=n, t=t, num_writes=_ops(ops),
                num_reads=_ops(ops), trace_backend="null", **extra)


class Cell(NamedTuple):
    name: str
    family: str
    params: Dict[str, Any]


def cell_ok(cell: Cell, result: Any) -> bool:
    """The paper-expected outcome held: the run completed, stabilized, and
    shows no violation after τ (the judgement ``repro.runner.adapters``
    applies to the same families)."""
    if not result.completed:
        return False
    if cell.family == "mwmr":
        return bool(api.check_linearizable(result.history).ok)
    if cell.family == "kv":
        return bool(result.linearizable)
    if not result.summarize().stable:
        return False
    tracker = result.extra.get("tracker")
    if cell.family == "soak" and tracker is not None and not tracker.exact:
        return False
    if cell.params.get("kind") == "atomic":
        return not result.inversions_after(result.tau_no_tr)
    return True


def cell_facts(result: Any) -> Dict[str, Any]:
    """Everything about a finished cell that is a pure function of its
    seed — what ``expected.json`` pins and the exact metrics are made of."""
    summary = result.summarize()
    # a kv result spans one cluster per shard, the others exactly one
    clusters = (result.store.group if hasattr(result, "store")
                else [result.cluster])
    return {"history_digest": summary.history_digest,
            "events": summary.events_processed,
            "messages": summary.messages_sent, "ops": summary.ops,
            "corruptions": summary.corruptions,
            "dropped": sum(cluster.network.messages_dropped
                           for cluster in clusters),
            "dirty_reads": summary.dirty_reads,
            "tau_stab": summary.tau_stab}


#: the parameters that set how long a cell runs
_SIZE_KEYS = ("num_writes", "num_reads", "ops_per_process", "rounds")


class _ScenarioPasses:
    """One segment = one pass over the cells, pass ``k`` at seed + ``k``."""

    name: str
    cells: Tuple[Cell, ...]

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        # one miniature pass: imports the families' lazy modules and warms
        # the interpreter's caches before anything is timed.
        for cell in self.cells:
            shrunk = {key: (2 if key in _SIZE_KEYS else value)
                      for key, value in cell.params.items()}
            api.run_scenario(cell.family, seed=self.seed, **shrunk)

    def run_cell(self, cell: Cell, index: int) -> Any:
        return api.run_scenario(cell.family, seed=self.seed + index,
                                **cell.params)

    def run_segment(self, index: int) -> Segment:
        attempted = failed = 0
        latencies: Dict[str, List[float]] = {}
        facts: Dict[str, Any] = {}
        for cell in self.cells:
            started = time.perf_counter()
            result = self.run_cell(cell, index)
            verified = cell_ok(cell, result)
            latencies[cell.name] = [time.perf_counter() - started]
            facts[cell.name] = cell_facts(result)
            attempted += facts[cell.name]["ops"]
            if not verified:
                failed += facts[cell.name]["ops"]
        return Segment(attempted, failed, latencies,
                       sum(cell["events"] for cell in facts.values()), facts)

    def close(self) -> None:
        pass



class RegLadder(_ScenarioPasses):
    """The paper's construction ladder through ``run_scenario``.

    The researcher path: ``sim``, ``registers`` and ``datalink`` do nearly
    all the work, ``service`` and ``kvstore`` none — the bypass workload
    for service optimisations.
    """

    name = "reg-ladder"
    cells = (
        Cell("swsr-reg-n9", "swsr", _swsr("regular", 9, 1, 500)),
        Cell("swsr-sync-n10", "swsr",
             _swsr("regular", 10, 3, 500, synchronous=True)),
        Cell("swsr-atomic-n25", "swsr", _swsr("atomic", 25, 3, 500)),
        Cell("swsr-atomic-n17-dl", "swsr",
             _swsr("atomic", 17, 2, 100, transport="datalink")),
        Cell("mwmr-m3-n9", "mwmr",
             dict(m=3, n=9, t=1, ops_per_process=_ops(100),
                  trace_backend="null")),
    )


class SoakAdversary(_ScenarioPasses):
    """Three fault-laden cells inside the documented liveness envelope.

    ``faults`` and the windowed ``checkers`` do real work over a
    history-free long horizon (bounded memory is the claim); ``service``
    is idle.
    """

    name = "soak-adversary"
    cells = (
        Cell("soak", "soak",
             dict(kind="atomic", n=17, t=2, num_writes=_ops(2000),
                  num_reads=_ops(2000), fault_bursts=3, rotations=3,
                  rotation_strategy="equivocate", byzantine_count=1,
                  byzantine_strategy="stale")),
        # The burst stays far below the family's default fraction of 0.2:
        # at 0.2 a third of the seeds corrupt enough copies of one per-key
        # register to starve the MWMR scan (the documented livelock), and
        # a benchmark needs workloads on which no operation fails.
        Cell("kv", "kv",
             dict(shard_count=4, client_count=4, num_keys=32,
                  rounds=_ops(10), corruption_times=[2.0],
                  corruption_fraction=0.02, byzantine_count=1,
                  byzantine_strategy="equivocate")),
        Cell("partition", "partition", _swsr("atomic", 17, 2, 750)),
    )


WORKLOADS = {workload.name: workload
             for workload in (SvcSingle, SvcBatch, RegLadder, SoakAdversary)}

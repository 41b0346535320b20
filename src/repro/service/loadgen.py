"""Loopback load generation: the service-layer benchmark workhorse.

Drives a :class:`~repro.service.server.KVService` with ``clients``
concurrent loopback connections executing a **lane-partitioned**
workload: ``lanes`` logical lanes, each owning a disjoint key range and
a fixed store client, each issuing ``rounds`` batched put-then-get
requests.  Lanes are distributed round-robin over the connections, so
the *same* logical workload runs whether one connection carries all
lanes or eight carry one each — which is exactly what makes the
service's ``response_digest`` comparable across client counts (the CI
concurrency guard) while ``history_digest`` pins same-configuration
replay determinism.

Used by ``benchmarks/test_bench_service.py`` (→ ``BENCH_service.json``)
and ``python -m repro.service bench``.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Dict, List

from .client import BatchEntry, KVClient
from .server import KVService, ServiceServer


@dataclass(frozen=True)
class LoadReport:
    """Outcome of one loopback load run (wall times are *not* seeded)."""

    clients: int
    lanes: int
    rounds: int
    keys_per_lane: int
    requests: int
    ops: int
    mismatches: int
    wall_seconds: float
    requests_per_sec: float
    ops_per_sec: float
    p50_ms: float
    p99_ms: float
    history_digest: str
    response_digest: str
    stats: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "clients": self.clients,
            "history_digest": self.history_digest,
            "keys_per_lane": self.keys_per_lane,
            "lanes": self.lanes,
            "mismatches": self.mismatches,
            "ops": self.ops,
            "ops_per_sec": round(self.ops_per_sec, 1),
            "p50_ms": round(self.p50_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
            "requests": self.requests,
            "requests_per_sec": round(self.requests_per_sec, 1),
            "response_digest": self.response_digest,
            "rounds": self.rounds,
            "wall_seconds": round(self.wall_seconds, 4),
        }


def _lane_batch(lane: int, round_index: int, keys_per_lane: int
                ) -> List[BatchEntry]:
    """The lane's request for one round: rewrite every key, read it back.

    Put-then-get of the same key lands on the same ``(shard, client)``
    pipeline lane, so program order guarantees each get observes its
    round's put — results are independent of how lanes interleave.
    """
    keys = [f"lane{lane}/k{index}" for index in range(keys_per_lane)]
    entries: List[BatchEntry] = [
        ("put", key, f"l{lane}r{round_index}v{index}")
        for index, key in enumerate(keys)]
    entries.extend(("get", key) for key in keys)
    return entries


def _percentile(sorted_values: List[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                int(fraction * (len(sorted_values) - 1) + 0.5))
    return sorted_values[index]


async def _drive_connection(client: KVClient, my_lanes: List[int],
                            lane_clients: List[str], rounds: int,
                            keys_per_lane: int,
                            latencies: List[float]) -> int:
    """Run this connection's lanes; returns result mismatches seen."""
    mismatches = 0
    async with client:
        for round_index in range(rounds):
            for lane in my_lanes:
                entries = _lane_batch(lane, round_index, keys_per_lane)
                started = time.perf_counter()
                # the lane (not the connection) pins the store client:
                # the logical workload must not change shape with the
                # connection count.
                results = await client.batch(entries,
                                             client=lane_clients[lane])
                latencies.append((time.perf_counter() - started) * 1e3)
                expected = [None] * keys_per_lane + [
                    f"l{lane}r{round_index}v{index}"
                    for index in range(keys_per_lane)]
                if results != expected:
                    mismatches += 1
    return mismatches


async def _run_load(service: KVService, clients: int, lanes: int,
                    rounds: int, keys_per_lane: int) -> LoadReport:
    server = ServiceServer(service)
    pids = service.store.client_pids
    lane_clients = [pids[lane % len(pids)] for lane in range(lanes)]
    latencies: List[float] = []
    drivers = []
    for connection in range(clients):
        my_lanes = [lane for lane in range(lanes)
                    if lane % clients == connection]
        if not my_lanes:
            continue
        client = KVClient.loopback(server)
        drivers.append(_drive_connection(
            client, my_lanes, lane_clients, rounds, keys_per_lane,
            latencies))
    started = time.perf_counter()
    mismatch_counts = await asyncio.gather(*drivers)
    wall = time.perf_counter() - started

    stats_client = KVClient.loopback(server)
    async with stats_client:
        stats = await stats_client.stats()
    await server.shutdown()

    requests = lanes * rounds
    ops = requests * 2 * keys_per_lane
    latencies.sort()
    return LoadReport(
        clients=clients, lanes=lanes, rounds=rounds,
        keys_per_lane=keys_per_lane, requests=requests, ops=ops,
        mismatches=sum(mismatch_counts),
        wall_seconds=wall,
        requests_per_sec=requests / wall if wall > 0 else 0.0,
        ops_per_sec=ops / wall if wall > 0 else 0.0,
        p50_ms=_percentile(latencies, 0.50),
        p99_ms=_percentile(latencies, 0.99),
        history_digest=service.history_digest,
        response_digest=service.response_digest,
        stats=stats)


def run_loopback_load(*, clients: int = 4, lanes: int = 8, rounds: int = 4,
                      keys_per_lane: int = 4, shards: int = 4, n: int = 9,
                      t: int = 1, seed: int = 20260808,
                      store_clients: int = 2,
                      max_events: int = 2_000_000,
                      capture: Any = None) -> LoadReport:
    """Build a fresh store + service and run the loopback load workload.

    ``clients`` is the *connection* fan-in only; the logical workload is
    fixed by ``lanes`` × ``rounds`` × ``keys_per_lane``, so reports from
    different ``clients`` values are comparable (same ops, same
    ``response_digest``).  ``capture=`` records the whole session (store
    ops, request/response frames, drain transitions) to a trace file
    that ``repro.capture.replay_service_capture`` re-drives.
    """
    for name, value in (("clients", clients), ("lanes", lanes),
                        ("rounds", rounds), ("keys_per_lane", keys_per_lane)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    session = None
    if capture is not None:
        from ..capture.session import ServiceCaptureSession
        session = ServiceCaptureSession(
            capture, store={"shard_count": shards, "n": n, "t": t,
                            "seed": seed, "client_count": store_clients},
            max_events=max_events)

    async def main() -> LoadReport:
        service = KVService(shard_count=shards, n=n, t=t, seed=seed,
                            client_count=store_clients,
                            max_events=max_events, capture=session)
        report = await _run_load(service, clients, lanes, rounds,
                                 keys_per_lane)
        if session is not None:
            session.close(service)
        return report

    return asyncio.run(main())

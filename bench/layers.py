"""The per-layer budget: which entry points are wrapped, how spans fold
into named layer metrics, and the side rungs that time one layer alone.

A metric is reported by the workload that exercises its layer; on every
other workload it reads 0 (``service`` is idle on ``reg-ladder``).
Counts marked *exact* come from the first traced segment only, so they
repeat for a seed however many segments a run fits.
"""

from __future__ import annotations

import asyncio
import os
import statistics
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro import api
from repro.capture import record_scenario, replay_capture
from repro.checkers.stream import ObservationStream
from repro.kvstore.pipeline import Pipeline
from repro.kvstore.sharded import ShardedKVStore
from repro.kvstore.sharding import HashRing
from repro.runner import run_sweep, smoke_specs
from repro.service import (FrameDecoder, KVClient, KVService,
                           LoopbackTransport, ServiceServer, serve_tcp)
from repro.service import transport as service_transport
from repro.sim.network import AsyncDelay, Network
from repro.sim.process import Process
from repro.sim.random_source import RandomSource
from repro.sim.scheduler import HeapScheduler, Scheduler
from repro.sim.trace import build_trace

from .stats import percentile
from .trace import LayerTime, Span, Target, root_time, self_times
from .workloads import (STORE, Cell, RegLadder, SoakAdversary, SvcBatch,
                        cell_facts, cell_ok)

CLIENT_OPS = ("KVClient.get", "KVClient.put", "KVClient.batch")
TRANSPORT = ("LoopbackTransport.send", "LoopbackTransport.receive")
ENQUEUE = ("Pipeline.put", "Pipeline.get")
STORE_START = ("ShardedKVStore.put", "ShardedKVStore.get")
RUN_LOOP = ("Scheduler.run", "Scheduler.run_until")


class Taps:
    """Counts read at the wrapped boundaries during one traced run."""

    def __init__(self) -> None:
        self.frame_bytes = 0
        self.routed = Counter()         #: shard -> keys routed to it
        self.observed = 0               #: operations through the stream
        self.sim_latency = 0.0          #: their summed simulated latency
        #: the same per operation kind: "read"/"write" -> [sum, count]
        self.latency_by_kind = {"read": [0.0, 0], "write": [0.0, 0]}
        #: (observed, sim_latency) after each ``run_scenario`` call
        self.scenario_marks: List[Tuple[int, float]] = []
        self._client_seq = Counter()
        self._server_seq = Counter()

    def frame_encoded(self, frame: bytes, payload: Any) -> None:
        self.frame_bytes += len(frame)

    def key_routed(self, shard: int, ring: Any, key: str) -> None:
        self.routed[shard] += 1

    def op_observed(self, op: Any, stream: Any, _op: Any) -> None:
        self.observed += 1
        latency = op.response - op.invoke
        self.sim_latency += latency
        by_kind = self.latency_by_kind[op.kind]
        by_kind[0] += latency
        by_kind[1] += 1

    def scenario_done(self, result: Any, *args: Any) -> None:
        self.scenario_marks.append((self.observed, self.sim_latency))

    # A connection is closed-loop, so its k-th request is the k-th one
    # the service sees from that store client: the pair names the request
    # on both sides without reading any private request counter.
    def client_request(self, client: Any, *args: Any, **kwargs: Any) -> Any:
        pid = client.client
        self._client_seq[pid] += 1
        return (pid, self._client_seq[pid])

    def server_request(self, service: Any, request: Any) -> Any:
        self._server_seq[request.client] += 1
        return (request.client, self._server_seq[request.client])


def targets(taps: Taps) -> List[Target]:
    """Every public entry point the traced run wraps, by layer."""
    wrapped = [Target(KVClient, op, f"KVClient.{op}", True,
                      request_of=taps.client_request)
               for op in ("get", "put", "batch")]
    wrapped += [
        # the loopback transport calls the name its module imported
        Target(service_transport, "encode_frame", "encode_frame",
               tap=taps.frame_encoded),
        Target(FrameDecoder, "feed", "FrameDecoder.feed"),
        Target(LoopbackTransport, "send", "LoopbackTransport.send", True),
        Target(LoopbackTransport, "receive", "LoopbackTransport.receive",
               True),
        Target(KVService, "handle", "KVService.handle", True,
               request_of=taps.server_request),
        Target(Pipeline, "put", "Pipeline.put"),
        Target(Pipeline, "get", "Pipeline.get"),
        Target(Pipeline, "flush", "Pipeline.flush"),
        Target(ShardedKVStore, "put", "ShardedKVStore.put"),
        Target(ShardedKVStore, "get", "ShardedKVStore.get"),
        Target(HashRing, "shard_for", "HashRing.shard_for",
               tap=taps.key_routed),
        Target(ObservationStream, "observe", "ObservationStream.observe",
               tap=taps.op_observed),
        Target(ObservationStream, "observe_handle",
               "ObservationStream.observe_handle"),
        Target(api, "run_scenario", "run_scenario",
               tap=taps.scenario_done),
        Target(api, "check_linearizable", "check_linearizable"),
    ]
    for kernel in (Scheduler, HeapScheduler):       # both kernels
        wrapped += [Target(kernel, "run", "Scheduler.run"),
                    Target(kernel, "run_until", "Scheduler.run_until")]
    return wrapped


def _fold(layers: Dict[str, LayerTime], names: Sequence[str]
          ) -> Tuple[int, float]:
    """(calls, self seconds) summed over ``names``."""
    found = [layers[name] for name in names if name in layers]
    return (sum(entry.calls for entry in found),
            sum(entry.self_time for entry in found))


def _per(seconds: float, count: float, scale: float) -> float:
    return seconds / count * scale if count else 0.0


def _queue_wait(spans: Sequence[Span]) -> float:
    """Mean seconds between a request leaving its client (end of the
    client span's first slice: frame sent, reply awaited) and
    ``KVService.handle`` starting on it.  Covers the server-side frame
    decode and, mostly, the other connection's request being served."""
    sent: Dict[Any, float] = {}
    waits: List[float] = []
    for span in spans:
        if span.resumed or span.request is None:
            continue
        if span.name in CLIENT_OPS:
            sent[span.request] = span.end
        elif span.name == "KVService.handle" and span.request in sent:
            waits.append(span.start - sent.pop(span.request))
    return statistics.fmean(waits) if waits else 0.0


def time_metrics(spans: Sequence[Span], traced_wall: float, events: int,
                 storm_ns: float) -> Dict[str, float]:
    """Self times over every traced segment, each normalised by the
    layer's own call count (requests handled, operations started, ...)."""
    layers = self_times(spans)
    requests, server_self = _fold(layers, ["KVService.handle"])
    _, client_self = _fold(layers, CLIENT_OPS)
    _, transport_self = _fold(layers, TRANSPORT)
    encodes, encode_self = _fold(layers, ["encode_frame"])
    decodes, decode_self = _fold(layers, ["FrameDecoder.feed"])
    enqueued, enqueue_self = _fold(layers, ENQUEUE)
    _, flush_self = _fold(layers, ["Pipeline.flush"])
    started, start_self = _fold(layers, STORE_START)
    routes, route_self = _fold(layers, ["HashRing.shard_for"])
    _, run_self = _fold(layers, RUN_LOOP)
    ops, observe_self = _fold(layers, ["ObservationStream.observe"])
    _, handle_self = _fold(layers, ["ObservationStream.observe_handle"])
    _, offline_self = _fold(layers, ["check_linearizable"])
    _, engine_self = _fold(layers, ["run_scenario"])
    checking = observe_self + handle_self + offline_self
    return {
        "service.client.self_us_per_req": _per(client_self, requests, 1e6),
        "service.protocol.encode_us_per_frame":
            _per(encode_self, encodes, 1e6),
        "service.protocol.decode_us_per_frame":
            _per(decode_self, decodes, 1e6),
        "service.transport.self_us_per_req":
            _per(transport_self, requests, 1e6),
        "service.server.self_us_per_req": _per(server_self, requests, 1e6),
        "service.queue_wait_us_per_req": _queue_wait(spans) * 1e6,
        "kvstore.pipeline.enqueue_us_per_op":
            _per(enqueue_self, enqueued, 1e6),
        "kvstore.pipeline.flush_self_us_per_op":
            _per(flush_self, enqueued, 1e6),
        "kvstore.store.start_us_per_op": _per(start_self, started, 1e6),
        "kvstore.sharding.route_us_per_op": _per(route_self, routes, 1e6),
        "sim.run_self_us_per_op": _per(run_self, ops, 1e6),
        "sim.events_per_s": _per(events, run_self, 1),
        "sim.storm_ns_per_event": storm_ns,
        "registers.handler_ns_per_event":
            _per(run_self, events, 1e9) - storm_ns,
        "checkers.observe_us_per_op": _per(checking, ops, 1e6),
        "checkers.share": _per(checking, traced_wall, 1),
        "workloads.engine_self_us_per_op": _per(engine_self, ops, 1e6),
        "trace.coverage": _per(root_time(spans), traced_wall, 1),
    }


def count_metrics(spans: Sequence[Span], taps: Taps, events: int
                  ) -> Dict[str, float]:
    """Counts at the wrapped boundaries over the **first** traced segment
    only: they repeat exactly for a seed however long the run is."""
    layers = self_times(spans)
    requests, _ = _fold(layers, ["KVService.handle"])
    enqueued, _ = _fold(layers, ENQUEUE)
    flushes, _ = _fold(layers, ["Pipeline.flush"])
    started, _ = _fold(layers, STORE_START)
    routes, _ = _fold(layers, ["HashRing.shard_for"])
    shard_load = list(taps.routed.values())
    metrics = {
        "service.protocol.bytes_per_req": _per(taps.frame_bytes, requests, 1),
        "kvstore.pipeline.ops_per_flush": _per(enqueued, flushes, 1),
        "kvstore.sharding.routes_per_op": _per(routes, started, 1),
        "kvstore.shard_imbalance":
            (max(shard_load) / statistics.fmean(shard_load)
             if shard_load else 0.0),
        "sim.events_per_op": _per(events, taps.observed, 1),
    }
    if requests:
        for kind, cell in (("read", "kv-get"), ("write", "kv-put")):
            total, count = taps.latency_by_kind[kind]
            metrics[f"registers.sim_latency_per_op.{cell}"] = total / count
    return metrics


#: layer metrics that are pure functions of the seed (counts, simulated
#: time, ratios of counts): two runs of one commit must agree exactly.
EXACT = ("service.protocol.bytes_per_req", "kvstore.pipeline.ops_per_flush",
         "kvstore.sharding.routes_per_op", "kvstore.shard_imbalance",
         "sim.events_per_op", "registers.msgs_per_op.",
         "registers.events_per_op.", "registers.sim_latency_per_op.",
         "datalink.events_per_op", "faults.", "capture.bytes_per_op")


# -- side rungs: one layer timed alone, tracing off ------------------------

class _Echo(Process):
    """Relays each delivery to a peer until the shared budget drains."""

    def __init__(self, pid: str, scheduler: Scheduler, trace: Any,
                 peers: List[str], budget: List[int]):
        super().__init__(pid, scheduler, trace)
        self.peers = peers
        self.budget = budget

    def on_message(self, src: str, message: int) -> None:
        if self.budget[0] > 0:
            self.budget[0] -= 1
            self.send(self.peers[message % len(self.peers)], message + 1)


def storm_ns_per_event(seed: int, messages: int) -> float:
    """An echo storm through the public ``Scheduler``/``Network``/
    ``Process``: the simulator's cost per event with no protocol on top."""
    best = float("inf")
    for _ in range(3):
        scheduler = Scheduler()
        trace = build_trace("null")
        network = Network(scheduler, RandomSource(seed), trace,
                          default_delay=AsyncDelay(0.1, 2.0))
        pids = [f"p{index}" for index in range(10)]
        budget = [messages]
        for pid in pids:
            network.register(_Echo(pid, scheduler, trace, pids, budget))
        for index, pid in enumerate(pids):
            network.send(pid, pids[(index + 1) % len(pids)], index)
        started = time.perf_counter()
        scheduler.run()
        elapsed = time.perf_counter() - started
        best = min(best, elapsed / scheduler.events_processed * 1e9)
    return best


def _timed(call: Callable[[], Any]) -> Tuple[float, Any]:
    started = time.perf_counter()
    result = call()
    return time.perf_counter() - started, result


def _alternate(first: Callable[[], Any], second: Callable[[], Any],
               rounds: int = 3) -> Tuple[float, float, Any, Any]:
    """Median wall of two calls run alternately (drift hits both alike);
    also returns each side's last result."""
    walls: Tuple[List[float], List[float]] = ([], [])
    results = [None, None]
    for _ in range(rounds):
        for side, call in enumerate((first, second)):
            wall, results[side] = _timed(call)
            walls[side].append(wall)
    return (statistics.median(walls[0]), statistics.median(walls[1]),
            results[0], results[1])


def store_op_rung(seed: int, ops: int) -> Dict[str, float]:
    """The MWMR register under one key-value operation: exact events and
    messages per ``put``/``get`` on the service's store shape, no service
    in the way."""
    store = api.build_sharded_kv_store(seed=seed, **STORE)
    keys = [f"rung{index}" for index in range(32)]
    for key in keys:
        store.put_sync("c1", key, 0)
    metrics: Dict[str, float] = {}
    for cell, call in (
            ("kv-put", lambda n: store.put_sync("c1", keys[n % 32], n)),
            ("kv-get", lambda n: store.get_sync("c2", keys[n % 32]))):
        events, messages = store.events_processed, store.messages_sent
        wall, _ = _timed(lambda: [call(number) for number in range(ops)])
        metrics[f"registers.events_per_op.{cell}"] = \
            (store.events_processed - events) / ops
        metrics[f"registers.msgs_per_op.{cell}"] = \
            (store.messages_sent - messages) / ops
        metrics[f"registers.ops_per_s.{cell}"] = ops / wall
    return metrics


async def _single_requests(client: KVClient, keys: Sequence[str],
                           requests: int) -> None:
    for number in range(requests):
        key = keys[number % len(keys)]
        if number % 3:
            await client.get(key)
        else:
            await client.put(key, number)


def tcp_extra_us_per_req(seed: int, requests: int) -> float:
    """What a real socket adds per request: the same fixed request
    sequence over ``serve_tcp`` + ``KVClient.tcp`` and over loopback."""
    keys = [f"tcp{index}" for index in range(32)]

    async def over(tcp: bool) -> float:
        service = KVService(seed=seed, **STORE)
        if tcp:
            server, host, port = await serve_tcp(service)
            client = KVClient.tcp(host, port, client="c1")
        else:
            server = ServiceServer(service)
            client = KVClient.loopback(server, client="c1")
        async with client:
            await _single_requests(client, keys, len(keys) * 3)    # warm
            started = time.perf_counter()
            await _single_requests(client, keys, requests)
            wall = time.perf_counter() - started
        await server.shutdown()
        return wall

    loopback, tcp, _, _ = _alternate(lambda: asyncio.run(over(False)),
                                     lambda: asyncio.run(over(True)))
    return (tcp - loopback) / requests * 1e6


def direct_rung(seed: int, segments: int) -> Dict[str, float]:
    """``svc-batch``'s op schedule straight through ``Pipeline`` +
    ``ObservationStream`` (one flush per batch) against the same schedule
    through the service, alternately; their ratio is what the service
    layer costs."""
    workload = SvcBatch(seed)

    def direct() -> float:
        store = api.build_sharded_kv_store(seed=seed, **STORE)
        stream = ObservationStream(keep_history=False)
        pipeline = Pipeline(store, on_complete=stream.observe_handle)
        pids = store.client_pids

        def play(index: Any, requests: int) -> int:
            schedules = [workload.schedule(conn, index, requests)
                         for conn in range(len(pids))]
            # the two connections' batches alternate, as they do when two
            # closed-loop clients share the service
            for batches in zip(*schedules):
                for pid, (keys, values) in zip(pids, batches):
                    for key, value in zip(keys, values):
                        pipeline.put(pid, key, value)
                    reads = [pipeline.get(pid, key) for key in keys]
                    pipeline.flush()
                    if [read.result for read in reads] != values:
                        raise RuntimeError("direct pipeline read back a "
                                           "stale value")
            return len(pids) * requests * workload.ops_per_request

        play("warm", workload.LANES)        # as SvcBatch.setup does
        started = time.perf_counter()
        ops = sum(play(index, workload.REQUESTS // len(pids))
                  for index in range(segments))
        return ops / (time.perf_counter() - started)

    def served() -> float:
        fresh = SvcBatch(seed)
        fresh.setup()
        ops = 0
        started = time.perf_counter()
        for index in range(segments):
            segment = fresh.run_segment(index)
            ops += segment.attempted - segment.failed
        rate = ops / (time.perf_counter() - started)
        fresh.close()
        return rate

    rates: Tuple[List[float], List[float]] = ([], [])
    for _ in range(3):
        rates[0].append(direct())
        rates[1].append(served())
    direct_rate = statistics.median(rates[0])
    return {"kvstore.direct_ops_per_s": direct_rate,
            "service.efficiency": statistics.median(rates[1]) / direct_rate}


def _run(cell: Cell, seed: int, **overrides: Any) -> Any:
    return api.run_scenario(cell.family, seed=seed,
                            **dict(cell.params, **overrides))


def _cell(workload: Any, name: str) -> Cell:
    return next(cell for cell in workload.cells if cell.name == name)


def ladder_rungs(seed: int, size: float) -> Dict[str, float]:
    """``reg-ladder``'s side rungs: datalink vs direct transport, how the
    ``swsr`` family scales with cell length, the sweep runner and its
    two-worker speed-up."""
    metrics: Dict[str, float] = {}
    datalink = _cell(RegLadder, "swsr-atomic-n17-dl")
    over_link, direct, _, _ = _alternate(
        lambda: _run(datalink, seed),
        lambda: _run(datalink, seed, transport="direct"))
    metrics["datalink.overhead_x"] = over_link / direct

    regular = _cell(RegLadder, "swsr-reg-n9")
    rates = []
    for ops in (int(4000 * size), int(1000 * size)):
        wall, result = _timed(lambda: _run(regular, seed, num_writes=ops,
                                           num_reads=ops))
        if not cell_ok(regular, result):
            raise RuntimeError(f"scaling rung of {2 * ops} ops failed")
        rates.append(2 * ops / wall)
    metrics["workloads.swsr_scaling_8k_vs_2k"] = rates[0] / rates[1]

    cells = max(4, int(100 * size))
    one, two, serial, pooled = _alternate(
        lambda: run_sweep(smoke_specs(), workers=1, max_cells=cells),
        lambda: run_sweep(smoke_specs(), workers=2, max_cells=cells),
        rounds=1)
    if serial.to_json() != pooled.to_json() or not serial.all_ok:
        raise RuntimeError("smoke sweep differs between 1 and 2 workers")
    metrics["runner.smoke_cells_per_s.w1"] = len(serial.cells) / one
    metrics["runner.speedup_2w"] = one / two
    return metrics


#: the fault-free twin of each ``soak-adversary`` cell
_FAULT_FREE = {
    "soak": dict(fault_bursts=0, rotations=0, byzantine_count=0),
    "kv": dict(corruption_times=[], byzantine_count=0),
    "partition": dict(partition_count=0),
}


def adversary_rungs(seed: int, first_pass: Dict[str, Dict[str, Any]],
                    workdir: Path) -> Dict[str, float]:
    """``soak-adversary``'s side rungs: work the adversary wastes, what
    capture costs when on, re-check speed, and ``repro.parallel``'s
    serial-vs-partitioned speed-up (digests asserted equal)."""
    metrics: Dict[str, float] = {}
    for cell in SoakAdversary.cells:
        calm = cell_facts(_run(cell, seed, **_FAULT_FREE[cell.name]))
        faulty = first_pass[cell.name]
        metrics[f"faults.events_per_op_x.{cell.name}"] = (
            (faulty["events"] / faulty["ops"])
            / (calm["events"] / calm["ops"]))

    soak = _cell(SoakAdversary, "soak")
    capture = str(workdir / "soak.jsonl")
    plain, recorded, _, result = _alternate(
        lambda: _run(soak, seed),
        lambda: record_scenario(soak.family, capture, seed=seed,
                                **soak.params))
    ops = result.summarize().ops
    metrics["capture.overhead_frac"] = recorded / plain - 1.0
    metrics["capture.bytes_per_op"] = os.path.getsize(capture) / ops
    wall, report = _timed(lambda: replay_capture(capture, mode="recheck"))
    if not report.ok:
        raise RuntimeError("re-check of the recorded soak cell diverged")
    metrics["checkers.recheck_ops_per_s"] = ops / wall

    kv = _cell(SoakAdversary, "kv")
    for name, serial_call, parallel_call in (
            ("kv", lambda: _run(kv, seed),
             lambda: _run(kv, seed, parallel=2)),
            ("soak", lambda: _run(soak, seed, shards=2, parallel=1),
             lambda: _run(soak, seed, shards=2, parallel=2))):
        serial_wall, parallel_wall, serial, parallel = _alternate(
            serial_call, parallel_call)
        if serial.summarize() != parallel.summarize():
            raise RuntimeError(f"parallel {name} diverged from serial")
        metrics[f"parallel.speedup_2w.{name}"] = serial_wall / parallel_wall
    return metrics


def latency_metrics(latencies: Dict[str, List[float]]) -> Dict[str, float]:
    """Untraced request latencies logged as layer metrics, not gated:
    p99 swings too much between identical runs to carry a bound."""
    pooled = [value for values in latencies.values() for value in values]
    metrics = {"service.req_p99_ms": percentile(pooled, 0.99) * 1e3}
    for kind in ("get", "put"):
        if kind in latencies:
            metrics[f"service.{kind}_p50_ms"] = \
                percentile(latencies[kind], 0.50) * 1e3
    return metrics

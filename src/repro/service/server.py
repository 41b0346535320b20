"""The service core and connection handling.

:class:`KVService` is the protocol-level brain: decoded requests in,
typed responses out, with a :class:`~repro.kvstore.sharded
.ShardedKVStore` simulation as the authoritative backend.  Execution is
**per request batch**: each request acquires the service lock, drives
its operations through the PR-4 :class:`~repro.kvstore.pipeline
.Pipeline` (one lane per ``(shard, client)``, so a ``BATCH`` has
operations in flight on every shard simultaneously) and runs the
simulation until they drain.  Because the simulated cluster is
deterministic and requests execute one batch at a time, a loopback
session replays byte-identically for a fixed seed — the contract the
loopback service bench asserts.

Two digests summarize what a service instance did:

* ``history_digest`` — the store-level operation fingerprint off the
  service's :class:`~repro.checkers.stream.ObservationStream` (includes
  simulated timings; pins *replay* determinism);
* ``response_digest`` — an order-independent fold over response
  *content* only (kind, client, key, value, result).  Lane-partitioned
  workloads produce the same response multiset no matter how many
  connections carry them, so this digest pins *concurrency
  independence* (the bench's 1-vs-8-client guard).

:class:`ServiceServer` owns the connections: loopback endpoints via
:meth:`ServiceServer.connect_loopback`, TCP via
:meth:`ServiceServer.start_tcp`, graceful drain via
:meth:`ServiceServer.shutdown` (in-flight requests finish, new ones are
refused with ``E_UNAVAILABLE``).
"""

from __future__ import annotations

import asyncio
import hashlib
from typing import Any, Dict, List, Optional, Set, Tuple

from ..checkers.stream import ObservationStream
from ..kvstore.pipeline import Pipeline, PipelineHandle
from ..kvstore.sharded import ShardedKVStore
from ..sim.errors import OperationError, SimulationLimitReached
from .protocol import (E_BAD_REQUEST, E_INTERNAL, E_UNAVAILABLE, E_VERSION,
                       PROTOCOL_VERSION, ProtocolError, Request, Response,
                       encode_payload)
from .transport import (LoopbackTransport, TcpTransport, Transport,
                        loopback_pair)

_DIGEST_MOD = 1 << 128


def _render_digest(accumulator: int, count: int) -> str:
    payload = f"{count}:{accumulator:032x}".encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:16]


class KVService:
    """Request execution against a sharded store, one batch at a time.

    ``store`` may be shared with other code between requests, but the
    service owns it *during* a request (the paper's one-operation-per-
    process rule).  Extra keyword arguments build a fresh
    :class:`~repro.kvstore.sharded.ShardedKVStore` when no store is
    passed.
    """

    def __init__(self, store: Optional[ShardedKVStore] = None, *,
                 max_events: int = 2_000_000, capture: Any = None,
                 **store_kwargs: Any):
        self.store = store if store is not None \
            else ShardedKVStore(**store_kwargs)
        self.max_events = max_events
        #: store-level observation: counters + history digest, no
        #: retained history (a service is long-running by design).
        self.stream = ObservationStream(keep_history=False)
        self.pipeline = Pipeline(self.store,
                                 on_complete=self.stream.observe_handle)
        self.requests_served = 0
        self._lock = asyncio.Lock()
        self._draining = False
        self._response_acc = 0
        self._response_count = 0
        #: duck-typed recording seam (``repro.capture``'s
        #: ``ServiceCaptureSession``): store ops ride the observation
        #: stream, request/response frames and drain transitions are
        #: recorded in execution order.
        self.capture = capture
        if capture is not None:
            self.stream.attach(capture.operation_recorder())

    # -- digests -----------------------------------------------------------
    @property
    def history_digest(self) -> str:
        """Fingerprint of every store operation served (incl. timings)."""
        return self.stream.digest()

    @property
    def response_digest(self) -> str:
        """Order-independent fold over response content only."""
        return _render_digest(self._response_acc, self._response_count)

    def _observe_response(self, kind: str, client: str, key: str,
                          value: Any, result: Any) -> None:
        body = encode_payload({"client": client, "key": key, "kind": kind,
                               "result": result, "value": value})
        fingerprint = int.from_bytes(hashlib.sha256(body).digest()[:16],
                                     "big")
        self._response_acc = (self._response_acc + fingerprint) % _DIGEST_MOD
        self._response_count += 1

    # -- drain -------------------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining

    def begin_drain(self) -> None:
        """Refuse new data requests (``STATS`` keeps answering)."""
        self._draining = True
        if self.capture is not None:
            self.capture.record_drain(self.store.now, "begin")

    def end_drain(self) -> None:
        """Accept data requests again (a drain that did not end in
        shutdown — e.g. load shed during a resharding handoff)."""
        self._draining = False
        if self.capture is not None:
            self.capture.record_drain(self.store.now, "end")

    async def drained(self) -> None:
        """Resolves once no request is executing against the store."""
        async with self._lock:
            pass

    # -- stats -------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """The ``STATS`` payload: counters, digests, topology."""
        return {
            "clients": list(self.store.client_pids),
            "draining": self._draining,
            "events_processed": self.store.events_processed,
            "history_digest": self.history_digest,
            "keys": len(self.store.keys),
            "messages_sent": self.store.messages_sent,
            "ops": self.stream.ops,
            "protocol_version": PROTOCOL_VERSION,
            "reads": self.stream.reads,
            "requests_served": self.requests_served,
            "response_digest": self.response_digest,
            "shards": self.store.shard_count,
            "writes": self.stream.writes,
        }

    # -- request execution -------------------------------------------------
    async def handle(self, request: Request) -> Response:
        """Execute one decoded request; never raises protocol errors."""
        self.requests_served += 1
        if request.op == "STATS":
            return self._record_frame(
                request, Response.success(request.request_id,
                                          stats=self.stats()))
        if self._draining:
            return self._record_frame(
                request, Response.failure(request.request_id,
                                          E_UNAVAILABLE,
                                          "server is draining"))
        client = request.client or self.store.client_pids[0]
        if client not in self.store.client_pids:
            return self._record_frame(request, Response.failure(
                request.request_id, E_BAD_REQUEST,
                f"unknown client {client!r} (store clients: "
                f"{', '.join(self.store.client_pids)})"))
        async with self._lock:
            try:
                response = self._execute(request, client)
            except SimulationLimitReached as exc:
                # flush is exception-safe: handles it could not complete
                # stay queued in ``pipeline.issued`` and drain on the
                # next flush, so no forced reset is needed here.
                response = Response.failure(
                    request.request_id, E_UNAVAILABLE,
                    f"simulation event budget exhausted: {exc}")
            except OperationError as exc:
                response = Response.failure(request.request_id,
                                            E_INTERNAL, str(exc))
            # still under the lock: the recorded frame order is the
            # store execution order, which is what replay re-drives.
            return self._record_frame(request, response)

    def _record_frame(self, request: Request,
                      response: Response) -> Response:
        if self.capture is not None:
            self.capture.record_frame(self.store.now,
                                      request.to_payload(),
                                      response.to_payload())
        return response

    def _execute(self, request: Request, client: str) -> Response:
        """One batch against the store: enqueue, single drain, respond."""
        issued: List[Tuple[str, str, Any, PipelineHandle]] = []
        if request.op == "GET":
            issued.append(("get", request.key, None,
                           self.pipeline.get(client, request.key)))
        elif request.op == "PUT":
            issued.append(("put", request.key, request.value,
                           self.pipeline.put(client, request.key,
                                             request.value)))
        else:                                     # BATCH
            for op in request.ops:
                if op.kind == "put":
                    issued.append(("put", op.key, op.value,
                                   self.pipeline.put(client, op.key,
                                                     op.value)))
                else:
                    issued.append(("get", op.key, None,
                                   self.pipeline.get(client, op.key)))
        self.pipeline.flush(max_events=self.max_events)
        results: List[Any] = []
        for kind, key, value, handle in issued:
            result = handle.result if kind == "get" else None
            self._observe_response(kind, client, key, value, result)
            results.append(result)
        if request.op == "BATCH":
            return Response.success(request.request_id, results=results)
        return Response.success(request.request_id, value=results[0])


class ServiceServer:
    """Connection handling around one :class:`KVService`.

    Each connection gets a reader task; requests on a connection execute
    in arrival order (responses can pipeline behind each other in the
    transport buffers), while the service lock serializes batches across
    connections.
    """

    def __init__(self, service: KVService):
        self.service = service
        self._tasks: Set["asyncio.Task[None]"] = set()
        self._tcp_server: Optional[asyncio.AbstractServer] = None
        self._busy = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self.connections_served = 0

    # -- accepting connections ---------------------------------------------
    def connect_loopback(self) -> LoopbackTransport:
        """A new client transport served by this server, no sockets."""
        client_end, server_end = loopback_pair(
            f"loopback{self.connections_served}")
        self._spawn(server_end)
        return client_end

    async def start_tcp(self, host: str = "127.0.0.1",
                        port: int = 0) -> Tuple[str, int]:
        """Listen on ``host:port`` (0 = ephemeral); returns the address."""

        async def on_connect(reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
            # hand the connection to a task *we* own, so shutdown can
            # drain and reap it (and cancellation never propagates back
            # into asyncio.streams' connection bookkeeping).
            self._spawn(TcpTransport(reader, writer))

        self._tcp_server = await asyncio.start_server(on_connect, host, port)
        sockname = self._tcp_server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    def _spawn(self, transport: Transport) -> None:
        task = asyncio.get_running_loop().create_task(
            self._serve(transport))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    # -- the per-connection loop -------------------------------------------
    async def _serve(self, transport: Transport) -> None:
        self.connections_served += 1
        try:
            while True:
                try:
                    payload = await transport.receive()
                except ProtocolError as exc:
                    # framing is broken: answer once, then hang up.
                    await self._try_send(transport, Response.failure(
                        0, exc.code, exc.message))
                    break
                if payload is None:
                    break
                try:
                    request = Request.from_payload(payload)
                except ProtocolError as exc:
                    request_id = payload.get("id")
                    if not isinstance(request_id, int) \
                            or isinstance(request_id, bool) or request_id < 0:
                        request_id = 0
                    await self._try_send(transport, Response.failure(
                        request_id, exc.code, exc.message))
                    if exc.code == E_VERSION:
                        break            # different protocol: stop talking
                    continue
                self._busy += 1
                self._idle.clear()
                try:
                    response = await self.service.handle(request)
                    await transport.send(response.to_payload())
                finally:
                    self._busy -= 1
                    if self._busy == 0:
                        self._idle.set()
        except (ConnectionError, OSError):   # peer vanished mid-dialogue
            pass
        finally:
            await transport.close()

    @staticmethod
    async def _try_send(transport: Transport, response: Response) -> None:
        try:
            await transport.send(response.to_payload())
        except (ConnectionError, OSError):  # pragma: no cover - races only
            pass

    # -- shutdown ----------------------------------------------------------
    async def shutdown(self) -> None:
        """Graceful drain: finish in-flight requests, then disconnect.

        New data requests arriving after this point are refused with
        ``E_UNAVAILABLE``; once no request is mid-execution the listener
        closes and every connection task is torn down.
        """
        self.service.begin_drain()
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
        await self._idle.wait()              # in-flight responses sent
        await self.service.drained()
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)


async def serve_tcp(service: KVService, host: str = "127.0.0.1",
                    port: int = 0) -> Tuple[ServiceServer, str, int]:
    """Stand up a TCP server for ``service``; returns (server, host, port)."""
    server = ServiceServer(service)
    bound_host, bound_port = await server.start_tcp(host, port)
    return server, bound_host, bound_port

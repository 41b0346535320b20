"""Cluster builder: one-stop construction of simulated register systems.

A :class:`Cluster` owns the scheduler, trace, randomness, network and the
``n`` server processes of the paper's client/server architecture, plus the
(n, t) quorum arithmetic.  The trace records every event by default
(``ClusterConfig.trace_backend="full"``, what unit tests inspect);
``"null"`` records nothing and puts every send on the network's fused
path, which is what the scenario families and the KV layers run on.
Register factories then attach clients and server automatons:

>>> cluster = Cluster(ClusterConfig(n=9, t=1, seed=7))
>>> writer, reader = build_swsr_regular(cluster)
>>> done = writer.write("hello")
>>> cluster.run_ops([done])
>>> read = reader.read()
>>> cluster.run_ops([read])
>>> read.result
'hello'

A cluster's parts live as long as the cluster.  They are cyclic by
construction, so when the last reference to a ``Cluster`` goes it empties
the event queue and the network and releases every process: a dropped
result, store or service is freed by refcounting at once.  Nothing a run
installs (drivers, fault timelines, pipeline callbacks) may hold the
``Cluster`` itself, or only the cycle collector could free it.  A process
kept past its cluster raises
:class:`~repro.sim.errors.ClusterReleasedError`, naming its pid.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..datalink.ss_broadcast import (DataLinkClientTransport,
                                     DirectClientTransport)
from ..sim.network import (AsyncDelay, DelayModel, FixedDelay, Network,
                           SyncDelay)
from ..sim.process import OperationHandle
from ..sim.random_source import RandomSource
from ..sim.scheduler import Scheduler
from ..sim.trace import build_trace
from .base import QuorumParams, RegisterClientProcess, ServerProcess
from .bounded_seq import WsnConfig
from .epochs import EpochLabeling
from .mwmr import DEFAULT_SEQ_BOUND, MWMRProcess, MWMRRegister
from .swmr import SWMRRegister
from .swsr_atomic import AtomicReader, AtomicWriter
from .swsr_atomic import install_servers as install_atomic_servers
from .swsr_regular import RegularReader, RegularWriter
from .swsr_regular import install_servers as install_regular_servers


@dataclass
class ClusterConfig:
    """Everything needed to stand up a simulated storage cluster."""

    n: int = 9
    t: int = 1
    seed: int = 0
    #: synchronous links (Figure 5 / Appendix A) vs asynchronous (default).
    synchronous: bool = False
    #: known delay bound for the synchronous model.
    delay_bound: float = 1.0
    #: (lo, hi) of the asynchronous uniform delay distribution.
    async_delay: Tuple[float, float] = (0.1, 2.0)
    #: "direct" (fast, property-faithful) or "datalink" (footnote-3 packets).
    transport: str = "direct"
    datalink_cap: int = 2
    datalink_retry: float = 0.25
    #: refuse (n, t) outside the paper's resilience bound unless disabled
    #: (the bound-tightness experiments disable it deliberately).
    enforce_resilience: bool = True
    #: trace backend: "full" (record every event) or "null" (record
    #: nothing — the fused send path).
    trace_backend: str = "full"

    def delay_model(self) -> DelayModel:
        if self.synchronous:
            return SyncDelay(self.delay_bound)
        return AsyncDelay(*self.async_delay)


class Cluster:
    """The ``n`` servers, their network, and client plumbing."""

    def __init__(self, config: ClusterConfig,
                 delay_model: Optional[DelayModel] = None):
        self.config = config
        self.scheduler = Scheduler()
        self.trace = build_trace(config.trace_backend)
        self.randomness = RandomSource(config.seed)
        self.network = Network(self.scheduler, self.randomness, self.trace,
                               default_delay=delay_model or config.delay_model())
        self.params = QuorumParams(
            n=config.n, t=config.t, synchronous=config.synchronous,
            delay_bound=config.delay_bound if config.synchronous else None)
        if config.enforce_resilience:
            self.params.require_resilience()
        self.servers: List[ServerProcess] = []
        self._server_index: Dict[str, ServerProcess] = {}
        for index in range(config.n):
            server = ServerProcess(f"s{index + 1}", self.scheduler, self.trace)
            self.network.register(server)
            self.servers.append(server)
            self._server_index[server.pid] = server
        self.clients: List[RegisterClientProcess] = []
        weakref.finalize(self, _release, weakref.ref(self.network))

    # -- accessors -----------------------------------------------------------
    @property
    def server_ids(self) -> List[str]:
        return [server.pid for server in self.servers]

    def server(self, pid: str) -> ServerProcess:
        try:
            return self._server_index[pid]
        except KeyError:
            raise KeyError(f"no server {pid!r}") from None

    # -- clients --------------------------------------------------------------
    def make_client(self, pid: str) -> RegisterClientProcess:
        """Create, register and transport-attach a plain client process."""
        return self.adopt_client(
            RegisterClientProcess(pid, self.scheduler, self.trace))

    def adopt_client(self, process: RegisterClientProcess) -> RegisterClientProcess:
        """Register a pre-built client (writer/reader/MWMR process)."""
        self.network.register(process)
        process.attach_transport(self._make_transport(process))
        self.clients.append(process)
        return process

    def _make_transport(self, process: RegisterClientProcess):
        quorum = self.params.n - self.params.t
        if self.config.transport == "direct":
            return DirectClientTransport(process, self.server_ids, quorum)
        if self.config.transport == "datalink":
            return DataLinkClientTransport(
                process, self._server_index, quorum, self.scheduler,
                self.randomness,
                cap=self.config.datalink_cap,
                retry_interval=self.config.datalink_retry,
                delay_model=FixedDelay(0.05))
        raise ValueError(f"unknown transport {self.config.transport!r}")

    # -- faults ------------------------------------------------------------------
    def make_byzantine(self, server_ids: Iterable[str], strategy_factory) -> None:
        """Install a Byzantine strategy on the given servers.

        ``strategy_factory(server)`` returns a strategy object (see
        ``repro.faults.byzantine``); passing ``None`` restores correctness.
        """
        for server_id in server_ids:
            server = self.server(server_id)
            strategy = strategy_factory(server) if strategy_factory else None
            server.strategy = strategy
            if strategy is not None and hasattr(strategy, "attach"):
                strategy.attach(server)
            if strategy is None:
                server.confirm_enabled = True

    @property
    def byzantine_ids(self) -> List[str]:
        return [server.pid for server in self.servers
                if server.strategy is not None]

    # -- running --------------------------------------------------------------
    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        self.scheduler.run(until=until, max_events=max_events)

    def run_ops(self, handles: Sequence[OperationHandle],
                max_events: int = 2_000_000) -> None:
        """Run until every listed operation completed.

        Raises :class:`~repro.sim.errors.SimulationLimitReached` if one of
        them never terminates (the observable symptom of a violated
        resilience assumption).
        """
        # completions count down through ``on_done``, so the predicate
        # checked after every event is one integer compare
        pending = 0

        def one_done(_handle: OperationHandle) -> None:
            nonlocal pending
            pending -= 1

        for handle in handles:
            pending += 1
            handle.on_done(one_done)    # fires at once if already done
        self.scheduler.run_until(lambda: pending == 0, max_events=max_events)

    @property
    def now(self) -> float:
        return self.scheduler.now


def _release(network_ref: "weakref.ref[Network]") -> None:
    """A dropped cluster's teardown.  The dying cluster still holds its
    network while this runs; a strong hold would turn a stray path back to
    the cluster into a leak instead of a cycle."""
    network = network_ref()
    if network is not None:     # else it died in a cycle being collected
        network.scheduler.clear()
        network.release()


class ClusterGroup:
    """An ordered collection of *independent* clusters.

    Each member owns its own scheduler, trace, randomness and network —
    nothing is shared, so a fault installed on one cluster (a partition, a
    Byzantine strategy, a transient burst) cannot leak into another.  This
    is the substrate of the sharded KV store (``repro.kvstore.sharded``):
    one member per shard, failing independently.

    The group only aggregates and iterates; it never imposes a global
    clock.  Members advance independently, each through its own
    ``Cluster.run`` / ``run_ops``, and cross-cluster aggregate counters
    are plain sums.

    >>> group = ClusterGroup([ClusterConfig(n=9, t=1, seed=s)
    ...                       for s in (1, 2)])
    >>> len(group)
    2
    >>> group[0].config.seed, group[1].config.seed
    (1, 2)
    >>> group.events_processed
    0
    """

    def __init__(self, configs: Sequence[ClusterConfig]):
        if not configs:
            raise ValueError("need at least one cluster config")
        self.clusters: List[Cluster] = [Cluster(config)
                                        for config in configs]

    # -- container protocol ------------------------------------------------
    def __len__(self) -> int:
        return len(self.clusters)

    def __iter__(self):
        return iter(self.clusters)

    def __getitem__(self, index: int) -> Cluster:
        return self.clusters[index]

    def append(self, config: ClusterConfig) -> Cluster:
        """Grow the group by one freshly built member — the ``join`` of
        live resharding (``repro.kvstore.rebalance``).  The new cluster
        starts at local time 0 with its own scheduler/trace/network,
        exactly as if it had been in the constructor list; callers that
        need its clock aligned with a sibling advance it explicitly."""
        cluster = Cluster(config)
        self.clusters.append(cluster)
        return cluster

    # -- aggregate counters ------------------------------------------------
    @property
    def messages_sent(self) -> int:
        return sum(cluster.network.messages_sent for cluster in self.clusters)

    @property
    def messages_dropped(self) -> int:
        return sum(cluster.network.messages_dropped
                   for cluster in self.clusters)

    @property
    def events_processed(self) -> int:
        return sum(cluster.scheduler.events_processed
                   for cluster in self.clusters)

    @property
    def now(self) -> float:
        """The latest local clock across members (they are independent
        simulations; there is no shared global time)."""
        return max(cluster.now for cluster in self.clusters)


# ----------------------------------------------------------------------
# register factories
# ----------------------------------------------------------------------
def build_swsr_regular(cluster: Cluster, reg_id: str = "reg",
                       initial: Any = None, writer_pid: str = "w",
                       reader_pid: str = "r") -> Tuple[RegularWriter,
                                                       RegularReader]:
    """Figure 2 (or Figure 5 when the cluster is synchronous)."""
    install_regular_servers(cluster.servers, reg_id, initial=initial)
    writer = RegularWriter(writer_pid, cluster.scheduler, cluster.trace,
                           reg_id, cluster.params)
    reader = RegularReader(reader_pid, cluster.scheduler, cluster.trace,
                           reg_id, cluster.params)
    cluster.adopt_client(writer)
    cluster.adopt_client(reader)
    return writer, reader


def build_swsr_atomic(cluster: Cluster, reg_id: str = "reg",
                      initial: Any = None, writer_pid: str = "w",
                      reader_pid: str = "r",
                      config: Optional[WsnConfig] = None
                      ) -> Tuple[AtomicWriter, AtomicReader]:
    """Figure 3 (practically stabilizing SWSR atomic register)."""
    install_atomic_servers(cluster.servers, reg_id, initial=initial,
                           config=config)
    writer = AtomicWriter(writer_pid, cluster.scheduler, cluster.trace,
                          reg_id, cluster.params, config)
    reader = AtomicReader(reader_pid, cluster.scheduler, cluster.trace,
                          reg_id, cluster.params, config, initial=initial)
    cluster.adopt_client(writer)
    cluster.adopt_client(reader)
    return writer, reader


def build_swmr(cluster: Cluster, reader_pids: Sequence[str],
               reg_id: str = "reg", initial: Any = None,
               writer_pid: str = "w",
               config: Optional[WsnConfig] = None) -> SWMRRegister:
    """Section 5.1 (SWMR atomic register from per-reader SWSR copies)."""
    writer = cluster.make_client(writer_pid)
    readers = [cluster.make_client(pid) for pid in reader_pids]
    return SWMRRegister(reg_id, writer, readers, cluster.servers,
                        cluster.params, config=config, initial=initial)


def build_mwmr(cluster: Cluster, m: int, reg_id: str = "mwmr",
               seq_bound: int = DEFAULT_SEQ_BOUND,
               k: Optional[int] = None,
               wsn_config: Optional[WsnConfig] = None) -> MWMRRegister:
    """Figure 4 (MWMR atomic register; processes named ``p1..pm``)."""
    processes = []
    for index in range(m):
        process = MWMRProcess(f"p{index + 1}", cluster.scheduler,
                              cluster.trace)
        cluster.adopt_client(process)
        processes.append(process)
    labeling = EpochLabeling(k=k) if k is not None else None
    return MWMRRegister(reg_id, processes, cluster.servers, cluster.params,
                        labeling=labeling, seq_bound=seq_bound,
                        wsn_config=wsn_config)

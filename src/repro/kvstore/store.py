"""A Byzantine fault-tolerant, self-stabilizing key-value store.

The downstream-usable facade of the library: one MWMR atomic register per
key (Figure 4), hosted on a *shared* server pool — every server process
holds the per-key automatons, so adding a key costs no new processes.

Keys are created lazily on first use; creation is deterministic (driven by
the first ``put``/``get`` naming the key), so runs stay reproducible.

Clients are named ``c1..cm``:

>>> cluster = Cluster(ClusterConfig(n=9, t=1, seed=3))
>>> store = StabilizingKVStore(cluster, client_count=2)
>>> handle = store.put("c1", "cat", 1)
>>> cluster.run_ops([handle])
>>> handle = store.get("c2", "cat")
>>> cluster.run_ops([handle])
>>> handle.result
1

For the sharded, pipelined deployment shape see
:class:`~repro.kvstore.sharded.ShardedKVStore` and
:class:`~repro.kvstore.pipeline.Pipeline`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..registers.bounded_seq import WsnConfig
from ..registers.epochs import EpochLabeling
from ..registers.mwmr import DEFAULT_SEQ_BOUND, MWMRProcess, MWMRRegister
from ..registers.system import Cluster, ClusterConfig


class StabilizingKVStore:
    """Per-key MWMR registers over one shared cluster.

    ``client_count`` fixes the set of store clients (``c1..cm``); each is
    an MWMR process of every key's register (any client may read and write
    any key).
    """

    def __init__(self, cluster: Cluster, client_count: int = 2,
                 seq_bound: int = DEFAULT_SEQ_BOUND,
                 wsn_config: Optional[WsnConfig] = None,
                 client_prefix: str = "c"):
        if client_count < 1:
            raise ValueError("need at least one client")
        self.cluster = cluster
        self.seq_bound = seq_bound
        self.wsn_config = wsn_config
        self.clients: List[MWMRProcess] = []
        for index in range(client_count):
            process = MWMRProcess(f"{client_prefix}{index + 1}",
                                  cluster.scheduler, cluster.trace)
            cluster.adopt_client(process)
            self.clients.append(process)
        self._registers: Dict[str, MWMRRegister] = {}
        self._labeling = EpochLabeling(k=max(2, client_count))

    # -- register plumbing ---------------------------------------------------
    def _client(self, pid: str) -> MWMRProcess:
        for client in self.clients:
            if client.pid == pid:
                return client
        raise KeyError(f"unknown store client {pid!r}")

    def register_for(self, key: str) -> MWMRRegister:
        """The MWMR register backing ``key`` (created on first use)."""
        register = self._registers.get(key)
        if register is None:
            register = MWMRRegister(
                base_reg_id=f"kv/{key}",
                processes=self.clients,
                servers=self.cluster.servers,
                params=self.cluster.params,
                labeling=self._labeling,
                seq_bound=self.seq_bound,
                wsn_config=self.wsn_config)
            self._registers[key] = register
        return register

    @property
    def keys(self) -> List[str]:
        return sorted(self._registers)

    # -- operations -----------------------------------------------------------
    def put(self, client_pid: str, key: str, value: Any):
        """``mwmr_write(value)`` on ``key``'s register; returns a handle."""
        register = self.register_for(key)
        client = self._client(client_pid)
        # MWMR roles are per (register, process) pair: look ours up on the
        # register, since this client participates in one register per key.
        role = register.roles[self.clients.index(client)]
        handle = client.start_operation(f"put({key})",
                                        role.write_gen(value))
        handle.meta.update(kind="write", value=value, register=f"kv/{key}")
        return handle

    def get(self, client_pid: str, key: str):
        """``mwmr_read()`` on ``key``'s register; returns a handle."""
        register = self.register_for(key)
        client = self._client(client_pid)
        role = register.roles[self.clients.index(client)]
        handle = client.start_operation(f"get({key})", role.read_gen())
        handle.meta.update(kind="read", register=f"kv/{key}")
        return handle

    # -- synchronous convenience (drives the simulation) ----------------------
    def put_sync(self, client_pid: str, key: str, value: Any,
                 max_events: int = 2_000_000) -> None:
        handle = self.put(client_pid, key, value)
        self.cluster.run_ops([handle], max_events=max_events)

    def get_sync(self, client_pid: str, key: str,
                 max_events: int = 2_000_000) -> Any:
        handle = self.get(client_pid, key)
        self.cluster.run_ops([handle], max_events=max_events)
        return handle.result


def build_kv_store(n: int = 9, t: int = 1, seed: int = 0,
                   client_count: int = 2, **config_kwargs) -> StabilizingKVStore:
    """One-liner constructor: cluster + store."""
    cluster = Cluster(ClusterConfig(n=n, t=t, seed=seed, trace_backend="null",
                                    **config_kwargs))
    return StabilizingKVStore(cluster, client_count=client_count)

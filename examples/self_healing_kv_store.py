#!/usr/bin/env python
"""A self-healing, Byzantine fault-tolerant key-value store.

The downstream-facing face of the library: a KV store whose every key is a
practically stabilizing MWMR atomic register (Figure 4).  The demo drives
two clients through puts/gets while the deployment suffers, in order:

1. a Byzantine server spraying garbage,
2. *mobile* Byzantine failures (the compromised server moves, footnote 1),
3. a transient-failure burst corrupting server memory.

Run:  python examples/self_healing_kv_store.py
"""

from repro.faults.byzantine import strategy_factory
from repro.faults.schedule import FaultTimeline
from repro.faults.transient import TransientFaultInjector
from repro.kvstore.store import build_kv_store


def main() -> None:
    store = build_kv_store(n=9, t=1, seed=99, client_count=2)
    cluster = store.cluster
    print(f"KV store up: {cluster.params.n} servers, t={cluster.params.t}, "
          "2 clients (c1, c2)\n")

    # --- phase 1: normal operation -------------------------------------
    store.put_sync("c1", "user:alice", {"role": "admin"})
    store.put_sync("c2", "user:bob", {"role": "guest"})
    print(f"[t={cluster.now:7.2f}] c2 reads user:alice ->",
          store.get_sync("c2", "user:alice"))

    # --- phase 2: a Byzantine server ------------------------------------
    cluster.make_byzantine(["s4"],
                           strategy_factory("random-garbage", cluster))
    store.put_sync("c1", "user:alice", {"role": "owner"})
    print(f"[t={cluster.now:7.2f}] s4 Byzantine; c2 reads user:alice ->",
          store.get_sync("c2", "user:alice"))

    # --- phase 3: the compromise moves (mobile Byzantine) ---------------
    injector = TransientFaultInjector.for_cluster(cluster)
    FaultTimeline().rotation(
        [cluster.now + 5.0, cluster.now + 10.0], [["s7"], ["s2"]],
        "random-garbage").install(cluster, injector)
    cluster.run(until=cluster.now + 12.0)
    print(f"[t={cluster.now:7.2f}] Byzantine set rotated s4->s7->s2 "
          f"(currently {cluster.byzantine_ids})")
    store.put_sync("c2", "user:bob", {"role": "member"})
    print(f"[t={cluster.now:7.2f}] c1 reads user:bob   ->",
          store.get_sync("c1", "user:bob"))

    # --- phase 4: transient memory corruption ---------------------------
    touched = injector.corrupt_all(cluster.servers, fraction=0.3)
    print(f"[t={cluster.now:7.2f}] transient burst corrupted {touched} "
          "server variables")
    store.put_sync("c1", "user:alice", {"role": "recovered"})
    print(f"[t={cluster.now:7.2f}] c2 reads user:alice ->",
          store.get_sync("c2", "user:alice"))

    print(f"\nkeys: {store.keys}")
    print(f"total simulated messages: {cluster.network.messages_sent}")


if __name__ == "__main__":
    main()

"""repro — Stabilizing Byzantine server-based storage (PODC 2015).

A complete reproduction of *"Stabilizing Server-Based Storage in Byzantine
Asynchronous Message-Passing Systems"* (Bonomi, Dolev, Potop-Butucaru,
Raynal): the four register constructions of the paper, the ss-broadcast /
data-link substrate they rely on, a deterministic simulator implementing
the paper's system model, transient + Byzantine fault injection,
consistency checkers that *measure* stabilization, and an asyncio service
layer that puts the sharded KV store behind a framed client/server
protocol.

The public surface is defined by :mod:`repro.api` and re-exported here,
on first use: ``import repro`` alone loads no layer, and reading one of
the names (or ``__all__``) imports :mod:`repro.api`, which resolves it
through its name -> module table.  Import from either spelling::

    from repro.api import Cluster, ClusterConfig, build_swsr_atomic

    cluster = Cluster(ClusterConfig(n=9, t=1, seed=1))
    writer, reader = build_swsr_atomic(cluster)
    handle = writer.write("hello")
    cluster.run_ops([handle])
    handle = reader.read()
    cluster.run_ops([handle])
    print(handle.result)   # -> "hello"

See README.md for the architecture overview and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from importlib import import_module

__version__ = "1.1.0"


def __getattr__(name):
    # a tool probing for a dunder (doctest, inspect) must not load a layer
    if name.startswith("__") and name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    api = import_module(f"{__name__}.api")
    if name == "__all__":
        return api.__all__ + ["__version__"]
    if name not in api.HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(api, name)


def __dir__():
    return sorted(set(globals()) | set(__getattr__("__all__")))

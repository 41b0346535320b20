"""Transient-failure injection (Section 2.1).

*"The local variables of any process (writer, reader, servers) can suffer
transient failures.  This means that their values can be arbitrarily
modified.  It is nevertheless assumed that there is a finite time τ_no_tr
after which there are no more transient failures."*

The injector overwrites exactly the variables the processes' automatons
and roles declare corruptible (a domain-respecting arbitrary value each —
the standard self-stabilization convention that a variable always holds
*some* value of its type), and places arbitrary garbage messages on links
(the arbitrary initial link state of the configuration definition).

Everything is driven by the cluster's named randomness, so a corruption
burst is part of the reproducible execution.
"""

from __future__ import annotations

import random
from typing import Any, Iterable, List, Optional

from ..datalink.packets import SSConfirm, SSMsg, SSReply
from ..registers.messages import BOT, AckRead, AckWrite, NewHelpVal, Read, Write
from ..sim.process import CorruptibleVar, Process
from ..sim.trace import FAULT

def garbage_value(rng: random.Random) -> Any:
    """An arbitrary value for message fields."""
    roll = rng.random()
    if roll < 0.2:
        return BOT
    if roll < 0.4:
        return rng.randrange(1_000_000)
    return f"garbage#{rng.randrange(1_000_000)}"


def garbage_message(rng: random.Random, reg_id: str = "reg") -> Any:
    """An arbitrary protocol-shaped message for link preloading."""
    phase = rng.randrange(1, 50)
    kind = rng.randrange(5)
    if kind == 0:
        return SSReply(phase, AckRead(reg_id, garbage_value(rng),
                                      garbage_value(rng)))
    if kind == 1:
        return SSReply(phase, AckWrite(reg_id, garbage_value(rng)))
    if kind == 2:
        return SSMsg(phase, f"ghost{rng.randrange(100)}",
                     Write(reg_id, garbage_value(rng)))
    if kind == 3:
        return SSMsg(phase, f"ghost{rng.randrange(100)}",
                     Read(reg_id, bool(rng.randrange(2))))
    return SSConfirm(phase)


def _check_fraction(fraction: float) -> None:
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be within [0, 1], got {fraction!r}")


class TransientFaultInjector:
    """Corrupts declared process state and link contents.

    Construct it from a cluster and corrupt right now::

        injector = TransientFaultInjector.for_cluster(cluster)
        injector.corrupt_all(cluster.servers)

    Faults at later instants are :class:`~repro.faults.schedule
    .FaultTimeline` events, which fire through an injector like this one.
    """

    def __init__(self, rng: random.Random, trace, scheduler, network=None):
        self.rng = rng
        self.trace = trace
        self.scheduler = scheduler
        self.network = network
        self.corruptions = 0
        #: capture lane name; sharded stores override per shard.
        self.label = "cluster"

    @classmethod
    def for_cluster(cls, cluster) -> "TransientFaultInjector":
        return cls(cluster.randomness.stream("transient"), cluster.trace,
                   cluster.scheduler, cluster.network)

    # -- state corruption -----------------------------------------------------
    def corrupt_var(self, process: Process, name: str) -> Any:
        """Overwrite one declared variable with an arbitrary value."""
        var = process.corruptible.get(name)
        if var is None:
            raise ValueError(f"{process.pid} has no corruptible variable "
                             f"named {name!r}")
        return self._overwrite(process, name, var)

    def _overwrite(self, process: Process, name: str,
                   var: CorruptibleVar) -> Any:
        value = var.fuzz(self.rng)
        setattr(var.owner, var.attr, value)
        self.corruptions += 1
        self.trace.emit(self.scheduler.now, FAULT, process.pid,
                        var=name, value=value)
        return value

    def corrupt_process(self, process: Process, fraction: float = 1.0,
                        prefix: Optional[str] = None) -> List[str]:
        """Corrupt (a sampled subset of) a process's corruptible variables.

        ``fraction`` (in [0, 1]) is each variable's chance of being hit;
        ``prefix`` restricts corruption to variables of one register
        instance (their names are ``<reg_id>.<var>``) and must match at
        least one of them.
        """
        _check_fraction(fraction)
        variables = process.corruptible
        names = sorted(variables)
        if prefix is not None:
            names = [name for name in names if name.startswith(prefix)]
            if not names:
                raise ValueError(f"prefix {prefix!r} matches no corruptible "
                                 f"variable of {process.pid}")
        corrupted = []
        for name in names:
            if self.rng.random() <= fraction:
                self._overwrite(process, name, variables[name])
                corrupted.append(name)
        return corrupted

    def corrupt_all(self, processes: Iterable[Process],
                    fraction: float = 1.0) -> int:
        """Corrupt many processes at once; returns variables touched."""
        _check_fraction(fraction)
        return sum(len(self.corrupt_process(process, fraction))
                   for process in processes)

    # -- link corruption ---------------------------------------------------------
    def preload_link_garbage(self, src: str, dst: str, count: int = 2,
                             reg_id: str = "reg") -> None:
        """Place ``count`` arbitrary messages on the link ``src -> dst``."""
        if self.network is None:
            raise ValueError("injector built without a network")
        messages = [garbage_message(self.rng, reg_id) for _ in range(count)]
        self.network.preload(src, dst, messages)
        self.trace.emit(self.scheduler.now, FAULT, src,
                        link=f"{src}->{dst}", garbage=count)

    def garbage_everywhere(self, client_pids: Iterable[str],
                           server_pids: Iterable[str], per_link: int = 1,
                           reg_id: str = "reg") -> int:
        """Garbage on every client<->server link (arbitrary initial
        state); returns the number of links loaded."""
        servers = list(server_pids)
        links = 0
        for client in client_pids:
            for server in servers:
                self.preload_link_garbage(client, server, per_link, reg_id)
                self.preload_link_garbage(server, client, per_link, reg_id)
                links += 2
        return links

"""Deterministic discrete-event simulation substrate.

Implements the paper's basic system model (Section 2.1): sequential
processes connected by reliable FIFO directed links with pluggable delay
(asynchrony) models, all driven by a single seeded virtual-time scheduler
so that runs are exactly reproducible and stabilization instants are exact.
"""

from .errors import (ClusterReleasedError, LinkError, OperationError,
                     SchedulerError, SimulationError, SimulationLimitReached,
                     UnknownProcessError)
from .network import (AsyncDelay, DelayModel, FixedDelay, Link, Network,
                      ScriptedDelay, SyncDelay)
from .process import (AllOf, AnyOf, Deadline, OperationHandle, Predicate,
                      Process, WaitCondition, join_all)
from .random_source import RandomSource, derive_seed
from .scheduler import EventHandle, HeapScheduler, Scheduler
from .trace import (BROADCAST, DELIVER, DROP, FAULT, FullTrace, NOTE,
                    NullTrace, OP_INVOKE, OP_RESPONSE, SEND, TIMER,
                    TraceBackend, TraceEvent, build_trace)

__all__ = [
    "AllOf", "AnyOf", "AsyncDelay", "BROADCAST", "ClusterReleasedError",
    "DELIVER",
    "DROP", "Deadline",
    "DelayModel", "EventHandle", "FAULT", "FixedDelay", "FullTrace", "Link",
    "LinkError",
    "HeapScheduler",
    "NOTE", "Network", "NullTrace", "OP_INVOKE", "OP_RESPONSE",
    "OperationError",
    "OperationHandle", "Predicate", "Process", "RandomSource", "SEND",
    "SchedulerError", "Scheduler", "ScriptedDelay", "SimulationError",
    "SimulationLimitReached", "SyncDelay", "TIMER", "TraceBackend",
    "TraceEvent",
    "UnknownProcessError", "WaitCondition", "build_trace",
    "derive_seed", "join_all",
]

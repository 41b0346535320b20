"""Exceptions raised by the simulation substrate."""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for all simulation-level errors."""


class SchedulerError(SimulationError):
    """Misuse of the event scheduler (e.g. scheduling in the past)."""


class SimulationLimitReached(SimulationError):
    """The run loop hit its event or time budget before finishing.

    This is how the harness surfaces *non-termination*: register operations
    that never complete (a behaviour the paper only rules out under its
    resilience assumptions) show up as this exception rather than a hang.
    """

    def __init__(self, message: str, events_processed: int, now: float):
        super().__init__(message)
        self.events_processed = events_processed
        self.now = now


class UnknownProcessError(SimulationError):
    """A message was addressed to a process id the network does not know."""


class LinkError(SimulationError):
    """Misconfigured or missing communication link."""


class ClusterReleasedError(SimulationError):
    """A process was used after its cluster was dropped: a cluster's parts
    live as long as the cluster (see ``repro.registers.system``)."""


class OperationError(SimulationError):
    """Misuse of client operations (e.g. two concurrent ops on a

    sequential client, or reading the result of an unfinished operation).
    """

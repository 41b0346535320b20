"""Failure models: transient corruption and Byzantine server strategies."""

from .byzantine import (ByzantineStrategy, CollusionCoordinator,
                        EquivocateStrategy, FabricatedQuorumStrategy,
                        FlipFlopStrategy, InversionAttackStrategy,
                        RandomGarbageStrategy, STRATEGY_FACTORIES,
                        SilentStrategy, StaleReplyStrategy, strategy_factory)
from .schedule import EVENT_KINDS, FaultTimeline, TimelineEvent
from .transient import (TransientFaultInjector, garbage_message,
                        garbage_value)

__all__ = [
    "ByzantineStrategy", "CollusionCoordinator",
    "EVENT_KINDS", "EquivocateStrategy", "FabricatedQuorumStrategy",
    "FaultTimeline", "FlipFlopStrategy", "InversionAttackStrategy",
    "RandomGarbageStrategy", "STRATEGY_FACTORIES", "SilentStrategy",
    "StaleReplyStrategy", "TimelineEvent", "TransientFaultInjector",
    "garbage_message", "garbage_value", "strategy_factory",
]

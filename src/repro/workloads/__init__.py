"""Workload generation and the scenario-family registry."""

from .engine import ScenarioEngine
from .generators import (ClientDriver, OpSpec, ValueStream,
                         alternating_schedule, burst_schedule)
from .scenarios import ScenarioResult, ScenarioSummary, StoreScenarioResult
from .spec import ScenarioSpec, run_scenario, scenario_families

__all__ = [
    "ClientDriver", "OpSpec", "ScenarioEngine", "ScenarioResult",
    "ScenarioSpec", "ScenarioSummary", "StoreScenarioResult", "ValueStream",
    "alternating_schedule", "burst_schedule", "run_scenario",
    "scenario_families",
]

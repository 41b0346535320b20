"""The blessed public surface of ``repro`` in one flat namespace.

Everything documented in README.md and docs/ imports from here::

    from repro.api import ScenarioSpec, run_scenario, build_sharded_kv_store

``repro.api`` (re-exported as ``repro`` itself) is the compatibility
contract: names listed in ``__all__`` are stable across PRs, while
submodule layouts underneath may shift.  The two tables below list them
layer by layer, each with the module that defines it; ``__all__`` is
derived from them.

The scenario path — simulator, registers, faults, checkers, kv store and
the scenario registry (``run_scenario``, the one entry point to every
family) — is what this module is for, so its names are bound when it
loads.  The outer layers — parallel execution, the sweep runner, the
asyncio service and capture/replay — load when one of their names is
first read (PEP 562).  So ``from repro.api import run_scenario`` loads
none of them, nor asyncio; the capture taps register when
``repro.capture`` is imported, which reading any capture name does.
"""

from importlib import import_module

#: defining module -> the public names it contributes: the scenario path
_SCENARIO_PATH = {
    # registers + simulator
    "repro.registers.messages": "BOT",
    "repro.registers.system": "Cluster ClusterConfig build_mwmr build_swmr "
                              "build_swsr_atomic build_swsr_regular",
    "repro.registers.epochs": "Epoch EpochLabeling",
    "repro.registers.mwmr": "MWMRRegister",
    "repro.registers.base": "QuorumParams",
    "repro.registers.swmr": "SWMRRegister",
    "repro.registers.bounded_seq": "WsnConfig",
    # checkers
    "repro.checkers.history": "History Operation",
    "repro.checkers.stream": "ObservationStream history_digest",
    "repro.checkers.atomicity": "check_atomic_swsr check_linearizable "
                                "find_new_old_inversions is_atomic_swsr",
    "repro.checkers.regularity": "check_regularity is_regular",
    "repro.checkers.stabilization": "find_tau_stab stabilization_report",
    # faults
    "repro.faults.schedule": "FaultTimeline",
    # kv store + live resharding
    "repro.kvstore.sharding": "HashRing partition_ops shard_router",
    "repro.kvstore.pipeline": "Pipeline",
    "repro.kvstore.rebalance": "RebalanceReport Rebalancer",
    "repro.kvstore.sharded": "ShardedKVStore build_sharded_kv_store",
    "repro.kvstore.store": "StabilizingKVStore build_kv_store",
    # scenarios
    "repro.workloads.scenarios": "INITIAL ScenarioResult ScenarioSummary "
                                 "StoreScenarioResult",
    "repro.workloads.engine": "ScenarioEngine",
    "repro.workloads.spec": "ScenarioSpec run_scenario scenario_families",
}

#: ... and the outer layers, each imported on first use of one of its names
_OUTER_LAYERS = {
    # parallel execution
    "repro.parallel.runner": "ParallelScenarioRunner",
    "repro.parallel.executor": "ShardExecutor ShardOutcome",
    "repro.parallel.plan": "ShardPlan",
    # runner
    "repro.runner.results": "CellResult",
    "repro.runner.engine": "SweepResult run_sweep",
    "repro.runner.spec": "SweepSpec smoke_specs",
    # service layer
    "repro.service.client": "KVClient ServiceError ServiceUnavailableError "
                            "SyncKVClient",
    "repro.service.server": "KVService ServiceServer serve_tcp",
    "repro.service.loadgen": "LoadReport run_loopback_load",
    # capture / replay / metrics
    "repro.capture.format": "CaptureError CaptureFormatError CaptureReader "
                            "CaptureSink CorruptCaptureError "
                            "ReplayMismatchError TruncatedCaptureError "
                            "load_capture verify_capture",
    "repro.capture.metrics": "MetricsEmitter",
    "repro.capture.replay": "ReplayReport record_scenario replay_capture "
                            "replay_service_capture",
    "repro.capture.session": "capturing",
}

#: public name -> its defining module
HOMES = {name: module for table in (_SCENARIO_PATH, _OUTER_LAYERS)
         for module, names in table.items() for name in names.split()}

__all__ = list(HOMES)

globals().update((name, getattr(import_module(module), name))
                 for module, names in _SCENARIO_PATH.items()
                 for name in names.split())


def __getattr__(name):
    home = HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(home), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

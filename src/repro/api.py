"""The blessed public surface of ``repro`` in one flat namespace.

Everything documented in README.md and docs/ imports from here::

    from repro.api import ScenarioSpec, run_scenario, build_sharded_kv_store

``repro.api`` (re-exported as ``repro`` itself) is the compatibility
contract: names listed in ``__all__`` below are stable across PRs, while
submodule layouts underneath may shift.  The surface groups into:

* **registers** — the four constructions (+ the cluster simulator they
  run on): :class:`Cluster`, :func:`build_swsr_regular` /
  :func:`build_swsr_atomic` / :func:`build_swmr` / :func:`build_mwmr`;
* **checkers** — offline (:func:`check_linearizable`, ...) and streaming
  (:class:`ObservationStream`, :func:`history_digest`) consistency
  verdicts;
* **faults** — the declarative :class:`FaultTimeline`;
* **kvstore** — :class:`StabilizingKVStore`, :class:`ShardedKVStore`
  and the request :class:`Pipeline`, plus the shared placement helpers
  (:func:`partition_ops`, :func:`shard_router`) and live resharding
  (:class:`HashRing`, :class:`Rebalancer`, :class:`RebalanceReport`);
* **parallel** — shard-parallel execution of a single simulation
  (:class:`ParallelScenarioRunner`, :class:`ShardExecutor`,
  :class:`ShardPlan`), normally driven via ``run_scenario(...,
  parallel=N)``;
* **scenarios** — :class:`ScenarioSpec` / :func:`run_scenario`, the one
  entry point to every family of the registry
  (:func:`scenario_families`), returning a :class:`ScenarioResult`
  (cluster-backed families) or :class:`StoreScenarioResult` (``kv`` /
  ``reshard``);
* **runner** — parameter sweeps (:func:`run_sweep`);
* **service** — the asyncio KV service layer (:class:`KVService`,
  :class:`KVClient`, :func:`run_loopback_load`);
* **capture** — universal trace record/replay and live soak metrics
  (:func:`record_scenario`, :func:`replay_capture`,
  :class:`MetricsEmitter`; see :mod:`repro.capture`).
"""

from .capture import (CaptureError, CaptureFormatError, CaptureReader,
                      CaptureSink, CorruptCaptureError, MetricsEmitter,
                      ReplayMismatchError, ReplayReport,
                      TruncatedCaptureError, capturing, load_capture,
                      record_scenario, replay_capture,
                      replay_service_capture, verify_capture)
from .checkers import (History, ObservationStream, Operation,
                       check_atomic_swsr, check_linearizable,
                       check_regularity, find_new_old_inversions,
                       find_tau_stab, history_digest, is_atomic_swsr,
                       is_regular, stabilization_report)
from .faults import FaultTimeline
from .kvstore import (HashRing, Pipeline, RebalanceReport, Rebalancer,
                      ShardedKVStore, StabilizingKVStore, build_kv_store,
                      build_sharded_kv_store, partition_ops, shard_router)
from .parallel import (ParallelScenarioRunner, ShardExecutor, ShardOutcome,
                       ShardPlan)
from .registers import (BOT, Cluster, ClusterConfig, Epoch, EpochLabeling,
                        MWMRRegister, QuorumParams, SWMRRegister, WsnConfig,
                        build_mwmr, build_swmr, build_swsr_atomic,
                        build_swsr_regular)
from .runner import (CellResult, SweepResult, SweepSpec, run_sweep,
                     smoke_specs)
from .service import (KVClient, KVService, LoadReport, ServiceError,
                      ServiceServer, ServiceUnavailableError, SyncKVClient,
                      run_loopback_load, serve_tcp)
from .workloads import (ScenarioEngine, ScenarioResult, ScenarioSpec,
                        ScenarioSummary, StoreScenarioResult, run_scenario,
                        scenario_families)
from .workloads.scenarios import INITIAL

__all__ = [
    # registers + simulator
    "BOT", "Cluster", "ClusterConfig", "Epoch", "EpochLabeling",
    "MWMRRegister", "QuorumParams", "SWMRRegister", "WsnConfig",
    "build_mwmr", "build_swmr", "build_swsr_atomic", "build_swsr_regular",
    # checkers
    "History", "ObservationStream", "Operation", "check_atomic_swsr",
    "check_linearizable", "check_regularity", "find_new_old_inversions",
    "find_tau_stab", "history_digest", "is_atomic_swsr", "is_regular",
    "stabilization_report",
    # faults
    "FaultTimeline",
    # kv store + live resharding
    "HashRing", "Pipeline", "RebalanceReport", "Rebalancer",
    "ShardedKVStore", "StabilizingKVStore", "build_kv_store",
    "build_sharded_kv_store", "partition_ops", "shard_router",
    # parallel execution
    "ParallelScenarioRunner", "ShardExecutor", "ShardOutcome", "ShardPlan",
    # scenarios
    "INITIAL", "ScenarioEngine", "ScenarioResult", "ScenarioSpec",
    "ScenarioSummary", "StoreScenarioResult", "run_scenario",
    "scenario_families",
    # runner
    "CellResult", "SweepResult", "SweepSpec", "run_sweep", "smoke_specs",
    # service layer
    "KVClient", "KVService", "LoadReport", "ServiceError", "ServiceServer",
    "ServiceUnavailableError", "SyncKVClient", "run_loopback_load",
    "serve_tcp",
    # capture / replay / metrics
    "CaptureError", "CaptureFormatError", "CaptureReader", "CaptureSink",
    "CorruptCaptureError", "MetricsEmitter", "ReplayMismatchError",
    "ReplayReport", "TruncatedCaptureError", "capturing", "load_capture",
    "record_scenario", "replay_capture", "replay_service_capture",
    "verify_capture",
]

"""The CI pipeline definition must stay parseable and keep its gates."""

import os

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = os.path.join(os.path.dirname(__file__), os.pardir,
                        ".github", "workflows", "ci.yml")


@pytest.fixture(scope="module")
def workflow():
    with open(WORKFLOW, "r", encoding="utf-8") as handle:
        return yaml.safe_load(handle)


def test_workflow_parses_and_has_jobs(workflow):
    assert set(workflow["jobs"]) == {"lint", "test", "perf-smoke",
                                     "parallel-sim", "fuzz-smoke",
                                     "service-smoke", "capture-smoke",
                                     "docs"}
    # "on" parses as YAML true; accept either spelling
    assert True in workflow or "on" in workflow


def test_matrix_covers_supported_pythons(workflow):
    matrix = workflow["jobs"]["test"]["strategy"]["matrix"]
    assert matrix["python-version"] == ["3.10", "3.11", "3.12"]


def test_pipeline_runs_tests_smoke_sweep_and_uploads(workflow):
    steps = workflow["jobs"]["test"]["steps"]
    runs = " ".join(step.get("run", "") for step in steps)
    assert "python -m pytest" in runs
    assert "python -m repro.runner --smoke" in runs
    assert "--strict" in runs
    uploads = [step for step in steps
               if "upload-artifact" in step.get("uses", "")]
    assert uploads, "artifact upload step missing"
    assert "results.json" in uploads[0]["with"]["path"]
    assert "benchmarks/results.txt" in uploads[0]["with"]["path"]


def test_determinism_guard_compares_worker_counts(workflow):
    steps = workflow["jobs"]["test"]["steps"]
    guard = " ".join(step.get("run", "") for step in steps)
    assert "--workers 1" in guard and "--workers 4" in guard
    assert "cmp" in guard


def test_perf_smoke_job_gates_and_uploads_simcore_bench(workflow):
    steps = workflow["jobs"]["perf-smoke"]["steps"]
    runs = " ".join(step.get("run", "") for step in steps)
    assert "benchmarks/test_bench_perf_scaling.py" in runs
    assert "benchmarks/test_bench_kv.py" in runs
    uploads = [step for step in steps
               if "upload-artifact" in step.get("uses", "")]
    assert uploads, "BENCH_simcore.json upload step missing"
    assert "BENCH_simcore.json" in uploads[0]["with"]["path"]
    assert "BENCH_kv.json" in uploads[0]["with"]["path"]


def test_perf_smoke_job_arms_absolute_throughput_floors(workflow):
    """The kernel-rewrite floors must stay pinned in the perf-smoke job."""
    steps = workflow["jobs"]["perf-smoke"]["steps"]
    envs = [step.get("env", {}) for step in steps
            if "test_bench_perf_scaling" in step.get("run", "")]
    assert envs and envs[0].get("REPRO_PERF_GATE") == "1"
    assert int(envs[0]["REPRO_STORM_FLOOR"]) >= 660_000
    assert int(envs[0]["REPRO_SCENARIO_FLOOR"]) >= 230_000


def test_perf_smoke_job_smokes_the_profiler(workflow):
    steps = workflow["jobs"]["perf-smoke"]["steps"]
    runs = " ".join(step.get("run", "") for step in steps)
    # cProfile around a one-cell sweep is the one way to profile a cell:
    # a single-cluster cell, a sharded one (kv: the MWMR scan, events
    # summed over shards) and one over the footnote-3 data link (packets
    # and acks as scheduler calls), each loaded back and reporting events
    assert "repro-profile" not in runs
    assert "python -m cProfile -o profile-$cell.prof -m repro.runner " \
        "--spec cell-$cell.json" in runs
    assert "for cell in swsr kv datalink; do" in runs
    assert '"rounds": 1' in runs and '"transport": "datalink"' in runs
    assert "pstats.Stats('profile-$cell.prof')" in runs
    assert "['counters']['events_processed'] > 0" in runs
    uploads = [step for step in steps
               if "upload-artifact" in step.get("uses", "")]
    assert "profile-*.prof" in uploads[0]["with"]["path"].split()


def test_perf_smoke_job_gates_streaming_checkers(workflow):
    steps = workflow["jobs"]["perf-smoke"]["steps"]
    runs = " ".join(step.get("run", "") for step in steps)
    assert "benchmarks/test_bench_checkers.py" in runs
    uploads = [step for step in steps
               if "upload-artifact" in step.get("uses", "")]
    assert "BENCH_checkers.json" in uploads[0]["with"]["path"]


def test_perf_smoke_job_runs_the_repository_benchmark(workflow):
    """What ``bench/`` imports from ``src/`` is pinned by nothing else:
    its self-tests and a quick correctness-gated pass must stay in CI."""
    steps = workflow["jobs"]["perf-smoke"]["steps"]
    runs = [step.get("run", "").strip() for step in steps]
    assert "python -m pytest bench -q" in runs
    assert "python -m bench --quick" in runs


def test_parallel_sim_job_gates_speedup_and_digest_equality(workflow):
    steps = workflow["jobs"]["parallel-sim"]["steps"]
    runs = " ".join(step.get("run", "") for step in steps)
    # the bench runs with the wall-clock speedup gate armed ...
    assert "benchmarks/test_bench_parallel_sim.py" in runs
    gate_envs = [step.get("env", {}).get("REPRO_PERF_GATE")
                 for step in steps
                 if "test_bench_parallel_sim" in step.get("run", "")]
    assert gate_envs == ["1"]
    # ... the 1-vs-4-worker digest-equality guard compares summaries ...
    assert "parallel=1" in runs and "parallel=4" in runs
    assert "history_digest" in runs
    # ... and the bench artifact is archived (also on failure).
    uploads = [step for step in steps
               if "upload-artifact" in step.get("uses", "")]
    assert uploads, "parallel-sim bench upload step missing"
    assert uploads[0]["if"] == "always()"
    assert "BENCH_parallel_sim.json" in uploads[0]["with"]["path"]


def test_fuzz_smoke_job_gates_guards_and_uploads(workflow):
    steps = workflow["jobs"]["fuzz-smoke"]["steps"]
    runs = " ".join(step.get("run", "") for step in steps)
    # strict fixed-seed budgets (exit is non-zero on any violation), each
    # with a 1-vs-4-worker byte-identical determinism guard ...
    assert "python -m repro.fuzz --family $family $budget --workers 4" in runs
    assert "python -m repro.fuzz --family $family $budget --workers 1" in runs
    assert "cmp fuzz-$family-results.json " \
        "fuzz-$family-results-serial.json" in runs
    # ... the committed replay corpus re-executed ...
    assert "tests/replays/wsn-jump-atomic.json" in runs
    assert "REPRO_FUZZ_INJECT=burst" in runs
    # ... and shrunk-replay artifacts uploaded (also on failure).
    uploads = [step for step in steps
               if "upload-artifact" in step.get("uses", "")]
    assert uploads, "fuzz artifact upload step missing"
    assert uploads[0]["if"] == "always()"
    assert "fuzz-*-artifacts/" in uploads[0]["with"]["path"]
    assert "fuzz-*-results.json" in uploads[0]["with"]["path"]


def test_fuzz_smoke_job_covers_every_fuzz_family(workflow):
    """One loop over the whole FUZZ_FAMILIES table, each arm on its
    pinned budget (the golden fixtures pin each budget's first case)."""
    from repro.fuzz.families import FUZZ_FAMILIES
    runs = " ".join(step.get("run", "")
                    for step in workflow["jobs"]["fuzz-smoke"]["steps"])
    assert f"for family in {' '.join(FUZZ_FAMILIES)}; do" in runs
    assert 'swsr) budget="--smoke"' in runs
    assert 'kv) budget="--seed 20260730 --cases 24"' in runs
    assert 'reshard) budget="--seed 20260808 --cases 24"' in runs


def test_reshard_sweep_rides_the_test_jobs_smoke_sweep(workflow):
    """The reshard sweep has no job of its own: the smoke sweep must
    keep its reshard spec and its 1-vs-4-worker ``cmp``."""
    from repro.runner.spec import smoke_specs
    assert any(spec.scenario == "reshard" for spec in smoke_specs())
    runs = " ".join(step.get("run", "")
                    for step in workflow["jobs"]["test"]["steps"])
    assert "python -m repro.runner --smoke --workers 4" in runs
    assert "cmp results.json results-serial.json" in runs


def test_service_smoke_job_gates_load_and_digests(workflow):
    steps = workflow["jobs"]["service-smoke"]["steps"]
    runs = " ".join(step.get("run", "") for step in steps)
    # the loopback load bench runs with the wall-clock gate armed ...
    assert "benchmarks/test_bench_service.py" in runs
    gate_envs = [step.get("env", {}).get("REPRO_PERF_GATE")
                 for step in steps if "test_bench_service" in
                 step.get("run", "")]
    assert gate_envs == ["1"]
    # ... the CLI digest guard compares 1 vs 8 connections ...
    assert "--clients 1" in runs and "--clients 8" in runs
    assert "response_digest" in runs
    # ... and BENCH_service.json is archived (also on failure).
    uploads = [step for step in steps
               if "upload-artifact" in step.get("uses", "")]
    assert uploads, "service bench upload step missing"
    assert uploads[0]["if"] == "always()"
    assert "BENCH_service.json" in uploads[0]["with"]["path"]


def test_capture_smoke_job_gates_replay_modes_and_uploads(workflow):
    steps = workflow["jobs"]["capture-smoke"]["steps"]
    runs = " ".join(step.get("run", "") for step in steps)
    # a trace is recorded through the CLI and replayed in both modes ...
    assert "repro-capture record" in runs
    assert "--mode resimulate" in runs and "--mode recheck" in runs
    # ... re-recording the same spec is byte-identical ...
    assert "cmp kv-trace.jsonl kv-trace-again.jsonl" in runs
    # ... the 1-vs-4-worker replay reports are byte-identical ...
    assert "--workers 1" in runs and "--workers 4" in runs
    assert "cmp replay-1.json replay-4.json" in runs
    # ... the committed golden corpus stays checkable and replayable ...
    assert "tests/captures" in runs
    assert "tests/captures/service.jsonl" in runs
    # ... and a clean soak's metrics never trip the alert hook.
    assert "repro-capture tail" in runs
    assert "! grep -q '\"alert\": true'" in runs
    # traces + reports are archived (also on failure).
    uploads = [step for step in steps
               if "upload-artifact" in step.get("uses", "")]
    assert uploads, "capture-smoke artifact upload step missing"
    assert uploads[0]["if"] == "always()"
    assert "kv-trace.jsonl" in uploads[0]["with"]["path"]
    assert "soak-metrics.jsonl" in uploads[0]["with"]["path"]


def test_docs_job_covers_the_new_surfaces(workflow):
    runs = " ".join(step.get("run", "")
                    for step in workflow["jobs"]["docs"]["steps"])
    assert "src/repro/service" in runs
    assert "src/repro/capture" in runs
    assert "src/repro/api.py" in runs
    assert "src/repro/workloads/spec.py" in runs


def test_docs_job_runs_the_doctest_surface(workflow):
    runs = " ".join(step.get("run", "")
                    for step in workflow["jobs"]["docs"]["steps"])
    assert "--doctest-modules" in runs
    assert "src/repro/kvstore" in runs
    assert "docs/ARCHITECTURE.md" in runs


def test_lint_job_uses_ruff(workflow):
    runs = " ".join(step.get("run", "")
                    for step in workflow["jobs"]["lint"]["steps"])
    assert "ruff check" in runs

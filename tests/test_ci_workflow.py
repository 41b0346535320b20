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
    assert set(workflow["jobs"]) == {"lint", "test", "perf-smoke"}
    # "on" parses as YAML true; accept either spelling
    assert True in workflow or "on" in workflow


def test_matrix_covers_supported_pythons(workflow):
    matrix = workflow["jobs"]["test"]["strategy"]["matrix"]
    assert matrix["python-version"] == ["3.10", "3.11", "3.12"]


def _runs_tier1(workflow):
    """Whether the test job runs the whole Tier-1 suite: every testpath,
    so the determinism contract of ``tests/test_contract.py`` too."""
    return any(step.get("run", "").strip() == "python -m pytest -x -q"
               for step in workflow["jobs"]["test"]["steps"])


def test_pipeline_runs_tests_smoke_sweep_and_uploads(workflow):
    """The smoke sweep runs inside Tier-1, as the ``sweep/smoke``
    contract of ``tests/test_contract.py``."""
    assert _runs_tier1(workflow)
    steps = workflow["jobs"]["test"]["steps"]
    uploads = [step for step in steps
               if "upload-artifact" in step.get("uses", "")]
    assert uploads, "artifact upload step missing"
    assert "benchmarks/results.txt" in uploads[0]["with"]["path"]


def test_determinism_guard_compares_worker_counts(workflow):
    """The guard is Tier-1's determinism contract: each contract re-run
    at 2 workers must hash to the manifest written at 1."""
    from test_contract import MANIFEST
    assert _runs_tier1(workflow) and os.path.isfile(MANIFEST)


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


@pytest.mark.parametrize("bench, artifact", [
    ("test_bench_parallel_sim.py", "BENCH_parallel_sim.json"),
    ("test_bench_service.py", "BENCH_service.json"),
], ids=["parallel-sim", "service"])
def test_perf_smoke_job_gates_parallel_and_service_benches(
        workflow, bench, artifact):
    """Each bench runs with its wall-clock gate armed, and its JSON is
    archived (also on failure)."""
    steps = workflow["jobs"]["perf-smoke"]["steps"]
    command = f"python -m pytest benchmarks/{bench} -q"
    gate_envs = [step.get("env", {}).get("REPRO_PERF_GATE")
                 for step in steps if step.get("run") == command]
    assert gate_envs == ["1"]
    uploads = [step for step in steps
               if "upload-artifact" in step.get("uses", "")
               and artifact in step["with"]["path"].split()]
    assert uploads and uploads[0]["if"] == "always()"


def test_reshard_sweep_rides_the_test_jobs_smoke_sweep(workflow):
    """The reshard sweep has no job of its own: the smoke sweep keeps its
    reshard spec and runs in Tier-1 as the ``sweep/smoke`` contract."""
    from repro.runner.spec import smoke_specs
    from test_contract import CONTRACTS
    assert any(spec.scenario == "reshard" for spec in smoke_specs())
    assert "sweep/smoke" in CONTRACTS
    assert _runs_tier1(workflow)


def test_docs_job_covers_the_new_surfaces(workflow):
    """The docs job folded into Tier-1: three jobs remain, and the
    doctest surface is every module under ``src/repro`` with a ``>>>``
    example, the service, capture and scenario-spec surfaces included."""
    assert set(workflow["jobs"]) == {"lint", "test", "perf-smoke"}
    from test_docs import DOCTEST_MODULES
    assert {"repro.service", "repro.capture.format", "repro.workloads.spec",
            "repro.analysis.tables", "repro.sim.random_source"} <= set(
        DOCTEST_MODULES)


def test_docs_job_runs_the_doctest_surface(workflow):
    """Tier-1 runs the doctests, the README blocks and the generated
    layer table of docs/ARCHITECTURE.md (``tests/test_docs.py``)."""
    import test_docs
    assert _runs_tier1(workflow)
    pyproject = os.path.join(os.path.dirname(WORKFLOW), os.pardir,
                             os.pardir, "pyproject.toml")
    with open(pyproject, encoding="utf-8") as handle:
        assert 'testpaths = ["tests", "benchmarks"]' in handle.read()
    for check in ("test_doctests_run", "test_readme_python_block_runs",
                  "test_readme_commands_run",
                  "test_architecture_layer_table_matches_the_code"):
        assert callable(getattr(test_docs, check)), check


def test_lint_job_uses_ruff(workflow):
    runs = " ".join(step.get("run", "")
                    for step in workflow["jobs"]["lint"]["steps"])
    assert "ruff check" in runs

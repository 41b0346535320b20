"""repro.api is the public surface: complete, importable, README-covering."""

import ast
import re
from pathlib import Path

import pytest

import repro
import repro.api as api
import repro.service as service

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_name_in_all_is_importable():
    missing = [name for name in api.__all__ if not hasattr(api, name)]
    assert not missing, f"api.__all__ lists missing names: {missing}"


def test_all_is_sorted_within_sections_and_duplicate_free():
    assert len(api.__all__) == len(set(api.__all__))


def test_repro_reexports_the_api_surface():
    for name in api.__all__:
        assert getattr(repro, name) is getattr(api, name), name
    assert set(repro.__all__) == set(api.__all__) | {"__version__"}


def test_scenario_surface_is_one_entry_point_and_two_result_types():
    """The per-family ``run_*_scenario`` shims and result classes are
    gone for good; what the repository benchmark imports must stay."""
    import repro.workloads as workloads
    import repro.workloads.scenarios as scenarios
    gone = [f"run_{family}_scenario" for family in (
        "swsr", "mwmr", "partition", "kv", "reshard", "mobile_byzantine",
        "soak")] + ["KVScenarioResult", "ReshardScenarioResult"]
    for module in (api, workloads, scenarios):
        assert not [name for name in gone if hasattr(module, name)]
    assert {"run_scenario", "scenario_families", "ScenarioSpec",
            "ScenarioResult", "StoreScenarioResult"} <= set(api.__all__)
    assert set(api.scenario_families()) == set(scenarios.FAMILIES)
    # the repository benchmark wraps ``vars(kernel)["run"]`` on both the
    # shipped kernel and the oracle: neither may inherit its loops
    from repro.sim.scheduler import HeapScheduler, Scheduler
    for kernel in (Scheduler, HeapScheduler):
        assert {"run", "run_until"} <= set(vars(kernel))


def test_each_entry_point_has_one_spelling():
    """Second spellings that were folded into the one that stays must not
    grow back: each row names what is gone and what replaces it."""
    import importlib.util
    from repro.faults.byzantine import STRATEGY_FACTORIES
    from repro.registers.system import ClusterGroup
    from repro.runner.adapters import ADAPTERS
    import repro.runner.spec as sweep_spec
    import repro.workloads as workloads
    import repro.workloads.scenarios as scenarios
    from repro.workloads.engine import ScenarioEngine
    # python -m cProfile over a one-cell sweep; ClusterConfig(synchronous=
    # True) + build_swsr_*; run_scenario
    for module in ("repro.profiling", "repro.registers.swsr_sync"):
        assert importlib.util.find_spec(module) is None, module
    for owner, name in ((ScenarioEngine, "run_spec"),
                        (ScenarioEngine, "all_done"),
                        (ClusterGroup, "run_all"),
                        (sweep_spec, "SCENARIOS"),
                        (workloads, "history_digest"),
                        (scenarios, "history_digest")):
        assert not hasattr(owner, name), (owner, name)
    assert "crash" not in STRATEGY_FACTORIES       # the crash *event* stays
    assert sweep_spec.ADAPTERS is ADAPTERS
    with pytest.raises(ValueError, match="unknown scenario family"):
        api.ScenarioSpec("mobile_byzantine")
    pyproject = (README.parent / "pyproject.toml").read_text()
    scripts = pyproject.split("[project.scripts]")[1].split("\n[")[0]
    assert sorted(re.findall(r"^(repro-\w+) = ", scripts, re.M)) == [
        "repro-capture", "repro-fuzz", "repro-service", "repro-sweep"]


def test_service_package_all_is_importable():
    missing = [name for name in service.__all__
               if not hasattr(service, name)]
    assert not missing


def _readme_python_blocks():
    text = README.read_text(encoding="utf-8")
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


def _repro_imports(block):
    """(module, names) pairs for every ``from repro... import`` in block."""
    try:
        tree = ast.parse(block)
    except SyntaxError:
        # README blocks may elide with `...`-style prose; skip those —
        # the docs CI job runs the real doctests.
        return []
    pairs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "repro":
            pairs.append((node.module,
                          [alias.name for alias in node.names]))
    return pairs


def test_readme_examples_import_only_blessed_names():
    """Every README `from repro/repro.api import X` must be in api.__all__.

    Deeper submodule imports (repro.service, repro.workloads.spec, ...)
    only need to resolve; the flat-surface guarantee is for the two
    blessed spellings.
    """
    blocks = _readme_python_blocks()
    assert blocks, "README has no ```python examples to check"
    seen_imports = 0
    for block in blocks:
        for module, names in _repro_imports(block):
            seen_imports += 1
            if module in ("repro", "repro.api"):
                for name in names:
                    assert name in api.__all__, (
                        f"README imports {name!r} from {module} but "
                        f"repro.api.__all__ does not bless it")
            else:
                imported = __import__(module, fromlist=names)
                for name in names:
                    assert hasattr(imported, name), (
                        f"README imports {name!r} from {module} which "
                        f"does not provide it")
    assert seen_imports, "README examples never import from repro"


def test_version_is_exposed():
    assert isinstance(repro.__version__, str)
    assert repro.__version__.count(".") == 2

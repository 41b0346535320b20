"""What a process loads: the public surface resolves a name's layer on
first use (``repro.api``'s name -> module table), so each entry point
imports exactly the layers it runs.  Module sets are checked in a fresh
interpreter — exact facts, not timings."""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import repro
import repro.api as api

ROOT = Path(__file__).resolve().parent.parent

#: layers the researcher path must not load
NOT_ON_THE_SCENARIO_PATH = {"asyncio", "ssl", "repro.capture", "repro.runner",
                            "repro.fuzz", "repro.parallel", "repro.service"}


def loaded_after(statement, *args):
    """``(repro layers, every module)`` a fresh interpreter holds after
    running ``statement`` (``sys.argv[1:]`` is ``args``); ``-S`` keeps
    site-packages' start-up hooks out of the module set."""
    script = (f"import sys\n{statement}\nimport json\n"
              "print(json.dumps(sorted(sys.modules)))")
    out = subprocess.run(
        [sys.executable, "-S", "-c", script, *args], cwd=ROOT, check=True,
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    modules = json.loads(out.stdout.splitlines()[-1])
    layers = {name.split(".")[1] for name in modules
              if name.startswith("repro.")}
    return layers, set(modules)


def test_import_repro_loads_no_layer():
    layers, _ = loaded_after("import repro")
    assert layers == set()


SCENARIO_PATH = {"api", "checkers", "datalink", "faults", "kvstore",
                 "registers", "sim", "workloads"}


@pytest.mark.parametrize("statement, layers", [
    ("from repro.api import run_scenario", SCENARIO_PATH),
    ("from repro import check_linearizable", SCENARIO_PATH),
    ("from repro.api import KVService", SCENARIO_PATH | {"service"}),
    ("from repro.service import KVService",
     SCENARIO_PATH - {"api", "workloads"} | {"service"}),
])
def test_an_entry_point_loads_the_layers_it_runs(statement, layers):
    loaded, modules = loaded_after(statement)
    assert loaded == layers
    if "service" not in layers:
        assert not modules & NOT_ON_THE_SCENARIO_PATH


def test_the_scenario_path_is_bound_when_the_api_loads():
    """Its names sit in the module's namespace (where a tracer wraps them
    in place); an outer layer's name is bound on first read."""
    _, modules = loaded_after(
        "import repro.api as api\n"
        "names = [n for n, home in api.HOMES.items()\n"
        "         if not home.startswith(('repro.parallel', 'repro.runner',\n"
        "                                 'repro.service', 'repro.capture'))]\n"
        "assert names and all(n in vars(api) for n in names)\n"
        "assert 'run_sweep' not in vars(api)\n"
        "api.run_sweep\n"
        "assert 'run_sweep' in vars(api)")
    assert "repro.runner.engine" in modules
    assert not modules & {"repro.service", "repro.capture", "repro.fuzz"}


def test_every_name_is_the_object_its_home_module_defines():
    assert api.__all__ == list(api.HOMES)
    for name, home in api.HOMES.items():
        module = import_module(home)
        assert getattr(api, name) is vars(module)[name], name
        owner = getattr(vars(module)[name], "__module__", home)
        assert owner == home, (name, owner)
    assert set(api.__all__) <= set(dir(api)) and \
        set(repro.__all__) <= set(dir(repro))


def test_star_import_binds_the_whole_surface():
    namespace = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    for name in api.__all__:
        assert namespace[name] is getattr(api, name), name
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        repro.nope
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        api.nope


SWSR_PARAMS = ("dict(seed=3, num_writes=2, num_reads=2, "
               "corruption_times=[2.0])")


@pytest.mark.parametrize("statement", [
    # a spec that asks for a capture imports the layer itself
    "from repro.api import ScenarioSpec\n"
    "assert 'repro.capture' not in sys.modules\n"
    f"ScenarioSpec('swsr', {SWSR_PARAMS}, capture=sys.argv[1]).run()",
    # an explicit session: reading ``capturing`` imports the layer
    "from repro.api import ScenarioSpec, run_scenario\n"
    "assert 'repro.capture' not in sys.modules\n"
    "from repro.api import capturing\n"
    f"with capturing(ScenarioSpec('swsr', {SWSR_PARAMS},\n"
    "                             capture=sys.argv[1])) as session:\n"
    f"    session.finalize(run_scenario('swsr', **{SWSR_PARAMS}))",
], ids=["spec", "capturing"])
def test_a_capture_session_records_once_its_layer_loads(tmp_path, statement):
    """The capture taps register when ``repro.capture`` is imported; a
    run under a capture session imports it, so the file it writes is the
    committed one, record for record."""
    path = tmp_path / "swsr.jsonl"
    _, modules = loaded_after(statement, str(path))
    assert "repro.capture.session" in modules
    assert path.read_bytes() == \
        (ROOT / "tests" / "captures" / "swsr.jsonl").read_bytes()

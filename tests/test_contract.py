"""The determinism contract: what the same seeds must reproduce, pinned.

``tests/golden/contract.json`` maps each contract name to the sha256 of
the exact bytes an existing CLI or API call writes for it.  None of
those bytes carries a wall clock, a worker count or a path:

* ``sweep/smoke`` — ``repro-sweep --smoke --out`` (the 100-cell smoke
  sweep over every scenario family);
* ``fuzz/<family>`` — ``repro-fuzz --out`` on the three campaign
  budgets of :data:`FUZZ_BUDGETS`;
* ``fuzz-injected/<family>`` — a small campaign under
  ``REPRO_FUZZ_INJECT`` (:data:`INJECTED`): its ``--out`` JSON followed
  by one ``sha256sum``-style line per ``--artifacts`` file, so shrink
  steps and replay artifacts are pinned too;
* ``summary/<family>`` — ``summarize().to_dict()`` of each
  ``FAMILY_CELLS`` cell of ``test_cross_kernel``;
* ``parallel/kv`` — the summary of :data:`PARALLEL_KV` run by the
  shard-parallel engine;
* ``replay/kv`` — ``repro-capture replay tests/captures/kv.jsonl --out``
  (re-simulation with the shard-parallel engine).

The manifest is written with 1 worker and checked with 2, so an equal
hash is also the 1-vs-N worker guard.  A failure names every contract
whose hash moved; the readable goldens (``golden/fault_records.json``,
``golden/datalink_cells.json``, ``golden/fuzz_case_*.json``,
``captures/``) show *what* moved.

Every contract's run must also be ok (for a ``summary/`` cell: judged
ok, not ``vacuous``), at 1 worker to write the manifest and at 2 to pass.
Regenerate (only when a change is *meant* to move output) with::

    PYTHONPATH=src python tests/test_contract.py
"""

import hashlib
import json
import os
import tempfile
from functools import partial

import pytest

from repro.capture.replay import replay_capture
from repro.fuzz.campaign import run_campaign
from repro.fuzz.cli import SMOKE_CASES, SMOKE_SEED
from repro.fuzz.families import FUZZ_FAMILIES
from repro.fuzz.harness import INJECT_ENV
from repro.runner import run_sweep, smoke_specs
from repro.workloads.spec import ScenarioSpec, run_scenario
from repro.workloads.verdict import judge
from test_cross_kernel import FAMILY_CELLS

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "golden", "contract.json")
KV_CAPTURE = os.path.join(HERE, "captures", "kv.jsonl")

#: family -> (campaign seed, cases): the ``--smoke`` budget and the kv
#: and reshard budgets the fuzzer's CI coverage has always used.
FUZZ_BUDGETS = {"swsr": (SMOKE_SEED, SMOKE_CASES),
                "kv": (20260730, 24),
                "reshard": (20260808, 24)}
#: family -> (injected event kind, cases) on the same campaign seed: two
#: cases, so a 2-worker run uses the pool, and at least one shrunk failure.
INJECTED = {"swsr": ("burst", 2), "kv": ("burst", 2),
            "reshard": ("reshard_split", 2)}
#: a 4-shard kv cell with a burst, for the shard-parallel engine.
PARALLEL_KV = dict(seed=202608, shard_count=4, num_keys=24, rounds=6,
                   client_count=4, corruption_times=[2.0],
                   corruption_fraction=0.2)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _document(payload) -> str:
    """A JSON document in the CLIs' ``--out`` layout."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _summary(family, result):
    # ok = the one judge's ok: a run with no read after its τ is vacuous
    # there, so a cell that judges nothing cannot hold a contract
    return _document(result.summarize().to_dict()), judge(family, result).ok


# each contract: workers -> (the bytes as text, whether its run is ok)

def sweep_smoke(workers):
    sweep = run_sweep(smoke_specs(), workers=workers)
    return sweep.to_json() + "\n", sweep.all_ok


def fuzz(family, workers):
    seed, cases = FUZZ_BUDGETS[family]
    result = run_campaign(seed, cases, workers=workers, family=family)
    return result.to_json() + "\n", result.all_ok


def fuzz_injected(family, workers):
    kind, cases = INJECTED[family]
    seed = FUZZ_BUDGETS[family][0]
    with pytest.MonkeyPatch.context() as patch, \
            tempfile.TemporaryDirectory() as artifacts:
        patch.setenv(INJECT_ENV, kind)
        result = run_campaign(seed, cases, workers=workers, family=family,
                              artifacts_dir=artifacts)
        listing = ""
        for name in sorted(os.listdir(artifacts)):
            with open(os.path.join(artifacts, name), "rb") as handle:
                listing += f"{_sha256(handle.read())}  {name}\n"
    ok = bool(result.failures) and all(
        failure.confirmed_signature == [f"injected:{kind}"]
        and failure.artifact_name for failure in result.failures)
    return result.to_json() + "\n" + listing, ok


def summary(family, workers):
    result = ScenarioSpec(family, FAMILY_CELLS[family]).run()
    return _summary(family, result)


def parallel_kv(workers):
    return _summary("kv", run_scenario("kv", parallel=workers,
                                       **PARALLEL_KV))


def replay_kv(workers):
    report = replay_capture(KV_CAPTURE, workers=workers, strict=False)
    return _document(report.to_dict()), report.ok


CONTRACTS = {
    "sweep/smoke": sweep_smoke,
    **{f"fuzz/{family}": partial(fuzz, family) for family in FUZZ_BUDGETS},
    **{f"fuzz-injected/{family}": partial(fuzz_injected, family)
       for family in INJECTED},
    **{f"summary/{family}": partial(summary, family)
       for family in sorted(FAMILY_CELLS)},
    "parallel/kv": parallel_kv,
    "replay/kv": replay_kv,
}


def run_contracts(workers):
    """contract name -> (sha256 of its bytes, ok), each run at ``workers``."""
    runs = {}
    for name, contract in CONTRACTS.items():
        text, ok = contract(workers)
        runs[name] = (_sha256(text.encode("utf-8")), ok)
    return runs


def _manifest():
    with open(MANIFEST, encoding="utf-8") as handle:
        return json.load(handle)


def test_contracts_cover_every_fuzz_family():
    """Each FUZZ_FAMILIES entry has a plain and an injected campaign."""
    assert list(FUZZ_BUDGETS) == list(INJECTED) == list(FUZZ_FAMILIES)


def test_every_contract_reproduces_its_manifest_hash():
    manifest = _manifest()
    assert sorted(manifest) == sorted(CONTRACTS), (
        "the manifest's contracts differ from CONTRACTS: regenerate it")
    runs = run_contracts(2)
    moved = [name for name, (digest, _) in runs.items()
             if digest != manifest[name]]
    assert not moved, (
        f"{len(moved)} contract(s) moved: {', '.join(moved)}.  If the "
        f"change is meant to move them, regenerate with "
        f"`PYTHONPATH=src python tests/test_contract.py`")
    not_ok = [name for name, (_, ok) in runs.items() if not ok]
    assert not not_ok, f"contract run(s) not ok: {', '.join(not_ok)}"


def _write_manifest() -> None:
    runs = run_contracts(1)
    not_ok = [name for name, (_, ok) in runs.items() if not ok]
    if not_ok:
        raise SystemExit(f"manifest not written; not ok: "
                         f"{', '.join(not_ok)}")
    with open(MANIFEST, "w", encoding="utf-8") as handle:
        json.dump({name: digest for name, (digest, _) in runs.items()},
                  handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    _write_manifest()

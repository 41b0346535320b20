"""What a transient burst writes, pinned.

Four fault-heavy cells run under ``trace_backend="full"``; every FAULT
trace event they record becomes one ``[time, pid, var, repr(value)]``
row, per cluster, in emission order.  The rows fix which variables a
burst visits (sorted name order per process), which RNG draws it takes
and what each fuzzer returns — the whole observable contract of the
corruptible-variable registry and the injector.

Regenerate (only when a change is *meant* to move a burst) with::

    PYTHONPATH=src python tests/test_fault_golden.py
"""

import json
import os

import pytest

from repro.sim.trace import FAULT
from repro.workloads.spec import ScenarioSpec

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "fault_records.json")

#: cell name -> (family, params); every cell runs with the full trace.
CELLS = {
    "swsr-atomic-2bursts": ("swsr", dict(
        kind="atomic", seed=5, num_writes=3, num_reads=3,
        corruption_times=[2.0, 4.0])),
    "mwmr-m3-burst": ("mwmr", dict(
        m=3, seed=5, ops_per_process=1, corruption_times=[2.0])),
    "kv-4shards": ("kv", dict(
        shard_count=4, num_keys=4, rounds=1, seed=5,
        corruption_times=[2.0])),
    "soak-bursts-rotations": ("soak", dict(
        seed=5, num_writes=12, num_reads=12, fault_bursts=2,
        rotations=2)),
}


def fault_records(family, params):
    """The cell's FAULT rows, one list per cluster (shard order)."""
    result = ScenarioSpec(family, dict(params, trace_backend="full")).run()
    cluster = getattr(result, "cluster", None)
    clusters = [cluster] if cluster is not None else list(result.store.group)
    return [[[event.time, event.process, event.detail["var"],
              repr(event.detail["value"])]
             for event in cluster.trace.of_kind(FAULT)]
            for cluster in clusters]


def _golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_fault_records_match_golden(cell):
    family, params = CELLS[cell]
    records = fault_records(family, params)
    assert sum(map(len, records)) > 0
    assert records == _golden()[cell]


def _write_golden() -> None:
    golden = {cell: fault_records(family, params)
              for cell, (family, params) in sorted(CELLS.items())}
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, ensure_ascii=False)
        handle.write("\n")


if __name__ == "__main__":
    _write_golden()

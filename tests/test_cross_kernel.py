"""Shipped kernel vs reference oracle, end to end.

One scheduler kernel ships (one binary heap); ``HeapScheduler`` is the
executable reference it is compared against: the same heap, stepped one
event per turn, and never handed a fused send.  The contract is
byte-identical execution: the same ``(time, seq)`` total order, hence the
same RNG draw sequence, the same operation history and the same
``history_digest``.  These tests pin that contract at the scenario level —
one small cell per scenario family, run on both, full summaries compared.

No option selects the oracle, so the tests substitute it for the
``Scheduler`` name ``Cluster`` constructs.  Under ``trace_backend="null"``
(every family's default) the shipped side sends through the fused
per-link closures while the oracle side takes the network's general path,
so the same comparison also pins fused against general delivery; under
``"full"`` both sides take the general path with a recording receiver.

(The scheduler-level equivalence — randomized schedule/cancel/drain soups
against the heap reference — lives in tests/test_sim_scheduler.py.)
"""

import pytest

import repro.registers.system as system_mod
from repro.sim.scheduler import HeapScheduler, Scheduler
from repro.workloads.spec import ScenarioSpec

#: one quick cell per scenario family (mirrors the capture corpus cells).
FAMILY_CELLS = {
    "swsr": dict(seed=3, num_writes=2, num_reads=2),
    "mwmr": dict(m=2, seed=3, ops_per_process=1),
    # 4 + 4 is the smallest partition cell whose reads reach past τ (the
    # heal): at 2 + 2 the judge finds nothing to judge (``vacuous``)
    "partition": dict(seed=3, num_writes=4, num_reads=4),
    "kv": dict(shard_count=2, num_keys=2, rounds=1, seed=3),
    "reshard": dict(shard_count=2, num_keys=2, rounds=1, seed=3, vnodes=4),
    "mobile-byz": dict(seed=3, rotations=1, num_writes=2, num_reads=2),
    "soak": dict(seed=3, num_writes=6, num_reads=6),
}


def _clusters(result):
    cluster = getattr(result, "cluster", None)
    return [cluster] if cluster is not None else list(result.store.group)


def _run_on(monkeypatch, family, params, kernel):
    monkeypatch.setattr(system_mod, "Scheduler", kernel)
    result = ScenarioSpec(family, params).run()
    clusters = _clusters(result)
    assert clusters
    assert all(type(cluster.scheduler) is kernel for cluster in clusters)
    return result.summarize()


@pytest.mark.parametrize("backend", ["full", "null"])
@pytest.mark.parametrize("family", sorted(FAMILY_CELLS))
def test_kernels_produce_identical_summaries(family, backend, monkeypatch):
    params = dict(FAMILY_CELLS[family], trace_backend=backend)
    shipped = _run_on(monkeypatch, family, params, Scheduler)
    heap = _run_on(monkeypatch, family, params, HeapScheduler)
    assert shipped == heap
    digest = getattr(shipped, "history_digest", None)
    if digest is not None:
        assert digest == heap.history_digest


@pytest.mark.parametrize("backend", ["full", "null"])
def test_kernels_agree_on_larger_swsr_cell(backend, monkeypatch):
    """A denser cell: faults + garbage stress the fused delivery path."""
    params = dict(seed=11, n=9, t=1, num_writes=4, num_reads=4,
                  corruption_times=(2.0,), link_garbage=2,
                  byzantine_count=1, trace_backend=backend)
    shipped = _run_on(monkeypatch, "swsr", params, Scheduler)
    heap = _run_on(monkeypatch, "swsr", params, HeapScheduler)
    assert shipped == heap


#: the footnote-3 transport: packets and acks are call entries filed by
#: ``BoundedCapacityLink``, retries cancellable timers, replies network mail
DATALINK_CELLS = {
    "async": dict(seed=3, kind="atomic", n=9, t=1, num_writes=2,
                  num_reads=2, transport="datalink"),
    "sync": dict(seed=3, n=10, t=3, synchronous=True, num_writes=2,
                 num_reads=2, transport="datalink"),
}


@pytest.mark.parametrize("backend", ["full", "null"])
@pytest.mark.parametrize("cell", sorted(DATALINK_CELLS))
def test_kernels_agree_on_datalink_cells(cell, backend, monkeypatch):
    params = dict(DATALINK_CELLS[cell], trace_backend=backend)
    shipped = _run_on(monkeypatch, "swsr", params, Scheduler)
    heap = _run_on(monkeypatch, "swsr", params, HeapScheduler)
    assert shipped == heap
    assert shipped.completed and shipped.events_processed > 1000

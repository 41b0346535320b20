"""Declarative sweep specifications.

A :class:`SweepSpec` names a scenario family, a set of fixed base
parameters, a grid of varied parameters and a list of replicate seeds.
Expanding it yields :class:`Cell` objects — one scenario invocation each —
in a canonical order (sorted grid keys, values in declaration order,
replicates innermost), so the cell list is a pure function of the spec.

Seed derivation is the determinism keystone: each cell's simulation seed
is derived by hashing the spec name, scenario, the cell's full parameter
assignment and the replicate index.  Two consequences:

* the same spec always produces the same seeds — independent of worker
  count, scheduling order or Python hash randomization (``hashlib``, not
  ``hash()``);
* editing one grid axis only changes the seeds of cells whose parameters
  actually changed.

Specs serialize to/from JSON so sweeps can live in version control and be
replayed byte-for-byte (the accountability-by-replay posture of the CI
pipeline).
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Union

from .adapters import ADAPTERS


def derive_seed(name: str, scenario: str, params: Dict[str, Any],
                replicate: int) -> int:
    """Deterministic per-cell seed (stable across processes and runs)."""
    payload = json.dumps([name, scenario, params, replicate],
                         sort_keys=True, default=repr)
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass
class Cell:
    """One scenario invocation of a sweep (picklable worker input)."""

    cell_id: str
    scenario: str
    params: Dict[str, Any]

    @property
    def seed(self) -> int:
        return int(self.params.get("seed", 0))


@dataclass
class SweepSpec:
    """A parameter grid over one scenario family.

    * ``base`` — keyword arguments applied to every cell;
    * ``grid`` — mapping of parameter name to the list of values to sweep
      (full cartesian product);
    * ``seeds`` — replicate seeds.  Each grid point is run once per entry,
      with the cell's simulation seed *derived* from (spec, params,
      replicate).  ``None`` disables derivation: cells run with whatever
      ``seed`` appears in ``base``/``grid`` (exact-reproduction mode, used
      by the benchmark harness to preserve historical seeds).

    Expansion is a pure function of the spec — same cells, same derived
    seeds, any process, any platform:

    >>> spec = SweepSpec(name="doc", scenario="swsr",
    ...                  base={"n": 9, "t": 1},
    ...                  grid={"kind": ["regular", "atomic"]},
    ...                  seeds=[0, 1])
    >>> [cell.cell_id for cell in spec.cells()]
    ['doc/swsr/0000', 'doc/swsr/0001', 'doc/swsr/0002', 'doc/swsr/0003']
    >>> spec.cells()[0].seed == spec.cells()[0].seed   # derived, stable
    True
    """

    name: str
    scenario: str
    base: Dict[str, Any] = field(default_factory=dict)
    grid: Dict[str, List[Any]] = field(default_factory=dict)
    seeds: Optional[List[int]] = None

    def __post_init__(self) -> None:
        if self.scenario not in ADAPTERS:
            raise ValueError(f"unknown scenario {self.scenario!r} "
                             f"(expected one of {tuple(ADAPTERS)})")
        for key, values in self.grid.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise ValueError(
                    f"grid axis {key!r} must be a non-empty list")

    # -- expansion ---------------------------------------------------------
    def grid_points(self) -> List[Dict[str, Any]]:
        """The cartesian product of the grid, in canonical order."""
        if not self.grid:
            return [dict(self.base)]
        keys = sorted(self.grid)
        points = []
        for combo in itertools.product(*(self.grid[key] for key in keys)):
            params = dict(self.base)
            params.update(zip(keys, combo))
            points.append(params)
        return points

    def cells(self) -> List[Cell]:
        """Expand to the canonical cell list (replicates innermost)."""
        cells = []
        index = 0
        for params in self.grid_points():
            for replicate in (self.seeds if self.seeds is not None
                              else [None]):
                cell_params = dict(params)
                if replicate is not None:
                    cell_params["seed"] = derive_seed(
                        self.name, self.scenario, params, replicate)
                cell_id = f"{self.name}/{self.scenario}/{index:04d}"
                cells.append(Cell(cell_id=cell_id, scenario=self.scenario,
                                  params=cell_params))
                index += 1
        return cells

    # -- (de)serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "scenario": self.scenario,
                "base": self.base, "grid": self.grid, "seeds": self.seeds}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SweepSpec":
        return cls(name=data["name"], scenario=data["scenario"],
                   base=dict(data.get("base") or {}),
                   grid={key: list(values)
                         for key, values in (data.get("grid") or {}).items()},
                   seeds=(list(data["seeds"])
                          if data.get("seeds") is not None else None))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> List["SweepSpec"]:
        """Parse one spec or a list of specs from a JSON document."""
        data = json.loads(text)
        if isinstance(data, dict):
            data = [data]
        return [cls.from_dict(entry) for entry in data]

    @classmethod
    def load(cls, path: str) -> List["SweepSpec"]:
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())


def expand(specs: Union[SweepSpec, Iterable[SweepSpec]]) -> List[Cell]:
    """Cells of one or many specs, with duplicate-id protection."""
    if isinstance(specs, SweepSpec):
        specs = [specs]
    cells: List[Cell] = []
    seen = set()
    for spec in specs:
        for cell in spec.cells():
            if cell.cell_id in seen:
                raise ValueError(f"duplicate cell id {cell.cell_id!r} "
                                 "(spec names must be unique)")
            seen.add(cell.cell_id)
            cells.append(cell)
    return cells


def smoke_specs() -> List[SweepSpec]:
    """The CI smoke sweep: 100 cells covering every scenario family.

    Small enough to finish in seconds, broad enough to cross register
    kinds, Byzantine strategies, corruption schedules, both transports,
    sync/async timing, MWMR concurrency, the fault-timeline families
    (partition-during-write, mobile Byzantine rotation), the sharded
    KV service (1/2/4 shards, with and without bursts and a Byzantine
    server per shard), live resharding under traffic (``reshard``) and
    the streaming ``soak`` family (history-free, bounded-window
    checking).  Every cell is expected to terminate and satisfy its
    consistency condition (the ``sweep/smoke`` contract pins that).
    """
    swsr = SweepSpec(
        name="smoke-swsr", scenario="swsr",
        base={"n": 9, "t": 1, "num_writes": 6, "num_reads": 6,
              "byzantine_count": 1, "max_events": 8_000_000},
        grid={
            "kind": ["regular", "atomic"],
            "byzantine_strategy": ["silent", "random-garbage"],
            "corruption_times": [[], [2.0, 5.0]],
            "transport": ["direct", "datalink"],
        },
        seeds=[0, 1],
    )
    sync = SweepSpec(
        name="smoke-swsr-sync", scenario="swsr",
        base={"n": 4, "t": 1, "synchronous": True, "num_writes": 3,
              "num_reads": 3, "byzantine_count": 1,
              "byzantine_strategy": "silent"},
        grid={"kind": ["regular"]},
        seeds=[0, 1],
    )
    mwmr = SweepSpec(
        name="smoke-mwmr", scenario="mwmr",
        base={"n": 9, "t": 1, "ops_per_process": 4},
        grid={"m": [3, 4, 5], "concurrent": [False, True]},
        seeds=[0, 1],
    )
    figure1 = SweepSpec(
        name="smoke-figure1", scenario="figure1",
        grid={"kind": ["regular", "atomic"]},
        seeds=None,
    )
    partition = SweepSpec(
        name="smoke-partition", scenario="partition",
        base={"n": 9, "t": 1, "num_writes": 6, "num_reads": 6},
        grid={
            "kind": ["regular", "atomic"],
            "corruption_times": [[], [2.0]],
        },
        seeds=[0, 1],
    )
    # rotation strategies here must keep confirming (see the mobile-byz
    # family's liveness caveat: a broadcast in flight across a rotation
    # sees *two* non-responsive servers under a silent set, which
    # legitimately starves the n-t wait).
    mobile = SweepSpec(
        name="smoke-mobile-byz", scenario="mobile-byz",
        base={"n": 9, "t": 1, "num_writes": 8, "num_reads": 8,
              "rotations": 3},
        grid={
            "kind": ["regular", "atomic"],
            "rotation_strategy": ["random-garbage", "stale"],
        },
        seeds=[0, 1],
    )
    # the kv burst fraction stays at the family default (0.2, servers
    # only).  That is not safe in general: the MWMR scan starves on a
    # register a burst leaves with too few intact copies, and the odds
    # grow with shards x keys x clients (the kv family's liveness
    # caveat); these cells are small (<= 4 shards, 2 clients, 4 keys).
    kv = SweepSpec(
        name="smoke-kv", scenario="kv",
        base={"n": 9, "t": 1, "client_count": 2, "num_keys": 4,
              "rounds": 2},
        grid={
            "shard_count": [1, 2, 4],
            "corruption_times": [[], [2.0]],
            "byzantine_count": [0, 1],
        },
        seeds=[0, 1],
    )
    # the soak cells are deliberately longer than every other family's
    # workload (160 ops vs ≤ 20) yet retain no history: they smoke-test
    # the streaming pipeline end to end, including the worker-count
    # determinism of the stream digest.
    soak = SweepSpec(
        name="smoke-soak", scenario="soak",
        base={"n": 9, "t": 1, "num_writes": 80, "num_reads": 80,
              "op_gap": 4.0, "fault_bursts": 2, "fault_period": 3.0,
              "chunk_ops": 32, "write_window": 16, "read_window": 16},
        grid={"kind": ["regular", "atomic"]},
        seeds=[0, 1],
    )
    # resharding under traffic: the default plan splits shard 0 as soon
    # as clients issue; few vnodes keep per-slot key movement likely, so
    # state transfer actually runs in the smoke budget.  Strict cells:
    # per-key linearizability must hold straight across every handoff.
    reshard = SweepSpec(
        name="smoke-reshard", scenario="reshard",
        base={"n": 9, "t": 1, "client_count": 2, "num_keys": 4,
              "rounds": 2, "vnodes": 4},
        grid={
            "shard_count": [1, 2],
            "corruption_times": [[], [2.0]],
        },
        seeds=[0, 1],
    )
    return [swsr, sync, mwmr, figure1, partition, mobile, soak, kv,
            reshard]

"""Key placement: a consistent-hash ring plus hash-derived shard seeds.

Both primitives follow the determinism discipline of the sweep
runner (``repro.runner.spec.derive_seed``): placement and seeds
are pure functions of their inputs, computed with ``hashlib`` — never
``hash()``, whose per-process randomization would scatter keys (and
executions) across runs.

* :class:`HashRing` — classic consistent hashing: every shard owns
  ``vnodes`` points on a 64-bit ring; a key lands on the first point at
  or after its own hash.  Growing the ring from ``S`` to ``S + 1`` shards
  moves only ~``1/(S+1)`` of the keys (see
  ``tests/test_kvstore_sharded.py::TestHashRing``), which is the property
  that makes resharding a production store incremental rather than a full
  reshuffle.
* :func:`derive_shard_seed` — per-shard simulation seeds, hash-derived
  from the store seed and the shard index so independent shards never
  share a random stream (two pools with the same seed would produce
  eerily correlated "independent" failures).

The ring is **mutable**: vnode *slots* keep their coordinate
forever (a slot's point is hashed from the ``(origin shard, vnode)``
pair that allocated it), while slot *ownership* is reassigned by
:meth:`HashRing.add_shard` / :meth:`HashRing.split_shard` /
:meth:`HashRing.merge_shards` / :meth:`HashRing.migrate_vnodes`.  Only
keys on reassigned slots change placement, which is what makes live
resharding (``repro.kvstore.rebalance``) incremental:

>>> ring = HashRing(4)
>>> ring.shard_for("user:alice") == ring.shard_for("user:alice")
True
>>> sorted({ring.shard_for(f"k{i}") for i in range(64)})
[0, 1, 2, 3]
>>> before = {f"k{i}": ring.shard_for(f"k{i}") for i in range(64)}
>>> new = ring.split_shard(0)
>>> moved = [k for k, s in before.items() if ring.shard_for(k) != s]
>>> all(before[key] == 0 for key in moved)  # only the split shard moves
True
>>> ring.merge_shards(new, into=0)          # round-trips the point table
>>> all(ring.shard_for(k) == s for k, s in before.items())
True
>>> derive_shard_seed(0, 0) != derive_shard_seed(0, 1)
True
"""

from __future__ import annotations

import bisect
import hashlib
import json
from typing import (Callable, Dict, Iterable, List, Optional, Tuple,
                    TypeVar)

_T = TypeVar("_T")

#: ring salt: namespaces the key hash so a key's ring position is not the
#: same value as any other sha256 use of the key elsewhere in the library.
_RING_SALT = "repro.kvstore.ring"


def _point(payload: str) -> int:
    """A stable 64-bit ring coordinate for ``payload``."""
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def derive_shard_seed(store_seed: int, shard_index: int) -> int:
    """Deterministic per-shard simulation seed (the sweep runner's
    recipe: SHA-256 over a canonical JSON payload, first four bytes)."""
    payload = json.dumps(["repro.kvstore.shard-seed", store_seed,
                          shard_index])
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


class HashRing:
    """Consistent hashing of string keys onto a mutable set of shards.

    Placement state is an ownership map ``(origin, vnode) → owner``: a
    slot's ring coordinate is pinned forever to the ``(origin shard,
    vnode)`` pair that allocated it, so reassigning ownership moves
    exactly the keys whose slots changed hands and nothing else.  Shard
    indices are never recycled — a merged-away shard keeps its index
    (owning zero slots) so handles, pipeline lanes and per-shard seeds
    stay stable across a rebalance.
    """

    def __init__(self, shard_count: int, vnodes: int = 64):
        if shard_count < 1:
            raise ValueError("need at least one shard")
        if vnodes < 1:
            raise ValueError("need at least one virtual node per shard")
        self.vnodes = vnodes
        #: ownership map: (origin shard, vnode index) -> owning shard.
        self._owners: Dict[Tuple[int, int], int] = {}
        self._allocated = shard_count
        for shard in range(shard_count):
            for vnode in range(vnodes):
                self._owners[(shard, vnode)] = shard
        self._rebuild()

    def _rebuild(self) -> None:
        points: List[Tuple[int, int]] = []
        for (origin, vnode), owner in self._owners.items():
            points.append((_point(f"{_RING_SALT}/{origin}/{vnode}"),
                           owner))
        points.sort()
        self._points = [point for point, _ in points]
        self._shards = [shard for _, shard in points]

    def _check_shard(self, shard: int, role: str) -> None:
        if not 0 <= shard < self._allocated:
            raise ValueError(f"{role} shard {shard} out of range "
                             f"(ring has shards 0..{self._allocated - 1})")

    # -- placement ---------------------------------------------------------
    @property
    def shard_count(self) -> int:
        """Shard indices allocated so far (retired shards included)."""
        return self._allocated

    def shard_for(self, key: str) -> int:
        """The shard owning ``key``: first ring point at or after its hash
        (wrapping to the lowest point past the top of the ring)."""
        where = bisect.bisect_left(self._points,
                                   _point(f"{_RING_SALT}#{key}"))
        if where == len(self._points):
            where = 0
        return self._shards[where]

    def __len__(self) -> int:
        return self._allocated

    # -- inspection --------------------------------------------------------
    def slots_of(self, shard: int) -> List[Tuple[int, int]]:
        """The ``(origin, vnode)`` slots ``shard`` owns, sorted — the
        deterministic iteration order every mutation below uses."""
        self._check_shard(shard, "queried")
        return sorted(slot for slot, owner in self._owners.items()
                      if owner == shard)

    def vnode_count(self, shard: int) -> int:
        return len(self.slots_of(shard))

    def active_shards(self) -> List[int]:
        """Shards owning at least one slot, sorted."""
        return sorted(set(self._owners.values()))

    def points_table(self) -> Tuple[Tuple[int, int], ...]:
        """The full sorted ``(point, owner)`` table — the ring's entire
        placement state, for equality checks across mutations."""
        return tuple(zip(self._points, self._shards))

    # -- mutation ----------------------------------------------------------
    def add_shard(self, vnodes: Optional[int] = None) -> int:
        """Allocate a new shard index with its own fresh slots.

        The classic ``S → S + 1`` grow: the new shard's ``vnodes`` slots
        land between existing points, so ~``1/(S+1)`` of the keys move —
        all of them *to* the new shard.  Returns the new index.
        """
        vnodes = self.vnodes if vnodes is None else vnodes
        if vnodes < 1:
            raise ValueError("need at least one virtual node per shard")
        shard = self._allocated
        self._allocated += 1
        for vnode in range(vnodes):
            self._owners[(shard, vnode)] = shard
        self._rebuild()
        return shard

    def split_shard(self, shard: int) -> int:
        """Split ``shard`` in two: a new shard takes every other one of
        its slots (odd positions in sorted slot order), so ~half of the
        split shard's keys — and nobody else's — move.  Returns the new
        shard's index.
        """
        slots = self.slots_of(shard)
        if len(slots) < 2:
            raise ValueError(f"shard {shard} owns {len(slots)} slot(s); "
                             "need at least 2 to split")
        new = self._allocated
        self._allocated += 1
        for index, slot in enumerate(slots):
            if index % 2 == 1:
                self._owners[slot] = new
        self._rebuild()
        return new

    def merge_shards(self, source: int, into: int) -> None:
        """Retire ``source`` by handing all its slots to ``into``.

        ``split_shard`` then ``merge_shards(new, into=old)`` restores the
        identical :meth:`points_table` — the round-trip property
        ``tests/test_kvstore_sharded.py::TestHashRing`` pins.
        """
        self._check_shard(source, "source")
        self._check_shard(into, "destination")
        if source == into:
            raise ValueError("cannot merge a shard into itself")
        slots = self.slots_of(source)
        if not slots:
            raise ValueError(f"shard {source} owns no slots (already "
                             "retired)")
        for slot in slots:
            self._owners[slot] = into
        self._rebuild()

    def migrate_vnodes(self, source: int, dest: int, count: int) -> None:
        """Move ``count`` slots from ``source`` to ``dest`` — the
        fine-grained rebalance (first ``count`` slots in sorted order,
        so the move is a pure function of the ring state)."""
        self._check_shard(source, "source")
        self._check_shard(dest, "destination")
        if source == dest:
            raise ValueError("cannot migrate vnodes onto their own shard")
        slots = self.slots_of(source)
        if not 1 <= count <= len(slots):
            raise ValueError(f"cannot migrate {count} vnode(s): shard "
                             f"{source} owns {len(slots)}")
        for slot in slots[:count]:
            self._owners[slot] = dest
        self._rebuild()


def partition_ops(items: Iterable[_T],
                  shard_of: Callable[[_T], int]) -> Dict[int, List[_T]]:
    """Group ``items`` by shard, preserving order within each shard.

    The one key→shard partitioning routine every execution path shares —
    ``ShardedKVStore.run_ops``, the pipelined drain, and
    :mod:`repro.parallel`'s per-shard batch slices all route through
    here, so the serial and parallel notions of "which shard owns this
    operation" cannot drift apart.
    """
    by_shard: Dict[int, List[_T]] = {}
    for item in items:
        by_shard.setdefault(shard_of(item), []).append(item)
    return by_shard


def shard_router(store) -> Callable[[str], int]:
    """Key→shard routing function for ``store``.

    A sharded store routes through its ring; a single-pool store is one
    shard, so everything maps to index 0.  (The pipeline uses this,
    keeping the "single pool behaves as one shard" convention in exactly
    one place.)
    """
    if getattr(store, "group", None) is not None:
        return store.shard_for
    return lambda key: 0

"""Named, deterministic random streams.

Every stochastic component of the simulator (each link's delay model, the
fault injector, each Byzantine strategy, workload generators) draws from its
own named stream derived from a single root seed.  Two runs with the same
root seed and the same component names therefore produce identical
executions, regardless of the order in which components are created or
queried.  This is the property that makes stabilization times exactly
reproducible (``tests/test_sim_random_source.py``).
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a child seed from ``root_seed`` and a component ``name``.

    Uses SHA-256 so the mapping is stable across Python versions and
    platforms (unlike ``hash()``, which is salted per process).
    """
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RandomSource:
    """A factory of independent, reproducible ``random.Random`` streams.

    >>> src = RandomSource(seed=42)
    >>> a = src.stream("link:w->s1")
    >>> b = src.stream("link:w->s2")
    >>> a is src.stream("link:w->s1")
    True
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(derive_seed(self.seed, name))
            self._streams[name] = stream
        return stream

    def spawn(self, name: str) -> "RandomSource":
        """Return a child source whose streams are independent of ours."""
        return RandomSource(derive_seed(self.seed, "spawn:" + name))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RandomSource(seed={self.seed}, streams={len(self._streams)})"

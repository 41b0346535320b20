"""Bounded write sequence numbers and the clockwise-distance order (§4).

The practically atomic register counts writes with ``wsn`` incremented
modulo ``2^64 + 1`` (line N1), i.e. values in ``[0, 2^64]``.  Two sequence
numbers are compared by the relation ``>=_cd``: *"given two integers x and
y, x >=_cd y iff the clockwise distance from y to x is smaller than their
anti-clockwise distance; moreover x >_cd y if x >=_cd y and x != y."*

The modulus is configurable: tests and the system-life-span experiment
(Lemma 13's caveat) use tiny moduli so wrap-around is actually exercised.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The paper's bound: wsn in [0, 2^64], i.e. arithmetic modulo 2^64 + 1.
DEFAULT_MODULUS = 2 ** 64 + 1


def clockwise_distance(start: int, end: int, modulus: int = DEFAULT_MODULUS) -> int:
    """Steps from ``start`` to ``end`` going clockwise (increasing, mod m)."""
    return (end - start) % modulus


def cd_geq(x: int, y: int, modulus: int = DEFAULT_MODULUS) -> bool:
    """``x >=_cd y``: the clockwise distance y -> x beats the anticlockwise."""
    if x == y:
        return True
    return clockwise_distance(y, x, modulus) < clockwise_distance(x, y, modulus)

def cd_gt(x: int, y: int, modulus: int = DEFAULT_MODULUS) -> bool:
    """``x >_cd y``: strictly greater in the clockwise-distance order."""
    return x != y and cd_geq(x, y, modulus)


def next_wsn(wsn: int, modulus: int = DEFAULT_MODULUS) -> int:
    """Line N1: ``wsn <- (wsn + 1) mod (2^64 + 1)`` (modulus configurable)."""
    return (wsn + 1) % modulus


@dataclass(frozen=True, slots=True)
class WsnConfig:
    """Sequence-number configuration shared by a writer/reader pair.

    ``system_life_span`` is the number of writes between two successive
    non-concurrent reads below which no new/old inversion can occur
    (half the sequence space; the paper quotes 2^63 + 1 for the default
    modulus in Lemma 13).
    """

    modulus: int = DEFAULT_MODULUS

    def __post_init__(self):
        if self.modulus < 3:
            raise ValueError("modulus must be at least 3 for >_cd to be usable")

    @property
    def system_life_span(self) -> int:
        return self.modulus // 2 + 1

    def next(self, wsn: int) -> int:
        return next_wsn(wsn, self.modulus)

    def gt(self, x: int, y: int) -> bool:
        return cd_gt(x, y, self.modulus)

    def geq(self, x: int, y: int) -> bool:
        return cd_geq(x, y, self.modulus)

    def in_domain(self, wsn) -> bool:
        return isinstance(wsn, int) and 0 <= wsn < self.modulus


#: The paper's configuration; what every role and automaton built without
#: an explicit one shares.
DEFAULT_WSN_CONFIG = WsnConfig()

"""Seeded scenario generation: one integer in, one reproducible case out.

A :class:`FuzzCase` is a *complete, serializable* description of one
experiment over a fuzz family of :data:`~repro.fuzz.families
.FUZZ_FAMILIES`: the scenario parameters it pins (validated against the
scenario family's vocabulary, so a typo fails at construction) and one
flat event vector holding fault and rebalance events alike — the vector
the ddmin shrinker drops events from.  :func:`generate_case` draws one
from the family's sampler; the sampling discipline and the adversary
envelope the samplers stay inside are documented in
:mod:`repro.fuzz.families`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Tuple

from ..faults.schedule import RESHARD_KINDS
from ..workloads.spec import FAMILIES, ScenarioSpec
from .families import (DEFAULT_FAMILY, DEFAULT_PROFILE, FuzzProfile,
                       fuzz_family)

#: flat-rendering keys that are not scenario parameters.
_CASE_KEYS = ("seed", "timeline", "max_events", "family")


@dataclass(frozen=True)
class FuzzCase:
    """One generated experiment, fully described by plain data."""

    family: str
    seed: int
    #: the scenario parameters this case pins (rendering order).
    params: Mapping[str, Any] = field(default_factory=dict)
    #: flat event vector: plain fault events, ``shard``-tagged per-shard
    #: fault events and store-scoped rebalance events.
    timeline: Tuple[Dict[str, Any], ...] = ()
    max_events: int = DEFAULT_PROFILE.max_events

    def __post_init__(self) -> None:
        fuzz_family(self.family)
        try:
            ScenarioSpec(self.family, self.scenario_kwargs())
        except TypeError as exc:   # a parameter the family does not have
            raise ValueError(
                f"malformed {self.family} fuzz case: {exc}") from None

    # -- derived -----------------------------------------------------------
    def param(self, name: str) -> Any:
        """The pinned value of ``name``, else the scenario's default."""
        return self.params.get(name, FAMILIES[self.family].defaults[name])

    def scenario_kwargs(self) -> Dict[str, Any]:
        """Parameters of the scenario family (minus backend): the pins
        plus the flat timeline folded back by event shape, into whichever
        of the three timeline parameters the family's defaults have."""
        plain: List[Dict[str, Any]] = []
        per_shard: Dict[int, List[Dict[str, Any]]] = {}
        plan: List[Dict[str, Any]] = []
        for event in self.timeline:
            entry = {key: value for key, value in event.items()
                     if key != "shard"}
            if event["kind"] in RESHARD_KINDS:
                plan.append(entry)
            elif "shard" in event:
                per_shard.setdefault(int(event["shard"]), []).append(entry)
            else:
                plain.append(entry)
        folded = {"fault_timeline": {"events": plain},
                  "fault_timelines": {shard: {"events": events}
                                      for shard, events in per_shard.items()},
                  "reshard_plan": {"events": plan}}
        defaults = FAMILIES[self.family].defaults
        # events the family has no parameter for are passed all the same:
        # the spec's validation then names the misfit, where dropping
        # them would fake a fault-free verdict.
        return {**self.params, "seed": self.seed,
                "max_events": self.max_events,
                **{key: value for key, value in folded.items()
                   if key in defaults or any(value.values())}}

    # -- (de)serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The flat rendering the shrinker memoizes and artifacts
        round-trip on: seed, pinned parameters, timeline, budget — and the
        family tag, except for the default family (whose committed corpus
        and golden fixtures predate the tag)."""
        data = {"seed": self.seed, **self.params,
                "timeline": [dict(event) for event in self.timeline],
                "max_events": self.max_events}
        if self.family != DEFAULT_FAMILY:
            data["family"] = self.family
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FuzzCase":
        """Load a flat rendering; the ``family`` tag is the dispatch
        (absent: the default family), every other key a parameter."""
        if "seed" not in data:
            raise ValueError("malformed fuzz case: no 'seed'")
        events = []
        for event in data.get("timeline") or ():
            entry = {"time": float(event["time"]), "kind": event["kind"],
                     "args": dict(event.get("args") or {})}
            if "shard" in event:
                entry["shard"] = int(event["shard"])
            events.append(entry)
        return cls(family=data.get("family", DEFAULT_FAMILY),
                   seed=data["seed"],
                   params={key: value for key, value in data.items()
                           if key not in _CASE_KEYS},
                   timeline=tuple(events),
                   max_events=data.get("max_events",
                                       DEFAULT_PROFILE.max_events))

    def with_params(self, **changes: Any) -> "FuzzCase":
        """Copy with some parameters re-pinned (shrinker hook)."""
        return replace(self, params={**self.params, **changes})

    def with_timeline(self, events) -> "FuzzCase":
        """Copy with a replacement event list (shrinker hook)."""
        return replace(self, timeline=tuple(dict(event)
                                            for event in events))


def generate_case(seed: int, profile: FuzzProfile = DEFAULT_PROFILE,
                  family: str = DEFAULT_FAMILY) -> FuzzCase:
    """The pure generator: ``(seed, profile, family) -> FuzzCase``.

    >>> case = generate_case(7)
    >>> case == generate_case(7)                 # pure function of seed
    True
    >>> case.params["n"] >= 8 * case.params["t"] + 1   # resilience envelope
    True
    >>> tagged = generate_case(7, family="kv").to_dict()
    >>> FuzzCase.from_dict(tagged).family, "family" in case.to_dict()
    ('kv', False)
    >>> FuzzCase.from_dict({**tagged, "family": "nope"})
    Traceback (most recent call last):
        ...
    ValueError: unknown fuzz family 'nope' (expected one of swsr, kv, reshard)
    """
    params, events = fuzz_family(family).sample(random.Random(seed), profile)
    return FuzzCase(family, seed, params, tuple(events), profile.max_events)

"""One config object for every scenario family: :class:`ScenarioSpec`.

Every family is one entry of the :data:`~repro.workloads.scenarios
.FAMILIES` registry — a parameter-defaults mapping plus a run function —
and a :class:`ScenarioSpec` is a single validated value over it, so
sweep code, fuzz harnesses and notebooks share one vocabulary:

>>> spec = ScenarioSpec("swsr", seed=3, num_writes=2, num_reads=2)
>>> spec.family
'swsr'
>>> result = spec.run()
>>> result.completed
True

Specs are plain data — comparable, serializable via
:meth:`ScenarioSpec.to_dict` / :meth:`ScenarioSpec.from_dict`, tweakable
via :meth:`ScenarioSpec.with_params` — and validated eagerly: an unknown
parameter or family raises at construction time, not minutes into a
sweep.  :func:`run_scenario` is the call-shaped convenience.

Families, one spelling each: ``swsr``, ``mwmr``, ``partition``, ``kv``,
``reshard``, ``mobile-byz``, ``soak``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Dict, Mapping, Tuple, Union

from .scenarios import FAMILIES

__all__ = ["FAMILIES", "ScenarioSpec", "run_scenario", "scenario_families"]

#: spec-level I/O options (not family parameters): record the run to a
#: capture file / emit periodic metrics snapshots (see ``repro.capture``).
IO_OPTIONS = ("capture", "metrics_every", "metrics_out")


def scenario_families() -> Tuple[str, ...]:
    """The family names, sorted."""
    return tuple(sorted(FAMILIES))


@dataclass(frozen=True)
class ScenarioSpec:
    """A validated, serializable description of one scenario run.

    ``params`` pin entries of the family's defaults mapping; unknown keys
    raise :class:`TypeError` immediately, with the valid vocabulary in
    the message.  Defaults are *not* materialized into the spec — a spec
    only records what the caller pinned, so serialized specs stay
    forward-compatible with new defaulted parameters.
    """

    family: str
    params: Mapping[str, Any] = field(default_factory=dict)
    #: the spec-level :data:`IO_OPTIONS`.
    capture: Any = None
    metrics_every: Any = None
    metrics_out: Any = None

    def __init__(self, family: str, params: Mapping[str, Any] = (),
                 *, capture: Any = None, metrics_every: Any = None,
                 metrics_out: Any = None, **kwargs: Any):
        merged = dict(params or {})
        overlap = sorted(set(merged) & set(kwargs))
        if overlap:
            raise TypeError(f"parameters given both positionally and as "
                            f"keywords: {', '.join(overlap)}")
        merged.update(kwargs)
        _validate_params(family, merged)
        if metrics_every is not None and not float(metrics_every) > 0:
            raise ValueError(f"metrics_every must be positive, got "
                             f"{metrics_every!r}")
        if (capture, metrics_every, metrics_out) != (None, None, None):
            _reject_multiprocess(family, merged)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "params", merged)
        object.__setattr__(self, "capture", capture)
        object.__setattr__(self, "metrics_every", metrics_every)
        object.__setattr__(self, "metrics_out", metrics_out)

    # -- ergonomics --------------------------------------------------------
    def _io(self) -> Dict[str, Any]:
        return {key: getattr(self, key) for key in IO_OPTIONS
                if getattr(self, key) is not None}

    def with_params(self, **overrides: Any) -> "ScenarioSpec":
        """A new spec with ``overrides`` merged over these params."""
        return ScenarioSpec(self.family, {**self.params, **overrides},
                            **self._io())

    def defaults(self) -> Dict[str, Any]:
        """Every parameter the family accepts, with its default value."""
        return dict(FAMILIES[self.family].defaults)

    def resolved(self) -> Dict[str, Any]:
        """Family defaults overlaid with this spec's pinned params."""
        return {**self.defaults(), **self.params}

    # -- (de)serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {"family": self.family, "params": dict(self.params),
                **self._io()}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        extra = sorted(set(payload) - {"family", "params", *IO_OPTIONS})
        if extra:
            raise ValueError(f"unexpected spec keys: {', '.join(extra)}")
        return cls(payload["family"], dict(payload.get("params") or {}),
                   **{key: payload.get(key) for key in IO_OPTIONS})

    # -- execution ---------------------------------------------------------
    def run(self) -> Any:
        """Execute the scenario; returns the family's result object.

        With ``capture=`` / ``metrics_*=`` set, the run executes under
        an active :mod:`repro.capture` session: the trace file is
        written and sealed around the family call, and the metrics
        emitter ends up in ``result.extra["metrics"]``.
        """
        run = FAMILIES[self.family].run
        resolved = SimpleNamespace(**self.resolved())
        if not self._io():
            return run(resolved)
        from ..capture.session import capturing
        with capturing(self) as session:
            result = run(resolved)
            session.finalize(result)
        if session.metrics is not None:
            result.extra["metrics"] = session.metrics
        return result


def _reject_multiprocess(family: str, params: Mapping[str, Any]) -> None:
    """Capture/metrics tap the in-process observation stream; a parallel
    runner builds its streams in worker processes where no session is
    active, so the combination would record nothing — refuse it."""
    if params.get("parallel") is not None:
        raise ValueError(
            f"capture/metrics cannot ride a parallel run "
            f"({family!r} with parallel={params['parallel']!r}); "
            f"record serially, then replay with workers")
    if family == "soak" and params.get("shards") not in (None, 1):
        raise ValueError(
            "capture/metrics cannot ride a sharded soak (worker "
            "processes); record with shards=1")


def _validate_params(family: str, params: Mapping[str, Any]) -> None:
    if not isinstance(family, str):
        raise TypeError(f"family must be a string, got {type(family).__name__}")
    if family not in FAMILIES:
        raise ValueError(
            f"unknown scenario family {family!r}; expected one of "
            f"{', '.join(scenario_families())}")
    bad_keys = [key for key in params if not isinstance(key, str)]
    if bad_keys:
        raise TypeError(f"parameter names must be strings, got "
                        f"{bad_keys!r}")
    defaults = FAMILIES[family].defaults
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise TypeError(
            f"unknown parameter(s) for scenario family {family!r}: "
            f"{', '.join(unknown)}; valid parameters: "
            f"{', '.join(defaults)}")


def as_spec(spec: Union[ScenarioSpec, str, Mapping[str, Any]],
            **params: Any) -> ScenarioSpec:
    """The one reading of a spec, family name or spec dict, with keyword
    overrides applied through :meth:`ScenarioSpec.with_params`."""
    if isinstance(spec, str):
        return ScenarioSpec(spec, params)
    if isinstance(spec, Mapping):
        spec = ScenarioSpec.from_dict(spec)
    if not isinstance(spec, ScenarioSpec):
        raise TypeError(f"spec must be a ScenarioSpec, family name or spec "
                        f"dict, got {type(spec).__name__}")
    return spec.with_params(**params) if params else spec


def run_scenario(spec: Union[ScenarioSpec, str, Mapping[str, Any]],
                 **params: Any) -> Any:
    """Run a scenario described by a spec, family name or spec dict.

    ``run_scenario("swsr", seed=1)`` builds the spec inline;
    ``run_scenario(spec)`` runs it as-is (keyword overrides allowed).
    """
    return as_spec(spec, **params).run()

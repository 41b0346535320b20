"""Deterministic reproduction of Figure 1 (new/old inversion).

The paper's Figure 1 shows a regular register where a read concurrent with
``write(1)`` returns the new value while a *later* read returns the old
one.  We realise that exact phenomenon against the Figure-2 algorithm with
an adversarial — but perfectly legal — combination of asynchrony and
Byzantine behaviour:

* ``n = 17, t = 2`` (``n >= 8t + 1`` holds: the algorithm's guarantees are
  *eventual*; during a not-yet-terminated write both outcomes are allowed
  by regularity, which is exactly the figure's point);
* ``write(v1)`` is delivered quickly to 6 correct servers and crawls to the
  other 9 (the write stays pending through both reads);
* the two Byzantine servers run :class:`~repro.faults.byzantine.FlipFlopStrategy`:
  they answer the first read with the newest value and the second with the
  oldest.  Among the ``n - t = 15`` acknowledgements each read collects,
  the first read sees 6+2 = 8 new vs 7 old (returns ``v1``) and the second
  6 new vs 7+2 = 9 old (returns ``v0``) — a new/old inversion.

Running the *same* schedule against the Figure-3 atomic register shows the
reader's ``(pwsn, pv)`` bookkeeping absorbing the attack: no inversion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence

from ..checkers.atomicity import find_new_old_inversions
from ..checkers.history import History
from ..checkers.stream import history_digest
from ..datalink.packets import SSMsg
from ..faults.byzantine import FlipFlopStrategy
from ..registers.messages import Write
from ..registers.system import (Cluster, ClusterConfig, build_swsr_atomic,
                                build_swsr_regular)
from ..sim.network import ScriptedDelay

#: servers receiving write(v1) promptly (the rest crawl).
FAST_SET = {"s3", "s4", "s5", "s6", "s7", "s8"}
#: servers whose read acknowledgements arrive last (excluded from the
#: first n-t = 15 collected).
EXCLUDED_SET = {"s16", "s17"}
BYZANTINE_SET = ("s1", "s2")

_FAST = 0.1
_SLOW_READ = 0.3
_CRAWL = 1000.0


def _is_stalled_write(message: Any) -> bool:
    return (isinstance(message, SSMsg)
            and isinstance(message.payload, Write)
            and _value_of(message.payload.value) == "v1")


def _value_of(value: Any) -> Any:
    """The data value, unwrapping the atomic register's (wsn, v) pair."""
    if isinstance(value, tuple) and len(value) == 2:
        return value[1]
    return value


def _figure1_chooser(src: str, dst: str, message: Any, rng) -> float:
    if _is_stalled_write(message) and dst not in FAST_SET \
            and dst not in BYZANTINE_SET:
        return _CRAWL
    if isinstance(message, SSMsg) and dst in EXCLUDED_SET:
        return _SLOW_READ
    return _FAST


@dataclass
class Figure1Result:
    """Outcome of one Figure-1 schedule run."""

    kind: str                     # "regular" | "atomic"
    first_read: Any
    second_read: Any
    inversions: List
    history: History

    @property
    def inverted(self) -> bool:
        return bool(self.inversions)

    def summarize(self) -> Dict[str, Any]:
        """Picklable reduction for sweep workers (``repro.runner``).

        Same contract as ``ScenarioResult.summarize()``: plain scalars
        only, deterministic, history reduced to a digest.
        """
        return {
            "kind": self.kind,
            "first_read": repr(self.first_read),
            "second_read": repr(self.second_read),
            "inverted": self.inverted,
            "inversions": len(self.inversions),
            "ops": len(self.history),
            "history_digest": history_digest(self.history),
        }


def run_figure1(kind: str = "regular", seed: int = 0) -> Figure1Result:
    """Run the Figure-1 schedule against a regular or atomic register."""
    config = ClusterConfig(n=17, t=2, seed=seed, trace_backend="null")
    cluster = Cluster(config, delay_model=ScriptedDelay(_figure1_chooser))
    if kind == "regular":
        writer, reader = build_swsr_regular(cluster, initial="v_init")
    elif kind == "atomic":
        writer, reader = build_swsr_atomic(cluster, initial="v_init")
    else:
        raise ValueError(f"unknown register kind {kind!r}")
    cluster.make_byzantine(BYZANTINE_SET, lambda server: FlipFlopStrategy())

    handles = []

    def op(time, factory):
        cluster.scheduler.schedule_at(
            time, lambda: handles.append(factory()), label="figure1-op")

    op(1.0, lambda: writer.write("v0"))       # completes quickly
    op(10.0, lambda: writer.write("v1"))      # stalls mid-propagation
    op(12.0, lambda: reader.read())           # concurrent with write(v1)
    op(16.0, lambda: reader.read())           # still concurrent

    # run the reads to completion (the stalled write finishes much later)
    cluster.scheduler.run_until(
        lambda: len(handles) == 4 and handles[2].done and handles[3].done,
        max_events=500_000)
    # let write(v1) terminate so the history is complete
    cluster.scheduler.run_until(lambda: handles[1].done,
                                max_events=500_000)

    history = History.from_handles(handles)
    inversions = find_new_old_inversions(history)
    return Figure1Result(kind=kind,
                         first_read=handles[2].result,
                         second_read=handles[3].result,
                         inversions=inversions,
                         history=history)


def figure1_comparison(seed: int = 0) -> Dict[str, Figure1Result]:
    """The paper's figure and its resolution, side by side."""
    return {kind: run_figure1(kind, seed) for kind in ("regular", "atomic")}


def figure1_sweep(seeds: Sequence[int] = (0,), workers: int = 1):
    """Both register kinds across many seeds, via the parallel sweep runner.

    Returns a :class:`repro.runner.SweepResult`; the regular cells are
    expected to invert, the atomic cells must not (each cell's ``ok``
    verdict encodes that expectation).
    """
    # imported here: repro.runner imports this module at load time.
    from ..runner import SweepSpec, run_sweep
    spec = SweepSpec(name="figure1", scenario="figure1",
                     grid={"kind": ["regular", "atomic"],
                           "seed": [int(seed) for seed in seeds]},
                     seeds=None)
    return run_sweep(spec, workers=workers)

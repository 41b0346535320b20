"""The scenario engine: client drivers wired to an observation stream.

Every scenario family used to batch-build a ``History`` from driver
handles after the run and then make separate checker passes over it.
The engine inverts that: each :class:`~repro.workloads.generators
.ClientDriver` it creates feeds completed operations straight into an
:class:`~repro.checkers.stream.ObservationStream`, so counters, the
history digest and — for SWSR-shaped runs — the full stabilization
verdict (via :class:`~repro.checkers.online.OnlineTauTracker`) are ready
the instant the simulation stops.  Retaining the materialized history is
now a *choice* (``keep_history``), not a prerequisite for checking: the
long-horizon ``soak`` family switches it off and runs under a peak-memory
budget bounded by the checkers' windows, not the run length.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional

from ..checkers.history import History
from ..checkers.online import OnlineChecker, OnlineTauTracker
from ..checkers.regularity import NO_INITIAL
from ..checkers.stabilization import StabilizationReport
from ..checkers.stream import ObservationStream
from ..sim.errors import SimulationLimitReached
from .generators import ClientDriver


class ScenarioEngine:
    """Owns the stream of one scenario run and drives its cluster.

    * ``mode`` (``"regular"`` / ``"atomic"``) attaches an
      :class:`~repro.checkers.online.OnlineTauTracker`, making the run's
      stabilization report an online by-product; ``None`` (the MWMR/KV
      families) streams counters and digest only.
    * ``keep_history`` retains the materialized
      :class:`~repro.checkers.history.History` alongside the stream —
      the default for ordinary scenarios, off for soak runs.
    * ``write_window`` / ``read_window`` / ``max_records`` /
      ``candidate_cap`` bound the tracker's memory (``None`` = exact,
      unbounded — see :mod:`repro.checkers.online`).

    It keeps the cluster's scheduler, not the cluster: its drivers report
    to it from pending handles inside the cluster (no path back).
    """

    def __init__(self, cluster, mode: Optional[str] = None,
                 initial: Any = NO_INITIAL,
                 keep_history: bool = True,
                 write_window: Optional[int] = None,
                 read_window: Optional[int] = None,
                 max_records: Optional[int] = None,
                 candidate_cap: Optional[int] = None,
                 tau_hint: Optional[float] = None,
                 retain_handles: bool = True,
                 checkers: Iterable[OnlineChecker] = ()):
        self.scheduler = cluster.scheduler
        self.retain_handles = retain_handles
        self.tracker: Optional[OnlineTauTracker] = None
        attached: List[OnlineChecker] = list(checkers)
        if mode is not None:
            self.tracker = OnlineTauTracker(
                mode=mode, initial=initial, write_window=write_window,
                read_window=read_window, max_records=max_records,
                candidate_cap=candidate_cap, tau_hint=tau_hint)
            attached.append(self.tracker)
        self.stream = ObservationStream(checkers=attached,
                                        keep_history=keep_history)
        #: count of currently busy drivers, maintained by idle-edge
        #: callbacks so the run-loop predicate is one integer compare
        #: instead of a per-event scan over every driver.
        self._busy = 0

    # -- driving -----------------------------------------------------------
    def driver(self, process) -> ClientDriver:
        """A sequential driver whose completions feed the stream."""
        return ClientDriver(self.scheduler, process,
                            observer=self.stream.observe_handle,
                            retain_handles=self.retain_handles,
                            idle_observer=self._on_idle_edge)

    def _on_idle_edge(self, idle: bool) -> None:
        self._busy += -1 if idle else 1

    def _drivers_done(self) -> bool:
        return self._busy == 0

    def run(self, max_events: int) -> bool:
        """Run the cluster until every driver drains; close the stream.

        Returns whether all operations terminated within the budget
        (``SimulationLimitReached`` surfaces as ``completed=False``,
        same contract as the batch scenarios had).
        """
        completed = self.step(max_events)
        self.stream.close()
        return completed

    def step(self, max_events: int) -> bool:
        """Like :meth:`run` but without closing the stream — the chunked
        driving loop of the soak family schedules more work afterwards."""
        try:
            self.scheduler.run_until(self._drivers_done,
                                     max_events=max_events)
        except SimulationLimitReached:
            return False
        return True

    # -- results -----------------------------------------------------------
    @property
    def history(self) -> Optional[History]:
        return self.stream.history

    def report(self, tau_no_tr: float,
               completed: bool = True) -> Optional[StabilizationReport]:
        """The run's stabilization report, straight off the stream.

        ``None`` when the run did not complete, has no reads, or no
        tracker is attached — the same cases the batch path skipped the
        (then expensive) report for.
        """
        if not completed or self.tracker is None or self.stream.reads == 0:
            return None
        self.stream.close()
        return self.tracker.report(tau_no_tr)

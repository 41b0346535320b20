"""Stabilizing MWMR atomic register — Figure 4 of the paper.

Every process ``p_i`` (``1 <= i <= m``) is both a reader and a writer.  The
construction uses one SWMR atomic register ``REG[i]`` per process (written
by ``p_i``, read by all) holding triples ``(v, epoch, seq)``:

* ``mwmr_write(v)`` (lines 01-08): read all ``REG[1..m]``; if there is no
  greatest epoch, or the greatest epoch's sequence numbers are exhausted,
  start the *next epoch* (bounded labeling of [1]); then write ``v`` with
  the greatest epoch and ``seqmax + 1``.

* ``mwmr_read()`` (lines 09-16): same scan and renewal; return the value of
  the entry with the greatest epoch and the highest sequence number,
  minimal process index breaking ties (line 15).

Entries that do not parse as a valid triple (arbitrary corrupted SWSR
content read before stabilization) are treated as epoch-less: they can
never be the maximum and their presence alone does not force renewal —
renewal triggers exactly on the paper's line-02/10 predicate evaluated over
the valid entries.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Sequence, Tuple

from ..sim.process import WaitCondition, join_all
from .base import QuorumParams, RegisterClientProcess, ServerProcess
from .bounded_seq import WsnConfig
from .epochs import Epoch, EpochLabeling
from .swmr import SWMRRegister

#: The paper's sequence-number bound inside one epoch (line 02: ``seq >= 2^64``).
DEFAULT_SEQ_BOUND = 2 ** 64


def is_valid_triple(entry: Any, labeling: EpochLabeling,
                    seq_bound: int) -> bool:
    """Shape/domain check of a ``(v, epoch, seq)`` SWMR register value."""
    return (isinstance(entry, tuple) and len(entry) == 3
            and labeling.is_valid(entry[1])
            and isinstance(entry[2], int) and 0 <= entry[2] <= seq_bound)


class MWMRRole:
    """The ``mwmr_write`` / ``mwmr_read`` automaton of process ``p_i``."""

    __slots__ = ("host", "index", "registers", "labeling", "seq_bound")

    def __init__(self, host: RegisterClientProcess, index: int,
                 registers: Sequence[SWMRRegister],
                 labeling: EpochLabeling, seq_bound: int = DEFAULT_SEQ_BOUND):
        self.host = host
        self.index = index
        self.registers = list(registers)
        self.labeling = labeling
        self.seq_bound = seq_bound

    # -- helpers ------------------------------------------------------------
    def _scan_gen(self) -> Generator[WaitCondition, None, List[Any]]:
        """Lines 01 / 09: read all ``REG[1..m]`` (concurrently)."""
        entries = yield from join_all(
            *(register.read_gen(self.host.pid) for register in self.registers))
        return list(entries)

    def _valid(self, entry: Any) -> bool:
        return is_valid_triple(entry, self.labeling, self.seq_bound)

    def _max_epoch(self, entries: List[Any]) -> Optional[Epoch]:
        epochs = [entry[1] for entry in entries if self._valid(entry)]
        if not epochs:
            return None
        return self.labeling.max_epoch(epochs)

    def _needs_new_epoch(self, entries: List[Any],
                         max_epoch: Optional[Epoch]) -> bool:
        """The renewal predicate of lines 02 / 10."""
        if max_epoch is None:
            return True
        return any(self._valid(entry) and entry[1] == max_epoch
                   and entry[2] >= self.seq_bound
                   for entry in entries)

    def _next_epoch(self, entries: List[Any]) -> Epoch:
        seen: dict = {}
        for entry in entries:
            if self._valid(entry):
                seen.setdefault(entry[1], None)
        return self.labeling.next_epoch(list(seen))

    def _winners(self, entries: List[Any],
                 max_epoch: Epoch) -> Tuple[List[int], int]:
        """Lines 05-06 / 13-14: indexes holding the max epoch, and seqmax."""
        member_indexes = [j for j, entry in enumerate(entries)
                          if self._valid(entry) and entry[1] == max_epoch]
        seqmax = max(entries[j][2] for j in member_indexes)
        return member_indexes, seqmax

    # -- operations -------------------------------------------------------------
    def write_gen(self, value: Any) -> Generator[WaitCondition, None, None]:
        entries = yield from self._scan_gen()                        # line 01
        max_epoch = self._max_epoch(entries)
        if self._needs_new_epoch(entries, max_epoch):                # line 02
            new_epoch = self._next_epoch(entries)
            entries[self.index] = (value, new_epoch, 0)              # line 03
            max_epoch = self._max_epoch(entries)
        member_indexes, seqmax = self._winners(entries, max_epoch)   # lines 05-06
        yield from self.registers[self.index].write_gen(
            (value, max_epoch, seqmax + 1))                          # line 07
        return None                                                  # line 08

    def read_gen(self) -> Generator[WaitCondition, None, Any]:
        entries = yield from self._scan_gen()                        # line 09
        max_epoch = self._max_epoch(entries)
        if self._needs_new_epoch(entries, max_epoch):                # line 10
            new_epoch = self._next_epoch(entries)
            own = entries[self.index]
            own_value = own[0] if self._valid(own) else None
            entries[self.index] = (own_value, new_epoch, 0)          # line 11
            yield from self.registers[self.index].write_gen(
                (own_value, new_epoch, 0))
            max_epoch = self._max_epoch(entries)
        member_indexes, seqmax = self._winners(entries, max_epoch)   # lines 13-14
        chosen = min(j for j in member_indexes
                     if entries[j][2] == seqmax)                     # line 15
        return entries[chosen][0]                                    # line 16


class MWMRProcess(RegisterClientProcess):
    """A process of the MWMR system: both a reader and a writer (§5.2)."""

    def __init__(self, pid, scheduler, trace):
        super().__init__(pid, scheduler, trace)
        self.mwmr_role: Optional[MWMRRole] = None

    def release(self) -> None:
        super().release()
        self.mwmr_role = None   # its registers reach every process

    def mwmr_write(self, value: Any):
        handle = self.start_operation("mwmr_write",
                                      self.mwmr_role.write_gen(value))
        handle.meta.update(kind="write", value=value, register="mwmr")
        return handle

    def mwmr_read(self):
        handle = self.start_operation("mwmr_read", self.mwmr_role.read_gen())
        handle.meta.update(kind="read", register="mwmr")
        return handle


class MWMRRegister:
    """Facade: builds the ``m`` SWMR registers and binds an MWMR role to

    each process.  ``processes`` must be :class:`MWMRProcess` instances.
    """

    __slots__ = ("labeling", "processes", "seq_bound", "swmr_registers",
                 "roles")

    def __init__(self, base_reg_id: str, processes: List[MWMRProcess],
                 servers: List[ServerProcess], params: QuorumParams,
                 labeling: Optional[EpochLabeling] = None,
                 seq_bound: int = DEFAULT_SEQ_BOUND,
                 wsn_config: Optional[WsnConfig] = None):
        m = len(processes)
        if m < 1:
            raise ValueError("need at least one process")
        self.labeling = labeling or EpochLabeling(k=max(2, m))
        if self.labeling.k < m:
            raise ValueError(
                f"epoch parameter k={self.labeling.k} must be >= m={m}")
        self.processes = list(processes)
        self.seq_bound = seq_bound
        initial_triple = (None, self.labeling.initial(), 0)
        self.swmr_registers: List[SWMRRegister] = []
        for index, writer in enumerate(processes):
            register = SWMRRegister(
                base_reg_id=f"{base_reg_id}/{index}",
                writer=writer,
                readers=list(processes),
                servers=servers,
                params=params,
                config=wsn_config,
                initial=initial_triple)
            self.swmr_registers.append(register)
        #: one role per process, in process order; ``process.mwmr_role`` is a
        #: convenience binding for the single-register case (a process used
        #: with several MWMR registers — e.g. by the KV store — addresses
        #: roles through this list instead).
        self.roles: List[MWMRRole] = []
        for index, process in enumerate(processes):
            role = MWMRRole(process, index, self.swmr_registers,
                            self.labeling, seq_bound)
            self.roles.append(role)
            process.mwmr_role = role

    def write(self, pid: str, value: Any):
        """``mwmr_write(value)`` issued by process ``pid``."""
        return self._process(pid).mwmr_write(value)

    def read(self, pid: str):
        """``mwmr_read()`` issued by process ``pid``."""
        return self._process(pid).mwmr_read()

    def _process(self, pid: str) -> MWMRProcess:
        for process in self.processes:
            if process.pid == pid:
                return process
        raise KeyError(f"no MWMR process {pid!r}")

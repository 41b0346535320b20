"""Practically stabilizing SWSR **atomic** register — Figure 3 of the paper.

Extension of the regular register: every written value is paired with a
bounded write sequence number ``wsn``; the reader keeps the highest pair
``(pwsn, pv)`` seen so far and trades an older quorum value for it (line
13M3), which eliminates new/old inversions as long as fewer than
*system-life-span* writes happen between two successive reads (Lemma 13).

Line numbering in comments follows Figure 3 (``Nx`` = new line, ``xyMz`` =
modified line ``xy``).

The server side is *identical* to Figure 2 (the stored value simply is a
pair now); we reuse :class:`~repro.registers.swsr_regular.RegularRegisterServer`
with a pair-shaped fuzzer.

Like the regular register, the roles also run in the synchronous model
(``params.synchronous=True``), giving the "similar extension" for
``n >= 3t + 1`` the paper mentions at the end of Section 4.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Generator, Optional, Tuple

from ..sim.process import WaitCondition
from ..sim.scheduler import Scheduler
from ..sim.trace import TraceBackend
from .base import (QuorumParams, RegisterClientProcess, ServerAutomaton,
                   ServerProcess, value_with_quorum)
from .bounded_seq import DEFAULT_WSN_CONFIG, WsnConfig
from .messages import BOT, AckRead, AckWrite, NewHelpVal, Read, Write
from .swsr_regular import RegularRegisterServer, _RoleBase


# Fuzzers are pure functions of the configuration, so every automaton and
# role of one configuration shares one (cached) function object.
@lru_cache(maxsize=None)
def make_pair_fuzz(config: WsnConfig):
    """Domain-respecting fuzzer for ``(wsn, value)`` pairs (and ⊥)."""

    def fuzz(rng) -> Any:
        if rng.random() < 0.15:
            return BOT
        wsn = rng.randrange(config.modulus)
        return (wsn, f"corrupt#{rng.randrange(1_000_000)}")

    return fuzz


@lru_cache(maxsize=None)
def make_wsn_fuzz(config: WsnConfig):
    """Domain-respecting fuzzer for a bare sequence number."""

    def fuzz(rng) -> int:
        return rng.randrange(config.modulus)

    return fuzz


def pv_fuzz(rng) -> str:
    """Arbitrary replacement for the reader's last returned value ``pv``."""
    return f"corrupt#{rng.randrange(1_000_000)}"


def is_pair(value: Any) -> bool:
    """Shape check for a ``(wsn, v)`` pair (guards against raw garbage)."""
    return isinstance(value, tuple) and len(value) == 2


class AtomicRegisterServer(RegularRegisterServer):
    """Server automaton of Figure 3 — lines 19-23, values now pairs."""

    __slots__ = ()

    def __init__(self, server: ServerProcess, reg_id: str,
                 initial: Any = None, config: Optional[WsnConfig] = None):
        value_fuzz = make_pair_fuzz(config or DEFAULT_WSN_CONFIG)
        super().__init__(server, reg_id, initial=initial,
                         value_fuzz=value_fuzz)


class AtomicWriterRole(_RoleBase):
    """``operation prac_at_write(v)`` — lines N1, 01M, 02-06 of Figure 3.

    ``wsn`` is writer-local corruptible state.
    """

    __slots__ = ("config", "wsn")
    CORRUPTIBLE = ("wsn",)

    def __init__(self, host: RegisterClientProcess, reg_id: str,
                 params: QuorumParams, config: Optional[WsnConfig] = None):
        super().__init__(host, reg_id, params)
        self.config = config or DEFAULT_WSN_CONFIG
        self.wsn = 0

    def fuzzer(self, attr: str):
        return make_wsn_fuzz(self.config)

    def write_gen(self, value: Any) -> Generator[WaitCondition, None, None]:
        self.wsn = self.config.next(self.wsn)                        # line N1
        pair = (self.wsn, value)
        started_at = self.host.scheduler.now
        phase = yield from self.host.ss_broadcast(
            Write(self.reg_id, pair))                                # line 01M
        yield from self._await_acks(phase, started_at)               # line 02
        helping_vals = self._column(self._take_acks(phase), AckWrite,
                                    "helping_val")
        agreed_help = value_with_quorum(
            helping_vals, self.params.help_quorum, exclude_bot=True)
        if agreed_help is None:                                      # line 03
            help_phase = yield from self.host.ss_broadcast(
                NewHelpVal(self.reg_id, pair))                       # line 04M
            self.host.retire_phase(help_phase)
        return None                                                  # line 06


class AtomicReaderRole(_RoleBase):
    """``operation prac_at_read()`` — lines N2-N7 and 07-18 of Figure 3.

    ``(pwsn, pv)`` is reader-local corruptible state: the last
    (sequence-number, value) pair returned, used to prevent new/old
    inversions (lines 13M2-13M4).
    """

    __slots__ = ("config", "pwsn", "pv")
    CORRUPTIBLE = ("pwsn", "pv")

    def __init__(self, host: RegisterClientProcess, reg_id: str,
                 params: QuorumParams, config: Optional[WsnConfig] = None,
                 initial: Any = None):
        super().__init__(host, reg_id, params)
        self.config = config or DEFAULT_WSN_CONFIG
        # (pwsn, pv) coherent with the servers' clean initial state
        # (0, initial); an arbitrary starting configuration overwrites both.
        self.pwsn = 0
        self.pv: Any = initial

    def fuzzer(self, attr: str):
        return make_wsn_fuzz(self.config) if attr == "pwsn" else pv_fuzz

    # -- helpers -----------------------------------------------------------
    def _quorum_pair(self, acks, field: str,
                     exclude_bot: bool) -> Optional[Tuple[int, Any]]:
        values = self._column(acks, AckRead, field)
        agreed = value_with_quorum(values, self.params.value_quorum,
                                   exclude_bot=exclude_bot)
        if agreed is not None and is_pair(agreed) and \
                self.config.in_domain(agreed[0]):
            return agreed
        return None

    def _sanity_check(self) -> Generator[WaitCondition, None, None]:
        """Lines N2-N7: refresh a corrupted ``(pwsn, pv)`` from the servers."""
        started_at = self.host.scheduler.now
        phase = yield from self.host.ss_broadcast(
            Read(self.reg_id, False))                                # line N2
        yield from self._await_acks(phase, started_at)               # line N3
        acks = self._take_acks(phase)
        agreed = self._quorum_pair(acks, "helping_val", exclude_bot=True)
        if agreed is not None:                                       # line N4
            wsn, value = agreed                                      # line N5
            if not self.config.in_domain(self.pwsn) or \
                    self.config.gt(self.pwsn, wsn):                  # line N6
                self.pwsn = wsn
                self.pv = value
        return None                                                  # line N7

    def read_gen(self) -> Generator[WaitCondition, None, Any]:
        yield from self._sanity_check()                              # N2-N7
        new_read = True                                              # line 07
        while True:                                                  # line 08
            started_at = self.host.scheduler.now
            phase = yield from self.host.ss_broadcast(
                Read(self.reg_id, new_read))                         # line 09
            new_read = False                                         # line 10
            yield from self._await_acks(phase, started_at)           # line 11
            acks = self._take_acks(phase)

            agreed_last = self._quorum_pair(acks, "last_val",
                                            exclude_bot=False)
            if agreed_last is not None:                              # line 12
                wsn, value = agreed_last                             # line 13M1
                if self.config.gt(wsn, self.pwsn) or \
                        not self.config.in_domain(self.pwsn):        # line 13M2
                    self.pwsn = wsn
                    self.pv = value
                    return value
                return self.pv                                       # line 13M3

            agreed_help = self._quorum_pair(acks, "helping_val",
                                            exclude_bot=True)
            if agreed_help is not None:                              # line 14
                wsn, value = agreed_help                             # line 15M
                self.pwsn = wsn
                self.pv = value
                return value
            # neither predicate held: re-enter the loop body (line 18)


class AtomicWriter(RegisterClientProcess):
    """Stand-alone writer process for the practically atomic register."""

    def __init__(self, pid: str, scheduler: Scheduler, trace: TraceBackend,
                 reg_id: str, params: QuorumParams,
                 config: Optional[WsnConfig] = None):
        super().__init__(pid, scheduler, trace)
        self.role = AtomicWriterRole(self, reg_id, params, config)

    def write(self, value: Any):
        handle = self.start_operation("prac_at_write",
                                      self.role.write_gen(value))
        handle.meta.update(kind="write", value=value,
                           register=self.role.reg_id)
        return handle


class AtomicReader(RegisterClientProcess):
    """Stand-alone reader process for the practically atomic register."""

    def __init__(self, pid: str, scheduler: Scheduler, trace: TraceBackend,
                 reg_id: str, params: QuorumParams,
                 config: Optional[WsnConfig] = None, initial: Any = None):
        super().__init__(pid, scheduler, trace)
        self.role = AtomicReaderRole(self, reg_id, params, config,
                                     initial=initial)

    def read(self):
        handle = self.start_operation("prac_at_read", self.role.read_gen())
        handle.meta.update(kind="read", register=self.role.reg_id)
        return handle


def install_servers(servers, reg_id: str, initial: Any = None,
                    config: Optional[WsnConfig] = None):
    """Attach an atomic-register automaton for ``reg_id`` to every server.

    ``initial`` is the *value* part; servers start at ``(0, initial)`` so a
    clean (uncorrupted) run has a well-defined pre-write state.
    """
    pair = (0, initial)
    return [server.add_automaton(
        AtomicRegisterServer(server, reg_id, initial=pair, config=config))
        for server in servers]

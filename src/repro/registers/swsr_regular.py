"""Stabilizing SWSR **regular** register — Figure 2 of the paper.

The code is laid out to mirror the pseudo-code line by line (line numbers in
comments refer to Figure 2).  The same roles also implement the synchronous
variant of Figure 5: when :class:`~repro.registers.base.QuorumParams` is
constructed with ``synchronous=True`` the acknowledgement wait becomes
"all ``n`` servers or a timeout" and the thresholds drop from
``(2t+1, 4t+1)`` to ``(t+1, t+1)``, exactly the lines suffixed ``.M`` in
Figure 5, tolerating ``t < n/3`` instead of ``t < n/8`` (Theorem 2).  The
atomic roles switch the same way (the "similar extension" at the end of
Section 4), and servers are oblivious to the synchrony assumption.  One
spelling builds either model: ``build_swsr_regular`` / ``build_swsr_atomic``
on a cluster whose config says ``synchronous=True``.

Roles vs processes
------------------
The protocol logic lives in *role* objects (:class:`RegularWriterRole`,
:class:`RegularReaderRole`) bound to a hosting client process, so the SWMR
and MWMR constructions can host many roles on one process.  Stand-alone
:class:`RegularWriter` / :class:`RegularReader` processes wrap a single
role for the plain SWSR usage.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Tuple

from ..datalink.packets import SSReply
from ..sim.process import AnyOf, Deadline, Predicate, WaitCondition
from ..sim.scheduler import Scheduler
from ..sim.trace import TraceBackend
from .base import (QuorumParams, RegisterClientProcess, ServerAutomaton,
                   ServerProcess, first_k, value_with_quorum)
from .messages import BOT, AckRead, AckWrite, NewHelpVal, Read, Write


def default_value_fuzz(rng) -> Any:
    """Domain-respecting arbitrary replacement for a stored value.

    Transient failures replace a variable with *some* value of its domain
    (standard self-stabilization convention); occasionally ⊥, which is legal
    for helping values.
    """
    roll = rng.random()
    if roll < 0.15:
        return BOT
    return f"corrupt#{rng.randrange(1_000_000)}"


class RegularRegisterServer(ServerAutomaton):
    """Server automaton: lines 19-23 of Figure 2.

    ``last_val`` and ``helping_val`` are the two corruptible local
    variables the paper describes; ``value_fuzz``, shared by every
    automaton of one configuration, draws a replacement for either.
    """

    __slots__ = ("last_val", "helping_val", "value_fuzz")
    CORRUPTIBLE = ("last_val", "helping_val")

    def __init__(self, server: ServerProcess, reg_id: str,
                 initial: Any = None, value_fuzz=default_value_fuzz):
        super().__init__(server, reg_id)
        self.last_val: Any = initial
        self.helping_val: Any = BOT
        self.value_fuzz = value_fuzz

    def fuzzer(self, attr: str):
        return self.value_fuzz

    def on_deliver(self, client: str, payload: Any, phase: int) -> None:
        # replies go straight through the server's outbox (``reply``/
        # ``send`` inlined: the hottest automaton in the throughput benches)
        server = self.server
        if isinstance(payload, Write):
            self.last_val = payload.value                            # line 19
            reply = SSReply(
                phase, AckWrite(self.reg_id, self.helping_val))      # line 20
        elif isinstance(payload, NewHelpVal):
            self.helping_val = payload.value                         # line 21
            return
        elif isinstance(payload, Read):
            if payload.new_read:
                self.helping_val = BOT                               # line 22
            reply = SSReply(
                phase, AckRead(self.reg_id, self.last_val,
                               self.helping_val))                    # line 23
        else:
            return
        server.outbox[client](reply)


class _RoleBase:
    """Shared machinery of writer/reader roles (ack waits, field extraction).

    A role is hosted by its client process; a subclass names its
    corruptible attributes in ``CORRUPTIBLE`` and draws their
    replacements with ``fuzzer(attr)``.
    """

    __slots__ = ("host", "reg_id", "params")
    CORRUPTIBLE: Tuple[str, ...] = ()

    def __init__(self, host: RegisterClientProcess, reg_id: str,
                 params: QuorumParams):
        self.host = host
        self.reg_id = reg_id
        self.params = params
        host.host_role(self)

    def _timeout(self) -> float:
        """Timeout covering a round trip to every correct server (§3.3).

        Only meaningful for the synchronous model, where the delay bound is
        known to the processes.
        """
        bound = self.params.delay_bound
        if bound is None:
            raise ValueError("synchronous mode requires a known delay bound")
        return 2.0 * bound * 1.25

    def _await_acks(self, phase: int,
                    started_at: float) -> Generator[WaitCondition, None, None]:
        """Line 02 / 11 (async) or 02.M / 11.M (sync: all n or timeout)."""
        if self.params.synchronous:
            deadline = Deadline(started_at + self._timeout())
            yield AnyOf(self.host.await_replies(phase, self.params.ack_quorum),
                        deadline)
        else:
            yield self.host.await_replies(phase, self.params.ack_quorum)

    def _take_acks(self, phase: int) -> List[Tuple[str, Any]]:
        """The first ``ack_quorum`` ``(server, payload)`` replies of a
        finished wait, whose phase is retired."""
        acks = first_k(self.host.replies(phase), self.params.ack_quorum)
        self.host.retire_phase(phase)
        return acks

    def _column(self, acks: List[Tuple[str, Any]], cls,
                field: str) -> List[Any]:
        """``field`` of every ack, in arrival order; a non-conforming
        (Byzantine garbage) reply contributes a token unique to its
        sender, so it can never help a quorum."""
        reg_id = self.reg_id
        return [getattr(payload, field)
                if isinstance(payload, cls) and payload.reg_id == reg_id
                else ("garbage", sender, field)
                for sender, payload in acks]


class RegularWriterRole(_RoleBase):
    """``operation write(v)`` — lines 01-06 of Figure 2."""

    __slots__ = ()

    def write_gen(self, value: Any) -> Generator[WaitCondition, None, None]:
        started_at = self.host.scheduler.now
        phase = yield from self.host.ss_broadcast(
            Write(self.reg_id, value))                               # line 01
        yield from self._await_acks(phase, started_at)               # line 02
        helping_vals = self._column(self._take_acks(phase), AckWrite,
                                    "helping_val")
        agreed_help = value_with_quorum(
            helping_vals, self.params.help_quorum, exclude_bot=True)
        if agreed_help is None:                                      # line 03
            help_phase = yield from self.host.ss_broadcast(
                NewHelpVal(self.reg_id, value))                      # line 04
            self.host.retire_phase(help_phase)
        return None                                                  # line 06


class RegularReaderRole(_RoleBase):
    """``operation read()`` — lines 07-18 of Figure 2."""

    __slots__ = ()

    def read_gen(self) -> Generator[WaitCondition, None, Any]:
        new_read = True                                              # line 07
        while True:                                                  # line 08
            started_at = self.host.scheduler.now
            phase = yield from self.host.ss_broadcast(
                Read(self.reg_id, new_read))                         # line 09
            new_read = False                                         # line 10
            yield from self._await_acks(phase, started_at)           # line 11
            acks = self._take_acks(phase)
            last_vals = self._column(acks, AckRead, "last_val")
            value = value_with_quorum(last_vals, self.params.value_quorum)
            if value is not None:                                    # line 12
                return value                                         # line 13
            helping_vals = self._column(acks, AckRead, "helping_val")
            help_value = value_with_quorum(
                helping_vals, self.params.value_quorum, exclude_bot=True)
            if help_value is not None:                               # line 14
                return help_value                                    # line 15
            # neither predicate held: re-enter the loop body (line 18)


class RegularWriter(RegisterClientProcess):
    """Stand-alone writer process ``p_w`` hosting one writer role."""

    def __init__(self, pid: str, scheduler: Scheduler, trace: TraceBackend,
                 reg_id: str, params: QuorumParams):
        super().__init__(pid, scheduler, trace)
        self.role = RegularWriterRole(self, reg_id, params)

    def write(self, value: Any):
        """Invoke ``REG.write(value)``; returns an operation handle."""
        handle = self.start_operation("write", self.role.write_gen(value))
        handle.meta.update(kind="write", value=value,
                           register=self.role.reg_id)
        return handle


class RegularReader(RegisterClientProcess):
    """Stand-alone reader process ``p_r`` hosting one reader role."""

    def __init__(self, pid: str, scheduler: Scheduler, trace: TraceBackend,
                 reg_id: str, params: QuorumParams):
        super().__init__(pid, scheduler, trace)
        self.role = RegularReaderRole(self, reg_id, params)

    def read(self):
        """Invoke ``REG.read()``; returns an operation handle."""
        handle = self.start_operation("read", self.role.read_gen())
        handle.meta.update(kind="read", register=self.role.reg_id)
        return handle


def install_servers(servers: List[ServerProcess], reg_id: str,
                    initial: Any = None) -> List[RegularRegisterServer]:
    """Attach a regular-register automaton for ``reg_id`` to every server."""
    return [server.add_automaton(
        RegularRegisterServer(server, reg_id, initial=initial))
        for server in servers]

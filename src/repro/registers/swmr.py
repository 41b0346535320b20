"""Stabilizing SWMR atomic register — Section 5.1 of the paper.

*"The technique to obtain a SWMR atomic register from SWSR atomic registers
is a classical one [13, 15].  The writer interacts with each reader,
writing the same value to all readers, the servers maintaining variables
for each reader."*

Concretely: for a base register ``X`` with readers ``r1..rm``, every server
hosts one SWSR atomic automaton per reader (register ids ``X/r1 ... X/rm``),
the writer runs one SWSR writer role per reader and a ``swmr_write(v)``
pushes ``v`` through *all* copies concurrently (completing only when every
copy write finished), and reader ``rj`` reads its own copy ``X/rj``.

The paper asserts atomicity follows because each copy is atomic and every
write goes to all copies; the well-known caveat (reads by *different*
readers overlapping a write may still order differently) is inherited
faithfully.  ``tests/test_registers_swmr.py::TestConcurrency`` pins reads
that overlap a write, and ``benchmarks/test_bench_t4_mwmr.py`` (T4a)
checks that the MWMR histories built on this register linearize.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from ..sim.process import WaitCondition, join_all
from .base import QuorumParams, RegisterClientProcess, ServerProcess
from .bounded_seq import WsnConfig
from .swsr_atomic import (AtomicReaderRole, AtomicRegisterServer,
                          AtomicWriterRole)


def copy_reg_id(base_reg_id: str, reader_pid: str) -> str:
    """Register id of reader ``reader_pid``'s SWSR copy of ``base_reg_id``."""
    return f"{base_reg_id}/{reader_pid}"


def install_swmr_servers(servers: List[ServerProcess], base_reg_id: str,
                         reader_pids: List[str], initial: Any = None,
                         config: Optional[WsnConfig] = None) -> None:
    """Attach one SWSR atomic automaton per reader to every server."""
    pair = (0, initial)     # immutable: every copy may share it
    for reader_pid in reader_pids:
        reg_id = copy_reg_id(base_reg_id, reader_pid)
        for server in servers:
            server.add_automaton(
                AtomicRegisterServer(server, reg_id, initial=pair,
                                     config=config))


class SWMRWriterRole:
    """``swmr_write(v)``: write ``v`` to every reader's copy, concurrently."""

    __slots__ = ("host", "base_reg_id", "copies")

    def __init__(self, host: RegisterClientProcess, base_reg_id: str,
                 reader_pids: List[str], params: QuorumParams,
                 config: Optional[WsnConfig] = None):
        self.host = host
        self.base_reg_id = base_reg_id
        self.copies: Dict[str, AtomicWriterRole] = {
            reader_pid: AtomicWriterRole(
                host, copy_reg_id(base_reg_id, reader_pid), params, config)
            for reader_pid in reader_pids
        }

    def write_gen(self, value: Any) -> Generator[WaitCondition, None, None]:
        yield from join_all(
            *(copy.write_gen(value) for copy in self.copies.values()))
        return None


class SWMRReaderRole:
    """``swmr_read()`` for one reader: an SWSR read of its own copy."""

    __slots__ = ("host", "base_reg_id", "inner")

    def __init__(self, host: RegisterClientProcess, base_reg_id: str,
                 params: QuorumParams, config: Optional[WsnConfig] = None,
                 initial: Any = None):
        self.host = host
        self.base_reg_id = base_reg_id
        self.inner = AtomicReaderRole(
            host, copy_reg_id(base_reg_id, host.pid), params, config,
            initial=initial)

    def read_gen(self) -> Generator[WaitCondition, None, Any]:
        value = yield from self.inner.read_gen()
        return value


class SWMRRegister:
    """Facade tying together the writer role, reader roles and servers.

    ``writer`` and each process in ``readers`` must be
    :class:`~repro.registers.base.RegisterClientProcess` instances already
    attached to the cluster's network and transport.
    """

    __slots__ = ("base_reg_id", "params", "writer", "readers", "writer_role",
                 "reader_roles")

    def __init__(self, base_reg_id: str, writer: RegisterClientProcess,
                 readers: List[RegisterClientProcess],
                 servers: List[ServerProcess], params: QuorumParams,
                 config: Optional[WsnConfig] = None, initial: Any = None):
        self.base_reg_id = base_reg_id
        self.params = params
        self.writer = writer
        self.readers = {reader.pid: reader for reader in readers}
        reader_pids = [reader.pid for reader in readers]
        install_swmr_servers(servers, base_reg_id, reader_pids,
                             initial=initial, config=config)
        self.writer_role = SWMRWriterRole(writer, base_reg_id, reader_pids,
                                          params, config)
        self.reader_roles: Dict[str, SWMRReaderRole] = {
            reader.pid: SWMRReaderRole(reader, base_reg_id, params, config,
                                       initial=initial)
            for reader in readers
        }

    # -- generator access (used by the MWMR construction) ---------------------
    def write_gen(self, value: Any) -> Generator[WaitCondition, None, None]:
        return self.writer_role.write_gen(value)

    def read_gen(self, reader_pid: str) -> Generator[WaitCondition, None, Any]:
        return self.reader_roles[reader_pid].read_gen()

    # -- operation API ---------------------------------------------------------
    def write(self, value: Any):
        """``swmr_write(v)`` as a tracked operation on the writer process."""
        handle = self.writer.start_operation("swmr_write",
                                             self.write_gen(value))
        handle.meta.update(kind="write", value=value,
                           register=self.base_reg_id)
        return handle

    def read(self, reader_pid: str):
        """``swmr_read()`` as a tracked operation on reader ``reader_pid``."""
        reader = self.readers[reader_pid]
        handle = reader.start_operation("swmr_read", self.read_gen(reader_pid))
        handle.meta.update(kind="read", register=self.base_reg_id)
        return handle

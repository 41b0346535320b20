"""Algorithm-level messages of the register protocols (Figures 2, 3, 5).

Every message carries the ``reg_id`` of the register instance it concerns,
which lets one server process host many register instances (used by the
SWMR construction's per-reader copies and by the KV store).

``BOT`` is the distinguished "no helping value" marker the paper writes
as ⊥.  It is a singleton so corrupted values can never be accidentally
equal to it unless the fuzzer deliberately injects it (which it may:
⊥ is a legal corrupted value).

The broadcast payloads (:class:`Write`, :class:`Read`, :class:`NewHelpVal`)
are shared by all ``n`` receiving servers and therefore frozen; the
acknowledgements (:class:`AckWrite`, :class:`AckRead`) are built per
delivery for one client and are plain slotted value classes — see
``repro.datalink.packets``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


class _Bottom:
    """Singleton ⊥ marker."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "⊥"

    def __reduce__(self):  # keep singleton identity across copy/pickle
        return (_Bottom, ())


BOT = _Bottom()


@dataclass(frozen=True, slots=True)
class Write:
    """WRITE(v) — line 01 of Figure 2 / 01M of Figure 3.

    For the atomic register, ``value`` is the pair ``(wsn, v)``.
    """

    reg_id: str
    value: Any


@dataclass(slots=True, unsafe_hash=True)
class AckWrite:
    """ACK_WRITE(helping_val) — line 20."""

    reg_id: str
    helping_val: Any


@dataclass(frozen=True, slots=True)
class NewHelpVal:
    """NEW_HELP_VAL(v) — line 04."""

    reg_id: str
    value: Any


@dataclass(frozen=True, slots=True)
class Read:
    """READ(new_read) — line 09 (and N2 of Figure 3)."""

    reg_id: str
    new_read: bool


@dataclass(slots=True, unsafe_hash=True)
class AckRead:
    """ACK_READ(last_val, helping_val) — line 23."""

    reg_id: str
    last_val: Any
    helping_val: Any

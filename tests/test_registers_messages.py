"""Unit tests for protocol messages and the ⊥ marker."""

import copy

from repro.registers.messages import (BOT, AckRead, AckWrite, NewHelpVal,
                                      Read, Write, _Bottom)


def test_bot_is_singleton():
    assert _Bottom() is BOT


def test_bot_survives_copy():
    assert copy.copy(BOT) is BOT
    assert copy.deepcopy(BOT) is BOT


def test_bot_repr():
    assert repr(BOT) == "⊥"


def test_bot_distinct_from_none_and_strings():
    assert BOT is not None
    assert BOT != "⊥"


def test_messages_are_hashable_and_frozen():
    write = Write("reg", "v")
    assert hash(write) == hash(Write("reg", "v"))
    ack = AckRead("reg", "a", BOT)
    assert ack == AckRead("reg", "a", BOT)


def test_message_fields():
    assert Write("reg", 5).value == 5
    assert NewHelpVal("reg", 5).value == 5
    assert Read("reg", True).new_read
    assert AckWrite("reg", BOT).helping_val is BOT
    assert AckRead("reg", 1, 2).last_val == 1


def test_reply_side_messages_are_plain_values_with_the_frozen_contract():
    """Built per delivery (or, for the footnote-3 packets, per
    transmission) for one receiver: no frozen ``__init__``, but the same
    field names, ``repr``, ``==``, ``hash`` and pickling."""
    import pickle

    from repro.datalink.packets import AckPacket, DataPacket, SSConfirm, SSReply

    samples = [
        (SSConfirm(3), "SSConfirm(phase=3)", (3,)),
        (SSReply(3, "x"), "SSReply(phase=3, payload='x')", (3, "x")),
        (DataPacket(1, (4, "x"), 5), "DataPacket(bit=1, body=(4, 'x'), tag=5)",
         (1, (4, "x"), 5)),
        (AckPacket(0, 5), "AckPacket(bit=0, tag=5)", (0, 5)),
        (AckWrite("reg", BOT), "AckWrite(reg_id='reg', helping_val=⊥)",
         ("reg", BOT)),
        (AckRead("reg", 1, 2),
         "AckRead(reg_id='reg', last_val=1, helping_val=2)", ("reg", 1, 2)),
    ]
    for message, text, fields in samples:
        cls = type(message)
        assert repr(message) == text
        assert message == cls(*fields) and hash(message) == hash(fields)
        assert message != cls(*fields[:-1], "other")
        assert message != fields
        for clone in (pickle.loads(pickle.dumps(message)),
                      copy.copy(message), copy.deepcopy(message)):
            assert clone == message and type(clone) is cls
        assert not hasattr(message, "__dict__")
    assert SSReply(3, AckWrite("reg", BOT)) == SSReply(3, AckWrite("reg", BOT))
    # the tag defaults to 0, as the frozen packets' did
    assert DataPacket(0, "m") == DataPacket(0, "m", 0)
    assert AckPacket(1) == AckPacket(1, 0) != AckPacket(1, 1)
    assert {DataPacket(0, "m"), DataPacket(0, "m", 0)} == {DataPacket(0, "m")}
    assert pickle.loads(pickle.dumps(AckWrite("reg", BOT))).helping_val is BOT


def test_messages_shared_by_all_receivers_stay_frozen():
    """One object goes to all n servers: a Byzantine strategy must not be
    able to edit what the others will read."""
    import dataclasses

    import pytest

    from repro.datalink.packets import SSMsg

    for message, field in ((SSMsg(1, "w", "payload"), "payload"),
                           (Write("reg", 5), "value"),
                           (Read("reg", True), "new_read"),
                           (NewHelpVal("reg", 5), "value")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(message, field, "edited")

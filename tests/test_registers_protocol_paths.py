"""Line-level protocol-path tests with hand-crafted reply quorums.

These drive the writer/reader coroutines against a fake transport whose
replies we inject directly, pinning down each branch of Figures 2 and 3:
the last-value return (lines 12-13), the helping-value return (lines
14-15), the loop re-entry (line 18), the writer's helping predicate (line
03), and the atomic reader's cache/adopt decisions (lines 13M2-13M4, N6).
"""

import pytest

from repro.datalink.packets import SSReply
from repro.registers.base import QuorumParams, RegisterClientProcess
from repro.registers.bounded_seq import WsnConfig
from repro.registers.messages import (BOT, AckRead, AckWrite, NewHelpVal,
                                      Read, Write)
from repro.registers.swsr_atomic import AtomicReaderRole, AtomicWriterRole
from repro.registers.swsr_regular import (RegularReaderRole,
                                          RegularWriterRole)
from repro.sim.scheduler import Scheduler
from repro.sim.trace import FullTrace


class FakeTransport:
    """Broadcasts complete instantly and record what was sent."""

    class _Handle:
        def __init__(self, phase):
            self.phase = phase

        def completed(self):
            return True

    def __init__(self):
        self.begun = []
        self._next_phase = 0

    def begin(self, payload):
        self._next_phase += 1
        self.begun.append(payload)
        return self._Handle(self._next_phase)

    def on_network_message(self, src, msg):
        return False

    def retire(self, phase):
        pass


class Harness:
    """A client process with a fake transport and reply injection."""

    def __init__(self):
        self.scheduler = Scheduler()
        self.trace = FullTrace()
        self.client = RegisterClientProcess("c", self.scheduler, self.trace)
        self.transport = FakeTransport()
        self.client.attach_transport(self.transport)
        self.params = QuorumParams(n=9, t=1)  # ack 8, value 3, help 5

    def start(self, generator, name="op"):
        return self.client.start_operation(name, generator)

    def current_phase(self):
        return self.transport._next_phase

    def inject(self, replies):
        """Deliver one reply per (server, payload) for the current phase."""
        phase = self.current_phase()
        for server, payload in replies:
            self.client.deliver(server, SSReply(phase, payload))

    def run(self):
        self.scheduler.run(max_events=10_000)


def acks_read(values):
    """[(server, AckRead)] from a list of (last_val, helping_val)."""
    return [(f"s{index + 1}", AckRead("reg", last, helping))
            for index, (last, helping) in enumerate(values)]


def acks_write(helping_values):
    return [(f"s{index + 1}", AckWrite("reg", helping))
            for index, helping in enumerate(helping_values)]


class TestRegularReaderPaths:
    def make_reader(self):
        harness = Harness()
        role = RegularReaderRole(harness.client, "reg", harness.params)
        return harness, role

    def test_line_12_last_value_quorum(self):
        harness, role = self.make_reader()
        handle = harness.start(role.read_gen())
        harness.run()
        harness.inject(acks_read([("v", BOT)] * 8))
        assert handle.done
        assert handle.result == "v"

    def test_lines_14_15_helping_value_return(self):
        """No last-value quorum, but 2t+1 equal helping values: return w."""
        harness, role = self.make_reader()
        handle = harness.start(role.read_gen())
        harness.run()
        # 8 distinct last values (no quorum); helping agrees on "help" x3
        rows = [(f"x{i}", "help" if i < 3 else BOT) for i in range(8)]
        harness.inject(acks_read(rows))
        assert handle.done
        assert handle.result == "help"

    def test_bot_helping_values_do_not_count(self):
        """Line 14 requires w != ⊥: an all-⊥ helping column loops."""
        harness, role = self.make_reader()
        handle = harness.start(role.read_gen())
        harness.run()
        rows = [(f"x{i}", BOT) for i in range(8)]
        harness.inject(acks_read(rows))
        assert not handle.done  # re-entered the loop (line 18)
        # the loop re-broadcast READ(false):
        assert isinstance(harness.transport.begun[-1], Read)
        assert harness.transport.begun[-1].new_read is False

    def test_loop_reentry_then_success(self):
        harness, role = self.make_reader()
        handle = harness.start(role.read_gen())
        harness.run()
        harness.inject(acks_read([(f"x{i}", BOT) for i in range(8)]))
        assert not handle.done
        harness.inject(acks_read([("settled", BOT)] * 8))
        assert handle.done
        assert handle.result == "settled"

    def test_first_broadcast_is_new_read(self):
        harness, role = self.make_reader()
        harness.start(role.read_gen())
        harness.run()
        first = harness.transport.begun[0]
        assert isinstance(first, Read)
        assert first.new_read is True

    def test_byzantine_garbage_replies_never_form_quorum(self):
        harness, role = self.make_reader()
        handle = harness.start(role.read_gen())
        harness.run()
        # 6 garbage (non-AckRead) replies + 2 honest: no quorum anywhere
        replies = [(f"s{i}", "not-an-ack") for i in range(6)]
        replies += [("s7", AckRead("reg", "v", BOT)),
                    ("s8", AckRead("reg", "v", BOT))]
        harness.inject(replies)
        assert not handle.done

    def test_wrong_register_replies_ignored_for_quorum(self):
        harness, role = self.make_reader()
        handle = harness.start(role.read_gen())
        harness.run()
        replies = [(f"s{i}", AckRead("other", "v", BOT)) for i in range(8)]
        harness.inject(replies)
        assert not handle.done


class TestRegularWriterPaths:
    def make_writer(self):
        harness = Harness()
        role = RegularWriterRole(harness.client, "reg", harness.params)
        return harness, role

    def test_line_03_false_skips_new_help_val(self):
        """4t+1 = 5 equal non-⊥ helping values: no NEW_HELP_VAL broadcast."""
        harness, role = self.make_writer()
        handle = harness.start(role.write_gen("v"))
        harness.run()
        harness.inject(acks_write(["w"] * 5 + [BOT] * 3))
        assert handle.done
        kinds = [type(p) for p in harness.transport.begun]
        assert kinds == [Write]

    def test_line_03_true_broadcasts_new_help_val(self):
        harness, role = self.make_writer()
        handle = harness.start(role.write_gen("v"))
        harness.run()
        harness.inject(acks_write([BOT] * 8))
        assert handle.done
        kinds = [type(p) for p in harness.transport.begun]
        assert kinds == [Write, NewHelpVal]
        assert harness.transport.begun[1].value == "v"

    def test_bot_never_counts_as_agreed_help(self):
        """Even 8 equal ⊥ values trigger the refresh (w != ⊥ required)."""
        harness, role = self.make_writer()
        handle = harness.start(role.write_gen("v"))
        harness.run()
        harness.inject(acks_write([BOT] * 8))
        assert any(isinstance(p, NewHelpVal)
                   for p in harness.transport.begun)

    def test_write_payload_carries_value(self):
        harness, role = self.make_writer()
        harness.start(role.write_gen("payload"))
        harness.run()
        assert harness.transport.begun[0] == Write("reg", "payload")


class TestAtomicReaderPaths:
    def make_reader(self, pwsn=0, pv=None, modulus=1000):
        harness = Harness()
        role = AtomicReaderRole(harness.client, "reg", harness.params,
                                WsnConfig(modulus), initial=pv)
        role.pwsn = pwsn
        role.pv = pv
        return harness, role

    def finish_sanity(self, harness, helping=BOT):
        """Answer the N2-N3 sanity broadcast (no helping quorum)."""
        harness.inject(acks_read([(f"junk{i}", helping) for i in range(8)]))

    def test_line_13m2_adopts_newer_pair(self):
        harness, role = self.make_reader(pwsn=1, pv="old")
        handle = harness.start(role.read_gen())
        harness.run()
        self.finish_sanity(harness)
        harness.inject(acks_read([((5, "new"), BOT)] * 8))
        assert handle.result == "new"
        assert role.pwsn == 5

    def test_line_13m3_returns_cached_on_stale_quorum(self):
        harness, role = self.make_reader(pwsn=9, pv="cached")
        handle = harness.start(role.read_gen())
        harness.run()
        self.finish_sanity(harness)
        harness.inject(acks_read([((5, "older"), BOT)] * 8))
        assert handle.result == "cached"
        assert role.pwsn == 9  # unchanged

    def test_line_15m_helping_return_is_adopted(self):
        harness, role = self.make_reader(pwsn=9, pv="cached")
        handle = harness.start(role.read_gen())
        harness.run()
        self.finish_sanity(harness)
        rows = [(f"junk{i}", (3, "helped") if i < 3 else BOT)
                for i in range(8)]
        harness.inject(acks_read(rows))
        assert handle.result == "helped"
        assert role.pwsn == 3  # line 15M overwrites unconditionally

    def test_line_n6_sanity_check_repairs_pwsn(self):
        """A helping quorum with a *smaller* wsn pulls a corrupted pwsn back."""
        harness, role = self.make_reader(pwsn=100, pv="corrupt")
        handle = harness.start(role.read_gen())
        harness.run()
        # sanity phase: 3 equal helping pairs at wsn 2; with modulus 1000,
        # 100 >_cd 2 (clockwise distance 2->100 is 98 < 902), so the
        # reader's pwsn raced ahead and must be pulled back (line N6)
        rows = [(f"junk{i}", (2, "real") if i < 3 else BOT)
                for i in range(8)]
        harness.inject(acks_read(rows))
        assert role.pwsn == 2
        assert role.pv == "real"
        # loop phase then confirms with a last-value quorum at wsn 2
        harness.inject(acks_read([((2, "real"), BOT)] * 8))
        assert handle.result == "real"

    def test_sanity_check_keeps_pwsn_when_servers_are_ahead(self):
        harness, role = self.make_reader(pwsn=1, pv="mine")
        handle = harness.start(role.read_gen())
        harness.run()
        rows = [(f"junk{i}", (4, "ahead") if i < 3 else BOT)
                for i in range(8)]
        harness.inject(acks_read(rows))
        assert role.pwsn == 1  # 4 >cd 1: servers ahead, N6 does not adopt
        harness.inject(acks_read([((4, "ahead"), BOT)] * 8))
        assert handle.result == "ahead"

    def test_malformed_pair_quorum_does_not_crash(self):
        """A corrupted-equal quorum of non-pairs loops instead of crashing."""
        harness, role = self.make_reader()
        handle = harness.start(role.read_gen())
        harness.run()
        self.finish_sanity(harness)
        harness.inject(acks_read([("not-a-pair", BOT)] * 8))
        assert not handle.done  # shape guard: keep looping


class TestAtomicWriterPaths:
    def test_line_n1_wsn_increment_and_pair_payload(self):
        harness = Harness()
        role = AtomicWriterRole(harness.client, "reg", harness.params,
                                WsnConfig(10))
        role.wsn = 8
        handle = harness.start(role.write_gen("v"))
        harness.run()
        assert harness.transport.begun[0] == Write("reg", (9, "v"))
        harness.inject(acks_write([BOT] * 8))
        assert handle.done
        # second write wraps the modulus
        handle = harness.start(role.write_gen("w"))
        harness.run()
        assert harness.transport.begun[-2] == Write("reg", (0, "w")) or \
            any(p == Write("reg", (0, "w")) for p in harness.transport.begun)

    def test_help_refresh_carries_the_pair(self):
        harness = Harness()
        role = AtomicWriterRole(harness.client, "reg", harness.params)
        handle = harness.start(role.write_gen("v"))
        harness.run()
        harness.inject(acks_write([BOT] * 8))
        refresh = [p for p in harness.transport.begun
                   if isinstance(p, NewHelpVal)]
        assert refresh and refresh[0].value == (1, "v")

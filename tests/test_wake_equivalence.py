"""The shipped wake rule vs the re-poll-always oracle.

A delivery re-evaluates a pending *edge-triggered* wait condition only
when ``on_message`` reports a crossing (``Process.deliver``, the one
place the rule is written: every network route delivers through it).
The rule it replaced — re-evaluate after
every delivery — is what every condition still gets when it is *level*,
so forcing every condition class to level is an executable reference for
the shipped rule, the way ``HeapScheduler`` is for the shipped kernel.
No option selects it: the tests patch the class attribute.

* scenario level: one cell per family plus the cells that mix in level
  conditions (synchronous deadlines, datalink handles) and a moving
  adversary, full summaries compared under the fused and the general
  delivery path;
* counts: what the rule saves, in ``satisfied()`` calls, and what the
  datalink transport saves in polls, which repeat exactly for a seed on
  any machine;
* unit level: the arrivals that could lose or fake a wake.
"""

from functools import partial

import pytest

from repro.api import run_scenario
from repro.datalink.packets import AckPacket, SSConfirm, SSReply
from repro.datalink.ss_broadcast import DataLinkClientTransport
from repro.registers.system import Cluster, ClusterConfig
from repro.sim.process import Process, WaitCondition

from test_cross_kernel import FAMILY_CELLS

CELLS = {family: (family, params) for family, params in FAMILY_CELLS.items()}
CELLS.update({
    # AnyOf(replies, Deadline): level, and deliveries tie with deadlines
    "swsr-sync-n10": ("swsr", dict(seed=5, n=10, t=3, synchronous=True,
                                   num_writes=3, num_reads=3)),
    # confirmations arrive through explicit poll() calls, replies by mail
    "swsr-datalink": ("swsr", dict(seed=5, kind="atomic", n=9, t=1,
                                   num_writes=2, num_reads=2,
                                   transport="datalink")),
    # garbage, equivocation and stale replies while the faulty set moves
    "soak-rotation": ("soak", dict(seed=5, kind="atomic", n=17, t=2,
                                   num_writes=8, num_reads=8, fault_bursts=1,
                                   rotations=2,
                                   rotation_strategy="equivocate",
                                   byzantine_count=1,
                                   byzantine_strategy="stale")),
})


def _condition_classes(root=WaitCondition):
    for cls in root.__subclasses__():
        yield cls
        yield from _condition_classes(cls)


def force_level(monkeypatch):
    """Make every wait condition level: re-polled after each delivery."""
    edge = [cls for cls in set(_condition_classes())
            if cls.__dict__.get("edge_triggered")]
    assert edge, "no edge-triggered condition class left to patch"
    for cls in edge:
        monkeypatch.setattr(cls, "edge_triggered", False)


def count_evaluations(monkeypatch):
    """Count ``satisfied()`` calls over all condition classes."""
    calls = [0]
    for cls in set(_condition_classes()):
        if "satisfied" in cls.__dict__:
            def counted(self, _inner=cls.__dict__["satisfied"]):
                calls[0] += 1
                return _inner(self)
            monkeypatch.setattr(cls, "satisfied", counted)
    return calls


@pytest.mark.parametrize("backend", ["full", "null"])
@pytest.mark.parametrize("cell", sorted(CELLS))
def test_edge_and_level_rules_produce_identical_summaries(cell, backend,
                                                          monkeypatch):
    family, params = CELLS[cell]
    params = dict(params, trace_backend=backend)
    shipped = run_scenario(family, **params).summarize()
    with monkeypatch.context() as patch:
        force_level(patch)
        oracle = run_scenario(family, **params).summarize()
    assert shipped == oracle
    assert shipped.completed and shipped.events_processed > 0


#: ``satisfied()`` calls on the cell below at the parent of the change
#: that introduced the rule, per trace backend.  ``full`` delivers
#: through a recording receiver, ``null`` straight into
#: ``Process.deliver``: the bound holds on both routes.
REPOLL_ALWAYS_EVALUATIONS = {"null": 216_037, "full": 203_437}


@pytest.mark.parametrize("backend", sorted(REPOLL_ALWAYS_EVALUATIONS))
def test_condition_evaluations_per_run(backend, monkeypatch):
    calls = count_evaluations(monkeypatch)
    result = run_scenario("mwmr", m=3, n=9, t=1, ops_per_process=50, seed=7,
                          trace_backend=backend)
    summary = result.summarize()
    assert summary.events_processed == 69_449
    assert summary.messages_sent == 68_850
    assert calls[0] <= 0.40 * REPOLL_ALWAYS_EVALUATIONS[backend]


def test_forcing_level_restores_a_poll_per_delivery(monkeypatch):
    """The oracle really is the other rule, not the shipped one twice."""
    params = dict(m=2, n=9, t=1, ops_per_process=3, seed=7,
                  trace_backend="null")
    calls = count_evaluations(monkeypatch)
    run_scenario("mwmr", **params)
    shipped, calls[0] = calls[0], 0
    force_level(monkeypatch)
    run_scenario("mwmr", **params)
    assert calls[0] > 2 * shipped


#: ``Process.poll`` calls on the ``swsr-datalink`` cell, on either
#: backend, at the parent of the change that stopped polling the client
#: after every ack arrival; 720 of them were those ack polls.
DATALINK_POLLS_WITH_ACK_POLLS = 802


def _poll_after_every_ack(monkeypatch):
    """The oracle: wrap each reverse channel to poll the client after an
    ack arrives, as the transport used to."""
    init = DataLinkClientTransport.__init__

    def init_then_wrap(self, *args, **kwargs):
        init(self, *args, **kwargs)
        for link in self.reverse_links.values():
            def deliver(packet, _on_ack=link.deliver, _transport=self):
                _on_ack(packet)
                if isinstance(packet, AckPacket):
                    _transport.process.poll()
            link.deliver = deliver
    monkeypatch.setattr(DataLinkClientTransport, "__init__", init_then_wrap)


@pytest.mark.parametrize("backend", ["full", "null"])
def test_datalink_polls_fall_by_exactly_the_ack_count(backend, monkeypatch):
    """An ack never ends a wait by itself — a completed send does, and
    its confirmation polls — so the poll per ack was pure cost."""
    family, params = CELLS["swsr-datalink"]
    params = dict(params, trace_backend=backend)
    polls = [0]
    inner = Process.poll

    def counted(self):
        polls[0] += 1
        inner(self)
    monkeypatch.setattr(Process, "poll", counted)
    runs = []
    for oracle in (False, True):
        with monkeypatch.context() as patch:
            if oracle:
                _poll_after_every_ack(patch)
            polls[0] = 0
            result = run_scenario(family, **params)
            acks = sum(link.delivered for client in result.cluster.clients
                       for link in client.transport.reverse_links.values())
            runs.append((result.summarize(), polls[0], acks))
    (shipped, shipped_polls, acks), (oracle, oracle_polls, oracle_acks) = runs
    assert shipped == oracle and acks == oracle_acks == 720
    assert oracle_polls == DATALINK_POLLS_WITH_ACK_POLLS
    assert shipped_polls == oracle_polls - acks


# -- the arrivals that could lose or fake a wake ---------------------------

N, T = 9, 1
QUORUM = N - T


class _Harness:
    """One client blocked in a hand-driven operation; messages are handed
    to it directly through ``Process.deliver``, or sent over the network's
    fused path and delivered by the scheduler."""

    def __init__(self, fused, monkeypatch):
        self.cluster = Cluster(ClusterConfig(n=N, t=T, trace_backend="null"))
        self.client = self.cluster.make_client("c")
        # the client's broadcasts are dropped: no server ever answers, so
        # the only mail it gets is what the test hands over
        for server in self.cluster.server_ids:
            self.cluster.network.set_link_up("c", server, up=False)
        self.fused = fused
        self.stages = []
        self.polls = 0
        inner = self.client.poll

        def poll():
            self.polls += 1
            inner()
        monkeypatch.setattr(self.client, "poll", poll)

    def start(self, generator):
        handle = self.client.start_operation("op", generator)
        self.cluster.scheduler.run()    # the kick; the broadcast is lost
        self.polls = 0
        return handle

    def deliver(self, server, message):
        """Hand over ``message``; return whether the client was polled."""
        before = self.polls
        if self.fused:
            self.cluster.network.send(server, "c", message)
            assert not isinstance(self.cluster.server(server).outbox["c"],
                                  partial)
            self.cluster.scheduler.run()
        else:
            self.client.deliver(server, message)
        return self.polls > before

    def two_phase_op(self):
        """broadcast; wait for n-t replies; broadcast again, and only
        then retire the first phase — so late replies find it alive."""
        client, stages = self.client, self.stages
        first = yield from client.ss_broadcast("first")
        stages.append("broadcast")
        yield client.await_replies(first, QUORUM)
        stages.append("replies")
        second = yield from client.ss_broadcast("second")
        taken = dict(client.replies(first))
        client.retire_phase(first)
        client.retire_phase(second)
        return taken


@pytest.fixture(params=[False, True], ids=["Process.deliver", "fused"])
def fused(request):
    return request.param


@pytest.fixture(params=[False, True], ids=["shipped", "oracle"])
def level(request, monkeypatch):
    if request.param:
        force_level(monkeypatch)
    return request.param


def test_arrivals_neither_lose_nor_fake_a_wake(fused, level, monkeypatch):
    harness = _Harness(fused, monkeypatch)
    client, stages = harness.client, harness.stages
    handle = harness.start(harness.two_phase_op())
    servers = harness.cluster.server_ids
    polled = []                 # deliveries after which the client polled

    def deliver(server, message):
        if harness.deliver(server, message):
            polled.append((server, message))

    # replies that arrive before their wait is armed are kept, not lost
    for server in servers[:3]:
        deliver(server, SSReply(1, f"ack-{server}"))
    deliver("s1", SSReply(1, "duplicate"))          # first reply wins
    # n-t-1 confirmations, one of them twice: still short of the quorum
    for server in servers[:QUORUM - 1]:
        deliver(server, SSConfirm(1))
    deliver("s1", SSConfirm(1))
    assert stages == []
    if not level:
        assert polled == []
    # the crossing confirmation completes the broadcast, exactly once
    deliver(servers[QUORUM - 1], SSConfirm(1))
    assert stages == ["broadcast"]
    deliver(servers[QUORUM], SSConfirm(1))          # late: above needed
    for server in servers[3:QUORUM - 1]:
        deliver(server, SSReply(1, f"ack-{server}"))
    deliver("s2", SSReply(1, "duplicate"))
    assert stages == ["broadcast"]
    if not level:
        assert polled == [(servers[QUORUM - 1], SSConfirm(1))]
    # the reply that makes n-t wakes the wait armed three replies late
    deliver(servers[QUORUM - 1], SSReply(1, "ack-last"))
    assert stages == ["broadcast", "replies"]
    # t late replies after the quorum, and mail for unknown phases
    deliver(servers[QUORUM], SSReply(1, "late"))
    deliver("s1", SSReply(7, "never broadcast"))
    deliver("s1", SSConfirm(7))
    assert len(client.replies(1)) == N and not handle.done
    if not level:
        assert len(polled) == 2
    # the second broadcast completes; both phases are retired
    for server in servers[:QUORUM]:
        deliver(server, SSConfirm(2))
    assert handle.done
    assert list(handle.result)[:QUORUM] == servers[:QUORUM]
    assert handle.result["s1"] == "ack-s1" and handle.result["s2"] == "ack-s2"
    polls = harness.polls
    deliver("s1", SSReply(1, "retired"))
    deliver("s2", SSConfirm(2))
    assert client.replies(1) == {} and harness.polls == polls
    if not level:
        assert len(polled) == 3


def test_wait_armed_after_its_quorum_arrived_holds_at_once(fused, level,
                                                           monkeypatch):
    """All n-t replies overtake the confirmations: the reply wait is
    satisfied the moment it is armed, with no further arrival."""
    harness = _Harness(fused, monkeypatch)
    handle = harness.start(harness.two_phase_op())
    servers = harness.cluster.server_ids
    for server in servers[:QUORUM]:
        harness.deliver(server, SSReply(1, server))
    for server in servers[:QUORUM - 1]:
        harness.deliver(server, SSConfirm(1))
    assert harness.stages == []
    harness.deliver(servers[QUORUM - 1], SSConfirm(1))
    assert harness.stages == ["broadcast", "replies"]
    assert not handle.done

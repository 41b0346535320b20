"""Unit tests for the FIFO reliable network and delay models."""

from functools import partial

import pytest

from repro.sim.errors import LinkError, UnknownProcessError
from repro.sim.network import (AsyncDelay, FixedDelay, Network, ScriptedDelay,
                               SyncDelay)
from repro.sim.process import Process
from repro.sim.random_source import RandomSource
from repro.sim.scheduler import Scheduler
from repro.sim.trace import FullTrace, NullTrace


class Recorder(Process):
    """Test process that records delivered messages with timestamps."""

    def __init__(self, pid, scheduler, trace):
        super().__init__(pid, scheduler, trace)
        self.received = []

    def on_message(self, src, message):
        self.received.append((self.scheduler.now, src, message))


def make_network(delay=None, seed=0):
    scheduler = Scheduler()
    trace = FullTrace()
    network = Network(scheduler, RandomSource(seed), trace,
                      default_delay=delay or FixedDelay(1.0))
    a = network.register(Recorder("a", scheduler, trace))
    b = network.register(Recorder("b", scheduler, trace))
    return network, scheduler, a, b


def test_message_delivered_after_delay():
    network, scheduler, a, b = make_network(FixedDelay(2.0))
    network.send("a", "b", "hello")
    scheduler.run()
    assert b.received == [(2.0, "a", "hello")]


def test_fifo_per_link_with_random_delays():
    network, scheduler, a, b = make_network(AsyncDelay(0.1, 10.0))
    for index in range(20):
        network.send("a", "b", index)
    scheduler.run()
    assert [message for _, _, message in b.received] == list(range(20))


def test_fifo_delivery_times_nondecreasing():
    network, scheduler, a, b = make_network(AsyncDelay(0.1, 10.0))
    for index in range(20):
        network.send("a", "b", index)
    scheduler.run()
    times = [time for time, _, _ in b.received]
    assert times == sorted(times)


def test_reverse_direction_is_independent_link():
    network, scheduler, a, b = make_network(FixedDelay(1.0))
    network.send("a", "b", "ping")
    network.send("b", "a", "pong")
    scheduler.run()
    assert a.received[0][2] == "pong"
    assert b.received[0][2] == "ping"


def test_unknown_destination_raises():
    network, scheduler, a, b = make_network()
    with pytest.raises(UnknownProcessError):
        network.send("a", "ghost", "boo")


def test_message_counters():
    network, scheduler, a, b = make_network()
    network.send("a", "b", 1)
    network.send("a", "b", 2)
    scheduler.run()
    assert network.messages_sent == 2
    assert network.messages_delivered == 2


def test_preload_delivers_garbage_first():
    network, scheduler, a, b = make_network(FixedDelay(5.0))
    network.preload("a", "b", ["junk1", "junk2"], spread=0.5)
    network.send("a", "b", "real")
    scheduler.run()
    assert [message for _, _, message in b.received] == \
        ["junk1", "junk2", "real"]


def test_sync_delay_respects_bound():
    model = SyncDelay(bound=2.0)
    rng = RandomSource(1).stream("x")
    samples = [model.sample("a", "b", None, rng) for _ in range(200)]
    assert all(0 < sample <= 2.0 for sample in samples)
    assert model.bound == 2.0


def test_async_delay_has_no_known_bound():
    model = AsyncDelay(0.1, 5.0)
    assert model.bound is None
    rng = RandomSource(1).stream("x")
    samples = [model.sample("a", "b", None, rng) for _ in range(200)]
    assert all(0.1 <= sample <= 5.0 for sample in samples)


def test_fixed_delay_validation():
    with pytest.raises(LinkError):
        FixedDelay(0.0)
    with pytest.raises(LinkError):
        SyncDelay(-1.0)
    with pytest.raises(LinkError):
        AsyncDelay(2.0, 1.0)


def test_scripted_delay_sees_endpoints_and_message():
    seen = []

    def chooser(src, dst, message, rng):
        seen.append((src, dst, message))
        return 1.0

    network, scheduler, a, b = make_network(ScriptedDelay(chooser))
    network.send("a", "b", "probe")
    scheduler.run()
    assert seen == [("a", "b", "probe")]


def test_scripted_delay_builds_exact_schedules():
    def chooser(src, dst, message, rng):
        return 10.0 if message == "slow" else 1.0

    network, scheduler, a, b = make_network(ScriptedDelay(chooser))
    network.send("a", "b", "slow")
    network.send("b", "a", "fast")
    scheduler.run()
    assert a.received[0][0] == 1.0
    assert b.received[0][0] == 10.0


def test_link_delay_model_override():
    network, scheduler, a, b = make_network(FixedDelay(1.0))
    network.link("a", "b", FixedDelay(7.0))
    network.send("a", "b", "x")
    scheduler.run()
    assert b.received[0][0] == 7.0


def test_deterministic_given_same_seed():
    def run(seed):
        network, scheduler, a, b = make_network(AsyncDelay(0.1, 3.0), seed)
        for index in range(5):
            network.send("a", "b", index)
        scheduler.run()
        return [time for time, _, _ in b.received]

    assert run(42) == run(42)
    assert run(42) != run(43)


def test_connect_all_creates_bidirectional_links():
    network, scheduler, a, b = make_network()
    network.connect_all(["a"], ["b"])
    assert ("a", "b") in network.links
    assert ("b", "a") in network.links


# ----------------------------------------------------------------------
# preload accounting, partitions and the fused fast path
# ----------------------------------------------------------------------
def test_preload_counts_as_sent_messages():
    network, scheduler, a, b = make_network(FixedDelay(5.0))
    network.preload("a", "b", ["junk1", "junk2"])
    assert network.messages_sent == 2
    assert network.links[("a", "b")].messages_sent == 2
    assert network.trace.count("send") == 2
    scheduler.run()
    assert network.messages_delivered == 2


def test_down_link_drops_and_counts():
    network, scheduler, a, b = make_network(FixedDelay(1.0))
    network.set_link_up("a", "b", up=False)
    network.send("a", "b", "lost")
    scheduler.run()
    assert b.received == []
    assert network.messages_dropped == 1
    assert network.links[("a", "b")].messages_dropped == 1
    assert network.messages_sent == 0
    assert network.trace.count("drop") == 1


def test_partition_and_heal_round_trip():
    network, scheduler, a, b = make_network(FixedDelay(1.0))
    network.set_partition(["b"])
    network.send("a", "b", "during")
    network.set_partition(["b"], up=True)
    network.send("a", "b", "after")
    scheduler.run()
    assert [message for _, _, message in b.received] == ["after"]
    assert network.messages_dropped == 1


def test_overlapping_partitions_do_not_heal_each_other():
    # regression: link down-votes are counted, so a link covered by two
    # partitions stays down until *both* have healed.
    scheduler = Scheduler()
    trace = FullTrace()
    network = Network(scheduler, RandomSource(0), trace,
                      default_delay=FixedDelay(1.0))
    a = network.register(Recorder("a", scheduler, trace))
    b = network.register(Recorder("b", scheduler, trace))
    network.register(Recorder("c", scheduler, trace))
    network.set_partition(["a"])          # cuts a<->b, a<->c
    network.set_partition(["b"])          # cuts b<->a, b<->c (a<->b twice)
    network.set_partition(["b"], up=True)
    network.send("a", "b", "still-cut")   # a's partition still covers it
    network.send("b", "c", "flows")
    network.set_partition(["a"], up=True)
    network.send("a", "b", "open-again")
    scheduler.run()
    assert [message for _, _, message in b.received] == ["open-again"]
    assert network.messages_dropped == 1


def test_in_flight_messages_survive_partition():
    network, scheduler, a, b = make_network(FixedDelay(5.0))
    network.send("a", "b", "already-sent")
    scheduler.run(until=1.0)
    network.set_partition(["b"])
    scheduler.run()
    assert [message for _, _, message in b.received] == ["already-sent"]


class Relay(Process):
    """Logs every delivery globally; forwards some through Process.send."""

    def __init__(self, pid, scheduler, trace, peers, log):
        super().__init__(pid, scheduler, trace)
        self.peers = peers
        self.log = log

    def on_message(self, src, message):
        self.log.append((self.scheduler.now, src, self.pid, message))
        if isinstance(message, int) and message % 3 == 0 and message > 0:
            self.send(self.peers[message % len(self.peers)], message - 1)


def _send_script(seed, steps=120):
    """A seeded soup of sends, preloads, delay-model swaps and partition
    cut/heal pairs (cuts overlap: a heal lands up to 12 steps later)."""
    import random
    rng = random.Random(seed)
    pids = ["a", "b", "c", "d"]
    script, heals = [], {}
    for step in range(steps):
        for group in heals.pop(step, ()):
            script.append(("partition", group, True))
        src, dst = rng.sample(pids, 2)
        roll = rng.random()
        if roll < 0.70:
            script.append(("send", src, dst, rng.randrange(1, 50)))
        elif roll < 0.80:
            group = rng.sample(pids, rng.choice((1, 2)))
            script.append(("partition", group, False))
            heals.setdefault(step + rng.randrange(1, 12), []).append(group)
        elif roll < 0.90:
            model = rng.choice([FixedDelay(rng.uniform(0.2, 2.0)),
                                AsyncDelay(0.1, rng.uniform(0.5, 4.0)),
                                SyncDelay(rng.uniform(0.5, 2.0))])
            script.append(("swap", src, dst, model))
        else:
            script.append(("preload", src, dst,
                           [f"junk{step}.{k}" for k in range(rng.randrange(1, 4))]))
    for step in sorted(heals):
        script.extend(("partition", group, True) for group in heals[step])
    return pids, script


@pytest.mark.parametrize("seed", range(6))
def test_fast_path_matches_recording_path(seed):
    """Fused closures (null trace on the shipped kernel), the general
    path (the full trace; the oracle kernel) and every invalidation in
    between — cuts, overlapping cuts, heals, delay-model swaps, preloads —
    must produce one execution: same deliveries, same counters."""
    from repro.sim.scheduler import HeapScheduler

    pids, script = _send_script(seed)

    def run(trace, kernel):
        scheduler = kernel()
        network = Network(scheduler, RandomSource(seed), trace,
                          default_delay=AsyncDelay(0.1, 3.0))
        log = []
        procs = [network.register(Relay(pid, scheduler, trace, pids, log))
                 for pid in pids]

        def act(kind, *args):
            if kind == "send":
                network.send(*args)
            elif kind == "partition":
                network.set_partition(args[0], up=args[1])
            elif kind == "swap":
                network.link(args[0], args[1], delay_model=args[2])
            else:
                network.preload(*args)

        # spread the script over virtual time so it interleaves with
        # deliveries already in flight
        for index, action in enumerate(script):
            scheduler.schedule_at(0.25 * index, act, *action)
        scheduler.run()
        links = {key: (link.messages_sent, link.messages_dropped,
                       link.last_delivery, link.down_votes)
                 for key, link in network.links.items()}
        # a fused closure is a plain function, the general path a partial
        fused = any(not isinstance(send, partial)
                    for proc in procs for send in proc.outbox.values())
        return fused, (log, links, scheduler.events_processed,
                       network.messages_sent, network.messages_delivered,
                       network.messages_dropped)

    fused, reference = run(NullTrace(), Scheduler)
    assert fused                        # closures really were compiled
    assert reference[-1] > 0            # and cuts really dropped traffic
    for trace, kernel in ((FullTrace(), Scheduler),
                          (NullTrace(), HeapScheduler)):
        fused, observed = run(trace, kernel)
        assert not fused                # the general path, every send
        assert observed == reference

"""Unit tests for processes, wait conditions and coroutine operations."""

import pytest

from repro.sim.errors import OperationError
from repro.sim.process import (AllOf, AnyOf, Deadline, Predicate, Process,
                               WaitCondition, join_all)
from repro.sim.scheduler import Scheduler
from repro.sim.trace import OP_INVOKE, OP_RESPONSE, FullTrace


def make_process(pid="p"):
    scheduler = Scheduler()
    trace = FullTrace()
    return Process(pid, scheduler, trace), scheduler, trace


def test_predicate_condition():
    flag = []
    cond = Predicate(lambda: bool(flag))
    assert not cond.satisfied()
    flag.append(1)
    assert cond.satisfied()


def test_anyof_and_allof():
    yes = Predicate(lambda: True)
    no = Predicate(lambda: False)
    assert AnyOf(yes, no).satisfied()
    assert not AnyOf(no, no).satisfied()
    assert AllOf(yes, yes).satisfied()
    assert not AllOf(yes, no).satisfied()


def test_operation_runs_to_completion():
    process, scheduler, _ = make_process()

    def op():
        yield Predicate(lambda: True)
        return "done"

    handle = process.start_operation("demo", op())
    scheduler.run()
    assert handle.done
    assert handle.result == "done"


def test_operation_result_before_completion_raises():
    process, scheduler, _ = make_process()

    def op():
        yield Predicate(lambda: False)
        return "never"

    handle = process.start_operation("demo", op())
    with pytest.raises(OperationError):
        _ = handle.result


def test_operation_blocks_until_condition():
    process, scheduler, _ = make_process()
    box = []

    def op():
        yield Predicate(lambda: bool(box))
        return box[0]

    handle = process.start_operation("demo", op())
    scheduler.run()
    assert not handle.done
    box.append("late")
    process.poll()
    assert handle.done
    assert handle.result == "late"


def test_sequential_clients_reject_overlapping_ops():
    process, scheduler, _ = make_process()

    def op():
        yield Predicate(lambda: False)

    process.start_operation("first", op())
    with pytest.raises(OperationError):
        process.start_operation("second", op())


def test_new_operation_allowed_after_completion():
    process, scheduler, _ = make_process()

    def op(result):
        yield Predicate(lambda: True)
        return result

    first = process.start_operation("first", op(1))
    scheduler.run()
    second = process.start_operation("second", op(2))
    scheduler.run()
    assert first.result == 1
    assert second.result == 2


def test_deadline_wakes_process():
    process, scheduler, _ = make_process()

    def op():
        yield Deadline(5.0)
        return "woke"

    handle = process.start_operation("sleep", op())
    scheduler.run()
    assert handle.done
    assert scheduler.now == 5.0


class _Forwarding(WaitCondition):
    """A composite that knows nothing about its child but ``arm`` and
    ``satisfied`` — all the wait-condition interface promises."""

    def __init__(self, child):
        self.child = child

    def arm(self, process):
        self.child.arm(process)

    def satisfied(self):
        return self.child.satisfied()


@pytest.mark.parametrize("wrap", [
    lambda deadline: deadline,
    lambda deadline: AnyOf(Predicate(lambda: False), deadline),
    lambda deadline: AllOf(Predicate(lambda: True), deadline),
    _Forwarding,
    lambda deadline: _Forwarding(AnyOf(_Forwarding(deadline))),
], ids=["bare", "anyof", "allof", "forwarding", "nested"])
def test_deadline_gets_its_clock_from_arm(wrap):
    """Wherever a Deadline sits, ``arm(process)`` is all it needs."""
    process, scheduler, _ = make_process()
    deadline = Deadline(5.0)
    assert not deadline.satisfied()     # unarmed: no clock yet

    def op():
        yield wrap(deadline)
        return "woke"

    handle = process.start_operation("sleep", op())
    scheduler.run(until=4.0)
    assert not handle.done
    scheduler.run()
    assert handle.done and handle.response_time == 5.0


def test_anyof_deadline_vs_predicate():
    process, scheduler, _ = make_process()
    box = []

    def op():
        yield AnyOf(Predicate(lambda: bool(box)), Deadline(10.0))
        return "done"

    handle = process.start_operation("race", op())
    scheduler.run(until=3.0)
    assert not handle.done
    box.append(1)
    process.poll()
    assert handle.done
    assert scheduler.now < 10.0


def test_operation_trace_events():
    process, scheduler, trace = make_process()

    def op():
        yield Predicate(lambda: True)
        return 7

    process.start_operation("traced", op())
    scheduler.run()
    assert trace.count(OP_INVOKE) == 1
    assert trace.count(OP_RESPONSE) == 1


def test_on_done_callback_fires():
    process, scheduler, _ = make_process()
    seen = []

    def op():
        yield Predicate(lambda: True)
        return "x"

    handle = process.start_operation("cb", op())
    handle.on_done(lambda h: seen.append(h.result))
    scheduler.run()
    assert seen == ["x"]


def test_on_done_after_completion_fires_immediately():
    process, scheduler, _ = make_process()

    def op():
        yield Predicate(lambda: True)
        return "x"

    handle = process.start_operation("cb", op())
    scheduler.run()
    seen = []
    handle.on_done(lambda h: seen.append(1))
    assert seen == [1]


class Box:
    """An owner declaring one corruptible attribute by class."""

    CORRUPTIBLE = ("v",)

    def __init__(self, reg_id, v=1):
        self.reg_id = reg_id
        self.v = v

    def fuzzer(self, attr):
        return lambda rng: -1


class Holder(Process):
    """A process holding ``owners`` (a server's automatons, say)."""

    def __init__(self, owners):
        super().__init__("p", Scheduler(), FullTrace())
        self.owners = owners

    def corruptible_owners(self):
        return self.owners


def test_register_corruptible_attribute():
    """A declared attribute is reachable as ``<reg_id>.<attr>`` and a
    bare process declares nothing."""
    process, _, _ = make_process()
    assert process.corruptible == {}
    box = Box("reg", v=10)
    var = Holder([box]).corruptible["reg.v"]
    assert var.owner is box and var.attr == "v"
    assert getattr(var.owner, var.attr) == 10
    setattr(var.owner, var.attr, var.fuzz(None))
    assert box.v == -1


def test_register_corruptible_var_external_state():
    """The map is built on each access: it follows the owners held."""
    owners = [Box("b")]
    process = Holder(owners)
    assert sorted(process.corruptible) == ["b.v"]
    owners.insert(0, Box("a"))
    assert sorted(process.corruptible) == ["a.v", "b.v"]
    assert process.corruptible["a.v"] is not process.corruptible["a.v"]
    owners.clear()
    assert process.corruptible == {}


def test_a_corruptible_name_registers_once():
    """A second role declaring a name already held is refused when it is
    hosted; roles of the same register declaring other names are not."""
    from repro.registers.base import QuorumParams, RegisterClientProcess
    from repro.registers.swsr_atomic import (AtomicReaderRole,
                                             AtomicWriterRole)
    client = RegisterClientProcess("c", Scheduler(), FullTrace())
    params = QuorumParams(n=9, t=1)
    writer = AtomicWriterRole(client, "reg", params)
    AtomicReaderRole(client, "reg", params)
    with pytest.raises(ValueError, match=r"c already .* 'reg\.wsn'"):
        AtomicWriterRole(client, "reg", params)
    AtomicWriterRole(client, "other", params)
    assert sorted(client.corruptible) == [
        "other.wsn", "reg.pv", "reg.pwsn", "reg.wsn"]
    assert client.corruptible["reg.wsn"].owner is writer


def test_join_all_runs_children_to_completion():
    process, scheduler, _ = make_process()
    gates = [[], []]

    def child(index):
        yield Predicate(lambda: bool(gates[index]))
        return index * 10

    def parent():
        results = yield from join_all(child(0), child(1))
        return results

    handle = process.start_operation("join", parent())
    scheduler.run()
    assert not handle.done
    gates[1].append(1)
    process.poll()
    assert not handle.done
    gates[0].append(1)
    process.poll()
    assert handle.done
    assert handle.result == [0, 10]


def test_join_all_with_instantly_done_children():
    process, scheduler, _ = make_process()

    def instant(value):
        return value
        yield  # pragma: no cover - makes it a generator

    def parent():
        results = yield from join_all(instant("a"), instant("b"))
        return results

    handle = process.start_operation("join", parent())
    scheduler.run()
    assert handle.result == ["a", "b"]


def test_join_all_preserves_result_order():
    process, scheduler, _ = make_process()
    gate = []

    def slow():
        yield Predicate(lambda: bool(gate))
        return "slow"

    def fast():
        yield Predicate(lambda: True)
        return "fast"

    def parent():
        results = yield from join_all(slow(), fast())
        return results

    handle = process.start_operation("join", parent())
    scheduler.run()
    gate.append(1)
    process.poll()
    assert handle.result == ["slow", "fast"]


def test_busy_property():
    process, scheduler, _ = make_process()
    assert not process.busy

    def op():
        yield Predicate(lambda: False)

    process.start_operation("stuck", op())
    assert process.busy


@pytest.mark.parametrize("backend", ["full", "null"],
                         ids=["Process.deliver", "fused"])
def test_raising_coroutine_never_completes(backend):
    """The exception propagates once, and the dead generator is dropped:
    a later delivery must not mistake it for a normal return.  ``full``
    delivers through ``Process.deliver``, ``null`` through the fused path.
    """
    from repro.sim.network import FixedDelay, Network
    from repro.sim.random_source import RandomSource
    from repro.sim.trace import build_trace

    scheduler = Scheduler()
    trace = build_trace(backend)
    network = Network(scheduler, RandomSource(1), trace,
                      default_delay=FixedDelay(1.0))
    process = network.register(Process("a", scheduler, trace))
    network.register(Process("b", scheduler, trace))

    def op():
        yield Predicate(lambda: True)
        raise ValueError("protocol bug")

    handle = process.start_operation("boom", op())
    with pytest.raises(ValueError, match="protocol bug"):
        scheduler.run()
    assert not handle.done and process.busy
    delivered = network.messages_delivered
    network.send("b", "a", "anything")
    scheduler.run()
    assert network.messages_delivered == delivered + 1
    assert not handle.done and process.busy
    with pytest.raises(OperationError):
        _ = handle.result
    if backend == "full":
        assert trace.count(OP_INVOKE) == 1 and trace.count(OP_RESPONSE) == 0


class _Counted(WaitCondition):
    """An edge-triggered condition over a list the process grows."""

    edge_triggered = True

    def __init__(self, box, needed):
        self.box, self.needed, self.evaluations = box, needed, 0

    def satisfied(self):
        self.evaluations += 1
        return len(self.box) >= self.needed


class _Collector(Process):
    def __init__(self, *args):
        super().__init__(*args)
        self.box = []

    def on_message(self, src, message):
        self.box.append(message)
        return len(self.box) == 3


def test_deliver_wakes_an_edge_condition_only_on_a_crossing():
    scheduler, trace = Scheduler(), FullTrace()
    process = _Collector("p", scheduler, trace)
    condition = _Counted(process.box, 3)

    def op():
        yield condition
        return list(process.box)

    handle = process.start_operation("collect", op())
    scheduler.run()
    assert condition.evaluations == 1          # when armed
    process.deliver("s", 1)
    process.deliver("s", 2)
    assert condition.evaluations == 1 and not handle.done
    process.deliver("s", 3)
    assert handle.done and handle.result == [1, 2, 3]
    assert condition.evaluations == 2


def test_deliver_repolls_level_conditions_and_level_composites():
    """One level child makes a composite level; level means every
    delivery re-evaluates."""
    scheduler, trace = Scheduler(), FullTrace()
    process = _Collector("p", scheduler, trace)
    edge = _Counted(process.box, 99)
    mixed = AnyOf(edge, Predicate(lambda: len(process.box) >= 2))
    assert AnyOf(edge, edge).edge_triggered
    assert AllOf(edge, AnyOf(edge)).edge_triggered
    assert not mixed.edge_triggered
    assert not AllOf(edge, Deadline(5.0)).edge_triggered

    def op():
        yield mixed
        return len(process.box)

    handle = process.start_operation("level", op())
    scheduler.run()
    process.deliver("s", 1)
    assert edge.evaluations == 2 and not handle.done
    process.deliver("s", 2)
    assert handle.done and handle.result == 2


def test_join_all_is_edge_triggered_only_while_every_child_is():
    scheduler, trace = Scheduler(), FullTrace()
    process = _Collector("p", scheduler, trace)
    first = _Counted(process.box, 3)

    def counted():
        yield first
        yield Predicate(lambda: len(process.box) >= 4)
        return "counted"

    def other():
        yield _Counted(process.box, 3)
        return "other"

    def parent():
        return (yield from join_all(counted(), other()))

    handle = process.start_operation("join", parent())
    scheduler.run()
    assert process._current_cond.edge_triggered
    process.deliver("s", 1)
    process.deliver("s", 2)
    assert first.evaluations == 2       # join_all's own look + when armed
    process.deliver("s", 3)             # the crossing: both children advance
    assert not handle.done
    assert not process._current_cond.edge_triggered
    process.deliver("s", 4)             # no crossing, level child: re-polled
    assert handle.done and handle.result == ["counted", "other"]

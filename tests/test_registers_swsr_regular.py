"""Behavioural tests of the SWSR regular register (Figure 2 / Theorem 1)."""

import pytest

from repro.checkers.history import History
from repro.checkers.regularity import check_regularity
from repro.faults.byzantine import strategy_factory
from repro.faults.transient import TransientFaultInjector
from repro.registers.messages import BOT
from repro.registers.system import Cluster, ClusterConfig, build_swsr_regular
from repro.workloads.spec import run_scenario


def make_system(n=9, t=1, seed=0, **kwargs):
    cluster = Cluster(ClusterConfig(n=n, t=t, seed=seed, **kwargs))
    writer, reader = build_swsr_regular(cluster, initial="v_init")
    return cluster, writer, reader


def run_op(cluster, handle, max_events=500_000):
    cluster.run_ops([handle], max_events=max_events)
    return handle.result


class TestBasicOperation:
    def test_read_returns_last_written_value(self):
        cluster, writer, reader = make_system()
        run_op(cluster, writer.write("apple"))
        assert run_op(cluster, reader.read()) == "apple"

    def test_sequence_of_writes_and_reads(self):
        cluster, writer, reader = make_system()
        for value in ("a", "b", "c"):
            run_op(cluster, writer.write(value))
            assert run_op(cluster, reader.read()) == value

    def test_read_before_any_write_returns_initial(self):
        cluster, writer, reader = make_system()
        assert run_op(cluster, reader.read()) == "v_init"

    def test_repeated_reads_stable_without_writes(self):
        cluster, writer, reader = make_system()
        run_op(cluster, writer.write("fixed"))
        for _ in range(3):
            assert run_op(cluster, reader.read()) == "fixed"

    def test_server_state_after_write(self):
        cluster, writer, reader = make_system()
        run_op(cluster, writer.write("x"))
        cluster.run()  # drain so every correct server catches up
        holding = [server for server in cluster.servers
                   if server.automatons["reg"].last_val == "x"]
        assert len(holding) == 9

    def test_resilience_bound_enforced_by_default(self):
        with pytest.raises(ValueError):
            make_system(n=8, t=1)

    def test_beyond_bound_allowed_when_disabled(self):
        cluster, writer, reader = make_system(n=8, t=1,
                                              enforce_resilience=False)
        run_op(cluster, writer.write("yolo"))


class TestByzantineTolerance:
    @pytest.mark.parametrize("strategy", ["silent", "random-garbage",
                                          "stale", "equivocate",
                                          "inversion-attack", "flip-flop"])
    def test_single_byzantine_server(self, strategy):
        cluster, writer, reader = make_system(seed=11)
        cluster.make_byzantine(["s1"], strategy_factory(strategy, cluster))
        run_op(cluster, writer.write("safe"))
        assert run_op(cluster, reader.read()) == "safe"

    @pytest.mark.parametrize("strategy", ["silent", "random-garbage", "stale"])
    def test_t_equals_two(self, strategy):
        cluster, writer, reader = make_system(n=17, t=2, seed=12)
        cluster.make_byzantine(["s1", "s2"],
                               strategy_factory(strategy, cluster))
        run_op(cluster, writer.write("robust"))
        assert run_op(cluster, reader.read()) == "robust"

    def test_mixed_strategies(self):
        cluster, writer, reader = make_system(n=17, t=2, seed=13)
        cluster.make_byzantine(["s1"], strategy_factory("silent", cluster))
        cluster.make_byzantine(["s2"],
                               strategy_factory("random-garbage", cluster))
        run_op(cluster, writer.write("mix"))
        assert run_op(cluster, reader.read()) == "mix"

    def test_byzantine_recovery(self):
        """A server turning correct again participates normally."""
        cluster, writer, reader = make_system(seed=14)
        cluster.make_byzantine(["s1"],
                               strategy_factory("random-garbage", cluster))
        run_op(cluster, writer.write("one"))
        cluster.make_byzantine(["s1"], None)  # recovers (state may be stale)
        run_op(cluster, writer.write("two"))
        assert run_op(cluster, reader.read()) == "two"


class TestTransientFailures:
    def test_stabilizes_after_total_server_corruption(self):
        cluster, writer, reader = make_system(seed=21)
        injector = TransientFaultInjector.for_cluster(cluster)
        injector.corrupt_all(cluster.servers)
        run_op(cluster, writer.write("heal"))  # first write after tau_no_tr
        assert run_op(cluster, reader.read()) == "heal"

    def test_stabilizes_after_client_corruption(self):
        cluster, writer, reader = make_system(seed=22)
        injector = TransientFaultInjector.for_cluster(cluster)
        injector.corrupt_all([writer, reader])
        run_op(cluster, writer.write("heal"))
        assert run_op(cluster, reader.read()) == "heal"

    def test_reads_before_first_write_may_be_arbitrary(self):
        """Pre-stabilization output is unconstrained — but must terminate

        once a quorum of equal (even corrupted-equal) values exists; here
        the servers agree on the initial value so the read terminates.
        """
        cluster, writer, reader = make_system(seed=23)
        injector = TransientFaultInjector.for_cluster(cluster)
        injector.corrupt_all([reader])
        result = run_op(cluster, reader.read())
        assert result is not None  # terminated; value unconstrained

    def test_link_garbage_is_survived(self):
        cluster, writer, reader = make_system(seed=24)
        injector = TransientFaultInjector.for_cluster(cluster)
        injector.garbage_everywhere(["w", "r"], cluster.server_ids,
                                    per_link=2)
        run_op(cluster, writer.write("clean"))
        assert run_op(cluster, reader.read()) == "clean"


class TestEventualRegularity:
    def test_scenario_regular_after_corruption(self):
        result = run_scenario("swsr", kind="regular", n=9, t=1, seed=31,
                              num_writes=5, num_reads=5,
                              corruption_times=(2.0, 4.0),
                              link_garbage=1, byzantine_count=1)
        assert result.completed
        assert result.report.stable
        assert result.report.tau_stab is not None

    def test_concurrent_reads_and_writes_still_regular(self):
        result = run_scenario("swsr", kind="regular", n=9, t=1, seed=32,
                              num_writes=6, num_reads=6,
                              reader_offset=0.2,  # heavy overlap
                              byzantine_count=1)
        assert result.completed
        violations = check_regularity(result.history, after=result.tau_no_tr,
                                      initial="v_init")
        assert violations == []

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_regularity_across_seeds(self, seed):
        result = run_scenario("swsr", kind="regular", n=9, t=1, seed=seed,
                              num_writes=4, num_reads=4,
                              corruption_times=(3.0,),
                              byzantine_count=1,
                              byzantine_strategy="stale")
        assert result.completed
        assert result.report.stable

    def test_larger_cluster(self):
        result = run_scenario("swsr", kind="regular", n=25, t=3, seed=33,
                              num_writes=3, num_reads=3,
                              byzantine_count=3)
        assert result.completed
        assert result.report.stable


class TestHelpingMechanism:
    def test_writer_refreshes_helping_values(self):
        """After a write, a helping quorum exists at the servers (Claim C)."""
        cluster, writer, reader = make_system(seed=41)
        run_op(cluster, writer.write("helped"))
        cluster.run()
        helping = [server.automatons["reg"].helping_val
                   for server in cluster.servers]
        assert helping.count("helped") >= 4 * cluster.params.t + 1

    def test_new_read_resets_helping(self):
        cluster, writer, reader = make_system(seed=42)
        run_op(cluster, writer.write("x"))
        run_op(cluster, reader.read())
        cluster.run()
        helping = [server.automatons["reg"].helping_val
                   for server in cluster.servers]
        assert helping.count(BOT) == 9

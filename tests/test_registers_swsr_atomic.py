"""Behavioural tests of the practically atomic SWSR register (Figure 3)."""

import pytest

from repro.checkers.atomicity import find_new_old_inversions
from repro.faults.byzantine import strategy_factory
from repro.faults.transient import TransientFaultInjector
from repro.registers.bounded_seq import WsnConfig
from repro.registers.system import Cluster, ClusterConfig, build_swsr_atomic
from repro.workloads.spec import run_scenario


def make_system(n=9, t=1, seed=0, modulus=None, **kwargs):
    cluster = Cluster(ClusterConfig(n=n, t=t, seed=seed, **kwargs))
    config = WsnConfig(modulus) if modulus else None
    writer, reader = build_swsr_atomic(cluster, initial="v_init",
                                       config=config)
    return cluster, writer, reader


def run_op(cluster, handle, max_events=500_000):
    cluster.run_ops([handle], max_events=max_events)
    return handle.result


class TestBasicOperation:
    def test_write_then_read(self):
        cluster, writer, reader = make_system()
        run_op(cluster, writer.write("pear"))
        assert run_op(cluster, reader.read()) == "pear"

    def test_values_carry_increasing_wsn(self):
        cluster, writer, reader = make_system()
        run_op(cluster, writer.write("a"))
        run_op(cluster, writer.write("b"))
        cluster.run()
        pairs = {server.automatons["reg"].last_val
                 for server in cluster.servers}
        assert pairs == {(2, "b")}

    def test_initial_read(self):
        cluster, writer, reader = make_system()
        assert run_op(cluster, reader.read()) == "v_init"

    def test_reader_tracks_pwsn(self):
        cluster, writer, reader = make_system()
        run_op(cluster, writer.write("x"))
        run_op(cluster, reader.read())
        assert reader.role.pwsn == 1

    def test_stale_quorum_returns_cached_pv(self):
        """Line 13M3: an older quorum value is swapped for the cached one."""
        cluster, writer, reader = make_system()
        run_op(cluster, writer.write("new"))
        run_op(cluster, reader.read())
        # force the reader's notion of the latest pair forward
        reader.role.pwsn = 5
        reader.role.pv = "future"
        assert run_op(cluster, reader.read()) == "future"


class TestSanityCheck:
    def test_corrupted_pwsn_recovered_from_servers(self):
        """Lines N2-N7: a reader whose pwsn raced ahead adopts the servers'

        agreed helping pair instead of serving its corrupt cache forever."""
        cluster, writer, reader = make_system(seed=7)
        run_op(cluster, writer.write("truth"))
        reader.role.pwsn = 4_000  # corrupted way ahead (> real wsn=1)
        reader.role.pv = "corrupt"
        assert run_op(cluster, reader.read()) == "truth"
        assert reader.role.pwsn == 1

    def test_corrupted_pv_alone_recovered(self):
        cluster, writer, reader = make_system(seed=8)
        run_op(cluster, writer.write("truth"))
        run_op(cluster, reader.read())
        reader.role.pv = "corrupt"
        # pwsn is correct, so the next quorum (same wsn) returns cached pv —
        # corrupted output is allowed only until the next write.
        run_op(cluster, writer.write("truth2"))
        assert run_op(cluster, reader.read()) == "truth2"


class TestNoInversion:
    def test_no_inversion_under_inversion_attack(self):
        result = run_scenario("swsr", kind="atomic", n=9, t=1, seed=51,
                              num_writes=6, num_reads=6,
                              reader_offset=0.2,
                              byzantine_count=1,
                              byzantine_strategy="inversion-attack")
        assert result.completed
        inversions = find_new_old_inversions(result.history,
                                             after=result.tau_no_tr)
        assert inversions == []

    def test_no_inversion_under_flip_flop(self):
        result = run_scenario("swsr", kind="atomic", n=9, t=1, seed=52,
                              num_writes=6, num_reads=6,
                              reader_offset=0.2,
                              byzantine_count=1,
                              byzantine_strategy="flip-flop")
        assert result.completed
        assert find_new_old_inversions(result.history,
                                       after=result.tau_no_tr) == []

    @pytest.mark.parametrize("seed", [61, 62, 63])
    def test_eventual_atomicity_after_corruption(self, seed):
        result = run_scenario("swsr", kind="atomic", n=9, t=1, seed=seed,
                              num_writes=5, num_reads=5,
                              corruption_times=(2.0, 5.0),
                              link_garbage=1, byzantine_count=1)
        assert result.completed
        assert result.report.stable


class TestBoundedSequenceNumbers:
    def test_wsn_wraps_at_modulus(self):
        cluster, writer, reader = make_system(modulus=5)
        for index in range(7):
            run_op(cluster, writer.write(f"v{index}"))
        assert writer.role.wsn == 7 % 5

    def test_reads_correct_across_wraparound(self):
        """Wrap-around is invisible while writes-between-reads stay under

        the system life span (Lemma 13)."""
        cluster, writer, reader = make_system(modulus=7)
        for index in range(10):
            run_op(cluster, writer.write(f"v{index}"))
            assert run_op(cluster, reader.read()) == f"v{index}"

    def test_life_span_exceeded_returns_stale_cache(self):
        """The 'practically' caveat: more than modulus/2 writes between two

        reads can make the newer quorum look older (>_cd wraps), so the
        reader serves its stale cache — exactly the failure Lemma 13
        excludes only below the system life span."""
        cluster, writer, reader = make_system(modulus=7, seed=77)
        run_op(cluster, writer.write("early"))
        run_op(cluster, reader.read())  # pwsn = 1
        # 4 > 7//2 writes: wsn travels more than half the circle
        for index in range(4):
            run_op(cluster, writer.write(f"mid{index}"))
        result = run_op(cluster, reader.read())
        assert result == "early"  # stale: wrap-around fooled >_cd

    def test_huge_default_modulus_never_wraps_in_practice(self):
        cluster, writer, reader = make_system()
        for index in range(5):
            run_op(cluster, writer.write(index))
        assert writer.role.wsn == 5


class TestByzantineTolerance:
    @pytest.mark.parametrize("strategy", ["silent", "random-garbage",
                                          "stale", "equivocate"])
    def test_single_byzantine(self, strategy):
        cluster, writer, reader = make_system(seed=81)
        cluster.make_byzantine(["s3"], strategy_factory(strategy, cluster))
        run_op(cluster, writer.write("ok"))
        assert run_op(cluster, reader.read()) == "ok"

    def test_corruption_plus_byzantine(self):
        cluster, writer, reader = make_system(seed=82)
        cluster.make_byzantine(["s1"],
                               strategy_factory("random-garbage", cluster))
        injector = TransientFaultInjector.for_cluster(cluster)
        injector.corrupt_all(cluster.servers + [writer, reader])
        run_op(cluster, writer.write("recovered"))
        assert run_op(cluster, reader.read()) == "recovered"

"""Whole-run determinism and concurrency stress.

Determinism is the property that makes stabilization *measurable* (exact
τ instants): identical seeds must give bit-identical executions, across
every construction and failure mix.  The stress tests drive the reader
through dense write bursts — the many-concurrent-writes regime whose
termination argument is the hardest part of Lemma 2 (the helping
mechanism).
"""

import pytest

from repro.checkers.regularity import check_regularity
from repro.registers.system import Cluster, ClusterConfig, build_swsr_regular
from repro.workloads.generators import ClientDriver, ValueStream
from repro.workloads.spec import run_scenario


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["regular", "atomic"])
    def test_identical_histories_for_identical_seeds(self, kind):
        def run():
            return run_scenario("swsr", kind=kind, n=9, t=1, seed=42,
                                num_writes=3, num_reads=3,
                                corruption_times=(2.0,),
                                byzantine_count=1)

        first, second = run(), run()
        assert first.history.format() == second.history.format()
        assert first.messages_sent == second.messages_sent
        assert first.report.tau_stab == second.report.tau_stab

    def test_different_seeds_differ(self):
        first = run_scenario("swsr", seed=1, num_writes=2, num_reads=2)
        second = run_scenario("swsr", seed=2, num_writes=2, num_reads=2)
        assert first.history.format() != second.history.format()

    def test_mwmr_determinism(self):
        def run():
            return run_scenario("mwmr", m=3, seed=11, ops_per_process=1)

        first, second = run(), run()
        assert first.history.format() == second.history.format()

    def test_event_counts_reproducible(self):
        def run():
            result = run_scenario("swsr", seed=5, num_writes=2, num_reads=2,
                                  byzantine_count=1,
                                  byzantine_strategy="random-garbage")
            return result.cluster.scheduler.events_processed

        assert run() == run()


class TestConcurrentWriteBursts:
    def test_reader_survives_dense_write_burst(self):
        """Reads racing a back-to-back write stream stay live and regular

        (the helping mechanism: multiple writes concurrent with one read).
        """
        cluster = Cluster(ClusterConfig(n=9, t=1, seed=21))
        writer, reader = build_swsr_regular(cluster, initial="v_init")
        values = ValueStream()
        writer_driver = ClientDriver(cluster.scheduler, writer)
        reader_driver = ClientDriver(cluster.scheduler, reader)
        # 10 writes queued back-to-back; 3 reads dropped into the storm
        for _index in range(10):
            writer_driver.at(1.0, lambda: writer.write(values.next()))
        for time in (1.5, 2.5, 3.5):
            reader_driver.at(time, lambda: reader.read())
        cluster.scheduler.run_until(
            lambda: writer_driver.all_done and reader_driver.all_done,
            max_events=2_000_000)
        from repro.checkers.history import History
        history = History.from_handles(
            writer_driver.handles + reader_driver.handles)
        assert check_regularity(history, initial="v_init") == []

    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_burst_with_byzantine_and_randomized_delays(self, seed):
        result = run_scenario("swsr", kind="regular", n=9, t=1, seed=seed,
                              num_writes=8, num_reads=4,
                              op_gap=1.0, reader_offset=0.3,
                              byzantine_count=1,
                              byzantine_strategy="equivocate",
                              max_events=2_000_000)
        assert result.completed
        assert check_regularity(result.history, initial="v_init") == []

    def test_atomic_reader_under_burst_never_inverts(self):
        from repro.checkers.atomicity import find_new_old_inversions
        result = run_scenario("swsr", kind="atomic", n=9, t=1, seed=34,
                              num_writes=8, num_reads=6,
                              op_gap=1.2, reader_offset=0.4,
                              byzantine_count=1,
                              byzantine_strategy="flip-flop",
                              max_events=2_000_000)
        assert result.completed
        assert find_new_old_inversions(result.history) == []

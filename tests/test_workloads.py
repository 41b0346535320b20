"""Unit tests for workload generators, drivers and scenarios."""

import pytest

from repro.checkers.atomicity import check_linearizable
from repro.registers.system import Cluster, ClusterConfig, build_swsr_regular
from repro.workloads.generators import (ClientDriver, ValueStream,
                                        alternating_schedule, burst_schedule)
from repro.workloads.spec import run_scenario


class TestValueStream:
    def test_unique_increasing_values(self):
        stream = ValueStream()
        assert [stream.next() for _ in range(3)] == ["w0", "w1", "w2"]
        assert stream.produced == 3

    def test_custom_prefix(self):
        stream = ValueStream(prefix="x")
        assert stream.next() == "x0"

    def test_values_are_interned(self):
        """Drawn values share one object with their interned equal."""
        import sys
        stream = ValueStream(prefix="payload-")
        for _ in range(5):
            value = stream.next()
            assert value is sys.intern(value)

    def test_interning_changes_no_values_or_digests(self):
        """Differential pin: values/digests match an uninterned stream.

        The fast path draws through ``sys.intern``; an equivalent plain
        f-string stream must produce equal values, and a seeded scenario
        (whose every written payload flows from ValueStream) must keep
        the exact ``history_digest`` the uninterned seed code produced.
        """
        stream = ValueStream(prefix="w")
        plain = [f"w{i}" for i in range(50)]
        drawn = [stream.next() for i in range(50)]
        assert drawn == plain

        first = run_scenario("swsr", seed=17, num_writes=3,
                             num_reads=3).summarize()
        second = run_scenario("swsr", seed=17, num_writes=3,
                              num_reads=3).summarize()
        assert first == second
        assert first.history_digest == second.history_digest


class TestSchedules:
    def test_alternating_default_offset_interleaves(self):
        writes, reads = alternating_schedule(10.0, 3, 4.0)
        assert writes == [10.0, 14.0, 18.0]
        assert reads == [12.0, 16.0, 20.0]

    def test_alternating_custom_offset(self):
        writes, reads = alternating_schedule(0.0, 2, 10.0, reader_offset=1.0)
        assert reads == [1.0, 11.0]

    def test_burst_schedule(self):
        writes, reads = burst_schedule(5.0, writes=3, reads=2,
                                       write_gap=1.0, read_gap=2.0)
        assert writes == [5.0, 6.0, 7.0]
        assert reads == [5.0, 7.0]


class TestClientDriver:
    def test_sequentializes_overlapping_requests(self):
        cluster = Cluster(ClusterConfig(n=9, t=1, seed=0))
        writer, reader = build_swsr_regular(cluster, initial="i")
        driver = ClientDriver(cluster.scheduler, writer)
        # both scheduled at the same instant: must run one after the other
        driver.at(1.0, lambda: writer.write("a"))
        driver.at(1.0, lambda: writer.write("b"))
        cluster.scheduler.run_until(lambda: driver.all_done,
                                    max_events=500_000)
        assert len(driver.handles) == 2
        assert driver.handles[0].response_time <= driver.handles[1].invoke_time

    def test_all_done_false_before_scheduling(self):
        cluster = Cluster(ClusterConfig(n=9, t=1, seed=0))
        writer, reader = build_swsr_regular(cluster, initial="i")
        driver = ClientDriver(cluster.scheduler, writer)
        driver.at(5.0, lambda: writer.write("later"))
        assert not driver.all_done

    def test_preserves_request_order(self):
        cluster = Cluster(ClusterConfig(n=9, t=1, seed=0))
        writer, reader = build_swsr_regular(cluster, initial="i")
        driver = ClientDriver(cluster.scheduler, writer)
        for value in ("a", "b", "c"):
            driver.at(1.0, lambda v=value: writer.write(v))
        cluster.scheduler.run_until(lambda: driver.all_done,
                                    max_events=500_000)
        metas = [handle.meta["value"] for handle in driver.handles]
        assert metas == ["a", "b", "c"]


class TestScenarios:
    def test_swsr_scenario_reports(self):
        result = run_scenario("swsr", num_writes=2, num_reads=2, seed=1)
        assert result.completed
        assert result.report is not None
        assert result.messages_sent > 0
        assert len(result.history.writes()) == 2
        assert len(result.history.reads()) == 2

    def test_swsr_scenario_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            run_scenario("swsr", kind="bogus")

    def test_swsr_scenario_explicit_byzantine_map(self):
        result = run_scenario("swsr", seed=2, num_writes=2, num_reads=2,
                              byzantine={"s3": "silent",
                                         "s7": "stale"})
        assert result.completed
        assert result.cluster.byzantine_ids == ["s3", "s7"]

    def test_mwmr_scenario_histories_linearize(self):
        result = run_scenario("mwmr", m=2, seed=3, ops_per_process=1)
        assert result.completed
        assert check_linearizable(result.history).ok

    def test_scenario_workload_starts_after_corruption(self):
        result = run_scenario("swsr", seed=4, num_writes=2, num_reads=2,
                              corruption_times=(5.0,))
        assert result.tau_no_tr == 5.0
        first_op = min(op.invoke for op in result.history)
        assert first_op > 5.0

    def test_scenario_deterministic_per_seed(self):
        a = run_scenario("swsr", seed=9, num_writes=2, num_reads=2)
        b = run_scenario("swsr", seed=9, num_writes=2, num_reads=2)
        assert a.history.format() == b.history.format()
        assert a.messages_sent == b.messages_sent

    @pytest.mark.parametrize("reader_offset", [None, 0.5])
    @pytest.mark.parametrize("transport", ["direct", "datalink"])
    @pytest.mark.parametrize("kind, n, t", [("regular", 9, 1),
                                            ("atomic", 17, 2)])
    def test_one_chunk_soak_is_the_swsr_run(self, kind, n, t, transport,
                                            reader_offset):
        """The fact the shared SWSR drive loop rests on: scheduling the
        whole workload as one chunk (soak with ``chunk_ops`` >= the op
        count and no burst prelude) is the same execution as the
        ``swsr`` family's.  Whoever changes one schedule shape breaks
        this first."""
        workload = dict(kind=kind, n=n, t=t, seed=6, transport=transport,
                        num_writes=5, num_reads=6, op_gap=10.0,
                        reader_offset=reader_offset)
        swsr = run_scenario("swsr", **workload).summarize()
        soak = run_scenario("soak", fault_bursts=0, chunk_ops=64,
                            keep_history=True, **workload).summarize()
        for fact in ("history_digest", "events_processed", "messages_sent",
                     "sim_end", "ops"):
            assert getattr(soak, fact) == getattr(swsr, fact), fact

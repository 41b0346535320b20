"""Tests of the MWMR atomic register (Figure 4 / Theorem 4)."""

import pytest

from repro.checkers.atomicity import check_linearizable
from repro.checkers.history import History
from repro.faults.byzantine import strategy_factory
from repro.faults.transient import TransientFaultInjector
from repro.registers.epochs import Epoch, EpochLabeling
from repro.registers.mwmr import is_valid_triple
from repro.registers.system import Cluster, ClusterConfig, build_mwmr
from repro.workloads.spec import run_scenario


def make_system(m=3, n=9, t=1, seed=0, seq_bound=2 ** 64, **kwargs):
    cluster = Cluster(ClusterConfig(n=n, t=t, seed=seed, **kwargs))
    register = build_mwmr(cluster, m, seq_bound=seq_bound)
    return cluster, register


def run_op(cluster, handle, max_events=2_000_000):
    cluster.run_ops([handle], max_events=max_events)
    return handle.result


class TestBasics:
    def test_any_process_reads_any_write(self):
        cluster, register = make_system()
        run_op(cluster, register.write("p1", "from-p1"))
        assert run_op(cluster, register.read("p3")) == "from-p1"

    def test_writes_by_different_processes_ordered(self):
        cluster, register = make_system()
        run_op(cluster, register.write("p1", "first"))
        run_op(cluster, register.write("p2", "second"))
        run_op(cluster, register.write("p3", "third"))
        for pid in ("p1", "p2", "p3"):
            assert run_op(cluster, register.read(pid)) == "third"

    def test_sequence_numbers_advance_across_writers(self):
        cluster, register = make_system()
        run_op(cluster, register.write("p1", "a"))
        run_op(cluster, register.write("p2", "b"))
        # p2's write must carry a higher (epoch, seq) than p1's
        entries_handle = register.read("p1")
        run_op(cluster, entries_handle)
        assert entries_handle.result == "b"

    def test_initial_read(self):
        cluster, register = make_system()
        assert run_op(cluster, register.read("p2")) is None

    def test_unknown_process_rejected(self):
        cluster, register = make_system()
        with pytest.raises(KeyError):
            register.write("p9", "nope")


class TestEpochRenewal:
    def test_seq_bound_exhaustion_starts_new_epoch(self):
        cluster, register = make_system(seq_bound=3, seed=2)
        initial_epoch = register.labeling.initial()
        for index in range(5):
            run_op(cluster, register.write("p1", f"v{index}"))
        assert run_op(cluster, register.read("p2")) == "v4"
        # at least one renewal must have happened (seq crossed the bound)
        role = register.roles[0]
        final = run_op(cluster, register.read("p1"))
        assert final == "v4"

    def test_corrupted_incomparable_epochs_force_renewal(self):
        cluster, register = make_system(seed=3)
        run_op(cluster, register.write("p1", "before"))
        # build an antichain by corrupting two SWMR registers' stored epochs
        labeling = register.labeling
        a = Epoch(1, frozenset({2, 3, 4}))
        b = Epoch(2, frozenset({1, 3, 4}))
        assert labeling.max_epoch([a, b]) is None
        for server in cluster.servers:
            for automaton_id, automaton in server.automatons.items():
                if automaton_id.startswith("mwmr/0/"):
                    automaton.last_val = (1, ("x", a, 1))
                if automaton_id.startswith("mwmr/1/"):
                    automaton.last_val = (1, ("y", b, 1))
        # next operation must renew the epoch and still terminate correctly
        run_op(cluster, register.write("p3", "after"))
        assert run_op(cluster, register.read("p2")) == "after"

    def test_read_renewal_path_writes_back(self):
        """Line 11: a read that renews publishes the new epoch."""
        cluster, register = make_system(seed=4)
        labeling = register.labeling
        a = Epoch(1, frozenset({2, 3, 4}))
        b = Epoch(2, frozenset({1, 3, 4}))
        for server in cluster.servers:
            for automaton_id, automaton in server.automatons.items():
                if automaton_id.startswith("mwmr/0/"):
                    automaton.last_val = (1, ("x", a, 1))
                if automaton_id.startswith("mwmr/1/"):
                    automaton.last_val = (1, ("y", b, 1))
        result = run_op(cluster, register.read("p1"))
        # afterwards a max epoch exists again: writes proceed normally
        run_op(cluster, register.write("p2", "post"))
        assert run_op(cluster, register.read("p3")) == "post"


class TestValidTriple:
    def test_accepts_proper_triple(self):
        labeling = EpochLabeling(3)
        triple = ("v", labeling.initial(), 5)
        assert is_valid_triple(triple, labeling, 2 ** 64)

    def test_rejects_garbage(self):
        labeling = EpochLabeling(3)
        assert not is_valid_triple("junk", labeling, 100)
        assert not is_valid_triple(("v", "not-epoch", 5), labeling, 100)
        assert not is_valid_triple(("v", labeling.initial(), -1),
                                   labeling, 100)
        assert not is_valid_triple(("v", labeling.initial(), 101),
                                   labeling, 100)


class TestConsistency:
    def test_sequential_history_linearizes(self):
        result = run_scenario("mwmr", m=3, n=9, t=1, seed=5, ops_per_process=2)
        assert result.completed
        outcome = check_linearizable(result.history)
        assert outcome.ok

    def test_concurrent_history_linearizes(self):
        result = run_scenario("mwmr", m=3, n=9, t=1, seed=6, ops_per_process=2,
                              concurrent=True)
        assert result.completed
        assert check_linearizable(result.history).ok

    def test_with_byzantine_server(self):
        result = run_scenario("mwmr", m=3, n=9, t=1, seed=7, ops_per_process=2,
                              byzantine_count=1,
                              byzantine_strategy="random-garbage")
        assert result.completed
        assert check_linearizable(result.history).ok

    def test_stabilizes_after_partial_corruption(self):
        result = run_scenario("mwmr", m=2, n=9, t=1, seed=8, ops_per_process=2,
                              corruption_times=(2.0,),
                              corruption_fraction=0.3)
        assert result.completed
        # post-corruption ops (all of them: workload starts after tau_no_tr)
        # must linearize
        assert check_linearizable(result.history).ok

    def test_two_processes_small(self):
        result = run_scenario("mwmr", m=2, n=9, t=1, seed=9, ops_per_process=3)
        assert result.completed
        assert check_linearizable(result.history).ok


class TestPracticallyStabilizingCaveats:
    def test_reader_renewal_at_exhaustion_publishes_own_value(self):
        """Faithful Figure-4 behaviour: when the register sits exactly at

        ``seq == bound``, a *read* triggers the renewal of line 11 and
        writes back its own (possibly stale) value with the new epoch —
        the read returns that value, losing the latest write.  Reaching
        this state needs ``2^64`` writes with the paper's bound, hence
        "practically" stabilizing.
        """
        cluster, register = make_system(seq_bound=3, seed=12)
        # writes park REG[0] at seq == 3 == bound (1, 2, 3)
        for index in range(3):
            run_op(cluster, register.write("p1", f"v{index}"))
        result = run_op(cluster, register.read("p2"))
        assert result is None  # p2's own register value, not v2


class TestLiveness:
    def test_full_corruption_without_rewrite_blocks_the_scan(self):
        """A documented liveness gap of the extended abstract: if *every*

        server copy of some ``REG[j]`` is corrupted to distinct values and
        ``p_j`` never writes again, readers of ``REG[j]`` find no quorum and
        loop forever (Lemma 2's termination needs a post-corruption write).
        The MWMR scan runs before the repairing write, so full corruption
        of all registers deadlocks — surfaced as non-completion.
        """
        result = run_scenario("mwmr", m=2, n=9, t=1, seed=8, ops_per_process=1,
                              corruption_times=(2.0,),
                              corruption_fraction=1.0,
                              max_events=150_000)
        assert not result.completed

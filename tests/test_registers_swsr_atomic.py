"""Behavioural tests of the practically atomic SWSR register (Figure 3)."""

import pytest

from repro.checkers.atomicity import find_new_old_inversions
from repro.checkers.regularity import check_regularity
from repro.faults.byzantine import strategy_factory
from repro.faults.transient import TransientFaultInjector
from repro.registers.bounded_seq import WsnConfig
from repro.registers.messages import BOT
from repro.registers.system import Cluster, ClusterConfig, build_swsr_atomic
from repro.sim.network import FixedDelay
from repro.workloads.engine import ScenarioEngine
from repro.workloads.spec import run_scenario
from repro.workloads.verdict import judge


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


#: reader_offset -> the seeds in 0-99 whose run is judged not ok, each
#: with the one violation ``stale-pv``
NOT_STABILIZING = {
    None: (),
    1.0: (2, 4, 5, 6, 10, 11, 12, 15, 21, 22, 29, 30, 32, 34, 36, 39, 43,
          45, 48, 51, 58, 59, 75, 89, 91, 93, 96),
}


@pytest.mark.parametrize("reader_offset", list(NOT_STABILIZING))
def test_reads_overlapping_writes_do_not_stabilize(reader_offset):
    """Records an open finding, not the intended behaviour: after one
    burst at t=1.0, an atomic register whose reads overlap its writes
    (``reader_offset=1.0``) keeps returning the reader's corrupted value
    on 27 of 100 seeds, and on none when they do not overlap.  The judge
    names it ``stale-pv``: each of the 27 ends with the reader's ``pwsn``
    ahead of the writer's ``wsn``, and none of the 173 ok runs does.
    Whether it is an implementation deviation or a precondition of the
    paper's guarantee is the ROADMAP's item 16.  The 200 exact
    executions also pin the kernel.
    """
    failing = {}
    for seed in range(100):
        verdict = judge("swsr", run_scenario(
            "swsr", kind="atomic", seed=seed, reader_offset=reader_offset,
            corruption_times=[1.0]))
        if not verdict.ok:
            failing[seed] = [v["kind"] for v in verdict.violations]
    assert failing == {seed: ["stale-pv"]
                       for seed in NOT_STABILIZING[reader_offset]}


def _reader_only_probe(seed, read_after, servers_at_bot, delay=None):
    """Whether the last 4 of 8 reads are regular after a corruption of
    the reader alone (``pwsn``/``pv``), once one clean write has run;
    ``delay`` makes every message take exactly that long."""
    cluster = Cluster(ClusterConfig(n=9, t=1, seed=seed,
                                    trace_backend="null"),
                      delay_model=delay and FixedDelay(delay))
    writer, reader = build_swsr_atomic(cluster)
    cluster.run_ops([writer.write("v0")])
    reader.role.pwsn, reader.role.pv = 2 ** 62, "corrupt"
    if servers_at_bot:                  # the state a read's line 22 leaves
        for server in cluster.servers:
            server.automatons["reg"].helping_val = BOT
    engine = ScenarioEngine(cluster)
    writes, reads = engine.driver(writer), engine.driver(reader)
    start = cluster.scheduler.now + 1
    for index in range(8):
        writes.at(start + 10 * index,
                  lambda value=f"v{index + 1}": writer.write(value))
        reads.at(start + 10 * index + read_after, reader.read)
    assert engine.run(max_events=1_000_000)
    cut = engine.history.reads()[4].invoke
    return not check_regularity(engine.history, after=cut)


#: (read_after, servers_at_bot) -> the seeds in 0-19 that never stabilize
READER_ONLY_NOT_STABILIZING = {
    (1.0, True): (2, 3, 4, 5, 10, 11, 15, 16, 18),
    (1.0, False): (),
    (5.0, True): (),
    (5.0, False): (),
}


def test_reader_only_corruption_with_overlapping_reads_does_not_stabilize():
    """Records the open finding the ROADMAP's item 16 triages, not the
    intended behaviour: with only the reader corrupted (``pwsn`` far
    ``>_cd``-ahead of the writer's ``wsn``, no sequence wrap) and every
    server's ``helping_val`` at ⊥, reads issued 1.0 after each write
    never stabilize on 9 of 20 delay seeds; reads 5.0 after, or servers
    holding the current helping pair, stabilize on all 20.

    Against Fig. 3 as quoted in ``repro.registers.swsr_atomic``: N2 sends
    READ(false), so the sanity check resets nothing; N4 takes its pairs
    from the ``helping_val`` column only, needing 2t+1 equal non-⊥ ones;
    a server's ``helping_val`` is set only by a write's 04M, which line 03
    sends only when the write's acks hold no 4t+1 equal helping pairs,
    and line 22 clears it on the first READ(true) (line 09) of every read.
    A read that overlaps a write runs N2-N3 before that write's 04M
    lands, and its own line 09 clears the pair on every server 04M
    reached first; unless 2t+1 servers got 04M after that line 09, the
    next sanity check sees no quorum either, 13M2 never adopts a pair
    below the corrupted ``pwsn``, and 13M3 keeps returning ``pv``.  The
    code follows the quoted lines; whether Fig. 3 assumes a read that
    does not overlap a write is the question left open.
    """
    for (read_after, at_bot), expected in \
            READER_ONLY_NOT_STABILIZING.items():
        failing = tuple(seed for seed in range(20) if not _reader_only_probe(
            seed, read_after, at_bot))
        assert failing == expected, (read_after, at_bot, failing)


@pytest.mark.parametrize("delay", [0.5, 1.0, 2.0])
def test_reads_invoked_before_the_first_round_trip_ends_never_stabilize(
        delay):
    """The item 16 witness without seeds: every message takes exactly
    ``d``, and each read is invoked ``a`` after its write.  With every
    server's ``helping_val`` at ⊥, the last 4 reads are not regular
    exactly when a < 2d, the write's first round trip; with the servers
    at the current pair, all are regular.

    Traced event by event at d = 1, a = 1 (write k invoked at T = 5):
    - T+1 = 6: the WRITE lands on s1..s9; every AckWrite carries ⊥.
    - T+2 = 7: the read's N2 READ(false), sent at 6, lands on s1..s9,
      and each answers ⊥, so N4 finds no pair.  The write's acks arrive
      at 7, and line 03 sends 04M.
    - T+3 = 8: 04M lands, and s1..s9 set ``helping_val`` to (2, 'v1').
      The read's line 09 sends READ(true).
    - T+4 = 9: line 22 clears (2, 'v1') on s1..s9.
    - T+5 = 10: the read sees a ``last_val`` quorum whose wsn is not
      ``>_cd`` the corrupted ``pwsn``, so 13M3 returns ``pv``.
    Write k+1 (T = 15) then again finds ⊥ on every server, so line 09
    clears each write's pair before the next write's N2 can see it.
    """
    for ratio in (0.5, 1.0, 1.5, 2.0, 3.0):
        for at_bot in (True, False):
            regular = _reader_only_probe(0, ratio * delay, at_bot, delay)
            assert regular == (not at_bot or ratio >= 2), (ratio, at_bot)

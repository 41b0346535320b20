"""The harness's own tests: ``pytest bench -q`` (not on Tier-1's testpaths)."""

import asyncio
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import pytest  # noqa: E402

from bench import layers, stats  # noqa: E402
from bench.compare import verdict  # noqa: E402
from bench.trace import (Installed, Span, Target, Tracer, root_time,  # noqa: E402
                         self_times)
from bench.workloads import SvcSingle  # noqa: E402


def ticking_clock():
    """A clock that advances one unit per reading."""
    now = [0.0]

    def clock():
        now[0] += 1.0
        return now[0]
    return clock


# -- self-time arithmetic ---------------------------------------------------

def test_self_time_is_span_minus_covered_children():
    spans = [
        Span("outer", 0.0, 10.0, -1, "r1", False),
        Span("inner", 2.0, 5.0, 0, "r1", False),
        Span("leaf", 3.0, 4.0, 1, "r1", False),
        Span("inner", 6.0, 9.0, 0, "r1", False),
    ]
    layers_ = self_times(spans)
    assert layers_["outer"] == (1, 10.0, 4.0)
    assert layers_["inner"] == (2, 6.0, 5.0)
    assert layers_["leaf"] == (1, 1.0, 1.0)
    assert root_time(spans) == 10.0
    # every instant inside a root is some span's self time
    assert sum(layer.self_time for layer in layers_.values()) == 10.0


class _Outer:
    def work(self, inner):
        return inner.step() + inner.step()

    async def fetch(self, inner):
        inner.step()
        await asyncio.sleep(0)      # suspended: others run meanwhile
        return inner.step()


class _Inner:
    def step(self):
        return 1


def test_sync_wrappers_nest_and_inherit_the_request():
    tracer = Tracer(clock=ticking_clock())
    with Installed(tracer, [
            Target(_Outer, "work", "outer",
                   request_of=lambda self, inner: "r7"),
            Target(_Inner, "step", "inner")]):
        assert _Outer().work(_Inner()) == 2
    outer, first, second = tracer.spans()
    assert (outer.name, outer.parent, outer.request) == ("outer", -1, "r7")
    assert (first.parent, second.parent) == (0, 0)
    assert first.request == second.request == "r7"
    # clock ticks: outer 1..6, inner 2..3 and 4..5
    assert self_times(tracer.spans())["outer"] == (1, 5.0, 3.0)


def test_coroutine_is_one_span_per_running_slice():
    tracer = Tracer(clock=ticking_clock())
    inner = _Inner()

    async def both():
        return await asyncio.gather(_Outer().fetch(inner),
                                    _Outer().fetch(inner))

    with Installed(tracer, [Target(_Outer, "fetch", "fetch", True),
                            Target(_Inner, "step", "step")]):
        assert asyncio.run(both()) == [1, 1]
    spans = tracer.spans()
    fetches = [span for span in spans if span.name == "fetch"]
    # two calls, each cut in two slices by its one suspension
    assert [span.resumed for span in fetches] == [False, False, True, True]
    assert self_times(spans)["fetch"].calls == 2
    # each slice holds exactly one step, and no slice contains another
    assert all(span.parent == -1 for span in fetches)
    steps = [span for span in spans if span.name == "step"]
    assert sorted(span.parent for span in steps) == sorted(
        spans.index(span) for span in fetches)


def test_wrappers_pass_through_while_disabled_and_are_restored():
    from repro.service import KVService

    taps = layers.Taps()
    tracer = Tracer()
    wrappers = layers.targets(taps)
    originals = {(target.owner, target.attr): vars(target.owner)[target.attr]
                 for target in wrappers}
    original_handle = KVService.handle
    with Installed(tracer, wrappers):
        assert KVService.handle is not original_handle
        tracer.enabled = False
        workload = SvcSingle(5)
        workload.setup()                    # warm-up records nothing
        assert len(tracer) == 0
        tracer.enabled = True
        segment = workload.run_segment(0)   # a real traced segment
        tracer.enabled = False
        workload.close()
    assert KVService.handle is original_handle
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original
    assert segment.failed == 0
    handled = self_times(tracer.spans())["KVService.handle"]
    assert handled.calls == SvcSingle.REQUESTS
    assert taps.observed == SvcSingle.REQUESTS
    counts = layers.count_metrics(tracer.spans(), taps, segment.events)
    assert counts["kvstore.sharding.routes_per_op"] == 2.0
    assert counts["kvstore.pipeline.ops_per_flush"] == 1.0


# -- statistics and the noise guard -------------------------------------------

def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(values, 0.0) == 1.0
    assert stats.percentile(values, 0.50) == 3.0
    assert stats.percentile(values, 0.95) == 5.0
    assert stats.percentile([7.0], 0.95) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


def test_segment_median_leaves_noisy_segments_out():
    values = [10.0, 11.0, 50.0, 12.0]
    summary = stats.segment_median(values, [False, False, True, False])
    assert (summary.median, summary.used) == (11.0, 3)
    # all noisy: fall back to everything (the run is unresolved anyway)
    assert stats.segment_median(values, [True] * 4).used == 4
    assert stats.spread([100.0]) == 0.0
    assert stats.spread([90.0, 100.0, 110.0, 120.0]) == pytest.approx(
        25.0 / 105.0)


def test_noise_guard_flags_slow_phases_and_preemption():
    quiet = [1.00, 1.02, 1.01, 1.03, 1.02, 1.01]
    on_cpu = [0.99] * 5
    assert stats.noisy_segments(quiet, on_cpu) == [False] * 5
    # an isolated calibration spike says nothing about its neighbours ...
    spike = [1.00, 1.02, 1.40, 1.03, 1.02, 1.01]
    assert stats.noisy_segments(spike, on_cpu) == [False] * 5
    # ... a phase that is slow on both sides of a segment does
    phase = [1.00, 1.02, 1.40, 1.45, 1.02, 1.01]
    assert stats.noisy_segments(phase, on_cpu) == [False, False, True,
                                                   False, False]
    # and so does time spent off the CPU
    assert stats.noisy_segments(quiet, [0.99, 0.80, 0.99, 0.99, 0.99]) == [
        False, True, False, False, False]
    assert not stats.unresolved([True, False, False, False])
    assert stats.unresolved([True, True, False, False])


def test_compare_verdicts():
    assert verdict(100.0, 96.0, "higher", 0.05, 0.01, False) == "ok"
    assert verdict(100.0, 94.0, "higher", 0.05, 0.01, False) == "regressed"
    assert verdict(100.0, 106.0, "lower", 0.05, 0.01, False) == "regressed"
    assert verdict(100.0, 80.0, "lower", 0.05, 0.01, False) == "ok"
    # spread wider than the bound, or too many noisy segments
    assert verdict(100.0, 99.0, "higher", 0.05, 0.08, False) == "unresolved"
    assert verdict(100.0, 99.0, "higher", 0.05, 0.01, True) == "unresolved"


# -- the command, end to end --------------------------------------------------

def test_quick_run_emits_exactly_the_declared_names(tmp_path):
    out = tmp_path / "quick.json"
    run = subprocess.run(
        [sys.executable, "-m", "bench", "--quick", "--traced", "--out",
         str(out)], cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    assert "NOT comparable" in run.stdout
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    document = json.loads(out.read_text())
    assert document["quick"] is True
    assert sorted(document["workloads"]) == sorted(
        workload["name"] for workload in declared["workloads"])
    exercised = set()
    for entry in document["workloads"].values():
        for kind in ("end_to_end", "per_layer"):
            result = entry[kind]
            assert result["correct"] and result["failed"] == 0
            assert {name: metric["unit"]
                    for name, metric in result["metrics"].items()} == {
                metric["name"]: metric["unit"] for metric in declared[kind]}
        assert all(metric["value"] > 0
                   for metric in entry["end_to_end"]["metrics"].values())
        exercised |= {name for name, metric
                      in entry["per_layer"]["metrics"].items()
                      if metric["value"]}
    # every layer metric is measured by some workload (this configuration
    # stabilizes at once, so its dirty-read count is a true zero)
    assert {metric["name"] for metric in declared["per_layer"]} \
        - exercised == {"faults.dirty_reads"}
    # the default seed ran, so the pinned facts were checked and hold
    pinned = json.loads((ROOT / "bench" / "expected.json").read_text())
    for name, entry in document["workloads"].items():
        facts = entry["end_to_end"]["detail"]["facts"]
        assert facts == pinned[name][:len(facts)]


def test_a_failed_check_prints_no_metric(tmp_path, monkeypatch, capsys):
    import argparse
    import time

    from bench import cli, harness

    pinned = json.loads((ROOT / "bench" / "expected.json").read_text())
    pinned["reg-ladder"][0]["swsr-reg-n9"]["ops"] = 1
    (tmp_path / "expected.json").write_text(json.dumps(pinned))
    monkeypatch.setattr(harness, "BENCH_DIR", tmp_path)
    args = argparse.Namespace(workload="reg-ladder",
                              seed=harness.DEFAULT_SEED, seconds=0.1,
                              trace=0, quick=True, setup_only=False)
    assert cli.one_workload(args, time.perf_counter()) == 1
    captured = capsys.readouterr()
    assert "segment 0.swsr-reg-n9.ops: expected 1, got 500" in captured.err
    result = json.loads(captured.out.splitlines()[-1])
    assert result["correct"] is False and result["metrics"] == {}
    assert "ops_per_s" not in captured.out

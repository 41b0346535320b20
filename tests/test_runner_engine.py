"""Engine behaviour: fan-out determinism, failure containment, aggregation."""

import pickle

import pytest

from repro.runner import (CellResult, SweepSpec, execute_cell, run_sweep,
                          results_to_json)
from repro.runner.aggregate import aggregate, render_report


def _tiny_spec(**overrides):
    kwargs = dict(
        name="tiny", scenario="swsr",
        base={"n": 9, "t": 1, "num_writes": 2, "num_reads": 2},
        grid={"kind": ["regular", "atomic"]},
        seeds=[0])
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


class TestInlineExecution:
    def test_cells_complete_and_hold(self):
        sweep = run_sweep(_tiny_spec(), workers=1)
        assert len(sweep.cells) == 2
        assert sweep.all_ok
        for cell in sweep.cells:
            assert cell.verdicts["completed"]
            assert cell.counters["messages_sent"] > 0
            assert cell.counters["events_processed"] > 0
            assert cell.timings["sim_end"] > 0
            assert cell.history_digest

    def test_results_sorted_by_cell_id(self):
        sweep = run_sweep(_tiny_spec(), workers=1)
        ids = [cell.cell_id for cell in sweep.cells]
        assert ids == sorted(ids)

    def test_cell_results_are_picklable(self):
        sweep = run_sweep(_tiny_spec(), workers=1)
        for cell in sweep.cells:
            clone = pickle.loads(pickle.dumps(cell))
            assert clone.to_dict() == cell.to_dict()

    def test_mwmr_cells_report_linearizability(self):
        spec = SweepSpec(name="mw", scenario="mwmr",
                         base={"n": 9, "t": 1, "ops_per_process": 1},
                         grid={"m": [2]}, seeds=[0])
        (cell,) = run_sweep(spec, workers=1).cells
        assert cell.verdicts["linearizable"]
        assert cell.ok

    def test_figure1_cells_encode_paper_expectation(self):
        spec = SweepSpec(name="f1", scenario="figure1",
                         grid={"kind": ["regular", "atomic"]}, seeds=None)
        regular, atomic = run_sweep(spec, workers=1).cells
        assert regular.verdicts["inverted"] and regular.ok
        assert not atomic.verdicts["inverted"] and atomic.ok


class TestDeterminismUnderParallelism:
    def test_workers_1_and_4_produce_byte_identical_json(self):
        spec = SweepSpec(
            name="det", scenario="swsr",
            base={"n": 9, "t": 1, "num_writes": 2, "num_reads": 2,
                  "byzantine_count": 1},
            grid={"kind": ["regular", "atomic"],
                  "corruption_times": [[], [2.0]]},
            seeds=[0])
        serial = run_sweep(spec, workers=1)
        parallel = run_sweep(spec, workers=4)
        assert serial.to_json() == parallel.to_json()
        assert results_to_json(serial.cells) == \
            results_to_json(parallel.cells)

    def test_history_digests_match_across_worker_counts(self):
        spec = _tiny_spec(name="dig")
        serial = run_sweep(spec, workers=1)
        parallel = run_sweep(spec, workers=2)
        assert [c.history_digest for c in serial.cells] == \
            [c.history_digest for c in parallel.cells]


class TestFailurePaths:
    def test_budget_exhaustion_is_data_not_error(self):
        """``Scheduler.run_until`` budget exhaustion surfaces as
        ``completed=False`` on the cell, without poisoning the sweep."""
        spec = SweepSpec(
            name="budget", scenario="swsr",
            base={"n": 9, "t": 1, "num_writes": 2, "num_reads": 2,
                  "max_events": 50},
            grid={"kind": ["regular"]}, seeds=[0])
        (cell,) = run_sweep(spec, workers=1).cells
        assert cell.error is None
        assert not cell.verdicts["completed"]
        assert not cell.ok

    def test_resilience_violation_is_contained_as_error(self):
        spec = SweepSpec(
            name="bad", scenario="swsr",
            base={"n": 9, "t": 3, "num_writes": 1, "num_reads": 1},
            grid={"kind": ["regular", "atomic"]}, seeds=[0])
        sweep = run_sweep(spec, workers=1)
        assert len(sweep.failures()) == 2
        for cell in sweep.failures():
            assert "resilience" in cell.error.lower() \
                or "ValueError" in cell.error

    def test_errors_do_not_stop_other_cells(self):
        specs = [
            SweepSpec(name="bad", scenario="swsr",
                      base={"n": 9, "t": 3}, grid={"kind": ["regular"]},
                      seeds=[0]),
            _tiny_spec(),
        ]
        sweep = run_sweep(specs, workers=1)
        assert len(sweep.failures()) == 1
        assert sum(1 for cell in sweep.cells if cell.ok) == 2

    def test_error_is_type_and_message_only(self):
        """A traceback's source paths and line numbers would make the
        canonical sweep JSON depend on where the checkout lives."""
        spec = SweepSpec(name="bad", scenario="kv",
                         base={"seed": 1, "num_keys": 0})
        sweep = run_sweep(spec, workers=1)
        assert sweep.cells[0].error == (
            "ValueError: num_keys must be >= 1, got 0; a store with no "
            "key would judge no operation")
        assert 'File "' not in sweep.to_json()

    def test_error_cells_serialize(self):
        spec = SweepSpec(name="bad", scenario="swsr", base={"n": 9, "t": 3},
                         grid={"kind": ["regular"]}, seeds=[0])
        sweep = run_sweep(spec, workers=1)
        reloaded = CellResult.from_dict(sweep.cells[0].to_dict())
        assert reloaded.error is not None

    @pytest.mark.parametrize("kwargs, name", [
        (dict(workers=0), "workers"), (dict(workers=-1), "workers"),
        (dict(max_cells=0), "max_cells"), (dict(max_cells=-1), "max_cells"),
    ])
    def test_counts_below_one_are_rejected(self, kwargs, name):
        with pytest.raises(ValueError, match=f"{name} must be at least 1"):
            run_sweep(_tiny_spec(), **{"workers": 1, **kwargs})


class TestAggregation:
    def test_aggregate_counts_by_scenario(self):
        sweep = run_sweep(_tiny_spec(), workers=1)
        rollup = aggregate(sweep.cells)
        assert rollup["swsr"]["cells"] == 2
        assert rollup["swsr"]["ok"] == 2
        assert rollup["swsr"]["ok_rate"] == 1.0
        assert rollup["swsr"]["messages_sent"]["count"] == 2

    def test_render_report_uses_tables(self):
        sweep = run_sweep(_tiny_spec(), workers=1)
        text = render_report(sweep)
        assert "sweep [swsr]" in text
        assert "HOLDS" in text

    def test_to_json_excludes_wall_clock(self):
        sweep = run_sweep(_tiny_spec(), workers=1)
        assert sweep.wall_seconds > 0
        assert "wall" not in sweep.to_json()

    def test_max_cells_truncates(self):
        sweep = run_sweep(_tiny_spec(seeds=[0, 1, 2]), workers=1,
                          max_cells=2)
        assert len(sweep.cells) == 2


def test_execute_cell_matches_run_sweep_cell():
    spec = _tiny_spec(name="direct")
    cell = spec.cells()[0]
    direct = execute_cell(cell)
    via_sweep = run_sweep(spec, workers=1).cells[0]
    assert direct.to_dict() == via_sweep.to_dict()

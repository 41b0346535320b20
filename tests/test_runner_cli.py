"""CLI behaviour of ``python -m repro.runner`` / ``repro-sweep``."""

import json

import pytest

from repro.runner import SweepSpec
from repro.runner.cli import main


@pytest.fixture
def spec_file(tmp_path):
    spec = SweepSpec(
        name="cli", scenario="swsr",
        base={"n": 9, "t": 1, "num_writes": 2, "num_reads": 2},
        grid={"kind": ["regular", "atomic"]},
        seeds=[0])
    path = tmp_path / "spec.json"
    path.write_text(spec.to_json(), encoding="utf-8")
    return str(path)


def test_runs_a_spec_and_writes_canonical_json(spec_file, tmp_path, capsys):
    out = tmp_path / "results.json"
    assert main(["--spec", spec_file, "--out", str(out),
                 "--workers", "1"]) == 0
    document = json.loads(out.read_text(encoding="utf-8"))
    assert {"specs", "cells", "aggregate"} <= set(document)
    assert len(document["cells"]) == 2
    ids = [cell["cell_id"] for cell in document["cells"]]
    assert ids == sorted(ids)
    assert "2 cells, 2 ok" in capsys.readouterr().out


def test_output_is_byte_identical_across_worker_counts(spec_file, tmp_path):
    serial, parallel = tmp_path / "serial.json", tmp_path / "parallel.json"
    assert main(["--spec", spec_file, "--out", str(serial),
                 "--workers", "1", "--quiet"]) == 0
    assert main(["--spec", spec_file, "--out", str(parallel),
                 "--workers", "4", "--quiet"]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_dry_run_lists_cells_without_running(spec_file, capsys):
    assert main(["--spec", spec_file, "--dry-run"]) == 0
    out = capsys.readouterr().out
    assert "cli/swsr/0000" in out
    assert "2 cells" in out


def test_smoke_dry_run_has_at_least_24_cells(capsys):
    assert main(["--smoke", "--dry-run", "--quiet"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if "/" in line]
    assert len(lines) >= 24


def test_table_rendering(spec_file, capsys):
    assert main(["--spec", spec_file, "--table", "--workers", "1"]) == 0
    out = capsys.readouterr().out
    assert "sweep [swsr]" in out
    assert "HOLDS" in out


def test_no_input_is_an_error(capsys):
    assert main([]) == 2
    assert "nothing to run" in capsys.readouterr().err


def test_strict_fails_on_not_ok_cells(tmp_path, capsys):
    spec = SweepSpec(
        name="starved", scenario="swsr",
        base={"n": 9, "t": 1, "num_writes": 1, "num_reads": 1,
              "max_events": 50},
        grid={"kind": ["regular"]}, seeds=[0])
    path = tmp_path / "spec.json"
    path.write_text(spec.to_json(), encoding="utf-8")
    assert main(["--spec", str(path), "--workers", "1"]) == 0
    assert main(["--spec", str(path), "--workers", "1", "--strict"]) == 1
    assert "NOT OK (incomplete)" in capsys.readouterr().out


def test_error_cells_fail_even_without_strict(tmp_path):
    spec = SweepSpec(name="bad", scenario="swsr", base={"n": 9, "t": 3},
                     grid={"kind": ["regular"]}, seeds=[0])
    path = tmp_path / "spec.json"
    path.write_text(spec.to_json(), encoding="utf-8")
    assert main(["--spec", str(path), "--workers", "1", "--quiet"]) == 1


def test_max_cells_truncation(spec_file, capsys):
    assert main(["--spec", spec_file, "--dry-run", "--max-cells", "1"]) == 0
    out = capsys.readouterr().out
    assert "1 cells" in out


@pytest.mark.parametrize("argv, flag", [
    (["--smoke", "--dry-run", "--max-cells", "-1"], "--max-cells"),
    (["--smoke", "--max-cells", "0", "--strict"], "--max-cells"),
    (["--smoke", "--dry-run", "--workers", "0"], "--workers"),
    (["--smoke", "--workers", "-2", "--strict"], "--workers"),
])
def test_counts_below_one_are_usage_errors(argv, flag, capsys):
    """``cells[:-1]`` would silently drop the last cell and a zero budget
    would let ``--strict`` pass on nothing: both are typos, exit 2."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert f"{flag} must be at least 1" in capsys.readouterr().err

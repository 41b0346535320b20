"""Tests for the ``repro-profile`` entry point (repro.profiling)."""

import json

import pytest

from repro.profiling import (SORT_KEYS, _parse_param, build_parser, main,
                             profile_spec)
from repro.workloads.spec import ScenarioSpec


class TestProfileSpec:
    def test_document_shape(self):
        spec = ScenarioSpec("swsr", seed=3, num_writes=2, num_reads=2)
        document = profile_spec(spec, top=5)
        assert document["spec"] == {
            "family": "swsr",
            "params": {"seed": 3, "num_writes": 2, "num_reads": 2},
        }
        assert document["events_processed"] > 0
        assert document["events_per_sec"] > 0
        assert 0 < len(document["top"]) <= 5
        entry = document["top"][0]
        assert set(entry) == {"function", "file", "line", "ncalls",
                              "primitive_calls", "tottime", "cumtime"}

    def test_sharded_families_report_summed_events(self):
        spec = ScenarioSpec("kv", shard_count=2, num_keys=2, rounds=1,
                            seed=3)
        document = profile_spec(spec, top=3)
        assert document["events_processed"] > 0
        assert document["events_per_sec"] > 0

    def test_sort_key_validated(self):
        spec = ScenarioSpec("swsr", seed=1, num_writes=1, num_reads=1)
        with pytest.raises(ValueError, match="sort must be one of"):
            profile_spec(spec, sort="bogus")
        for top in (0, -1):
            with pytest.raises(ValueError, match="top must be >= 1"):
                profile_spec(spec, top=top)

    def test_cumulative_sort_orders_by_cumtime(self):
        spec = ScenarioSpec("swsr", seed=1, num_writes=1, num_reads=1)
        document = profile_spec(spec, top=10, sort="cumulative")
        cumtimes = [entry["cumtime"] for entry in document["top"]]
        assert cumtimes == sorted(cumtimes, reverse=True)


class TestParamParsing:
    def test_values_parse_as_json(self):
        assert _parse_param("n=25") == ("n", 25)
        assert _parse_param("corruption_times=[2.0]") == \
            ("corruption_times", [2.0])
        assert _parse_param("kind=regular") == ("kind", "regular")

    def test_malformed_param_rejected(self):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_param("no-equals-sign")
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_param("=5")

    def test_parser_accepts_all_sort_keys(self):
        parser = build_parser()
        for key in SORT_KEYS:
            args = parser.parse_args(["--family", "swsr", "--sort", key])
            assert args.sort == key


class TestMain:
    def test_writes_json_to_file(self, tmp_path):
        out = tmp_path / "profile.json"
        code = main(["--family", "swsr", "--param", "seed=3",
                     "--param", "num_writes=1", "--param", "num_reads=1",
                     "--top", "3", "--out", str(out)])
        assert code == 0
        document = json.loads(out.read_text())
        assert document["spec"]["family"] == "swsr"
        assert len(document["top"]) == 3

    def test_unknown_family_exits_nonzero(self, capsys):
        assert main(["--family", "not-a-family"]) == 2
        assert "repro-profile:" in capsys.readouterr().err

    def test_bad_param_exits_nonzero(self, capsys):
        assert main(["--family", "swsr", "--param", "bogus_knob=1"]) == 2
        for top in ("0", "-1"):     # used to slice the table silently
            with pytest.raises(SystemExit) as exit_info:
                main(["--family", "swsr", "--top", top])
            assert exit_info.value.code == 2
            assert "--top must be at least 1" in capsys.readouterr().err

"""Campaign fan-out, worker determinism, CLI exit codes, replay CLI."""

import json
import os

import pytest

from repro.fuzz.campaign import campaign_cases, campaign_spec, run_campaign
from repro.fuzz.cli import SMOKE_CASES, SMOKE_SEED, main
from repro.fuzz.harness import INJECT_ENV
from repro.fuzz.replay import ReplayArtifact, replay
from repro.runner.spec import expand


class TestCampaignSpec:
    def test_spec_expands_to_one_cell_per_case(self):
        spec = campaign_spec(5, 8)
        cells = expand(spec)
        assert len(cells) == 8
        assert all(cell.scenario == "fuzz" for cell in cells)

    def test_campaign_cases_lists_generated_cases(self):
        pairs = campaign_cases(5, 4)
        assert len(pairs) == 4
        spec = campaign_spec(5, 4)
        for (cell_id, case), cell in zip(pairs, spec.cells()):
            assert cell_id == cell.cell_id
            assert case.seed == cell.seed


class TestCampaignDeterminism:
    def test_serial_and_parallel_json_byte_identical(self):
        serial = run_campaign(5, 6, workers=1)
        parallel = run_campaign(5, 6, workers=2)
        assert serial.to_json() == parallel.to_json()
        assert serial.all_ok

    def test_failures_shrink_and_emit_artifacts(self, monkeypatch,
                                                tmp_path):
        monkeypatch.setenv(INJECT_ENV, "burst")
        result = run_campaign(7, 6, workers=1,
                              artifacts_dir=str(tmp_path))
        assert not result.all_ok
        assert result.failures
        for failure in result.failures:
            assert failure.confirmed_signature == ["injected:burst"]
            assert failure.artifact_name
            path = tmp_path / failure.artifact_name
            artifact = ReplayArtifact.load(str(path))
            assert artifact.requires_env == {INJECT_ENV: "burst"}
            assert len(artifact.case.timeline) <= \
                len(artifact.original_case.timeline)
            # the artifact reproduces while the hook env is set
            assert replay(artifact).reproduced

    def test_parent_side_crash_is_contained_as_failure(self, monkeypatch):
        """A generator/confirmation crash in the parent process must not

        kill the campaign — it becomes a failure record like any other.
        """
        import repro.fuzz.campaign as campaign_mod
        real = campaign_mod.generate_case

        def exploding(seed, profile, family):
            raise RuntimeError("boom")

        # make every cell 'fail' fast so phase 2 runs, then explode there
        monkeypatch.setenv(INJECT_ENV, "burst")
        monkeypatch.setattr(campaign_mod, "generate_case", exploding)
        result = campaign_mod.run_campaign(7, 6, workers=1)
        assert not result.all_ok
        for failure in result.failures:
            assert failure.confirmed_signature == ["error:RuntimeError"]
            assert "boom" in failure.error
        monkeypatch.setattr(campaign_mod, "generate_case", real)

    def test_injected_campaign_json_deterministic_across_workers(
            self, monkeypatch):
        monkeypatch.setenv(INJECT_ENV, "burst")
        serial = run_campaign(7, 6, workers=1)
        parallel = run_campaign(7, 6, workers=2)
        assert serial.to_json() == parallel.to_json()


class TestCli:
    def test_smoke_budget_is_fixed(self):
        assert SMOKE_SEED == 20260730
        assert SMOKE_CASES == 64

    def test_clean_campaign_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "fuzz.json"
        assert main(["--seed", "5", "--cases", "4",
                     "--out", str(out)]) == 0
        document = json.loads(out.read_text())
        assert document["campaign"]["seed"] == 5
        assert len(document["cells"]) == 4
        assert document["failures"] == []

    def test_violations_exit_nonzero_and_write_artifacts(
            self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv(INJECT_ENV, "burst")
        art = tmp_path / "artifacts"
        assert main(["--seed", "7", "--cases", "6",
                     "--artifacts", str(art)]) == 1
        names = os.listdir(art)
        assert names and all(name.startswith("replay-") for name in names)
        assert "VIOLATION" in capsys.readouterr().out

    def test_dry_run_lists_cases(self, capsys):
        assert main(["--dry-run", "--seed", "5", "--cases", "3"]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("fuzz-5/")]
        assert len(lines) == 3

    def test_replay_expectations(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv(INJECT_ENV, "burst")
        art = tmp_path / "artifacts"
        main(["--seed", "7", "--cases", "6", "--artifacts", str(art),
              "--quiet"])
        path = os.path.join(art, sorted(os.listdir(art))[0])
        # hook still set: the violation reproduces
        assert main(["--replay", path]) == 0
        capsys.readouterr()
        # hook removed: clean run; default expectation fails ...
        monkeypatch.delenv(INJECT_ENV)
        assert main(["--replay", path]) == 1
        assert "expects" in capsys.readouterr().out  # missing-env hint
        # ... and --expect clean passes.
        assert main(["--replay", path, "--expect", "clean"]) == 0

    def test_replay_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["--replay", str(bad)]) == 2

    def test_replay_rejects_malformed_case_fields(self, tmp_path, capsys):
        from repro.capture.format import CaptureSink
        from repro.fuzz.replay import CAPTURE_PROFILE, ReplayArtifact
        artifact = ReplayArtifact.load("tests/replays/injected-burst.json")
        broken = artifact.case.to_dict()
        del broken["seed"]
        bad = tmp_path / "broken.json"
        # a validly sealed capture whose header carries the broken case
        CaptureSink(str(bad), profile=CAPTURE_PROFILE, seed=0,
                    extra_header={"case": broken}).close(
            history_digest=None, summary=None, check={"kind": "fuzz"},
            extra_footer={"violations": artifact.violations})
        assert main(["--replay", str(bad)]) == 2
        assert "bad replay artifact" in capsys.readouterr().err

    def test_requires_some_input(self):
        with pytest.raises(SystemExit):
            main(["--cases", "not-a-number"])

    def test_shrink_budget_zero_records_unshrunk(self, monkeypatch,
                                                 tmp_path, capsys):
        monkeypatch.setenv(INJECT_ENV, "burst")
        art = tmp_path / "artifacts"
        assert main(["--seed", "7", "--cases", "6", "--shrink-budget",
                     "0", "--artifacts", str(art)]) == 1
        names = sorted(os.listdir(art))
        assert names
        artifact = ReplayArtifact.load(str(art / names[0]))
        # unshrunk: the artifact's case is the original case
        assert artifact.case == artifact.original_case
        assert artifact.shrink == {}
        assert replay(artifact).reproduced

    @pytest.mark.parametrize("argv", [
        ["--cases", "0"], ["--cases", "-3"],
        ["--seed", "5", "--cases", "4", "--workers", "0"],
        ["--dry-run", "--cases", "0"],
    ])
    def test_vacuous_budgets_are_usage_errors(self, argv, capsys):
        """A strict campaign over zero cases would pass having run
        nothing — a typo'd CI budget must not."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err

    def test_family_choices_and_help_come_from_the_table(self, capsys):
        from repro.fuzz.families import FUZZ_FAMILIES
        with pytest.raises(SystemExit):
            main(["--help"])
        text = " ".join(capsys.readouterr().out.split())
        for name, entry in FUZZ_FAMILIES.items():
            assert f"{name} = {entry.summary}" in text
            assert main(["--dry-run", "--family", name, "--cases", "2",
                         "--quiet"]) == 0
        with pytest.raises(SystemExit):
            main(["--family", "nope"])

    def test_smoke_rejects_explicit_seed_or_cases(self, capsys):
        with pytest.raises(SystemExit):
            main(["--smoke", "--seed", "42"])
        with pytest.raises(SystemExit):
            main(["--smoke", "--cases", "200"])

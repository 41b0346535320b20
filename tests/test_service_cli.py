"""``repro-service`` flags that size a store or a load: usage errors.

Each of these used to end in a traceback from deep inside the store
(exit 1) whose message named no flag, or suggested a keyword argument the
command line cannot pass.  The other CLIs keep the same rule.
"""

import json

import pytest

from repro.capture.cli import main as capture_main
from repro.fuzz.cli import main as fuzz_main
from repro.service.cli import main
from repro.service.loadgen import run_loopback_load


@pytest.mark.parametrize("argv, message", [
    (["bench", "--clients", "0"], "--clients must be at least 1, got 0"),
    (["bench", "--lanes", "0"], "--lanes must be at least 1, got 0"),
    (["bench", "--rounds", "0"], "--rounds must be at least 1, got 0"),
    (["bench", "--keys-per-lane", "-1"],
     "--keys-per-lane must be at least 1, got -1"),
    (["bench", "--shards", "0"], "--shards must be at least 1, got 0"),
    (["bench", "--store-clients", "0"],
     "--store-clients must be at least 1, got 0"),
    (["bench", "--t", "-1"], "--t must be at least 0, got -1"),
    (["bench", "--n", "4", "--t", "1"], "--n 4 is too small for --t 1"),
    (["serve", "--shards", "0"], "--shards must be at least 1, got 0"),
    (["serve", "--n", "0"], "--n must be at least 1, got 0"),
    (["serve", "--n", "8"], "--n 8 is too small for --t 1"),
])
def test_bad_size_is_a_usage_error_naming_the_flag(argv, message, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argument", ["clients", "lanes", "rounds",
                                      "keys_per_lane"])
def test_loopback_load_names_the_bad_argument(argument):
    with pytest.raises(ValueError, match=f"^{argument} must be at least 1"):
        run_loopback_load(**{argument: 0})


@pytest.mark.parametrize("cli, argv, message", [
    # a traceback from the shard-parallel runner (exit 1)
    (capture_main, ["replay", "trace.jsonl", "--workers", "0"],
     "--workers: must be at least 1, got 0"),
    (capture_main, ["replay", "trace.jsonl", "--workers", "-2"],
     "--workers: must be at least 1, got -2"),
    # a traceback from the scenario spec (exit 1)
    (capture_main, ["record", "--family", "soak", "--out", "trace.jsonl",
                    "--metrics-every", "0"],
     "--metrics-every: must be positive, got 0"),
    # exit 0, silently acting as 0
    (fuzz_main, ["--shrink-budget", "-1"],
     "--shrink-budget must be at least 0, got -1"),
])
def test_other_clis_flag_below_its_minimum_is_a_usage_error(
        cli, argv, message, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli(argv)
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err


def test_bench_digests_do_not_depend_on_the_connection_count(tmp_path):
    """One connection and two, same seed: the same responses."""
    reports = []
    for clients in ("1", "2"):
        out = tmp_path / f"bench-{clients}.json"
        assert main(["bench", "--clients", clients, "--lanes", "2",
                     "--rounds", "2", "--keys-per-lane", "2",
                     "--shards", "2", "--seed", "20260808",
                     "--out", str(out)]) == 0
        reports.append(json.loads(out.read_text(encoding="utf-8")))
    one, two = reports
    assert one["response_digest"] == two["response_digest"]
    assert one["mismatches"] == two["mismatches"] == 0

"""``repro-service`` flags that size a store or a load: usage errors.

Each of these used to end in a traceback from deep inside the store
(exit 1) whose message named no flag, or suggested a keyword argument the
command line cannot pass.
"""

import pytest

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

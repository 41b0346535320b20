"""Every runnable demo in ``examples/`` exits cleanly.

Each script runs as a subprocess from a temporary directory, so anything
it writes lands there and not in the checkout.  It runs with resource
warnings as errors, and leaking a file or an asyncio task fails it: the
examples are what readers copy.
"""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = sorted(glob.glob(os.path.join(ROOT, "examples", "*.py")))


def test_examples_are_found():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=os.path.basename)
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-W", "error::ResourceWarning", script],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr[-2000:]
    # an unraisable warning (a file closed by the collector) or a pending
    # task is only reported on stderr, never through the exit code
    for leak in ("ResourceWarning", "Task was destroyed"):
        assert leak not in completed.stderr, completed.stderr[-2000:]

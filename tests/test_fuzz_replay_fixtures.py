"""The committed replay corpus under tests/replays/ must keep replaying.

Every artifact is loaded and re-executed.  Expectations are encoded per
fixture (see tests/replays/README.md): the real ``wsn-jump-atomic``
counterexample documents the Lemma 13 boundary and must keep reproducing;
the synthetic ``injected-burst`` fixture reproduces exactly when the
test-only hook environment it records is set.
"""

import glob
import os

import pytest

from repro.fuzz.harness import INJECT_ENV
from repro.fuzz.replay import ReplayArtifact, replay

REPLAY_DIR = os.path.join(os.path.dirname(__file__), "replays")
ARTIFACTS = sorted(glob.glob(os.path.join(REPLAY_DIR, "*.json")))


def test_corpus_is_nonempty():
    names = {os.path.basename(path) for path in ARTIFACTS}
    assert {"wsn-jump-atomic.json", "injected-burst.json"} <= names


@pytest.mark.parametrize("path", ARTIFACTS,
                         ids=[os.path.basename(p) for p in ARTIFACTS])
def test_artifact_parses_and_is_self_contained(path):
    artifact = ReplayArtifact.load(path)
    assert artifact.case.family == "swsr"     # the corpus is untagged
    assert artifact.case.params["num_reads"] >= 1
    assert artifact.signature, "artifact without recorded violations"
    assert artifact.shrink is not None
    assert artifact.original_case is not None
    # shrinking never grows the timeline
    assert len(artifact.case.timeline) <= \
        len(artifact.original_case.timeline)


def test_wsn_jump_reproduces_without_any_env(monkeypatch):
    """A model property, not a bug: the bounded-wsn ring jump persists."""
    monkeypatch.delenv(INJECT_ENV, raising=False)
    artifact = ReplayArtifact.load(
        os.path.join(REPLAY_DIR, "wsn-jump-atomic.json"))
    assert artifact.requires_env is None
    outcome = replay(artifact)
    assert outcome.reproduced
    assert "regularity" in outcome.outcome.signature


def test_artifact_roundtrips_through_capture_format(tmp_path):
    """Re-saving an artifact writes the unified capture format, and the
    loader reads it back equal, field for field."""
    artifact = ReplayArtifact.load(
        os.path.join(REPLAY_DIR, "wsn-jump-atomic.json"))
    path = str(tmp_path / "wsn-v1.jsonl")
    artifact.write(path)
    with open(path, encoding="utf-8") as handle:
        first = handle.readline()
    assert '"record": "header"' in first.replace('":"', '": "') or \
        '"record":"header"' in first
    back = ReplayArtifact.load(path)
    assert back.case == artifact.case
    assert back.original_case == artifact.original_case
    assert back.violations == artifact.violations
    assert back.shrink == artifact.shrink
    assert back.outcome == artifact.outcome
    assert back.campaign == artifact.campaign
    assert back.requires_env == artifact.requires_env
    # the unified format makes fuzz artifacts checkable like any trace
    from repro.capture import verify_capture
    info = verify_capture(path)
    assert info["profile"] == "fuzz-replay" and info["events"] == 0


def test_rewritten_artifact_still_reproduces(monkeypatch, tmp_path):
    monkeypatch.delenv(INJECT_ENV, raising=False)
    artifact = ReplayArtifact.load(
        os.path.join(REPLAY_DIR, "wsn-jump-atomic.json"))
    path = str(tmp_path / "wsn-v1.jsonl")
    artifact.write(path)
    outcome = replay(ReplayArtifact.load(path))
    assert outcome.reproduced


def test_injected_fixture_tracks_its_environment(monkeypatch):
    artifact = ReplayArtifact.load(
        os.path.join(REPLAY_DIR, "injected-burst.json"))
    assert artifact.requires_env == {INJECT_ENV: "burst"}
    monkeypatch.delenv(INJECT_ENV, raising=False)
    clean = replay(artifact)
    assert not clean.reproduced and clean.outcome.ok
    assert clean.missing_env == [INJECT_ENV]
    monkeypatch.setenv(INJECT_ENV, "burst")
    hooked = replay(artifact)
    assert hooked.reproduced and not hooked.missing_env

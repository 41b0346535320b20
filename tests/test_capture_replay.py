"""Differential replay of the golden capture corpus (tests/captures/).

One committed trace per scenario family (plus a fuzz-derived spec and a
service trace, exercised in test_capture_service.py).  Every trace must

* re-simulate to the identical ``history_digest`` and summary,
* re-check (streaming, no simulator) to the same verdicts,
* re-record **byte-identically** from its recorded spec — the format
  carries no wall-clock, so same spec + same seed = same bytes,

and structurally invalid inputs must fail with the typed errors the
format documents (truncation, corruption, wrong format).
"""

import filecmp
import json
import os

import pytest

from repro.capture import (CaptureFormatError, CorruptCaptureError,
                           ReplayMismatchError, TruncatedCaptureError,
                           load_capture, record_scenario, replay_capture,
                           verify_capture)
from repro.capture.cli import main as capture_main
from repro.fuzz.gen import generate_case
from repro.workloads.scenarios import INITIAL

CAPTURE_DIR = os.path.join(os.path.dirname(__file__), "captures")

#: family -> the exact params its golden trace was recorded from.
GOLDEN = {
    "swsr": dict(seed=3, num_writes=2, num_reads=2,
                 corruption_times=[2.0]),
    "mwmr": dict(m=2, seed=3, ops_per_process=1),
    "partition": dict(seed=3, num_writes=2, num_reads=2),
    "mobile-byz": dict(seed=3, rotations=1, num_writes=2, num_reads=2),
    "kv": dict(shard_count=2, num_keys=2, rounds=1, seed=3,
               corruption_times=[2.0]),
    "reshard": dict(shard_count=2, num_keys=2, rounds=1, seed=3,
                    vnodes=4),
    "soak": dict(seed=3, num_writes=6, num_reads=6),
}

FAMILIES = sorted(GOLDEN)


def golden_path(name: str) -> str:
    return os.path.join(CAPTURE_DIR, f"{name}.jsonl")


def fuzz_derived_params() -> dict:
    """The fuzz.jsonl trace: a generated case rendered as a swsr spec
    (the committed header also pins ``initial``, which cases leave to
    the family default)."""
    return {**generate_case(5).scenario_kwargs(), "initial": INITIAL}


def test_corpus_is_complete():
    names = {entry for entry in os.listdir(CAPTURE_DIR)
             if entry.endswith(".jsonl")}
    expected = {f"{family}.jsonl" for family in FAMILIES}
    expected |= {"fuzz.jsonl", "service.jsonl"}
    assert expected <= names


@pytest.mark.parametrize("family", FAMILIES)
def test_resimulate_reproduces(family):
    report = replay_capture(golden_path(family), mode="resimulate")
    assert report.ok and not report.mismatches
    assert report.history_digest == report.expected_digest


@pytest.mark.parametrize("family", FAMILIES)
def test_recheck_agrees_with_resimulate(family):
    path = golden_path(family)
    recheck = replay_capture(path, mode="recheck")
    assert recheck.ok and not recheck.mismatches
    resim = replay_capture(path, mode="resimulate")
    assert recheck.history_digest == resim.history_digest
    assert recheck.expected_digest == resim.expected_digest


@pytest.mark.parametrize("family", FAMILIES)
def test_rerecord_is_byte_identical(family, tmp_path):
    fresh = str(tmp_path / f"{family}.jsonl")
    record_scenario(family, fresh, **GOLDEN[family])
    assert filecmp.cmp(fresh, golden_path(family), shallow=False), \
        f"re-recording {family} changed the trace bytes"


def test_fuzz_derived_trace_replays_and_rerecords(tmp_path):
    path = golden_path("fuzz")
    assert replay_capture(path, mode="resimulate").ok
    assert replay_capture(path, mode="recheck").ok
    fresh = str(tmp_path / "fuzz.jsonl")
    record_scenario("swsr", fresh, **fuzz_derived_params())
    assert filecmp.cmp(fresh, path, shallow=False)


def test_kv_trace_replays_under_parallel_workers():
    """Replaying with a worker pool must land on the same digest."""
    report = replay_capture(golden_path("kv"), mode="resimulate",
                            workers=2)
    assert report.ok and not report.mismatches


def test_recheck_rejects_workers():
    with pytest.raises(ValueError):
        replay_capture(golden_path("kv"), mode="recheck", workers=2)


# -- typed failure modes ---------------------------------------------------

def _lines(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.readlines()


def test_truncated_capture_raises(tmp_path):
    lines = _lines(golden_path("swsr"))
    bad = tmp_path / "truncated.jsonl"
    bad.write_text("".join(lines[:-1]), encoding="utf-8")
    with pytest.raises(TruncatedCaptureError):
        load_capture(str(bad))
    with pytest.raises(TruncatedCaptureError):
        replay_capture(str(bad))


def test_corrupted_event_raises(tmp_path):
    lines = _lines(golden_path("swsr"))
    event = json.loads(lines[1])
    assert event["record"] == "event"
    event["t"] = event["t"] + 0.0001     # silently nudge one stamp
    lines[1] = json.dumps(event, sort_keys=True,
                          separators=(",", ":")) + "\n"
    bad = tmp_path / "corrupt.jsonl"
    bad.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(CorruptCaptureError):
        load_capture(str(bad))


def test_corrupted_footer_checksum_raises(tmp_path):
    lines = _lines(golden_path("swsr"))
    footer = json.loads(lines[-1])
    footer["sha256"] = ("0" * 64)
    lines[-1] = json.dumps(footer, sort_keys=True,
                           separators=(",", ":")) + "\n"
    bad = tmp_path / "badsum.jsonl"
    bad.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(CorruptCaptureError):
        load_capture(str(bad))


def test_wrong_format_raises(tmp_path):
    bad = tmp_path / "wrong.jsonl"
    bad.write_text(json.dumps({"record": "header",
                               "format": "bogus/9"}) + "\n",
                   encoding="utf-8")
    with pytest.raises(CaptureFormatError):
        load_capture(str(bad))


def test_non_capture_file_raises(tmp_path):
    bad = tmp_path / "plain.json"
    bad.write_text('{"hello": "world"}\n', encoding="utf-8")
    with pytest.raises(CaptureFormatError):
        load_capture(str(bad))


def test_replay_mismatch_is_typed(tmp_path):
    """A sealed log whose footer lies about the digest must raise."""
    lines = _lines(golden_path("swsr"))
    # rebuild the capture with a tampered summary but a *valid* checksum:
    # strip the footer, re-seal via the sink's own machinery.
    import hashlib
    body = lines[:-1]
    footer = json.loads(lines[-1])
    footer["history_digest"] = "0" * 16
    footer["summary"]["history_digest"] = "0" * 16
    del footer["sha256"]
    sha = hashlib.sha256()
    for line in body:
        sha.update(line.encode("utf-8"))
    footer["sha256"] = sha.hexdigest()
    bad = tmp_path / "lying.jsonl"
    bad.write_text("".join(body) + json.dumps(
        footer, sort_keys=True, separators=(",", ":")) + "\n",
        encoding="utf-8")
    with pytest.raises(ReplayMismatchError):
        replay_capture(str(bad), mode="resimulate")
    report = replay_capture(str(bad), mode="resimulate", strict=False)
    assert not report.ok and report.mismatches


# -- the repro-capture CLI -------------------------------------------------

class TestCaptureCLI:

    def test_record_replay_check_tail(self, tmp_path, capsys):
        trace = str(tmp_path / "cli.jsonl")
        assert capture_main(["record", "--family", "swsr",
                             "--param", "seed=3",
                             "--param", "num_writes=2",
                             "--param", "num_reads=2",
                             "--out", trace]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["capture"] == trace

        report_path = str(tmp_path / "report.json")
        assert capture_main(["replay", trace, "--mode", "recheck",
                             "--out", report_path, "--quiet"]) == 0
        report = json.loads(open(report_path).read())
        assert report["ok"] and report["mode"] == "recheck"

        assert capture_main(["check", trace, "--quiet"]) == 0
        assert capture_main(["tail", trace, "-n", "1"]) == 0
        tail = capsys.readouterr().out.strip()
        assert json.loads(tail)["record"] == "footer"

    @pytest.mark.parametrize("lines", ["0", "-1"])
    def test_tail_line_counts_below_one_are_usage_errors(self, lines,
                                                          capsys):
        """``-n 0`` used to print the whole file and ``-n -1`` all but
        its first line, both with exit 0."""
        with pytest.raises(SystemExit) as exit_info:
            capture_main(["tail", golden_path("swsr"), "-n", lines])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "--lines" in captured.err and captured.out == ""

    def test_replay_exits_nonzero_on_truncation(self, tmp_path, capsys):
        lines = _lines(golden_path("swsr"))
        bad = tmp_path / "trunc.jsonl"
        bad.write_text("".join(lines[:-1]), encoding="utf-8")
        assert capture_main(["replay", str(bad), "--quiet"]) == 1
        assert "TruncatedCaptureError" in capsys.readouterr().err
        assert capture_main(["check", str(bad), "--quiet"]) == 1

    def test_record_rejects_param_with_spec(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(
            {"family": "swsr", "params": GOLDEN["swsr"]}))
        assert capture_main(["record", "--spec", str(spec_file),
                             "--family", "swsr",
                             "--out", str(tmp_path / "x.jsonl")]) == 2

    def test_verify_reports_event_kinds(self):
        info = verify_capture(golden_path("swsr"))
        assert info["kinds"] == {"fault": 1, "op": 4}
        assert info["profile"] == "scenario"
        info = verify_capture(golden_path("reshard"))
        assert info["kinds"]["reshard"] == 1

"""Shared machinery of the benchmark harness.

Every bench regenerates one experiment (named in its module docstring)
and reports a claims table (paper claim vs measured verdict).  Tables
are printed (visible with ``pytest benchmarks/ -s``) *and* upserted into
``benchmarks/results.txt`` so a plain ``--benchmark-only`` run still
leaves the evidence on disk.

``results.txt`` is a sequence of sections separated by blank lines; the
first line of each section (the table title) is its key.  Re-running any
bench replaces its own sections in place and leaves every other section
untouched, so a partial run — a single bench file, or a tier-1 sweep
that happens to collect benchmarks — can never go stale or clobber
tables it did not regenerate.  (The previous harness deleted the whole
file at session start, so exactly that happened.)
"""

import os

import pytest

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "results.txt")

#: fan-out width of the sweep-driven benches (CI sets it to the core count).
SWEEP_WORKERS = int(os.environ.get("REPRO_SWEEP_WORKERS", "1"))


@pytest.fixture
def sweep_workers():
    return SWEEP_WORKERS


def _split_sections(body: str) -> list:
    """Split results.txt into title-keyed sections (blank-line separated)."""
    sections = []
    for chunk in body.split("\n\n"):
        if chunk.strip():
            sections.append(chunk.strip("\n"))
    return sections


def upsert_section(text: str, path: str = RESULTS_PATH) -> None:
    """Replace the section sharing ``text``'s title line, else append."""
    text = text.strip("\n")
    title = text.split("\n", 1)[0]
    try:
        with open(path, "r", encoding="utf-8") as handle:
            sections = _split_sections(handle.read())
    except FileNotFoundError:
        sections = []
    for index, section in enumerate(sections):
        if section.split("\n", 1)[0] == title:
            sections[index] = text
            break
    else:
        sections.append(text)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n\n".join(sections) + "\n")


@pytest.fixture
def report():
    """Print a rendered table/series and persist it to results.txt."""

    def _report(text: str) -> None:
        print()
        print(text)
        upsert_section(text)

    return _report

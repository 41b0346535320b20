"""ASCII tables and series: the output format of the benchmark harness.

The paper has no numeric tables (it is a theory extended abstract); the
bench harness prints the *claims matrix* instead — one row per
configuration, with the measured verdicts.  These helpers keep that output
uniform and diff-friendly (``benchmarks/conftest.py`` upserts them into
``benchmarks/results.txt``).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence


class Table:
    """A fixed-column ASCII table.

    >>> table = Table("demo", ["n", "t", "ok"])
    >>> table.row(9, 1, True)
    >>> print(table.render())       # doctest: +SKIP
    """

    def __init__(self, title: str, columns: Sequence[str]):
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values, got {len(values)}")
        self.rows.append([_fmt(value) for value in values])

    def render(self) -> str:
        widths = [len(col) for col in self.columns]
        for row in self.rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines = [self.title]
        header = " | ".join(col.ljust(widths[i])
                            for i, col in enumerate(self.columns))
        lines.append(header)
        lines.append("-+-".join("-" * width for width in widths))
        for row in self.rows:
            lines.append(" | ".join(cell.ljust(widths[i])
                                    for i, cell in enumerate(row)))
        return "\n".join(lines)

    def print(self) -> None:  # pragma: no cover - console convenience
        print()
        print(self.render())


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def series(label: str, points: Iterable[Any]) -> str:
    """One-line rendering of a measured series."""
    return f"{label}: " + ", ".join(_fmt(point) for point in points)


def verdict(condition: bool, ok: str = "HOLDS", bad: str = "VIOLATED") -> str:
    """Uniform claim verdicts in bench output."""
    return ok if condition else bad

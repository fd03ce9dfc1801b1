"""Committed CSV fixtures: chain counts by length and the no-plus-full counts.

The files live under ``tamari/data`` and use decimal strings so that the
counts survive any tool that mangles large integers.  Each is a header line of
column names and one line per row, every field an integer with no quotes or
spaces, so a line is read with ``str.split`` and the ``csv`` module is not
loaded.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources


def _rows(filename: str) -> list[dict[str, str]]:
    """The rows of one data file as ``{column: field}``, blank lines skipped."""
    text = resources.files("tamari").joinpath("data").joinpath(filename).read_text()
    header, *lines = [line for line in text.splitlines() if line]
    columns = header.split(",")
    return [dict(zip(columns, line.split(","))) for line in lines]


@lru_cache(maxsize=None)
def length_table() -> dict[int, dict[int, int]]:
    """Published counts of maximal chains: lattice order -> length -> count."""
    table: dict[int, dict[int, int]] = {}
    for row in _rows("table_1_1.csv"):
        table.setdefault(int(row["n"]), {})[int(row["length"])] = int(row["count"])
    return table


@lru_cache(maxsize=None)
def nofull_table() -> dict[tuple[int, int], int]:
    """Committed counts with no plus-full-sets: (offset i, lattice order n) -> count.

    Rows -1..5 are the published table (``table_5_1.csv``); rows 6 and 7 are
    computed by two routes, not published (``nofull_row_6.csv`` and
    ``nofull_row_7.csv``).  Each row is complete; its zero cells are not listed.
    """
    return {(int(row["i"]), int(row["n"])): int(row["count"])
            for filename in ("table_5_1.csv", "nofull_row_6.csv", "nofull_row_7.csv")
            for row in _rows(filename)}

"""Committed CSV fixtures: chain counts by length and the no-plus-full counts.

The files live under ``tamari/data`` and use decimal strings so that the
counts survive any tool that mangles large integers.
"""

from __future__ import annotations

import csv
from functools import lru_cache
from importlib import resources


def _rows(filename: str) -> list[dict[str, str]]:
    with resources.files("tamari").joinpath("data").joinpath(filename).open() as handle:
        return list(csv.DictReader(handle))


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

    Rows -1..5 are the published table (``table_5_1.csv``); row 6 is computed by
    two routes, not published (``nofull_row_6.csv``).  Each row is complete; its
    zero cells are not listed.
    """
    return {(int(row["i"]), int(row["n"])): int(row["count"])
            for filename in ("table_5_1.csv", "nofull_row_6.csv")
            for row in _rows(filename)}

"""Exact counting of maximal chains by length, over the lattice and by recursion.

Two independent routes are kept side by side on purpose:

* the *lattice sweeps* over the cover graph of :func:`tamari.shapes.cover_graph`:
  :func:`count_by_length` tallies chains by length, and :func:`census` also
  classifies each cover step as plus-full or not, which depends on the edge
  alone, to count the chains with no plus-full-set and the minimal
  plus-full-set labels.  :func:`enumerate_maximal_chains` streams the actual
  chain tableaux; classified by :func:`tamari.tableaux.plus_full_set_labels`,
  they are the brute oracle the sweeps are tested against; and
* the *recursion*: the count of maximal chains of length n+i is
  ``sum_{t=1}^{2i+3} C(n+i, t+i) * N_i(t)`` where ``N_i(t)`` counts chains of
  length t+i with no plus-full-sets, and the initial values come from the
  inclusion-exclusion ``N_i(n) = sum_{t=1}^{n} (-1)^(n-t) C(n+i, t+i) * #C_i(t)``.

Everything is exact integer arithmetic; there is no floating point here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import comb, factorial
from types import MappingProxyType
from typing import Callable, Iterator, Mapping

from .shapes import Box, Partition, ShapeError, cover_graph
from .tableaux import Tableau, plus_full_set_labels


class IncompleteTableError(ValueError):
    """A required initial value N_i(t) is missing from the supplied table."""


@dataclass(frozen=True)
class LengthHistogram:
    """Counts of maximal chains of the n-th lattice, keyed by chain length."""

    n: int
    counts: Mapping[int, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", MappingProxyType(dict(self.counts)))

    def get(self, length: int) -> int:
        return self.counts.get(length, 0)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def lengths(self) -> list[int]:
        return sorted(self.counts)


@lru_cache(maxsize=32)
def count_by_length(n: int) -> LengthHistogram:
    """Histogram of maximal chains by length, via a DP over the cover graph.

    Sweeps the vertex ids in increasing order (decreasing box count), pushing
    per-length chain counts from the staircase upward; uses only the covering
    relation, so it serves as the enumeration-side oracle for the recursion.
    """
    if n < 1:
        raise ShapeError(f"lattice order must be >= 1, got {n}")
    graph = cover_graph(n)
    reach: list[dict[int, int]] = [{} for _ in graph.vertices]
    reach[0][0] = 1
    for vertex in range(graph.top):
        step = {length + 1: count for length, count in reach[vertex].items()}
        reach[vertex] = {}
        for cover in graph.covers[vertex]:
            target = reach[cover]
            for length, count in step.items():
                target[length] = target.get(length, 0) + count
    return LengthHistogram(n, reach[graph.top])


def enumerate_maximal_chains(n: int, length: int | None = None) -> Iterator[Tableau]:
    """Stream every maximal chain of the n-th lattice exactly once, as chain tableaux.

    Order is the depth-first order induced by the cover ordering (corner row
    ascending); the optional filter emits only chains of the given length.
    Lengths are only known at the top, so filtering happens at emission.
    """
    if n < 1:
        raise ShapeError(f"lattice order must be >= 1, got {n}")
    graph = cover_graph(n)
    covers, strips, top = graph.covers, graph.strips, graph.top
    grid = [[0] * (n + 1) for _ in range(n + 1)]

    def leaf(depth: int) -> Tableau:
        rows = tuple(tuple(depth - grid[x][y] for y in range(1, n - x + 1))
                     for x in range(1, n))
        return Tableau(n, rows)

    def walk(vertex: int, depth: int) -> Iterator[Tableau]:
        if vertex == top:
            if length is None or depth == length:
                yield leaf(depth)
            return
        for cover, strip in zip(covers[vertex], strips[vertex]):
            for row, col in strip:
                grid[row][col] = depth
            yield from walk(cover, depth + 1)

    yield from walk(0, 0)


@dataclass
class ChainCensus:
    """Plus-full-set tallies over all maximal chains of the n-th lattice.

    ``by_length`` counts chains by length, ``nofull_by_length`` those with no
    plus-full-set, and ``min_plus_full`` maps a length to a tally of the
    minimal plus-full-set label over the remaining chains.
    """

    n: int
    by_length: dict[int, int] = field(default_factory=dict)
    nofull_by_length: dict[int, int] = field(default_factory=dict)
    min_plus_full: dict[int, dict[int, int]] = field(default_factory=dict)


def is_plus_full_step(shape: Partition, strip: tuple[Box, ...], n: int) -> bool:
    """Whether the cover step removing ``strip`` from ``shape`` labels a plus-full-set.

    The set is full when the strip starts in row 1 and ends at (k, n-k) on the
    outer diagonal; it is plus-full when k = n-1 or box (k+1, n-k-1) is still
    in ``shape``, since that box is removed later and so gets a smaller label.
    """
    end_row, end_col = strip[-1]
    if strip[0][0] != 1 or end_row + end_col != n:
        return False
    return end_row == n - 1 or (len(shape) > end_row and shape[end_row] >= end_col - 1)


def census(n: int) -> ChainCensus:
    """Classify every maximal chain of the n-th lattice by its plus-full-sets.

    One sweep over the cover graph, like :func:`count_by_length`, but each
    vertex counts the chains reaching it by (length, steps taken since the
    last plus-full step, or -1 before the first).  At the top the last
    plus-full step carries the minimal label, which is that step count + 1.
    """
    if n < 1:
        raise ShapeError(f"lattice order must be >= 1, got {n}")
    graph = cover_graph(n)
    reach: list[dict[tuple[int, int], int]] = [{} for _ in graph.vertices]
    reach[0][(0, -1)] = 1
    for vertex in range(graph.top):
        here = reach[vertex]
        reach[vertex] = {}
        shape = graph.vertices[vertex]
        for cover, strip in zip(graph.covers[vertex], graph.strips[vertex]):
            full = is_plus_full_step(shape, strip, n)
            target = reach[cover]
            for (length, since), count in here.items():
                key = (length + 1, 0 if full else (since + 1 if since >= 0 else -1))
                target[key] = target.get(key, 0) + count
    result = ChainCensus(n)
    for (length, since), count in sorted(reach[graph.top].items()):
        result.by_length[length] = result.by_length.get(length, 0) + count
        if since < 0:
            result.nofull_by_length[length] = count
        else:
            result.min_plus_full.setdefault(length, {})[since + 1] = count
    return result


def count_nofull_brute(i: int, n: int) -> int:
    """Chains of length n+i with no plus-full-sets, by classifying every cover step."""
    if i < -1:
        raise ValueError(f"length offset must be >= -1, got {i}")
    return census(n).nofull_by_length.get(n + i, 0)


def nofull_initial_values(i: int, max_t: int | None = None,
                          histogram: Callable[[int], LengthHistogram] = count_by_length,
                          ) -> dict[int, int]:
    """Initial values N_i(t) for t = 1..min(2i+3, max_t), by inclusion-exclusion.

    ``N_i(n) = sum_{t=1}^{n} (-1)^(n-t) * C(n+i, t+i) * #C_i(t)`` with the
    chain counts taken from ``histogram`` (the cover-graph DP by default).
    Terms beyond ``max_t`` never matter to :func:`chains_count` at ``n <= max_t``
    because their binomial weight vanishes.
    """
    if i < -1:
        raise ValueError(f"length offset must be >= -1, got {i}")
    limit = 2 * i + 3 if max_t is None else min(max_t, 2 * i + 3)
    chain_counts = {t: histogram(t).get(t + i) for t in range(1, limit + 1)}
    values = {}
    for t in range(1, limit + 1):
        values[t] = sum((-1) ** (t - s) * comb(t + i, s + i) * chain_counts[s]
                        for s in range(1, t + 1))
    return values


def chains_count(i: int, n: int, table: Mapping[int, int]) -> int:
    """Number of maximal chains of length n+i via the counting recursion.

    Evaluates ``sum_{t=1}^{2i+3} C(n+i, t+i) * N_i(t)`` from the supplied
    initial values; the terms with t > n have vanishing binomial weight, so
    they are skipped and may be omitted from ``table``.
    """
    if i < -1:
        raise ValueError(f"length offset must be >= -1, got {i}")
    if n < 1:
        raise ValueError(f"lattice order must be >= 1, got {n}")
    total = 0
    for t in range(1, min(2 * i + 3, n) + 1):
        if t not in table:
            raise IncompleteTableError(f"initial value for t={t} (offset i={i}) is missing")
        total += comb(n + i, t + i) * table[t]
    return total


def longest_chain_count(n: int) -> int:
    """Closed product formula for the number of chains of the maximal length C(n, 2)."""
    if n < 1:
        raise ValueError(f"lattice order must be >= 1, got {n}")
    numerator = factorial(comb(n, 2))
    for j in range(1, n - 1):
        numerator *= factorial(j)
    denominator = 1
    for j in range(1, n):
        denominator *= factorial(2 * j - 1)
    quotient, remainder = divmod(numerator, denominator)
    assert remainder == 0
    return quotient


def conjecture_values(i: int) -> tuple[int, int | None]:
    """The conjectured closed products for N_i(2i+3) and (for i >= 0) N_i(2i+2).

    The first is ``prod_{j=1}^{i+1} C(3j-1, 2)``; the second multiplies it by
    ``i/5``, whose integrality is asserted (a failure would falsify the
    conjectured count).
    """
    if i < -1:
        raise ValueError(f"length offset must be >= -1, got {i}")
    product = 1
    for j in range(1, i + 2):
        product *= comb(3 * j - 1, 2)
    if i < 0:
        return product, None
    scaled, remainder = divmod(i * product, 5)
    if remainder:
        raise ArithmeticError(f"i*product = {i * product} is not divisible by 5 at i={i}")
    return product, scaled


def equal_representation_check(i: int, n: int) -> bool:
    """Check equal representation over equal-size plus-full-set label subsets.

    For every subset U of {1..n+i} with at most n-1 elements: the number of
    chains of length n+i whose plus-full-set labels are exactly U must be
    N_i(n-t), and the number whose labels contain U must be #C_i(n-t), where
    t = |U|.  The label sets come from the chain stream classified by
    :func:`plus_full_set_labels`, so this is for enumeration scale (n <= 7).
    """
    length = n + i
    tallies: dict[frozenset[int], int] = {}
    for tab in enumerate_maximal_chains(n, length=length):
        labels = frozenset(plus_full_set_labels(tab))
        tallies[labels] = tallies.get(labels, 0) + 1
    for t in range(0, n):
        expected_exact = count_nofull_brute(i, n - t)
        expected_super = count_by_length(n - t).get(n - t + i)
        for subset in combinations(range(1, length + 1), t):
            wanted = frozenset(subset)
            exact = tallies.get(wanted, 0)
            superset = sum(count for labels, count in tallies.items() if wanted <= labels)
            if exact != expected_exact or superset != expected_super:
                return False
    return True


def vanishing_check(i: int, n: int) -> bool:
    """Check that for n >= 2i+4 no chain of length n+i avoids plus-full-sets and
    the minimal plus-full-set labels partition the chains into the nonempty
    classes 1..3i+4."""
    if n < 2 * i + 4:
        raise ValueError(f"vanishing applies for n >= {2 * i + 4}, got {n}")
    summary = census(n)
    length = n + i
    if summary.nofull_by_length.get(length, 0) != 0:
        return False
    tally = summary.min_plus_full.get(length, {})
    if set(tally) != set(range(1, 3 * i + 4 + 1)):
        return False
    if any(count <= 0 for count in tally.values()):
        return False
    return sum(tally.values()) == summary.by_length.get(length, 0)

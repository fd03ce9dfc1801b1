"""Exact counting of maximal chains by length, over the lattice and by recursion.

Two independent routes are kept side by side on purpose:

* the *lattice sweeps*, one engine up the vertices reachable from the staircase,
  each vertex holding one int that packs its chain counts into fixed-width fields
  (:func:`_field_width` proves no field overflows); the engine reads each cover step
  from the kernel ``shapes._steps`` as its cover and the rows ``top+1 .. d`` of its
  strip, so no strip's boxes are built:
  :func:`sweep` counts chains by length up to a length bound, skipping the cover steps
  an edge filter rejects (:func:`is_plus_full_step` leaves the chains with no
  plus-full-set), and :func:`census` also tallies the minimal plus-full-set labels.
  :func:`enumerate_maximal_chains` streams the chain tableaux up the same kernel
  (the random draws of :mod:`tamari.checks` walk one step of it per vertex);
  classified by :func:`tamari.tableaux.plus_full_set_labels`, they are the brute
  oracle the sweeps are tested against; and
* the *recursion*: the count of maximal chains of length n+i is
  ``sum_{t=1}^{2i+3} C(n+i, t+i) * N_i(t)`` where ``N_i(t)`` counts chains of
  length t+i with no plus-full-sets; :func:`initial_values` computes each by that
  sweep and by ``N_i(n) = sum_{t=1}^{n} (-1)^(n-t) C(n+i, t+i) * #C_i(t)`` (inclusion-exclusion).

Everything is exact integer arithmetic; there is no floating point here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import comb, factorial
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping

from .shapes import Partition, ShapeError, _steps, staircase
from .tableaux import Tableau, plus_full_set_labels

# bound at import, so that rebinding the name ``Tableau`` here (the benchmark's
# tracer wraps it) leaves the stream's constructor alone
_trusted_tableau = Tableau._trusted


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


def _field_width(n: int) -> int:
    """Bits per length field in the packed states of order n: the bit length of
    ``prod_{b=1}^{C(n,2)} min(n-1, k(b))``, where k(b) is the largest k with
    k(k+1)/2 <= b.

    A vertex's covers are its corners, one each.  A partition with k corners has
    at least 1 + 2 + ... + k = k(k+1)/2 boxes, and at most n-1 rows, so a vertex
    with b boxes has at most min(n-1, k(b)) covers.  Box counts fall strictly along
    a chain, so all the chains that reach a vertex, at all lengths together, number
    at most that product.  No field reaches 2^width, and no carry can cross a
    field.  The width is 77 bits at order 9, where real counts need at most 40,
    and 136 bits at order 11, where they need at most 74 (the looser bound
    ``(n-1)^C(n,2)`` would give 183).
    """
    product, k = 1, 0
    for boxes in range(1, comb(n, 2) + 1):
        if (k + 1) * (k + 2) // 2 <= boxes:
            k += 1
        product *= min(n - 1, k)
    return product.bit_length()


def _unpack(packed: int, width: int) -> dict[int, int]:
    """The nonzero fields of a packed state, ``{field index: count}``, index ascending."""
    mask = (1 << width) - 1
    fields = {}
    index = 0
    while packed:
        if count := packed & mask:
            fields[index] = count
        packed >>= width
        index += 1
    return fields


def _climb(n: int, start: int,
           advance: Callable[[Partition, int], tuple[int, int] | None],
           marked: Callable[..., bool] | None = None) -> int:
    """The state that reaches the null diagram of the n-th lattice from ``start`` at the
    staircase.  A state is one int packing chain counts into fields (:func:`_field_width`).

    Each box-count level maps its reachable vertices to their states and is freed
    once pushed; a step removing a strip goes that many boxes up, and states merge by
    addition.  Once per vertex, ``advance(shape, state)`` returns the states moved
    across a step, ``(plain, special)``, or None if nothing survives (covers are then
    skipped); the step that removes the last boxes of rows ``top+1 .. d`` takes
    ``special`` where ``marked(shape, top, d, n)`` holds.
    """
    if n < 1:
        raise ShapeError(f"lattice order must be >= 1, got {n}")
    levels: dict[int, dict[Partition, int]] = {comb(n, 2): {staircase(n - 1): start}}
    for boxes in range(comb(n, 2), 0, -1):
        for shape, state in levels.pop(boxes, {}).items():
            steps = advance(shape, state)
            if steps is None:
                continue
            plain, special = steps
            for cover, top, d in _steps(shape):
                moved = special if marked and marked(shape, top, d, n) else plain
                if moved:
                    level = levels.setdefault(boxes - (d - top), {})
                    level[cover] = level.get(cover, 0) + moved
    return levels.get(0, {}).get((), 0)


def sweep(n: int, max_length: int | None = None,
          skip_edge: Callable[..., bool] | None = None) -> dict[int, int]:
    """Maximal chains of the n-th lattice by length, up to ``max_length`` (default
    None: all), with no cover step for which ``skip_edge(shape, top, d, n)`` holds,
    where the step removes the last boxes of rows ``top+1 .. d`` of ``shape``.

    Pushes chain counts from the staircase up the reachable vertices (:func:`_climb`);
    a vertex's state packs the count of its chains of depth d into field d, so a
    step is one shift by the field width.  A step removes at most one box of row 1,
    so a chain at depth d of a vertex with k boxes in row 1 is dropped once
    d + k > ``max_length``: one mask per vertex, built only when it drops something.
    """
    width, top = _field_width(n), comb(n, 2)

    def advance(shape: Partition, reach: int) -> tuple[int, int] | None:
        keep = top if max_length is None else max_length - shape[0]
        if keep < 0:
            return None
        if keep < top:
            reach &= (1 << width * (keep + 1)) - 1
        return (reach << width, 0) if reach else None

    return _unpack(_climb(n, 1, advance, skip_edge), width)


@lru_cache(maxsize=32)
def count_by_length(n: int) -> LengthHistogram:
    """Histogram of maximal chains by length: the unbounded, unfiltered :func:`sweep`."""
    return LengthHistogram(n, sweep(n))


def enumerate_maximal_chains(n: int, length: int | None = None) -> Iterator[Tableau]:
    """Stream every maximal chain of the n-th lattice exactly once, as chain tableaux.

    Order is the depth-first order induced by the cover ordering (corner row
    ascending); the optional filter emits only chains of the given length.
    Lengths are only known at the top, so filtering happens at emission.
    """
    if n < 1:
        raise ShapeError(f"lattice order must be >= 1, got {n}")
    yield from _chains_up(n, staircase(n - 1), length)


def _chains_up(n: int, start: Partition, length: int | None = None,
               choose: Callable[[list], tuple] | None = None) -> Iterator[Tableau]:
    """Every chain from the vertex ``start`` of the n-th lattice up to the null
    diagram, depth first by the cover ordering, as a chain tableau of ``start``'s
    shape; with ``length`` given, only the chains of that length, and with
    ``choose`` given, only the chain that takes the step ``choose(steps)`` at
    each vertex.  ``start`` must be a validated vertex: the steps come from the
    unchecked kernel ``_steps``.

    Each box records the depth of the step that removes it; at the top, a step
    at depth d of a chain of length l carries label l - d.  Every step removes
    the last boxes of a strip's rows, so the labels grow along rows and weakly
    down columns, and the tableaux are built without validation.
    """
    grid = [[0] * (n + 1) for _ in range(n + 1)]
    cells = [(grid[x], size + 1) for x, size in enumerate(start, 1)]
    # a shape lies on many chains: list its steps once per stream
    memo: dict[Partition, list[tuple[Partition, int, int]]] = {}

    def walk(shape: Partition, depth: int) -> Iterator[Tableau]:
        if not shape:
            if length is None or depth == length:
                yield _trusted_tableau(n, tuple([tuple([depth - label for label in row[1:end]])
                                                 for row, end in cells]))
            return
        steps = memo.get(shape)
        if steps is None:
            steps = memo[shape] = _steps(shape)
        if choose is not None:
            steps = [choose(steps)]
        for cover, top, d in steps:
            for row in range(top + 1, d + 1):
                grid[row][shape[row - 1]] = depth
            yield from walk(cover, depth + 1)

    return walk(start, 0)


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


def is_plus_full_step(shape: Partition, top: int, d: int, n: int) -> bool:
    """Whether the cover step removing the last boxes of rows ``top+1 .. d`` of
    ``shape`` labels a plus-full-set.

    The set is full when the strip starts in row 1 (``top`` is 0) and ends at
    (d, n-d) on the outer diagonal; it is plus-full when d = n-1 or box
    (d+1, n-d-1) is still in ``shape``, since that box is removed later and so
    gets a smaller label.
    """
    if top or d + shape[d - 1] != n:
        return False
    return d == n - 1 or (len(shape) > d and shape[d] >= shape[d - 1] - 1)


def census(n: int) -> ChainCensus:
    """Classify every maximal chain of the n-th lattice by its plus-full-sets.

    The engine of :func:`sweep`, but each vertex counts the chains reaching it by
    (length, steps taken since the last plus-full step, or -1 before the first).
    The packed state holds one block of C(n,2)+1 length fields per ``since``, the
    clean block (-1) lowest.  A plain step shifts each field one length up and each
    block but the clean one a block up; a plus-full step folds every block into the
    block of ``since`` 0, once per vertex.  At the top the last plus-full step
    carries the minimal label, which is that step count + 1.
    """
    width, block = _field_width(n), comb(n, 2) + 1
    span = width * block
    clean_mask = (1 << span) - 1

    def advance(shape: Partition, reach: int) -> tuple[int, int]:
        clean = reach & clean_mask
        folded, rest = 0, reach
        while rest:
            folded += rest & clean_mask
            rest >>= span
        return (clean << width) | ((reach - clean) << (span + width)), folded << (span + width)

    result = ChainCensus(n)
    packed = _unpack(_climb(n, 1, advance, is_plus_full_step), width)
    for (length, since), count in sorted(((k % block, k // block - 1), c)
                                         for k, c in packed.items()):
        result.by_length[length] = result.by_length.get(length, 0) + count
        if since < 0:
            result.nofull_by_length[length] = count
        else:
            result.min_plus_full.setdefault(length, {})[since + 1] = count
    return result


class RouteMismatch(ValueError):
    """The two routes to an initial value N_i(t) disagree."""

    def __init__(self, i: int, t: int, ie: int, brute: int) -> None:
        super().__init__(f"routes disagree at i={i}, t={t}: brute {brute} vs "
                         f"inclusion-exclusion {ie}")
        self.i, self.t, self.ie, self.brute = i, t, ie, brute


def initial_values(offsets: Iterable[int], max_t: int) -> dict[int, dict[int, int]]:
    """``{i: {t: N_i(t)}}`` for each offset i and t = 1..min(max_t, 2i+3), by two routes.

    Each order t gets two :func:`sweep` calls, bounded at the longest chain any
    offset needs: one skips the plus-full steps, the other counts all chains for
    :func:`inclusion_exclusion`.  Raises :class:`RouteMismatch` where they disagree.
    Terms past ``max_t`` have zero weight in :func:`chains_count` at n <= max_t.
    """
    tops = {i: min(max_t, 2 * i + 3) for i in offsets}
    if min(tops, default=-1) < -1:
        raise ValueError(f"length offset must be >= -1, got {min(tops)}")
    longest = max(tops, default=-1)
    sweeps = {t: (sweep(t, t + longest), sweep(t, t + longest, is_plus_full_step))
              for t in range(1, max(tops.values(), default=0) + 1)}
    table = {}
    for i, top in tops.items():
        row = table[i] = inclusion_exclusion(
            i, {t: sweeps[t][0].get(t + i, 0) for t in range(1, top + 1)})
        for t, value in row.items():
            if value != (brute := sweeps[t][1].get(t + i, 0)):
                raise RouteMismatch(i, t, value, brute)
    return table


def nofull_initial_values(i: int, max_t: int | None = None) -> dict[int, int]:
    """The row i of :func:`initial_values`: N_i(t) for t = 1..min(2i+3, max_t)."""
    return initial_values([i], 2 * i + 3 if max_t is None else max_t)[i]


def inclusion_exclusion(i: int, chain_counts: Mapping[int, int]) -> dict[int, int]:
    """``N_i(t) = sum_{s=1}^{t} (-1)^(t-s) * C(t+i, s+i) * #C_i(s)`` for each t in
    ``chain_counts``, which maps every order s <= t to #C_i(s)."""
    return {t: sum((-1) ** (t - s) * comb(t + i, s + i) * chain_counts[s]
                   for s in range(1, t + 1))
            for t in chain_counts}


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
        expected_exact = sweep(n - t, n - t + i, is_plus_full_step).get(n - t + i, 0)
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
    # the census tallies are positive and sum to by_length by construction
    return set(summary.min_plus_full.get(length, {})) == set(range(1, 3 * i + 4 + 1))

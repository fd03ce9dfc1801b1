"""Exact counting of maximal chains by length, over the lattice and by recursion.

Two independent routes are kept side by side on purpose:

* the *lattice climbs*, one engine (:func:`_climb`) up from the staircase of each
  of a list of orders, each vertex holding one int that packs the chain counts of
  every order, one block each, into fixed-width fields (:func:`_field_width` proves
  no field overflows), optionally cut at a length bound by one table of masks
  (:func:`_length_masks`) and clearing the first block at each
  :func:`is_plus_full_step` of a given order; the climb keys its vertices by their
  codes (``shapes._code``, row j's length in byte j-1), and each cover step comes
  from the kernel ``shapes._steps`` as its cover's code and the rows ``top+1 .. d``
  of its strip, so a step is one subtraction and no strip's boxes are built.  A
  command climbs as few times as its counts allow: :func:`length_histograms`
  climbs once for every order, optionally up to a length bound.
  :func:`enumerate_maximal_chains` streams the chain tableaux up the same kernel, on
  an explicit stack and cut by length where a length is asked for (the random draw
  :func:`tamari.checks.random_chain` takes one step of it per vertex); classified by
  :func:`tamari.tableaux.plus_full_set_labels` (:func:`tamari.checks.stream_census`),
  they are the brute oracle the climbs are tested against; and
* the *recursion*: the count of maximal chains of length n+i is
  ``sum_{t=1}^{2i+3} C(n+i, t+i) * N_i(t)`` where ``N_i(t)`` counts chains of
  length t+i with no plus-full-sets.  :func:`initial_values` computes each from one
  climb of order t with two blocks: the chains with no plus-full step yet (the clean
  block), which each step :func:`is_plus_full_step` holds for clears, and all
  chains, which every step moves alike.  One route is the clean block, the other
  ``N_i(n) = sum_{t=1}^{n} (-1)^(n-t) C(n+i, t+i) * #C_i(t)`` (inclusion-exclusion)
  over the block of all chains, which no step rule touches; a wrong rule changes
  only the clean block, and shows up as a :class:`RouteMismatch`.

Everything is exact integer arithmetic; there is no floating point here.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import comb, factorial, isqrt
from types import MappingProxyType
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence

from .shapes import Partition, ShapeError, _code, _shape, _steps, _Value, staircase
from .tableaux import Tableau

# bound at import, so that rebinding the name ``Tableau`` here (the benchmark's
# tracer wraps it) leaves the stream's constructor alone
_trusted_tableau = Tableau._trusted


class IncompleteTableError(ValueError):
    """A required initial value N_i(t) is missing from the supplied table."""


class LengthHistogram(_Value):
    """Counts of maximal chains of the n-th lattice, keyed by chain length.

    ``counts`` is a read-only copy of the mapping passed in, so a histogram
    is unhashable; copies and pickles rebuild it from a plain dict.
    """

    __slots__ = __match_args__ = ("n", "counts")

    def __init__(self, n: int, counts: Mapping[int, int]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "counts", MappingProxyType(dict(counts)))

    def __reduce__(self):
        return LengthHistogram, (self.n, dict(self.counts))

    def get(self, length: int) -> int:
        return self.counts.get(length, 0)

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def _field_width(n: int, max_length: int | None = None) -> int:
    """Bits per length field in the packed states of order n up to length
    ``max_length`` (default None: no bound): the bit length of
    ``prod_{j<D} min(n-1, k(C(n,2)-j))``, D = min(``max_length``, C(n,2)), with k(b)
    the largest k with k(k+1)/2 <= b.

    A partition with k corners (its covers, one each) has at least k(k+1)/2 boxes
    and at most n-1 rows.  The j-th step of a chain leaves at most C(n,2)-j boxes,
    so at most the product of the first d factors reach a vertex at depth d; every
    vertex expanded has a box in row 1, so :func:`_length_masks` keeps no field past
    depth D.  No field reaches 2^width, and no carry can cross a field.  The
    width is 77 bits at order 9 (counts need 40), 136 at order 11 (they need 74) and
    34 at order 9 up to length 12; orders 1 and 2 multiply only ones and keep 1 bit,
    not 0.
    """
    top, product = comb(n, 2), 1
    for j in range(top if max_length is None else min(max_length, top)):
        product *= min(n - 1, (isqrt(8 * (top - j) + 1) - 1) // 2)
    return product.bit_length()


def _staircase_of(n: int) -> Partition:
    """The bottom of the n-th lattice, where every one of its maximal chains starts.
    Raises :class:`ShapeError` unless 1 <= n <= ``shapes.MAX_ORDER``, before the
    staircase is built: ``_code`` refuses its row 1 of n-1 boxes past the kernel."""
    if n < 1:
        raise ShapeError(f"lattice order must be >= 1, got {n}")
    _code((n - 1,))
    return staircase(n - 1)


def _length_masks(max_length: int, rows: int, width: int,
                  blocks: Collection[tuple[int, int]]) -> tuple[int, ...]:
    """The length masks of a :func:`_climb` bounded at L = ``max_length``, indexed
    by the length k < ``rows`` (its largest order) of a vertex's row 1: each keeps
    the fields 0 .. L-k of every block ``(offset, fields)`` of ``width``-bit fields,
    and nothing when k > L.  The climb cuts each state to the mask of the vertex it
    enters, as it is pushed there.

    A step removes at most one box of row 1, so a chain at depth d of a vertex with
    k boxes in row 1 is at least d + k long at the top, and is dropped once d + k > L.
    A kept field is below L, so no step shifts it out of its block.  Cutting each
    state pushed to a vertex equals cutting their sum, since no field carries into
    the next (:func:`_field_width`).
    """
    # the fields are capped before the shift, so a huge bound builds no huge mask
    return tuple(sum(((1 << width * min(max_length - k + 1, fields)) - 1) << offset
                     for offset, fields in blocks) if k <= max_length else 0
                 for k in range(rows))


def _climb(orders: Sequence[int], max_length: int | None = None,
           plus_full: int | None = None) -> tuple[dict[int, int], ...]:
    """The maximal chains of each of ``orders`` by length up to ``max_length``
    (default None: all), ``{length: count}`` in the order of ``orders``; with
    ``plus_full`` = t, the first entry counts only the chains that take no step
    :func:`is_plus_full_step` holds for at order t.

    Each vertex holds one int: entry j (order n) owns the j-th block of
    min(L, C(n,2))+1 fields, the first entry's lowest, L the bound or C(m,2) for the
    largest order m, and field d counts the chains that reach the vertex at depth
    d.  Every order is checked (:func:`_staircase_of`) before anything is built;
    each block is seeded with the one chain at its order's staircase.  A step
    shifts a state one field (``state << width``); a plus-full step also clears the
    first block (``state >> clean << clean``).  A vertex with a step has a box in
    row 1, so no chain there is C(n,2) or, under a bound, L long
    (:func:`_length_masks`): no step shifts a kept field into the next block.
    Every block takes the :func:`_field_width` of m up to the bound: the j-th step
    of a chain of order n < m leaves at most C(n,2)-j < C(m,2)-j boxes, and its
    vertices have at most n-1 < m-1 rows, so the bounds at m hold for it too.

    The levels are a list indexed by box count, each mapping the codes
    (``shapes._code``) of its vertices to their states and freed once pushed.  A
    step removing a strip goes that many boxes up, and states merge by addition.
    Under a bound, each state pushed, a seed's too, is cut to ``masks[k]`` of the
    vertex it enters (k its row 1's length, its code's low byte), and a state cut to
    nothing is not stored, so a vertex only such states reach is never expanded.
    Only with ``plus_full`` is a vertex's shape decoded, once, for the rule and the
    kernel both, and the rule is tested only where ``top`` is 0, the one case it
    can hold.
    """
    seeds = [_staircase_of(n) for n in orders]
    largest = max(orders)
    bound = comb(largest, 2) if max_length is None else max_length
    width = _field_width(largest, max_length)
    blocks, offset = [], 0
    for n in orders:
        fields = min(bound, comb(n, 2)) + 1
        blocks.append((offset, fields))
        offset += width * fields
    clean = width * blocks[0][1]
    masks = None if max_length is None else _length_masks(max_length, largest, width, blocks)
    levels: list = [{} for _ in range(max(map(sum, seeds)) + 1)]
    for seed, (offset, _) in zip(seeds, blocks):
        code, state = _code(seed), 1 << offset
        if masks is not None:
            state &= masks[code & 255]
        if state:
            level = levels[sum(seed)]
            level[code] = level.get(code, 0) + state
    for boxes in range(len(levels) - 1, 0, -1):
        level, levels[boxes] = levels[boxes], None
        for code, state in level.items():
            state <<= width
            shape = _shape(code) if plus_full else None
            for cover, top, d in _steps(code, shape):
                moved = state
                if plus_full and not top and is_plus_full_step(shape, top, d, plus_full):
                    moved = state >> clean << clean
                if masks is not None:
                    moved &= masks[cover & 255]
                if moved:
                    into = levels[boxes - (d - top)]
                    into[cover] = into.get(cover, 0) + moved
    packed, mask = levels[0].get(0, 0), (1 << width) - 1
    return tuple({d: count for d in range(fields)
                  if (count := (packed >> (offset + d * width)) & mask)}
                 for offset, fields in blocks)


def length_histograms(orders: Iterable[int],
                      max_length: int | None = None) -> dict[int, LengthHistogram]:
    """``{n: histogram of the maximal chains of order n by length}`` for each order,
    ascending, up to ``max_length`` (default None: all), from one :func:`_climb`
    seeded at every order's staircase, the largest order's block lowest, so the
    states near the bottom stay short.
    """
    if max_length is not None and max_length < 0:
        raise ValueError(f"length bound must be >= 0, got {max_length}")
    orders = sorted(set(orders))
    if not orders:
        return {}
    counts = _climb(orders[::-1], max_length)[::-1]
    return {n: LengthHistogram(n, by_length) for n, by_length in zip(orders, counts)}


@lru_cache(maxsize=32)
def count_by_length(n: int) -> LengthHistogram:
    """Histogram of maximal chains by length: :func:`length_histograms` with one seed."""
    return length_histograms([n])[n]


def enumerate_maximal_chains(n: int, length: int | None = None) -> Iterator[Tableau]:
    """Stream every maximal chain of the n-th lattice exactly once, as chain tableaux.

    Order is the depth-first order induced by the cover ordering (corner row
    ascending); with ``length`` given, only the chains of that length, and the walk
    cuts every branch that cannot end at it (:func:`_chains_up`).  The order is
    checked (:func:`_staircase_of`) at the call, before the walk allocates anything.
    """
    return _chains_up(n, _staircase_of(n), length)


def _chains_up(n: int, start: Partition, length: int | None = None,
               choose: Callable[[list], tuple] | None = None) -> Iterator[Tableau]:
    """Every chain from the vertex ``start`` of the n-th lattice up to the null
    diagram, depth first by the cover ordering, as a chain tableau of ``start``'s
    shape; with ``length`` given, only the chains of that length, and with
    ``choose`` given, only the chain that takes the step ``choose(steps)`` at
    each vertex.  ``start`` must be a validated vertex: the steps come from the
    unchecked kernel ``_steps``, on the vertices' codes (``shapes._code``).

    The walk is one loop over an explicit stack of step iterators, one per vertex
    of the chain so far, so a chain may be longer than the recursion limit.  With
    ``length`` = L given, it cuts a branch at a vertex of depth d with k boxes in
    row 1 (the code's low byte) and b boxes in all once L lies outside [d + k,
    d + b]: a step removes at least one box and at most one box of row 1 (the
    argument of :func:`_length_masks`).  At the null diagram k = b = 0, so the cut
    is also the filter at emission.  With no length, every L from 0 to the start's
    box count B is wanted, so the cut is d + k > B.  No step of the kernel meets
    it, but it bounds the stack by B even where a faulty kernel steps in a cycle.

    Each box records the depth of the step that removes it; at the top, a step
    at depth d of a chain of length l carries label l - d.  Every step removes
    the last boxes of a strip's rows, so the labels grow along rows and weakly
    down columns, and each tableau is built once, without validation, by
    ``Tableau._trusted``.  Each one arrives with its ``shape``, ``length`` and
    ``is_staircase`` stored; its plus-full-sets are classified from its rows.
    """
    # the boxes of ``start`` row by row, each holding the depth of the step that
    # removes it; row x is the slice ``rows[x - 1]``
    total = sum(start)
    marked = [0] * total
    ends = list(accumulate(start, initial=0))
    rows = tuple(map(slice, ends, ends[1:]))
    maximal = start == staircase(n - 1)
    # a vertex lies on many chains: list its steps once per stream, by code, each
    # with the boxes it marks (the end of rows top+1 .. d) and its cover's row 1 and
    # box count, the bounds of the cut
    memo: dict[int, list[tuple[int, list[int], int, int]]] = {}

    def steps_of(code: int) -> list[tuple[int, list[int], int, int]]:
        shape = _shape(code)
        boxes = sum(shape)
        memo[code] = steps = [(cover, [ends[row - 1] + shape[row - 1] - 1
                                       for row in range(top + 1, d + 1)],
                               cover & 255, boxes - d + top)
                              for cover, top, d in _steps(code, shape)]
        return steps

    # the walk enters ``start`` (depth 0) by a step that marks nothing, so the cut
    # tests the start too
    code = _code(start)
    shortest, longest = (0, total) if length is None else (length, length)
    stack = [iter([(code, (), code & 255, total)])]
    while stack:
        depth = len(stack) - 1  # of the covers of the vertex on top
        for cover, marks, first, boxes in stack[-1]:
            if depth + first > longest or depth + boxes < shortest:
                continue
            for box in marks:
                marked[box] = depth - 1
            if cover:
                steps = memo.get(cover) or steps_of(cover)
                stack.append(iter(steps if choose is None else [choose(steps)]))
                break
            labels = tuple([depth - label for label in marked])
            yield _trusted_tableau(n, tuple(map(labels.__getitem__, rows)), shape=start,
                                   length=depth, is_staircase=maximal)
        else:
            stack.pop()


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


class RouteMismatch(ValueError):
    """The two routes to an initial value N_i(t) disagree; ``counterexample`` is
    ``{i, t, ie, brute}``."""

    def __init__(self, i: int, t: int, ie: int, brute: int) -> None:
        super().__init__(f"routes disagree at i={i}, t={t}: brute {brute} vs "
                         f"inclusion-exclusion {ie}")
        self.i, self.t, self.ie, self.brute = i, t, ie, brute

    def __reduce__(self):
        return RouteMismatch, (self.i, self.t, self.ie, self.brute)

    @property
    def counterexample(self) -> dict[str, int]:
        return {"i": self.i, "t": self.t, "ie": self.ie, "brute": self.brute}


def _nofull_and_all(t: int, max_length: int) -> tuple[dict[int, int], dict[int, int]]:
    """The chains of order t up to length ``max_length`` by length: those with no
    plus-full step, and all of them.

    One :func:`_climb` with two blocks of order t, the clean block lowest: a
    plus-full step of order t clears it.  So the clean block counts the chains with
    no plus-full-set (``[0]`` at bound t+i holds N_i(t) at length t+i), and the
    other block, which no step rule touches, counts them all.
    """
    return _climb([t, t], max_length, plus_full=t)


def initial_values(offsets: Iterable[int], max_t: int) -> dict[int, dict[int, int]]:
    """``{i: {t: N_i(t)}}`` for each offset i and t = 1..min(max_t, 2i+3), by two routes.

    Each order t gets one climb (:func:`_nofull_and_all`), bounded at the longest
    chain any offset needs.  Its clean block is the first route; inclusion-exclusion
    (:func:`inclusion_exclusion`) over its block of all chains is the second.  Raises
    :class:`RouteMismatch` where they disagree.  Terms past ``max_t`` have zero
    weight in :func:`chains_count` at n <= max_t.
    """
    tops = {i: min(max_t, 2 * i + 3) for i in offsets}
    if min(tops, default=-1) < -1:
        raise ValueError(f"length offset must be >= -1, got {min(tops)}")
    longest = max(tops, default=-1)
    largest = max(tops.values(), default=0)
    _staircase_of(max(largest, 1))  # an order past the kernel is refused before any climb
    routes = {t: _nofull_and_all(t, t + longest) for t in range(1, largest + 1)}
    table = {}
    for i, top in tops.items():
        row = table[i] = inclusion_exclusion(
            i, {t: routes[t][1].get(t + i, 0) for t in range(1, top + 1)})
        for t, value in row.items():
            if value != (brute := routes[t][0].get(t + i, 0)):
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

"""Chain surgery: growing a maximal chain by one plus-full-set, and back.

The central construction takes a maximal chain of the n-th lattice (as a
staircase chain tableau of length n+i) and a level ``0 <= r <= n+i`` and
produces a maximal chain of the (n+1)-st lattice whose (r+1)-set is a
plus-full-set ending in row ``d``, the pivot row.  Restricted to chains whose
plus-full-set labels all exceed ``r`` it is a bijection onto the chains of the
bigger lattice with minimal plus-full-set label ``r+1``; iterating the inverse
strips a chain down to a unique plus-full-set-free base plus a weakly
increasing parameter tuple.  That unique decomposition is what turns chain
counting into the recursion of :mod:`tamari.counting`.

Both maps are one label rewrite on the rows, by the kernels ``_grow`` and
``_cut``.  Growth raises the labels above ``r`` by one, puts ``r+1`` after the
labels <= r of rows 1..d and repeats row ``d`` (the paper's two steps,
``checks.repeat_row`` and ``checks.append_next_label``, on the part labelled
<= r); the cut drops ``r+1``, lowers the labels above it and deletes the
repeat.  :func:`decompose` and :func:`recompose` loop the kernels on row
tuples, so each map call builds one tableau, with the unvalidated
``Tableau._trusted``: applied to a validated maximal chain in its domain, each
map's output is a maximal chain by construction.

Growth hands on its plus-full-set labels.  Let T be a staircase tableau of
order n whose plus-full-set labels L all exceed r, and G its growth at r with
pivot row d.  Then the labels of G are r+1 followed by l+1 for l in L:

* The (r+1)-set begins in row 1 and ends at (d, n-d+1), on the outer
  diagonal of order n+1.  Either d = n, or the box below its end is the end
  of row d's twin, whose label is at most r: so r+1 is plus-full.
* Every other label l that ends on T's outer diagonal in row k ends on G's in
  row k (k < d) or in row k+1 (k >= d, the twin taking over the end of row
  d), with the same neighbour southwest of its end (or ``r+1`` where T has a
  label <= r < l).  Each test of the scan (l in row 1, that neighbour smaller
  than l, l in no row below) compares labels that growth keeps (<= r) or
  raises by one together (> r), so it gives the same answer.

Only the staircase shape and the domain enter, not whether T encodes a
chain.  So :func:`insert_plus_full_set` stores these labels on its output,
where :func:`extract_plus_full_set` reads them.  The shrinking side has no
such rule: a staircase tableau that encodes no chain may cut to a shape that
is no staircase (rows ((1, 2, 3), (1, 3), (2,)) of order 4 cut at level 1 to
shape (2, 2)), which the staircase check before each scan reports and
lowered labels would hide.  So what :func:`decompose` and
:func:`extract_plus_full_set` cut carries no labels, and :func:`decompose`
scans each level it cuts.
"""

from __future__ import annotations

from bisect import bisect_right

from .shapes import _Value
from .tableaux import (
    Tableau,
    TableauError,
    _require_maximal,
    _require_staircase_rows,
    _scan_plus_full,
    plus_full_set_labels,
)


class GrowthDomainError(ValueError):
    """The chain already has a plus-full-set with label <= r."""

    def __init__(self, label: int):
        super().__init__(f"chain has a plus-full-set with label {label}")
        self.label = label

    def __reduce__(self):
        return GrowthDomainError, (self.label,)


class NoPlusFullSetError(ValueError):
    """The chain has no plus-full-set, so it is not in the image of any growth map."""


def _pivot(rows: tuple[tuple[int, ...], ...], n: int, r: int) -> int:
    """The pivot row: the minimal k in [n-1] whose outer-diagonal label is <= r, else n."""
    # row k of the staircase ends at its outer-diagonal box (k, n-k)
    for k, row in enumerate(rows, start=1):
        if row[-1] <= r:
            return k
    return n


def _grow(rows: tuple[tuple[int, ...], ...], n: int, r: int) -> tuple[tuple[int, ...], ...]:
    """Growth at level ``r`` on the rows of a staircase tableau of order ``n``.

    With ``d`` the pivot row (the first row whose outer-diagonal label is <= r,
    else n): labels above ``r`` go up by one, rows 1..d get ``r+1`` right after
    their labels <= r, and row ``d`` is repeated below itself.  The result is
    the rows of a staircase tableau of order n+1, and its (r+1)-set ends at
    (d, n-d+1).  Nothing is checked: the caller vouches for ``0 <= r <= length``.
    """
    d = _pivot(rows, n, r)
    up = r + 1
    grown = []
    for x, row in enumerate(rows, start=1):
        cut = bisect_right(row, r)
        new = row[:cut] + (up,) * (x <= d)
        if cut < len(row):  # a row with no label above r needs no shift
            new += tuple([value + 1 for value in row[cut:]])
        grown.append(new)
        if x == d:  # row d ends on the outer diagonal, so no label in it exceeds r
            grown.append(row)
    if d == n:  # the pivot is the empty row n: the (r+1)-set ends in a new last row
        grown.append((up,))
    return tuple(grown)


def _cut(rows: tuple[tuple[int, ...], ...], r: int) -> tuple[tuple[int, ...], ...]:
    """Undo :func:`_grow` at level ``r``: drop ``r+1``, lower the labels above it and
    delete row ``d+1``, which must equal row ``d``.

    Row ``d`` is where the plus-full (r+1)-set ends: ``r+1`` is its last label,
    on the outer diagonal.  On a staircase tableau that encodes no chain the two
    rows may differ, and that raises :class:`TableauError`.  The result is the
    rows of a tableau of order n-1, a staircase one whenever the input is a chain.
    """
    up = r + 1
    d = [row[-1] for row in rows].index(up) + 1
    cut = [tuple([value - (value > up) for value in row if value != up])
           if row[-1] >= up else row for row in rows]
    if cut[d - 1] != (cut[d] if d < len(cut) else ()):
        raise TableauError(f"rows {d} and {d + 1} differ, cannot collapse: {rows!r}")
    del cut[d - 1]  # the twin of row d+1, or the empty row d when there is none
    return tuple(cut)


def insert_plus_full_set(chain: Tableau, r: int) -> Tableau:
    """Grow a maximal chain of the n-th lattice into one of the (n+1)-st at level
    ``r`` (:func:`_grow`); no label j <= r may be a plus-full-set.

    The (r+1)-set of the result is a plus-full-set ending at (d, n-d+1), d the
    pivot row, and the result carries its plus-full-set labels: ``r+1`` and those
    of ``chain`` raised by one (see the module docstring).

    Raises:
        GrowthDomainError: carrying the offending label.
        TableauError: if ``chain`` is no staircase tableau or, after the domain
            test, ``r`` lies outside 0..length.
    """
    labels = plus_full_set_labels(chain)
    if labels and labels[0] <= r:
        raise GrowthDomainError(labels[0])
    n = _require_maximal(chain)
    if not 0 <= r <= chain.length:
        raise TableauError(f"level {r} out of range 0..{chain.length}")
    return Tableau._trusted(n + 1, _grow(chain.rows, n, r), is_staircase=True,
                            labels=(r + 1,) + tuple([label + 1 for label in labels]))


def extract_plus_full_set(chain: Tableau) -> tuple[int, Tableau]:
    """Inverse growth: peel off the minimal plus-full-set.

    Returns ``(r, smaller)`` with ``insert_plus_full_set(smaller, r) == chain``;
    ``r + 1`` is the minimal plus-full-set label of ``chain``.

    Raises:
        NoPlusFullSetError: if the chain has no plus-full-set.
    """
    n = _require_maximal(chain)
    labels = plus_full_set_labels(chain)
    if not labels:
        raise NoPlusFullSetError("chain has no plus-full-set")
    r = labels[0] - 1
    return r, Tableau._trusted(n - 1, _cut(chain.rows, r))


class ChainDecomposition(_Value):
    """A plus-full-set-free base chain plus the growth levels applied to it.

    ``params`` is weakly increasing with ``0 <= params[-1] <= base.length``;
    recomposing yields a chain whose plus-full-set labels are
    ``{params[j] + j + 1}``.
    """

    __slots__ = __match_args__ = ("base", "params")

    def __init__(self, base: Tableau, params: tuple[int, ...]) -> None:
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "params", params)


def decompose(chain: Tableau) -> ChainDecomposition:
    """Strip plus-full-sets one at a time until none remain.

    The number of extracted levels equals the number of plus-full-sets, and the
    levels come out weakly increasing.  The levels are cut from the rows, each
    scanned once; a level whose rows are not a staircase raises the
    :class:`TableauError` of any map given a non-staircase tableau, and only the
    base is built as a tableau.
    """
    n = _require_maximal(chain)
    rows = chain.rows
    labels = plus_full_set_labels(chain)
    params = []
    while labels:
        params.append(labels[0] - 1)
        rows = _cut(rows, params[-1])
        n -= 1
        _require_staircase_rows(rows, n)
        labels = _scan_plus_full(rows, n)
    if not params:
        return ChainDecomposition(base=chain, params=())
    base = Tableau._trusted(n, rows, is_staircase=True, labels=())
    return ChainDecomposition(base=base, params=tuple(params))


def recompose(decomposition: ChainDecomposition) -> Tableau:
    """Inverse of :func:`decompose`: apply the growth levels innermost-first; a base
    with a plus-full-set raises :class:`GrowthDomainError` with its smallest label.

    Only the base is classified: growing at level r makes r+1 the smallest
    plus-full-set label, and the levels are applied in decreasing order, so
    each step stays in the domain of :func:`insert_plus_full_set`.  The levels
    are grown on the rows, and only the result is built as a tableau.
    """
    base, params = decomposition.base, decomposition.params
    n = _require_maximal(base)
    if params:
        if any(a > b for a, b in zip(params, params[1:])):
            raise ValueError(f"growth levels must be weakly increasing: {params!r}")
        if params[0] < 0 or params[-1] > base.length:
            raise ValueError(
                f"growth levels must lie in 0..{base.length}: {params!r}")
    if labels := plus_full_set_labels(base):
        raise GrowthDomainError(labels[0])
    if not params:
        return base
    rows = base.rows
    for r in reversed(params):
        rows = _grow(rows, n, r)
        n += 1
    return Tableau._trusted(n, rows, is_staircase=True)

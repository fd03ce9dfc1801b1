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

Both maps are one label rewrite.  Growth raises the labels above ``r`` by
one, puts ``r+1`` after the labels <= r of rows 1..d and repeats row ``d``;
extraction drops ``r+1``, lowers the labels above it and deletes the repeat.
Applied to a validated maximal chain in their domain, each map's output is a
maximal chain by construction, so both build it with the unvalidated
``Tableau._trusted``.
"""

from __future__ import annotations

from bisect import bisect_right

from .shapes import _Value, staircase
from .tableaux import (
    Tableau,
    TableauError,
    _require_maximal,
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


def repeat_row(tab: Tableau, d: int) -> Tableau:
    """Shift rows below ``d`` down one and repeat row ``d``; identity when row ``d`` is empty.

    The ambient parameter grows by one so the duplicated shape always fits.
    """
    if d < 1:
        raise TableauError(f"row index must be >= 1, got {d}")
    rows = tab.rows
    if d <= len(rows):
        rows = rows[:d] + (rows[d - 1],) + rows[d:]
    return Tableau(tab.n + 1, rows)


def unrepeat_row(tab: Tableau, d: int) -> Tableau:
    """Inverse of :func:`repeat_row`: delete row ``d+1`` (which must equal row ``d``)."""
    if d < 1:
        raise TableauError(f"row index must be >= 1, got {d}")
    rows = tab.rows
    row_d = rows[d - 1] if d <= len(rows) else ()
    row_d1 = rows[d] if d + 1 <= len(rows) else ()
    if row_d != row_d1:
        raise TableauError(f"rows {d} and {d + 1} differ, cannot collapse: {rows!r}")
    if d + 1 <= len(rows):
        rows = rows[:d] + rows[d + 1:]
    return Tableau(tab.n - 1, rows)


def append_next_label(tab: Tableau, d: int) -> Tableau:
    """Append a box labeled ``length + 1`` to the end of rows 1..d."""
    if d < 1:
        raise TableauError(f"row index must be >= 1, got {d}")
    new_label = tab.length + 1
    rows = list(tab.rows) + [()] * (d - len(tab.rows))
    for j in range(d):
        rows[j] = rows[j] + (new_label,)
    return Tableau(tab.n, tuple(rows))


def pivot_row(chain: Tableau, r: int) -> int:
    """Minimal k in [n-1] whose outer-diagonal label is <= r, else n."""
    n = _require_maximal(chain)
    # row k of the staircase ends at its outer-diagonal box (k, n-k)
    for k, row in enumerate(chain.rows, start=1):
        if row[-1] <= r:
            return k
    return n


def expand_chain(chain: Tableau, r: int) -> Tableau:
    """Grow a maximal chain of the n-th lattice into one of the (n+1)-st.

    With ``d`` the pivot row: labels above ``r`` go up by one, rows 1..d get
    ``r+1`` right after their labels <= r, and row ``d`` is repeated below
    itself.  The (r+1)-set of the result is a plus-full-set ending at
    (d, n-d+1).
    """
    n = _require_maximal(chain)
    if not 0 <= r <= chain.length:
        raise TableauError(f"level {r} out of range 0..{chain.length}")
    d = pivot_row(chain, r)  # row d ends on the outer diagonal, so no label in it exceeds r
    up = r + 1
    rows = []
    for x, row in enumerate(chain.rows, start=1):
        cut = bisect_right(row, r)
        grown = row[:cut] + (up,) * (x <= d)
        if cut < len(row):  # a row with no label above r needs no shift
            grown += tuple([value + 1 for value in row[cut:]])
        rows.append(grown)
        if x == d:
            rows.append(row)
    if d == n:  # the pivot is the empty row n: the (r+1)-set ends in a new last row
        rows.append((up,))
    return Tableau._trusted(n + 1, tuple(rows))


def insert_plus_full_set(chain: Tableau, r: int) -> Tableau:
    """Domain-checked growth: requires that no label j <= r is a plus-full-set.

    Raises:
        GrowthDomainError: carrying the offending label.
    """
    labels = plus_full_set_labels(chain)
    if labels and labels[0] <= r:
        raise GrowthDomainError(labels[0])
    return expand_chain(chain, r)


def _shrink(chain: Tableau, r: int) -> Tableau:
    """Undo :func:`expand_chain` at level ``r``: drop ``r+1``, lower the labels above it
    and delete row ``d+1``, which must equal row ``d``.  Row ``d`` is where the
    plus-full (r+1)-set ends: its outer-diagonal box (d, n-d) is labelled ``r+1``."""
    up = r + 1
    d = [row[-1] for row in chain.rows].index(up) + 1
    rows = [tuple([value - (value > up) for value in row if value != up])
            if row[-1] >= up else row for row in chain.rows]
    if rows[d - 1] != (rows[d] if d < len(rows) else ()):
        raise TableauError(f"rows {d} and {d + 1} differ, cannot collapse: {chain.rows!r}")
    del rows[d - 1]  # the twin of row d+1, or the empty row d when there is none
    return Tableau._trusted(chain.n - 1, tuple(rows))


def extract_plus_full_set(chain: Tableau) -> tuple[int, Tableau]:
    """Inverse growth: peel off the minimal plus-full-set.

    Returns ``(r, smaller)`` with ``insert_plus_full_set(smaller, r) == chain``;
    ``r + 1`` is the minimal plus-full-set label of ``chain``.

    Raises:
        NoPlusFullSetError: if the chain has no plus-full-set.
    """
    _require_maximal(chain)
    labels = plus_full_set_labels(chain)
    if not labels:
        raise NoPlusFullSetError("chain has no plus-full-set")
    r = labels[0] - 1
    return r, _shrink(chain, r)


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
    levels come out weakly increasing.
    """
    _require_maximal(chain)
    params = []
    current = chain
    while labels := plus_full_set_labels(current):  # one classification per chain
        params.append(labels[0] - 1)
        current = _shrink(current, params[-1])
    return ChainDecomposition(base=current, params=tuple(params))


def recompose(decomposition: ChainDecomposition) -> Tableau:
    """Inverse of :func:`decompose`: apply the growth levels innermost-first; a base
    with a plus-full-set raises :class:`GrowthDomainError` with its smallest label.

    Only the base is classified: growing at level r makes r+1 the smallest
    plus-full-set label, and the levels are applied in decreasing order, so
    each step stays in the domain of :func:`insert_plus_full_set`.
    """
    base, params = decomposition.base, decomposition.params
    _require_maximal(base)
    if params:
        if any(a > b for a, b in zip(params, params[1:])):
            raise ValueError(f"growth levels must be weakly increasing: {params!r}")
        if params[0] < 0 or params[-1] > base.length:
            raise ValueError(
                f"growth levels must lie in 0..{base.length}: {params!r}")
    if labels := plus_full_set_labels(base):
        raise GrowthDomainError(labels[0])
    current = base
    for r in reversed(params):
        current = expand_chain(current, r)
    return current


def chain_without_plus_full_sets(i: int) -> Tableau:
    """A maximal chain of length 3i+3 in the (2i+3)-rd lattice with no plus-full-sets.

    For i = -1 this is the empty chain of the one-vertex lattice.  Otherwise
    the outer-diagonal boxes (n-1-2k, 2k+1) receive the top labels n+i-k and
    every remaining box is labeled by its column.
    """
    if i < -1:
        raise ValueError(f"length offset must be >= -1, got {i}")
    if i == -1:
        return Tableau(1, ())
    n = 2 * i + 3
    shape = staircase(n - 1)
    grid = {(x, y): y for x in range(1, n) for y in range(1, shape[x - 1] + 1)}
    for k in range(i + 1):
        grid[(n - (2 * k + 1), 2 * k + 1)] = n + i - k
    rows = tuple(tuple(grid[(x, y)] for y in range(1, shape[x - 1] + 1))
                 for x in range(1, n))
    return Tableau(n, rows)

"""Saturated chains encoded as tableaux, and the full-set classification.

A saturated chain that ends at the null diagram removes, at each upward cover
step, one strip of boxes.  Writing the label ``r`` into the boxes removed at
the r-th step from the top produces a row-strict, column-weak tableau; tableaux
arising this way are called *chain tableaux* here.  A maximal chain of the
n-th Tamari lattice is the same thing as a chain tableau whose shape is the
full staircase (n-1, ..., 1).

The r-set of a tableau is the set of boxes labeled ``r``.  For staircase
shapes, an r-set that begins in row 1 and ends on the outer diagonal is a
*full-set*; it is a *plus-full-set* when its end box is (n-1, 1) or the label
southwest of the end box is smaller than ``r``.  Plus-full-sets drive the
chain surgery in :mod:`tamari.bijections` and the counting recursion in
:mod:`tamari.counting`.

Since a full-set ends on the outer diagonal, :func:`plus_full_set_labels`
reads the candidates off the n-1 outer-diagonal boxes instead of classifying
every label; :func:`classify_r_set` stays the per-label definition.

The derived values of a :class:`Tableau` (shape, length, r-sets, whether it
is a staircase, its plus-full-set labels) are computed on first read and
stored on the instance by :class:`_once`, which takes no lock.  So a tableau
is classified at most once, however many maps ask for its plus-full-sets.

Every public way to build a :class:`Tableau` validates it.  The private
``Tableau._trusted`` skips that, and only maps whose output is correct by
construction may use it: the growth map and its inverse in
:mod:`tamari.bijections`, which start from a validated maximal chain, and the
chain stream ``tamari.counting._chains_up`` (and its random draws), which
starts from a validated vertex and labels the rows of each cover step's strip.
Copies and pickles rebuild a tableau with ``Tableau(n, rows)``, so they
validate it again.
"""

from __future__ import annotations

import enum
import json
from typing import Sequence

from .shapes import (
    Box,
    Partition,
    _code,
    _steps,
    _Value,
    as_partition,
    contained_in_staircase,
    covers_with_strips,
    staircase,
    strip_of_box,
)


class TableauError(ValueError):
    """The rows do not form a valid tableau (or break an operation's precondition)."""


class ChainError(ValueError):
    """An input chain is not a saturated cover chain starting at the null diagram."""


class NotChainTableauError(TableauError):
    """The tableau does not encode any saturated chain; raised by
    :func:`tableau_to_chain`, ``counterexample`` is the tableau's ``{n, rows}``."""


class _once:
    """A read-only property computed on the first read and stored on the instance.

    The stored value shadows this descriptor, which defines no ``__set__``, so
    later reads are plain attribute reads.  Unlike ``functools.cached_property``
    before Python 3.12 it takes no lock, and the value is still lazy.  Two threads
    that read at once may both compute it; they store equal values.
    """

    def __init__(self, func) -> None:
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


class RSetClass(enum.Enum):
    NOT_FULL = "not-full"
    FULL = "full"
    PLUS_FULL = "plus-full"


def validate_tableau(rows: Sequence[Sequence[int]]) -> bool:
    """True iff every label is an int (not a bool), rows are strictly increasing,
    columns weakly increasing, and the label set is exactly {1, ..., number of
    distinct labels}."""
    grid = [tuple(row) for row in rows]
    if any(len(a) < len(b) for a, b in zip(grid, grid[1:])):
        return False
    if grid and not grid[-1]:
        return False
    labels = set()
    for x, row in enumerate(grid):
        for y, value in enumerate(row):
            if type(value) is not int or value < 1:
                return False
            if y > 0 and row[y - 1] >= value:
                return False
            if x > 0 and grid[x - 1][y] > value:
                return False
            labels.add(value)
    # distinct positive labels are exactly 1..max when there are max of them;
    # building range(1, max + 1) would allocate in proportion to an input label
    return not labels or max(labels) == len(labels)


class Tableau(_Value):
    """Immutable labeled diagram inside the staircase of order ``n - 1``.

    ``rows`` holds the labels row by row.  Construction validates the tableau
    conditions, so every instance satisfies them (``_trusted`` instances by
    construction); whether the labels encode an actual chain is the separate
    predicate :func:`is_chain_tableau`.

    The fields ``n`` and ``rows`` and the derived values live in the instance
    ``__dict__``.  ``__init__``, ``__eq__`` and ``__hash__`` are written out
    rather than inherited from the generic loops of ``shapes._Value``, since
    the chain surgery builds and compares tableaux on its hot path.
    """

    __match_args__ = ("n", "rows")

    def __init__(self, n: int, rows: Sequence[Sequence[int]]) -> None:
        rows = tuple(map(tuple, rows))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)
        if type(n) is not int or n < 1:
            raise TableauError(f"ambient parameter must be an integer >= 1, got {n!r}")
        if not validate_tableau(rows):
            raise TableauError(f"not a valid tableau: {rows!r}")
        if not contained_in_staircase(self.shape, n):
            raise TableauError(f"shape {self.shape!r} does not fit ambient {n}")

    @classmethod
    def _trusted(cls, n: int, rows: tuple[tuple[int, ...], ...]) -> "Tableau":
        """A tableau built without validation, for rows (a tuple of tuples) that
        are a valid tableau by construction; untrusted input goes through ``cls(n, rows)``."""
        tab = object.__new__(cls)
        object.__setattr__(tab, "n", n)
        object.__setattr__(tab, "rows", rows)
        return tab

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.n, self.rows) == (other.n, other.rows)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    @_once
    def shape(self) -> Partition:
        return tuple(map(len, self.rows))

    @_once
    def length(self) -> int:
        # rows are non-empty and strictly increasing, so each row ends at its maximum
        return max((row[-1] for row in self.rows), default=0)

    @_once
    def _r_sets(self) -> dict[int, tuple[Box, ...]]:
        sets: dict[int, list[Box]] = {}
        for x, row in enumerate(self.rows, start=1):
            for y, value in enumerate(row, start=1):
                sets.setdefault(value, []).append((x, y))
        return {r: tuple(boxes) for r, boxes in sets.items()}

    @_once
    def _plus_full_set_labels(self) -> tuple[int, ...]:
        """The scan behind :func:`plus_full_set_labels`."""
        rows = self.rows
        if not rows:
            return ()
        n = _require_maximal(self)
        first = rows[0]
        labels = []
        for k in range(1, n):
            r = rows[k - 1][-1]
            if k < n - 1 and rows[k][-1] >= r:  # rows[k][-1] is label(k+1, n-k-1)
                continue
            if r not in first:
                continue
            # rows[k][-1] < r keeps r out of row k+1, so the scan starts below it
            for row in rows[k + 1:]:
                if r in row:
                    break
            else:
                labels.append(r)
        labels.sort()
        return tuple(labels)

    def label(self, row: int, col: int) -> int:
        if not (1 <= row <= len(self.rows) and 1 <= col <= len(self.rows[row - 1])):
            raise TableauError(f"box {(row, col)!r} outside shape {self.shape!r}")
        return self.rows[row - 1][col - 1]

    def r_set(self, r: int) -> tuple[Box, ...]:
        """Boxes labeled ``r``, by increasing row (at most one per row)."""
        if not 1 <= r <= self.length:
            raise TableauError(f"label {r} out of range 1..{self.length}")
        return self._r_sets[r]

    @_once
    def is_staircase(self) -> bool:
        # the row count first: ``n`` may come from an unchecked header
        return len(self.shape) == self.n - 1 and self.shape == staircase(self.n - 1)

    def truncate(self, r: int) -> "Tableau":
        """The sub-tableau of labels <= r (a chain tableau whenever self is)."""
        if not 0 <= r <= self.length:
            raise TableauError(f"truncation level {r} out of range 0..{self.length}")
        rows = []
        for row in self.rows:
            kept = tuple(value for value in row if value <= r)
            if kept:
                rows.append(kept)
        return Tableau(self.n, tuple(rows))

    def to_text(self) -> str:
        """Fixture text format: header line then one line of labels per row."""
        lines = [f"n={self.n} l={self.length}"]
        lines.extend(" ".join(str(v) for v in row) for row in self.rows)
        return "\n".join(lines)

    @classmethod
    def from_text(cls, text: str) -> "Tableau":
        lines = [line for line in text.strip().splitlines() if line.strip()]
        if not lines or not lines[0].startswith("n="):
            raise TableauError(f"missing tableau header in {text!r}")
        try:
            fields = dict(item.split("=", 1) for item in lines[0].split())
            n = int(fields["n"])
            declared = int(fields["l"])
        except (KeyError, ValueError) as exc:
            raise TableauError(f"bad tableau header: {lines[0]!r}") from exc
        try:
            rows = tuple([tuple(map(int, line.split())) for line in lines[1:]])
        except ValueError as exc:
            raise TableauError(f"bad tableau labels: {exc}") from exc
        tab = cls(n, rows)
        if tab.length != declared:
            raise TableauError(f"header declares l={declared}, rows give l={tab.length}")
        return tab

    def to_json_dict(self) -> dict:
        return {"n": self.n, "rows": [list(row) for row in self.rows]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Tableau":
        try:
            n = data["n"]
            rows = tuple(tuple(row) for row in data["rows"])
        except (KeyError, TypeError) as exc:
            raise TableauError(f"bad tableau json: {data!r}") from exc
        return cls(n, rows)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def outer_diagonal(tab: Tableau) -> list[Box]:
    """Boxes (x, y) of the shape maximizing x + y; for the staircase these are
    (k, n-k) for k in [n-1], and the null diagram has none."""
    shape = tab.shape
    if not shape:
        return []
    peak = max(x + length for x, length in enumerate(shape, start=1))
    return [(x, length) for x, length in enumerate(shape, start=1) if x + length == peak]


def chain_to_tableau(chain: Sequence[Sequence[int]], n: int) -> Tableau:
    """Encode a saturated chain (null diagram first, descending by covers) as a tableau.

    The boxes removed at the r-th transition from the top carry label ``r``;
    the result has the shape of the chain's last (lowest) diagram.
    """
    diagrams = [as_partition(step) for step in chain]
    if not diagrams or diagrams[0] != ():
        raise ChainError("chain must start at the null diagram")
    grid: dict[Box, int] = {}
    for r in range(1, len(diagrams)):
        upper, lower = diagrams[r - 1], diagrams[r]
        for cover, strip in covers_with_strips(lower, n):
            if cover == upper:
                for box in strip:
                    grid[box] = r
                break
        else:
            raise ChainError(f"{upper!r} does not cover {lower!r} in ambient {n}")
    bottom = diagrams[-1]
    rows = tuple(tuple(grid[(x, y)] for y in range(1, bottom[x - 1] + 1))
                 for x in range(1, len(bottom) + 1))
    return Tableau(n, rows)


def _truncation_shapes(tab: Tableau) -> list[Partition]:
    """Shapes of the label-<=r sub-tableaux for r = 0..length, each the one before
    plus the r-set; labels grow along rows and down columns, so empty rows trail."""
    lengths = [0] * len(tab.rows)
    shapes = [()]
    for r in range(1, tab.length + 1):
        for x, _ in tab.r_set(r):
            lengths[x - 1] += 1
        shapes.append(tuple([length for length in lengths if length]))
    return shapes


def tableau_to_chain(tab: Tableau) -> tuple[Partition, ...]:
    """Decode a chain tableau back to its chain (null diagram first).

    The truncation shapes of a validated tableau are vertices (each row keeps a
    prefix, and the column-weak labels keep the row lengths weakly decreasing), so
    their covers come from the unchecked kernel ``shapes._steps``; the decoder
    compares the vertices' codes (``shapes._code``).

    Raises:
        NotChainTableauError: if consecutive truncation shapes are not covers.
        ShapeError: if a row has too many boxes for the kernel (an order above
            ``shapes.MAX_ORDER``).
    """
    shapes = _truncation_shapes(tab)
    codes = [_code(shape) for shape in shapes]
    for r in range(1, len(shapes)):
        if codes[r - 1] not in (cover for cover, _, _ in _steps(codes[r])):
            error = NotChainTableauError(
                f"labels <= {r} do not describe a cover step in {tab.rows!r}")
            error.counterexample = tab.to_json_dict()
            raise error
    return tuple(shapes)


def is_chain_tableau(tab: Tableau) -> bool:
    """True iff every k-set equals the strip of its end box inside the label-<=k part.

    This is the strip-matching characterization; :func:`tableau_to_chain` checks
    the same thing through the covering relation instead.
    """
    shapes = _truncation_shapes(tab)
    for k in range(1, tab.length + 1):
        kset = tab.r_set(k)
        # rows increase strictly, so the end box, labelled k, ends its row in shapes[k]
        if set(kset) != set(strip_of_box(shapes[k], tab.n, kset[-1])):
            return False
    return True


def _require_maximal(tab: Tableau) -> int:
    if not tab.is_staircase:
        raise TableauError(f"operation needs a full-staircase tableau, got shape {tab.shape!r}")
    return tab.n


def classify_r_set(tab: Tableau, r: int) -> RSetClass:
    """Classify the r-set of a maximal chain as not-full / full / plus-full.

    Full: begins in row 1 and ends on the outer diagonal.  Plus: additionally
    the end box (k, n-k) satisfies k = n-1, or the label at (k+1, n-k-1) is
    smaller than ``r``.
    """
    n = _require_maximal(tab)
    boxes = tab.r_set(r)
    begin_row = boxes[0][0]
    end_row, end_col = boxes[-1]
    if begin_row != 1 or end_row + end_col != n:
        return RSetClass.NOT_FULL
    if end_row == n - 1:
        return RSetClass.PLUS_FULL
    if tab.label(end_row + 1, end_col - 1) < r:
        return RSetClass.PLUS_FULL
    return RSetClass.FULL


def plus_full_set_labels(tab: Tableau) -> tuple[int, ...]:
    """Ascending labels of all plus-full-sets; at most n-1 of them.

    A full-set ends on the outer diagonal, so only the labels r = label(k, n-k)
    qualify.  Such an r-set is plus-full when k = n-1 or label(k+1, n-k-1) < r,
    when r is in row 1 (its begin box), and when r is in no row below k (so
    (k, n-k) is its end box).  This is :func:`classify_r_set` on those labels.
    The scan runs once per tableau: its result is stored on the instance.
    """
    return tab._plus_full_set_labels

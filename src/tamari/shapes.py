"""Young diagrams, Dyck paths and the covering relation of the Tamari lattices.

The n-th Tamari lattice is realized here on Young diagrams contained in the
staircase shape (n-1, n-2, ..., 1).  Under this convention the staircase is
the minimum element, the null diagram is the maximum, and one cover step up
removes a strip of boxes determined by a corner box.  Dyck paths of length 2n
encode the same vertices, and the covering relation has a natural description
in both pictures; this module provides both plus the conversions.

Every public function validates its shapes, once (``_dyck_path`` serves them
after that).  The one unchecked entry used elsewhere is ``_steps``, the cover
kernel.  It works on a vertex's *code* (:func:`_code`), one int holding the
length of row j in byte j-1, and names each cover step by the cover's code and
the rows ``top+1 .. d`` of its strip: the step takes one box off each of those
rows, so the cover's code is ``code - _ONES[d] + _ONES[top]`` and no box or
tuple is built.  A row of :data:`MAX_ORDER` boxes or more fits in no byte, so
the kernel serves the orders up to :data:`MAX_ORDER`, and :func:`_code` refuses
a longer row.  The kernel runs only on the code of a validated vertex or on
codes it produced from one.  Its callers are :func:`covers_with_strips` and
:func:`upper_covers`, which validate their vertex and convert at the boundary;
the counting engine :func:`tamari.counting._climb`, which starts from
staircases; the chain stream :func:`tamari.counting._chains_up`, which starts
from a validated vertex (the one random draw,
:func:`tamari.checks.random_chain`, is the stream taking one random step per
vertex up from a start it validates); and the decoder
:func:`tamari.tableaux.tableau_to_chain`, whose truncation shapes of a
validated tableau are vertices.

Conventions (pinned once, used repo-wide):

* A partition is a plain tuple of weakly decreasing positive integers with no
  trailing zeros; ``()`` is the null diagram.
* Boxes are 1-based ``(row, column)`` pairs in English notation (rows grow
  downward).
* A Dyck path is a string over ``"N"``/``"E"`` from (0,0) to (n,n) staying
  weakly above the diagonal.  Row ``j`` of a diagram corresponds to the
  ``(n+1-j)``-th north step, so the null diagram maps to ``N^n E^n`` and the
  staircase to ``(NE)^n``.

The small value types of the package (:class:`PrimePathInfo` and
:class:`Enclosure` here, ``tableaux.Tableau``, ``bijections.ChainDecomposition``
and ``counting.LengthHistogram``) derive from :class:`_Value`, an immutable
base whose fields are its ``__match_args__``; ``counting.ChainCensus`` borrows
its ``__eq__`` and ``__repr__`` and stays mutable.  They are plain classes, so
importing ``tamari`` or ``tamari.cli`` runs no class generator and loads no
``inspect``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

Partition = tuple[int, ...]
Box = tuple[int, int]

NORTH = "N"
EAST = "E"


class ShapeError(ValueError):
    """Malformed partition, path or box, or a containment violation."""


class _Value:
    """Immutable record whose fields are named by ``__match_args__``.

    Subclasses write their own ``__init__`` (with ``object.__setattr__`` or
    writes to the instance ``__dict__``).
    Equality holds only between instances of the same class, the hash is that
    of the field tuple, the repr is ``Name(field=value, ...)``, and copies and
    pickles rebuild the instance from its fields.  Assigning or deleting an
    attribute raises ``AttributeError``.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


def staircase(k: int) -> Partition:
    """Return the staircase shape (k, k-1, ..., 1); empty for k <= 0."""
    if k <= 0:
        return ()
    return tuple(range(k, 0, -1))


def as_partition(parts: Iterable[int]) -> Partition:
    """Normalize ``parts`` to a partition tuple, dropping trailing zeros.

    Raises:
        ShapeError: if entries are negative, non-integral or increase.
    """
    seq = tuple(parts)
    while seq and seq[-1] == 0:
        seq = seq[:-1]
    for value in seq:
        if not isinstance(value, int) or value <= 0:
            raise ShapeError(f"partition entries must be positive integers: {seq!r}")
    if any(a < b for a, b in zip(seq, seq[1:])):
        raise ShapeError(f"partition must be weakly decreasing: {seq!r}")
    return seq


def contained_in_staircase(parts: Sequence[int], n: int) -> bool:
    """True iff the diagram fits inside the staircase (n-1, ..., 1)."""
    return all(length <= n - row for row, length in enumerate(parts, start=1))


def _require_vertex(parts: Sequence[int], n: int) -> Partition:
    shape = as_partition(parts)
    if n < 1:
        raise ShapeError(f"ambient parameter must be >= 1, got {n}")
    if not contained_in_staircase(shape, n):
        raise ShapeError(f"{shape!r} does not fit inside the staircase of order {n - 1}")
    return shape


def validate_dyck_path(path: str) -> None:
    """Raise ShapeError unless ``path`` is a balanced N/E path staying above the diagonal."""
    if not path or len(path) % 2:
        raise ShapeError(f"Dyck path must have positive even length: {path!r}")
    level = 0
    for step in path:
        if step == NORTH:
            level += 1
        elif step == EAST:
            level -= 1
            if level < 0:
                raise ShapeError(f"path dips below the diagonal: {path!r}")
        else:
            raise ShapeError(f"steps must be 'N' or 'E': {path!r}")
    if level != 0:
        raise ShapeError(f"path must end on the diagonal: {path!r}")


def to_dyck_path(parts: Sequence[int], n: int) -> str:
    """Encode a diagram inside the staircase of order n-1 as a Dyck path of length 2n."""
    return _dyck_path(_require_vertex(parts, n), n)


def _dyck_path(shape: Partition, n: int) -> str:
    """:func:`to_dyck_path` of a validated vertex, unchecked."""

    def row_length(j: int) -> int:
        return shape[j - 1] if j <= len(shape) else 0

    steps: list[str] = []
    east_seen = 0
    for k in range(1, n + 1):
        target = row_length(n + 1 - k)
        steps.append(EAST * (target - east_seen))
        steps.append(NORTH)
        east_seen = target
    steps.append(EAST * (n - east_seen))
    return "".join(steps)


def from_dyck_path(path: str) -> Partition:
    """Decode a Dyck path to the unique diagram whose silhouette it draws."""
    validate_dyck_path(path)
    east_counts: list[int] = []
    seen = 0
    for step in path:
        if step == EAST:
            seen += 1
        else:
            east_counts.append(seen)
    return as_partition(reversed(east_counts))


def _prime_spans(path: str) -> list[tuple[int, int]]:
    """Per north step (k = 1..n), the half-open step span of its prime subpath.

    The prime subpath starting at a north step ends at the first return to the
    slope-one line through its start, which is exactly the matched east step.
    """
    spans: list[tuple[int, int]] = [(0, 0)] * path.count(NORTH)
    stack: list[tuple[int, int]] = []
    k = 0
    for idx, step in enumerate(path):
        if step == NORTH:
            stack.append((k, idx))
            k += 1
        else:
            which, start = stack.pop()
            spans[which] = (start, idx + 1)
    return spans


def prime_subpath_heights(path: str) -> tuple[int, ...]:
    """For each k in [n], the height of the prime Dyck subpath starting at the k-th north step."""
    validate_dyck_path(path)
    return tuple((end - start) // 2 for start, end in _prime_spans(path))


class PrimePathInfo(_Value):
    """The prime Dyck subpath attached to a row of a diagram."""

    __slots__ = __match_args__ = ("start_row", "height", "steps")

    def __init__(self, start_row: int, height: int, steps: str) -> None:
        object.__setattr__(self, "start_row", start_row)
        object.__setattr__(self, "height", height)
        object.__setattr__(self, "steps", steps)


def prime_path_of_row(parts: Sequence[int], n: int, d: int) -> PrimePathInfo:
    """Prime subpath beginning with the vertical edge at the end of row ``d`` (row may be empty)."""
    shape = _require_vertex(parts, n)
    if not 1 <= d <= n:
        raise ShapeError(f"row {d} out of range for ambient {n}")
    path = _dyck_path(shape, n)
    start, end = _prime_spans(path)[n - d]
    return PrimePathInfo(start_row=d, height=(end - start) // 2, steps=path[start:end])


def strip_of_box(parts: Sequence[int], n: int, box: Box) -> tuple[Box, ...]:
    """The strip of ``box``: last boxes of the rows whose right edges lie on its prime path.

    ``box`` must be the last box of its row.  The result is the set of last
    boxes of the ``h`` consecutive rows ending at the box's row, where ``h``
    is the prime-path height.
    """
    shape = _require_vertex(parts, n)
    row, col = box
    if not (1 <= row <= len(shape) and col == shape[row - 1]):
        raise ShapeError(f"{box!r} is not the last box of its row in {shape!r}")
    start, end = _prime_spans(_dyck_path(shape, n))[n - row]  # the prime path of the row
    height = (end - start) // 2
    return tuple((j, shape[j - 1]) for j in range(row - height + 1, row + 1))


def corner_boxes(parts: Sequence[int]) -> list[Box]:
    """All boxes that are last in their row and lowest in their column, by increasing row."""
    shape = as_partition(parts)
    corners = []
    for row, length in enumerate(shape, start=1):
        below = shape[row] if row < len(shape) else 0
        if length > below:
            corners.append((row, length))
    return corners


def covers_with_strips(parts: Partition, n: int) -> tuple[tuple[Partition, tuple[Box, ...]], ...]:
    """Upper covers of a vertex together with the removed strip, by corner row ascending.

    The prime subpath that starts at the north step of row ``d`` ends at the
    first return to the slope-one line through its start.  In the diagram that
    is the nearest row ``top`` above ``d`` whose last box lies on or beyond the
    antidiagonal of the last box of ``d`` (``top + shape[top-1] >= d +
    shape[d-1]``), or the virtual row 0, so the prime-path height is
    ``d - top`` and the strip of a corner in row ``d`` is the last boxes of
    rows ``top+1 .. d``.  The kernel ``_steps`` finds ``top`` and the cover;
    this entry validates the vertex and builds each strip's boxes from those
    rows.  :func:`strip_of_box` is the definitional route to the same strips.
    """
    shape = _require_vertex(parts, n)
    return tuple([(_shape(cover), tuple(zip(range(top + 1, d + 1), shape[top:d])))
                  for cover, top, d in _steps(_code(shape))])


MAX_ORDER = 256  # a vertex's code holds each row's length, below MAX_ORDER, in one byte
# _ONES[k]: the code with one box in each of the rows 1..k (k < MAX_ORDER)
_ONES = tuple(((1 << 8 * k) - 1) // 255 for k in range(MAX_ORDER))


def _code(shape: Partition) -> int:
    """The code of a vertex: row j's length in byte j-1 of one int, so the null
    diagram is 0.  Raises :class:`ShapeError` for a row of :data:`MAX_ORDER` boxes
    or more, which only an order above :data:`MAX_ORDER` has."""
    if shape and shape[0] >= MAX_ORDER:
        raise ShapeError(f"a row of {shape[0]} boxes is past the cover kernel, "
                         f"which serves orders up to {MAX_ORDER}")
    return int.from_bytes(bytes(shape), "little")


def _shape(code: int) -> Partition:
    """The vertex of a code, the inverse of :func:`_code`."""
    return tuple(code.to_bytes((code.bit_length() + 7) >> 3, "little"))


def _steps(code: int, shape: Sequence[int] | None = None) -> list[tuple[int, int, int]]:
    """``(cover, top, d)`` for each corner of the vertex of ``code`` (:func:`_code`),
    by corner row ``d`` ascending: the step removes the last boxes of rows
    ``top+1 .. d`` (see :func:`covers_with_strips`), and ``cover`` is the code of
    the vertex it reaches.  A caller that has decoded the vertex passes its
    ``shape`` (:func:`_shape`), so the code is not decoded again.  Nothing is checked
    and no box is built, so ``code`` must be that of a validated vertex or a cover
    this kernel produced from one.
    The callers: :func:`covers_with_strips`, :func:`upper_covers`,
    ``counting._climb``, ``counting._chains_up`` (the stream, and through it the one
    random draw ``checks.random_chain``) and ``tableaux.tableau_to_chain``."""
    if shape is None:
        shape = code.to_bytes((code.bit_length() + 7) >> 3, "little")
    rows = len(shape)
    result = []
    for d in range(1, rows + 1):
        length = shape[d - 1]
        if d < rows and shape[d] == length:
            continue  # not a corner
        level = d + length
        top = d - 1
        while top and top + shape[top - 1] < level:
            top -= 1
        # rows top+1 .. d lose a box; a row emptied is a leading zero byte, and goes
        result.append((code - _ONES[d] + _ONES[top], top, d))
    return result


def upper_covers(parts: Sequence[int], n: int) -> list[Partition]:
    """Diagrams covering ``parts`` in the Tamari order (one per corner box, row ascending)."""
    return [_shape(cover) for cover, _, _ in _steps(_code(_require_vertex(parts, n)))]


def upper_covers_dyck(path: str) -> list[str]:
    """Paths covering ``path``: swap each east step followed by a north step with the
    prime subpath after it.  Ordered to agree with :func:`upper_covers` through the
    diagram correspondence (east steps scanned from the end of the path).
    """
    validate_dyck_path(path)
    spans = _prime_spans(path)
    north_index = []
    k = 0
    for step in path:
        if step == NORTH:
            north_index.append(k)
            k += 1
        else:
            north_index.append(-1)
    covers = []
    for pos in range(len(path) - 2, -1, -1):
        if path[pos] == EAST and path[pos + 1] == NORTH:
            start, end = spans[north_index[pos + 1]]
            covers.append(path[:pos] + path[start:end] + EAST + path[end:])
    return covers


class Enclosure(_Value):
    """Bounding region of a strip, possibly reaching the virtual row 0.

    ``shape`` lists row lengths from ``top_row`` downward; the box set includes
    the row-0 boxes (written ``(0, col)``) when the window reaches that high.
    """

    __slots__ = __match_args__ = ("top_row", "shape", "boxes")

    def __init__(self, top_row: int, shape: Partition, boxes: tuple[Box, ...]) -> None:
        object.__setattr__(self, "top_row", top_row)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "boxes", boxes)


def enclosure(parts: Sequence[int], n: int, box: Box) -> Enclosure:
    """Enclosure of the strip of ``box``: the window of rows ``row-h .. row`` and
    columns ``col .. col+h`` intersected with the diagram, with row 0 treated as an
    infinite row truncated at column ``col+h``.
    """
    shape = _require_vertex(parts, n)
    strip = strip_of_box(shape, n, box)
    height = len(strip)
    row, col = box
    top = row - height
    boxes: list[Box] = []
    lengths: list[int] = []
    for x in range(top, row + 1):
        limit = col + height if x == 0 else min(shape[x - 1], col + height)
        boxes.extend((x, y) for y in range(col, limit + 1))
        lengths.append(limit - col + 1)
    return Enclosure(top_row=top, shape=tuple(lengths), boxes=tuple(boxes))


@lru_cache(maxsize=8)
def partitions_in_staircase(n: int) -> tuple[Partition, ...]:
    """All diagrams inside the staircase of order n-1, i.e. the vertices of the
    n-th Tamari lattice (Catalan-many), by decreasing box count, ties by
    partition order: the staircase first, the null diagram last.

    Memoized for the eight most recent orders, the orders 1..8 that the property
    checks draw from in turn; a random draw indexes the cached tuple.
    """
    if n < 1:
        raise ShapeError(f"ambient parameter must be >= 1, got {n}")
    result: list[Partition] = []

    def extend(prefix: Partition, row: int) -> None:
        result.append(prefix)
        if row > n - 1:
            return
        upper = n - row
        if prefix:
            upper = min(upper, prefix[-1])
        for value in range(upper, 0, -1):
            extend(prefix + (value,), row + 1)

    extend((), 1)
    result.sort(key=lambda p: (-sum(p), p))
    return tuple(result)

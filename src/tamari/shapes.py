"""Young diagrams, Dyck paths and the covering relation of the Tamari lattices.

The n-th Tamari lattice is realized here on Young diagrams contained in the
staircase shape (n-1, n-2, ..., 1).  Under this convention the staircase is
the minimum element, the null diagram is the maximum, and one cover step up
removes a strip of boxes determined by a corner box.  Dyck paths of length 2n
encode the same vertices, and the covering relation has a natural description
in both pictures; this module provides both plus the conversions.

Every public function validates its shapes, once (``_dyck_path`` serves them
after that).  The one unchecked entry used elsewhere is ``_steps``, the cover
kernel: it names each cover step by its cover and the rows ``top+1 .. d`` of
its strip, and builds no boxes.  It runs only on a validated vertex or on
shapes it produced from one.  Its callers are :func:`covers_with_strips`,
which validates its vertex; the counting engine
:func:`tamari.counting._climb` and the chain stream
:func:`tamari.counting._chains_up`, which start from a validated vertex (the
stream also draws :func:`tamari.checks.random_maximal_chain`, one step per
vertex up from the validated staircase); and the random draws
:func:`tamari.checks.random_chain_to_top`, which validate their start.

Conventions (pinned once, used repo-wide):

* A partition is a plain tuple of weakly decreasing positive integers with no
  trailing zeros; ``()`` is the null diagram.
* Boxes are 1-based ``(row, column)`` pairs in English notation (rows grow
  downward).
* A Dyck path is a string over ``"N"``/``"E"`` from (0,0) to (n,n) staying
  weakly above the diagonal.  Row ``j`` of a diagram corresponds to the
  ``(n+1-j)``-th north step, so the null diagram maps to ``N^n E^n`` and the
  staircase to ``(NE)^n``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

Partition = tuple[int, ...]
Box = tuple[int, int]

NORTH = "N"
EAST = "E"


class ShapeError(ValueError):
    """Malformed partition, path or box, or a containment violation."""


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


def format_partition(parts: Sequence[int]) -> str:
    """Text form: comma-separated parts, '-' for the null diagram."""
    shape = as_partition(parts)
    return ",".join(str(p) for p in shape) if shape else "-"


def parse_partition(text: str) -> Partition:
    """Inverse of :func:`format_partition`."""
    text = text.strip()
    if text in ("-", ""):
        return ()
    try:
        return as_partition(int(chunk) for chunk in text.split(","))
    except ShapeError:
        raise
    except ValueError as exc:
        raise ShapeError(f"cannot parse partition from {text!r}") from exc


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


@dataclass(frozen=True)
class PrimePathInfo:
    """The prime Dyck subpath attached to a row of a diagram."""

    start_row: int
    height: int
    steps: str


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
    return tuple([(cover, tuple(zip(range(top + 1, d + 1), shape[top:d])))
                  for cover, top, d in _steps(shape)])


def _steps(shape: Partition) -> list[tuple[Partition, int, int]]:
    """``(cover, top, d)`` for each corner of ``shape``, by corner row ``d`` ascending:
    the step removes the last boxes of rows ``top+1 .. d`` (see
    :func:`covers_with_strips`).  Nothing is checked and no box is built, so
    ``shape`` must be a validated vertex or a cover this kernel produced from one.
    The callers: :func:`covers_with_strips`, ``counting._climb``,
    ``counting._chains_up`` (the stream, and through it the draws
    ``checks.random_maximal_chain``) and ``checks.random_chain_to_top``."""
    rows = len(shape)
    shrunk = tuple([length - 1 for length in shape])
    result = []
    for d in range(1, rows + 1):
        length = shape[d - 1]
        if d < rows and shape[d] == length:
            continue  # not a corner
        level = d + length
        top = d - 1
        while top and top + shape[top - 1] < level:
            top -= 1
        cover = shape[:top] + shrunk[top:d] + shape[d:]
        if length == 1:  # rows of length 1 end the shape and empty
            cover = cover[:cover.index(0)]
        result.append((cover, top, d))
    return result


def upper_covers(parts: Sequence[int], n: int) -> list[Partition]:
    """Diagrams covering ``parts`` in the Tamari order (one per corner box, row ascending)."""
    return [cover for cover, _ in covers_with_strips(as_partition(parts), n)]


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


@dataclass(frozen=True)
class Enclosure:
    """Bounding region of a strip, possibly reaching the virtual row 0.

    ``shape`` lists row lengths from ``top_row`` downward; the box set includes
    the row-0 boxes (written ``(0, col)``) when the window reaches that high.
    """

    top_row: int
    shape: Partition
    boxes: tuple[Box, ...]


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

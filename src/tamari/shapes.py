"""Young diagrams and the covering relation of the Tamari lattices.

The n-th Tamari lattice is realized here on Young diagrams contained in the
staircase shape (n-1, n-2, ..., 1).  Under this convention the staircase is
the minimum element, the null diagram is the maximum, and one cover step up
removes a strip of boxes determined by a corner box.  The paper's Dyck-path
and strip constructions are the reference in :mod:`tamari.checks`.

Every public function validates its shapes, once.  The one unchecked entry
used elsewhere is ``_steps``, the cover kernel.  It works on a vertex's
*code* (:func:`_code`), one int holding the length of row j in byte j-1, and
names each cover step by the cover's code and the rows ``top+1 .. d`` of its
strip: the step takes one box off each of those rows, so the cover's code is
``code - _ONES[d] + _ONES[top]`` and no box or tuple is built.  A row of
:data:`MAX_ORDER` boxes or more fits in no byte, so the kernel serves the
orders up to :data:`MAX_ORDER`, and :func:`_code` refuses a longer row.  The
kernel runs only on the code of a validated vertex or on codes it produced
from one.  Its callers are :func:`covers_with_strips`, the one public face of
the cover relation, which validates its vertex and converts at the boundary;
the counting engine :func:`tamari.counting._climb`, which starts from
staircases; the chain stream :func:`tamari.counting._chains_up`, which
starts from a validated vertex (the one random draw,
:func:`tamari.checks.random_chain`, is the stream taking one random step per
vertex up from a start it validates); and the decoder
:func:`tamari.tableaux.tableau_to_chain`, whose truncation shapes of a
validated tableau are vertices.

Conventions (pinned once, used repo-wide):

* A partition is a plain tuple of weakly decreasing positive integers with no
  trailing zeros; ``()`` is the null diagram.
* Boxes are 1-based ``(row, column)`` pairs in English notation (rows grow
  downward).

The small value types on the command path (``tableaux.Tableau``,
``bijections.ChainDecomposition`` and ``counting.LengthHistogram``) derive from
:class:`_Value`, an immutable base whose fields are its ``__match_args__``.
They are plain classes, so importing ``tamari`` or ``tamari.cli`` runs no class
generator and loads no ``inspect``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

Partition = tuple[int, ...]
Box = tuple[int, int]


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
    rows.  ``checks.strip_of_box`` is the definitional route to the same strips.
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
    The callers: :func:`covers_with_strips`, ``counting._climb``, ``counting._chains_up``
    (the stream, and through it the one random draw ``checks.random_chain``) and
    ``tableaux.tableau_to_chain``."""
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

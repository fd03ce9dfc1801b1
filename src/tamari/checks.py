"""Property suites behind the ``verify`` command, the one home of each property,
and the paper's reference constructions they compare the program against.

A check is named by its place in :data:`SUITES` and run by :func:`run_check`,
which turns its verdict into a :class:`CheckResult`: a failing check carries a
serializable counterexample, and its detail names the scale it ran at.
Whatever a check raises is its FAIL, caught there; only ``psi/characterization``
catches an exception itself, as one of its two routes.  Limits are deliberately
conservative defaults; the CLI lets callers raise them.  The tests run these
checks rather than repeat their loops, and tier-1 runs each at its stated scale
once (README, "Install and test").

The reference constructions follow the paper's definitions, not the kernels:
Dyck paths, prime subpaths, strips and enclosures, the strip test of chain
tableaux, r-set classes, truncation, the row steps of growth, the witness
chains and the conjectured products.  Only ``verify`` and the tests run them,
so no other command loads them.
"""

from __future__ import annotations

import enum
import itertools
import random
from dataclasses import dataclass
from math import comb
from typing import Callable, Iterator, Mapping, Sequence

from .shapes import (
    MAX_ORDER,
    Box,
    Partition,
    ShapeError,
    _code,
    _require_vertex,
    _steps,
    as_partition,
    covers_with_strips,
    partitions_in_staircase,
    staircase,
)
from .tableaux import (
    NotChainTableauError,
    Tableau,
    TableauError,
    _require_maximal,
    _truncation_shapes,
    chain_to_tableau,
    plus_full_set_labels,
    tableau_to_chain,
)
from .bijections import (
    _grow,
    decompose,
    extract_plus_full_set,
    insert_plus_full_set,
    recompose,
)
from .counting import (
    LengthHistogram,
    _chains_up,
    _nofull_and_all,
    chains_count,
    count_by_length,
    enumerate_maximal_chains,
    inclusion_exclusion,
    initial_values,
    length_histograms,
    longest_chain_count,
    nofull_initial_values,
)


@dataclass
class VerifyLimits:
    max_n: int = 5
    max_i: int = 2
    samples: int = 2000
    seed: int = 20240


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    counterexample: dict | None = None


# (passed, detail, counterexample): what a check returns, without its name
Verdict = tuple[bool, str, dict | None]
Check = Callable[[VerifyLimits], Verdict]


def _ok(detail: str) -> Verdict:
    return True, detail, None


def _fail(detail: str, example: dict) -> Verdict:
    return False, detail, example


# ---------------------------------------------------------------------------
# reference constructions


NORTH = "N"
EAST = "E"


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
    """Encode a diagram inside the staircase of order n-1 as a Dyck path of length 2n.

    Row ``j`` of the diagram is the ``(n+1-j)``-th north step, so the null diagram
    maps to ``N^n E^n`` and the staircase to ``(NE)^n``.
    """
    shape = _require_vertex(parts, n)

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


def random_dyck_path(n: int, rng: random.Random) -> str:
    """A uniform random Dyck path of semilength n, by the cycle lemma.

    A shuffled word of n N's and n+1 E's has exactly one rotation whose proper
    prefixes all stay at or above level 0: the one that starts just after the
    first lowest point.  That rotation is a Dyck path followed by an E, and each
    Dyck path arises from 2n+1 words, so dropping the E draws every path alike.
    """
    steps = [NORTH] * n + [EAST] * (n + 1)
    rng.shuffle(steps)
    level = low = cut = 0
    for idx, step in enumerate(steps, start=1):
        level += 1 if step == NORTH else -1
        if level < low:
            low, cut = level, idx
    return "".join(steps[cut:] + steps[:cut - 1])


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
    path = to_dyck_path(shape, n)
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
    height = prime_path_of_row(shape, n, row).height
    return tuple((j, shape[j - 1]) for j in range(row - height + 1, row + 1))


def corner_boxes(parts: Sequence[int]) -> list[Box]:
    """All boxes that are last in their row and lowest in their column, by increasing row."""
    shape = as_partition(parts)
    return [(row, length) for row, length in enumerate(shape, start=1)
            if row == len(shape) or shape[row] < length]


def upper_covers_dyck(path: str) -> list[str]:
    """Paths covering ``path``: swap each east step followed by a north step with the
    prime subpath after it.  Ordered to agree with ``shapes.covers_with_strips`` through
    the diagram correspondence (east steps scanned from the end of the path).
    """
    validate_dyck_path(path)
    spans = _prime_spans(path)
    covers = []
    for pos in range(len(path) - 2, -1, -1):
        if path[pos] == EAST and path[pos + 1] == NORTH:
            # spans counts north steps from 0: that at pos+1 has as many before it
            start, end = spans[path.count(NORTH, 0, pos + 1)]
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
    height = len(strip_of_box(shape, n, box))
    row, col = box
    top = row - height
    boxes: list[Box] = []
    lengths: list[int] = []
    for x in range(top, row + 1):
        limit = col + height if x == 0 else min(shape[x - 1], col + height)
        boxes.extend((x, y) for y in range(col, limit + 1))
        lengths.append(limit - col + 1)
    return Enclosure(top_row=top, shape=tuple(lengths), boxes=tuple(boxes))


class RSetClass(enum.Enum):
    NOT_FULL = "not-full"
    FULL = "full"
    PLUS_FULL = "plus-full"


def outer_diagonal(tab: Tableau) -> list[Box]:
    """Boxes (x, y) of the shape maximizing x + y; for the staircase these are
    (k, n-k) for k in [n-1], and the null diagram has none."""
    shape = tab.shape
    if not shape:
        return []
    peak = max(x + length for x, length in enumerate(shape, start=1))
    return [(x, length) for x, length in enumerate(shape, start=1) if x + length == peak]


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


def truncate(tab: Tableau, r: int) -> Tableau:
    """The sub-tableau of ``tab`` of labels <= r (a chain tableau whenever ``tab`` is)."""
    if not 0 <= r <= tab.length:
        raise TableauError(f"truncation level {r} out of range 0..{tab.length}")
    rows = []
    for row in tab.rows:
        kept = tuple(value for value in row if value <= r)
        if kept:
            rows.append(kept)
    return Tableau(tab.n, tuple(rows))


def repeat_row(tab: Tableau, d: int) -> Tableau:
    """Shift rows below ``d`` down one and repeat row ``d``; identity when row ``d`` is empty.

    The ambient parameter grows by one so the duplicated shape always fits.
    """
    if d < 1:
        raise TableauError(f"row index must be >= 1, got {d}")
    rows = tab.rows
    return Tableau(tab.n + 1, rows[:d] + rows[d - 1:d] + rows[d:])


def unrepeat_row(tab: Tableau, d: int) -> Tableau:
    """Inverse of :func:`repeat_row`: delete row ``d+1`` (which must equal row ``d``)."""
    if d < 1:
        raise TableauError(f"row index must be >= 1, got {d}")
    rows = tab.rows
    if rows[d - 1:d] != rows[d:d + 1]:  # an empty row past the last is ()
        raise TableauError(f"rows {d} and {d + 1} differ, cannot collapse: {rows!r}")
    return Tableau(tab.n - 1, rows[:d] + rows[d + 1:])


def append_next_label(tab: Tableau, d: int) -> Tableau:
    """Append a box labeled ``length + 1`` to the end of rows 1..d."""
    if d < 1:
        raise TableauError(f"row index must be >= 1, got {d}")
    new_label = tab.length + 1
    rows = list(tab.rows) + [()] * (d - len(tab.rows))
    for j in range(d):
        rows[j] = rows[j] + (new_label,)
    return Tableau(tab.n, tuple(rows))


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
    rows = [list(range(1, n - x + 1)) for x in range(1, n)]
    for k in range(i + 1):
        rows[n - 2 * k - 2][2 * k] = n + i - k  # the box (n-1-2k, 2k+1)
    return Tableau(n, rows)


# ---------------------------------------------------------------------------
# generators


def all_chain_tableaux(n: int) -> Iterator[Tableau]:
    """Every saturated chain of the n-th lattice ending at the null diagram,
    encoded as a chain tableau (length = chain length, any shape): the chains
    up from each vertex of :func:`partitions_in_staircase` in turn."""
    for start in partitions_in_staircase(n):
        yield from _chains_up(n, start)


def stream_census(n: int) -> tuple[dict[int, int], dict[int, int],
                                   dict[int, dict[int, int]]]:
    """The maximal chains of the n-th lattice tallied from the chain stream, each
    classified by :func:`plus_full_set_labels`: the paper's definition on real
    tableaux, the brute oracle for the climbs.  Three tallies, ``(by_length,
    nofull_by_length, min_plus_full)``: the chains by length, those with no
    plus-full-set by length, and ``{length: {minimal label: chains}}`` over the rest.
    """
    by_length, nofull, minimal = {}, {}, {}
    for tab in enumerate_maximal_chains(n):
        length = tab.length
        by_length[length] = by_length.get(length, 0) + 1
        if labels := plus_full_set_labels(tab):
            tally = minimal.setdefault(length, {})
            tally[labels[0]] = tally.get(labels[0], 0) + 1
        else:
            nofull[length] = nofull.get(length, 0) + 1
    return by_length, nofull, minimal


def minimal_label_tally(n: int, histograms: Mapping[int, LengthHistogram]
                        ) -> dict[int, dict[int, int]]:
    """The chains of the n-th lattice by length and minimal plus-full-set label,
    ``{length: {m: chains}}`` with no zero cells, from the counts by length of the
    orders below n (``histograms``, ``{s: histogram of order s}``).

    By equal representation and inclusion-exclusion over the labels below m, the
    chains of length L = n+i whose minimal label is m number
    ``sum_{k<m} (-1)^k C(m-1, k) #C_i(n-1-k)``, with #C_i(s) = 0 for s < 1, for
    m = 1..L (past L the sum need not vanish, though no label is that large).
    """
    def chains(i: int, s: int) -> int:
        return histograms[s].get(s + i) if s >= 1 else 0

    tally = {}
    for length in range(n - 1, comb(n, 2) + 1):
        i = length - n
        counts = {m: count for m in range(1, length + 1)
                  if (count := sum((-1) ** k * comb(m - 1, k) * chains(i, n - 1 - k)
                                   for k in range(m)))}
        if counts:
            tally[length] = counts
    return tally


def random_chain(n: int, rng: random.Random, start: Partition | None = None) -> Tableau:
    """A random saturated chain from ``start`` up to the null diagram, as a chain
    tableau of ``start``'s shape: the chain stream's walker taking one random step
    per vertex, in ``shapes.covers_with_strips`` order, so a seed always gives the same chain.

    With no start given, the start is a uniform index into
    :func:`partitions_in_staircase`; the start is validated once.
    """
    if start is None:
        vertices = partitions_in_staircase(n)
        start = vertices[rng.randrange(len(vertices))]
    start = _require_vertex(start, n)
    return next(_chains_up(n, start, choose=lambda s: s[rng.randrange(len(s))]))


def candidate_tableaux(n: int, max_length: int) -> Iterator[Tableau]:
    """All valid tableaux of shape inside the staircase of order n-1 with
    labels bounded by ``max_length`` (label set contiguity enforced)."""
    for shape in partitions_in_staircase(n):
        boxes = [(x, y) for x in range(1, len(shape) + 1)
                 for y in range(1, shape[x - 1] + 1)]
        grid: dict[Box, int] = {}

        def fill(index: int) -> Iterator[Tableau]:
            if index == len(boxes):
                used = set(grid.values())
                if not used or used == set(range(1, max(used) + 1)):
                    rows = tuple(tuple(grid[(x, y)] for y in range(1, shape[x - 1] + 1))
                                 for x in range(1, len(shape) + 1))
                    yield Tableau(n, rows)
                return
            x, y = boxes[index]
            low = grid[(x, y - 1)] + 1 if y > 1 else 1
            if x > 1:
                low = max(low, grid[(x - 1, y)])
            for value in range(low, max_length + 1):
                grid[(x, y)] = value
                yield from fill(index + 1)
            grid.pop((x, y), None)

        yield from fill(0)


def _full_labels(tab: Tableau) -> set[int]:
    return {r for r in range(1, tab.length + 1)
            if classify_r_set(tab, r) is not RSetClass.NOT_FULL}


# ---------------------------------------------------------------------------
# covers suite


def check_path_roundtrip(limits: VerifyLimits) -> Verdict:
    top = min(limits.max_n, 8)
    for n in range(1, top + 1):
        for vertex in partitions_in_staircase(n):
            back = from_dyck_path(to_dyck_path(vertex, n))
            if back != vertex:
                return _fail("conversion does not round-trip",
                             {"n": n, "vertex": list(vertex), "back": list(back)})
    return _ok(f"exhaustive for n <= {top}")


def check_cover_equivalence(limits: VerifyLimits) -> Verdict:
    """The kernel's covers (through ``shapes.covers_with_strips``) equal the Dyck-path
    covers, in order: on every vertex of the orders up to 11, and on ``samples``
    uniform random vertices spread over the orders 12 .. min(``max_n``, MAX_ORDER)."""
    top = min(limits.max_n, 11)
    vertices = ((n, vertex) for n in range(1, top + 1) for vertex in partitions_in_staircase(n))
    orders = range(12, min(limits.max_n, MAX_ORDER) + 1)
    rng = random.Random(limits.seed + 6)
    drawn = ((n, from_dyck_path(random_dyck_path(n, rng)))
             for n in itertools.islice(itertools.cycle(orders), limits.samples))
    for n, vertex in itertools.chain(vertices, drawn):
        path = to_dyck_path(vertex, n)
        through_paths = [from_dyck_path(p) for p in upper_covers_dyck(path)]
        direct = [cover for cover, _ in covers_with_strips(vertex, n)]
        if through_paths != direct:
            return _fail("cover sets (or their order) disagree",
                         {"n": n, "vertex": list(vertex),
                          "paths": [list(p) for p in through_paths],
                          "diagrams": [list(p) for p in direct]})
    detail = f"exhaustive for n <= {top}, order included"
    if orders:
        detail += f"; {limits.samples} random vertices at orders {orders[0]}..{orders[-1]}"
    return _ok(detail)


def check_prime_trichotomy(limits: VerifyLimits) -> Verdict:
    top = min(limits.max_n, 8)
    for n in range(1, top + 1):
        for path in (to_dyck_path(vertex, n) for vertex in partitions_in_staircase(n)):
            # a span (a, b) covers the path vertices a..b inclusive
            for (a1, b1), (a2, b2) in itertools.combinations(_prime_spans(path), 2):
                disjoint = b1 < a2 or b2 < a1
                single_point = b1 == a2 or b2 == a1
                equal = (a1, b1) == (a2, b2)
                inside = (a1 <= a2 and b2 <= b1) or (a2 <= a1 and b1 <= b2)
                proper = inside and not equal
                conditions = [disjoint, single_point, proper, equal]
                if sum(conditions) != 1:
                    return _fail("pair fits none or several cases",
                                 {"path": path, "spans": [[a1, b1], [a2, b2]],
                                  "conditions": conditions})
    return _ok(f"all subpath pairs for n <= {top}")


def check_monotone_heights(limits: VerifyLimits) -> Verdict:
    rng = random.Random(limits.seed)
    top = min(limits.max_n, 7)
    trials = max(1, limits.samples // 20)
    for _ in range(trials):
        n = rng.randint(1, top)
        chain = tableau_to_chain(random_chain(n, rng))
        heights = [prime_subpath_heights(to_dyck_path(v, n)) for v in chain]
        for upper, lower in zip(heights, heights[1:]):
            if any(u < l for u, l in zip(upper, lower)):
                return _fail("heights increased moving down a cover",
                             {"n": n, "chain": [list(v) for v in chain]})
    return _ok(f"{trials} random chains, n <= {top}")


def check_strip_translation(limits: VerifyLimits) -> Verdict:
    rng = random.Random(limits.seed + 1)
    top = min(limits.max_n + 2, 8)
    trials = max(1, limits.samples // 4)

    def random_last_box(n: int) -> tuple[Partition, int, Box]:
        while True:
            vertices = partitions_in_staircase(n)
            shape = vertices[rng.randrange(len(vertices))]
            if shape:
                row = rng.randrange(1, len(shape) + 1)
                return shape, n, (row, shape[row - 1])

    def translates(first: tuple[Box, ...], second: tuple[Box, ...]) -> bool:
        if len(first) != len(second):
            return False
        dx = second[0][0] - first[0][0]
        dy = second[0][1] - first[0][1]
        return all((x + dx, y + dy) == t for (x, y), t in zip(first, second))

    for _ in range(trials):
        shape1, n1, box1 = random_last_box(rng.randint(2, top))
        shape2, n2, box2 = random_last_box(rng.randint(2, top))
        enc1 = enclosure(shape1, n1, box1)
        enc2 = enclosure(shape2, n2, box2)
        conditions = [
            enc1.shape == enc2.shape,
            translates(enc1.boxes, enc2.boxes),
            translates(strip_of_box(shape1, n1, box1), strip_of_box(shape2, n2, box2)),
            prime_path_of_row(shape1, n1, box1[0]).steps
            == prime_path_of_row(shape2, n2, box2[0]).steps,
        ]
        if len(set(conditions)) != 1:
            return _fail("the four equivalent conditions disagree",
                         {"first": [list(shape1), n1, list(box1)],
                          "second": [list(shape2), n2, list(box2)],
                          "conditions": conditions})
    return _ok(f"{trials} random strip pairs")


def check_associahedron(limits: VerifyLimits) -> Verdict:
    """The Hasse diagram of T_n is the graph of the (n-1)-dimensional associahedron,
    a simple polytope (Loday, 2004).  Climbed by the kernel alone from the
    staircase, it has Catalan(n) vertices, each with n-1 covers up and down in
    all (the bottom's n-1 covers among them), so (n-1)Catalan(n)/2 steps; and
    Narayana(n, k+1) vertices have k upper covers, one per valley of the path."""
    top = min(limits.max_n, 10)
    for n in range(1, top + 1):
        catalan = comb(2 * n, n) // (n + 1)
        up, down = {}, {}
        todo = [_code(staircase(n - 1))]
        while todo:
            code = todo.pop()
            if code in up:
                continue
            covers = [cover for cover, _, _ in _steps(code)]
            up[code] = len(covers)
            for cover in covers:
                down[cover] = down.get(cover, 0) + 1
                todo.append(cover)
        ups = list(up.values())
        degrees = sorted({up[code] + down.get(code, 0) for code in up})
        found = {"vertices": len(up), "degrees": degrees, "steps": sum(ups),
                 "upper covers": [ups.count(k) for k in range(n)]}
        expected = {"vertices": catalan, "degrees": [n - 1], "steps": (n - 1) * catalan // 2,
                    "upper covers": [comb(n, k + 1) * comb(n, k) // n for k in range(n)]}
        if found != expected:
            return _fail("the kernel's cover graph is not the associahedron's",
                         {"n": n, "found": found, "expected": expected})
    return _ok(f"orders <= {top}")


# ---------------------------------------------------------------------------
# chain-tableau suite


def check_encoding_roundtrip(limits: VerifyLimits) -> Verdict:
    top = min(limits.max_n, 6)
    for n in range(1, top + 1):
        for tab in enumerate_maximal_chains(n):
            if chain_to_tableau(tableau_to_chain(tab), n) != tab:
                return _fail("exhaustive round-trip failed", tab.to_json_dict())
    rng = random.Random(limits.seed + 2)
    big = min(limits.max_n + 1, 7)
    for _ in range(limits.samples):
        tab = random_chain(big, rng)
        chain = tableau_to_chain(tab)
        if chain_to_tableau(chain, big) != tab:
            return _fail("random round-trip failed",
                         {"n": big, "chain": [list(v) for v in chain]})
    return _ok(f"exhaustive n <= {top} plus {limits.samples} random chains at n = {big}")


def check_characterization(limits: VerifyLimits) -> Verdict:
    top = min(limits.max_n, 5)
    checked = 0
    for tab in candidate_tableaux(top, max_length=6):
        strip_route = is_chain_tableau(tab)
        try:
            tableau_to_chain(tab)
            cover_route = True
        except NotChainTableauError:
            cover_route = False
        if strip_route != cover_route:
            return _fail("strip and cover characterizations disagree",
                         {**tab.to_json_dict(), "strips": strip_route,
                          "covers": cover_route})
        checked += 1
    return _ok(f"{checked} candidate tableaux inside the staircase of order {top - 1}")


def check_outer_diagonal_distinct(limits: VerifyLimits) -> Verdict:
    top = min(limits.max_n, 6)
    for n in range(1, top + 1):
        for tab in enumerate_maximal_chains(n):
            labels = [tab.label(x, y) for x, y in outer_diagonal(tab)]
            if len(labels) != len(set(labels)):
                return _fail("repeated label on the outer diagonal", tab.to_json_dict())
    return _ok(f"all maximal chains for n <= {top}")


def check_equal_rows(limits: VerifyLimits) -> Verdict:
    top = min(limits.max_n, 5)
    big = min(limits.max_n + 1, 6)
    for tab in itertools.chain(all_chain_tableaux(top), enumerate_maximal_chains(big)):
        rows = tab.rows
        for d in range(len(rows) - 1):
            if len(rows[d]) == len(rows[d + 1]) and rows[d] != rows[d + 1]:
                return _fail("equal-length rows differ",
                             {**tab.to_json_dict(), "d": d + 1})
    return _ok(f"all chains ending at the top for n <= {top}, maximal chains at n = {big}")


def check_pfs_bound(limits: VerifyLimits) -> Verdict:
    top = min(limits.max_n, 6)
    for n in range(1, top + 1):
        for tab in enumerate_maximal_chains(n):
            plus_full = sum(1 for r in range(1, tab.length + 1)
                            if classify_r_set(tab, r) is RSetClass.PLUS_FULL)
            if plus_full > n - 1:
                return _fail("more than n-1 plus-full-sets", tab.to_json_dict())
    return _ok(f"all maximal chains for n <= {top}")


# ---------------------------------------------------------------------------
# growth-map suite


def check_repeat_row_roundtrip(limits: VerifyLimits) -> Verdict:
    rng = random.Random(limits.seed + 3)
    big = min(limits.max_n + 1, 7)
    for _ in range(limits.samples):
        tab = random_chain(big, rng, start=staircase(big - 1))
        d = rng.randint(1, big)
        if unrepeat_row(repeat_row(tab, d), d) != tab:
            return _fail("row duplication does not round-trip",
                         {**tab.to_json_dict(), "d": d})
    return _ok(f"{limits.samples} random chains at n = {big}")


def check_repeat_row_characterization(limits: VerifyLimits) -> Verdict:
    top = min(limits.max_n, 5)
    rng = random.Random(limits.seed + 5)
    big = min(limits.max_n + 2, 7)
    trials = max(1, limits.samples // 10)
    drawn = (random_chain(n, rng) for n in (rng.randint(top + 1, big) for _ in range(trials)))
    for tab in itertools.chain(all_chain_tableaux(top), drawn):
        for d in range(1, tab.n + 1):
            if prime_path_of_row(tab.shape, tab.n, d).height == d:
                if not is_chain_tableau(repeat_row(tab, d)):
                    return _fail("duplication left the chain-tableau class",
                                 {**tab.to_json_dict(), "d": d})
    for tab in all_chain_tableaux(top + 1):
        rows = tab.rows
        for d in range(1, tab.n):
            row_d = rows[d - 1] if d <= len(rows) else ()
            row_d1 = rows[d] if d + 1 <= len(rows) else ()
            if row_d == row_d1 and prime_path_of_row(tab.shape, tab.n, d).height == d:
                if not is_chain_tableau(unrepeat_row(tab, d)):
                    return _fail("collapse left the chain-tableau class",
                                 {**tab.to_json_dict(), "d": d})
    return _ok(f"exhaustive both directions for n <= {top}, "
                     f"{trials} random tableaux up to n = {big}")


def check_append_bijection(limits: VerifyLimits) -> Verdict:
    top = min(limits.max_n, 5)
    for n in range(1, top + 1):
        xs: dict[tuple[int, int], set[Tableau]] = {}
        for tab in all_chain_tableaux(n):
            for d in range(1, n + 1):
                row_d = len(tab.rows[d - 1]) if d <= len(tab.rows) else 0
                if row_d != n - d:
                    continue
                if prime_path_of_row(tab.shape, tab.n, d).height != d:
                    continue
                xs.setdefault((d, tab.length), set()).add(tab)
        zs: dict[tuple[int, int], set[Tableau]] = {}
        for tab in all_chain_tableaux(n + 1):
            if tab.length == 0:
                continue
            r = tab.length - 1
            top_set = tab.r_set(r + 1)
            d = top_set[-1][0]
            if top_set[-1] != (d, n - d + 1):
                continue
            trunc = truncate(tab, r)
            row_d = trunc.rows[d - 1] if d <= len(trunc.rows) else ()
            row_d1 = trunc.rows[d] if d + 1 <= len(trunc.rows) else ()
            if row_d != row_d1:
                continue
            if prime_path_of_row(tab.shape, tab.n, d).height != d:
                continue
            zs.setdefault((d, r), set()).add(tab)
        for (d, r), sources in xs.items():
            image = {append_next_label(repeat_row(x, d), d) for x in sources}
            expected = zs.get((d, r), set())
            if image != expected:
                return _fail("grow step is not a bijection onto its target",
                             {"n": n, "d": d, "r": r,
                              "image": len(image), "target": len(expected)})
        for key in zs:
            if key not in xs:
                return _fail("target class without sources",
                             {"n": n, "d": key[0], "r": key[1]})
    return _ok(f"exhaustive source/target comparison for n <= {top}")


def _afresh(tab: Tableau) -> Tableau:
    """``tab`` rebuilt from its rows, so a check scans it instead of reading the
    labels growth stored on it."""
    return Tableau(tab.n, tab.rows)


def _growth_failure(tab: Tableau, pfs: tuple[int, ...], r: int, grown: Tableau) -> str | None:
    """What is wrong with ``grown``, the growth of ``tab`` (plus-full-set labels
    ``pfs``) at level r, or None.  The labels are scanned on a fresh copy, and
    those that growth stored on ``grown`` must equal them."""
    labels = plus_full_set_labels(_afresh(grown))
    if not labels or labels[0] != r + 1:
        return "grown chain has wrong minimal plus-full-set"
    if len(labels) != len(pfs) + 1:
        return "image does not gain exactly one plus-full-set"
    if plus_full_set_labels(grown) != labels:
        return "grown chain stores plus-full-set labels that a scan does not find"
    if extract_plus_full_set(grown) != (r, tab):
        return "extraction does not invert growth"
    return None


def _misshifted_label(full: set[int], plus: set[int], r: int, grown: Tableau) -> int | None:
    """The first label j of a chain (full labels ``full``, plus-full ``plus``) whose
    statuses are not those of label j (j <= r) or j+1 (j > r) of ``grown``, its
    growth at level r; None if there is none."""
    grown_full = _full_labels(grown)
    grown_plus = set(plus_full_set_labels(grown))
    for j in range(1, grown.length):
        to = j if j <= r else j + 1
        if (j in full) != (to in grown_full) or (j in plus) != (to in grown_plus):
            return j
    return None


def check_growth_roundtrip(limits: VerifyLimits) -> Verdict:
    top = min(limits.max_n, 6)
    cases = 0
    for n in range(1, top + 1):
        for tab in enumerate_maximal_chains(n):
            pfs = plus_full_set_labels(tab)
            bound = min(pfs) - 1 if pfs else tab.length
            for r in range(0, bound + 1):
                if failure := _growth_failure(tab, pfs, r, insert_plus_full_set(tab, r)):
                    return _fail(failure, {**tab.to_json_dict(), "r": r})
                cases += 1
    # the random cases also check the label shift and the decomposition
    rng = random.Random(limits.seed + 4)
    big = min(limits.max_n + 1, 7)
    for _ in range(limits.samples):
        tab = random_chain(big, rng, start=staircase(big - 1))
        pfs = plus_full_set_labels(tab)
        bound = min(pfs) - 1 if pfs else tab.length
        r = rng.randint(0, bound)
        grown = insert_plus_full_set(tab, r)
        example = {**tab.to_json_dict(), "r": r}
        if failure := _growth_failure(tab, pfs, r, grown):
            return _fail(f"random case: {failure}", example)
        if (j := _misshifted_label(_full_labels(tab), set(pfs), r, _afresh(grown))) is not None:
            return _fail("random case: full/plus statuses do not shift as required",
                         {**example, "j": j})
        if recompose(decompose(tab)) != tab:
            return _fail("random case: recompose does not invert decompose", example)
    return _ok(f"{cases} cases exhaustive for n <= {top} plus {limits.samples} "
                     f"random cases at n = {big} (with label shift and decomposition)")


def check_label_shift(limits: VerifyLimits) -> Verdict:
    top = min(limits.max_n, 5)
    for n in range(1, top + 1):
        for tab in enumerate_maximal_chains(n):
            full = _full_labels(tab)
            plus = set(plus_full_set_labels(tab))
            for r in range(0, tab.length + 1):
                j = _misshifted_label(full, plus, r, Tableau(n + 1, _grow(tab.rows, n, r)))
                if j is not None:
                    return _fail("full/plus statuses do not shift as required",
                                 {**tab.to_json_dict(), "r": r, "j": j})
    return _ok(f"exhaustive for n <= {top}")


def check_growth_image_counts(limits: VerifyLimits) -> Verdict:
    """Each growth level's domain has as many chains as its image, both counted
    by the classified chain stream (:func:`stream_census`), once per order."""
    top = min(limits.max_n, 6)
    censuses = {n: stream_census(n) for n in range(1, top + 2)}
    for n in range(1, top + 1):
        by_length, _, minimal = censuses[n]
        grown = censuses[n + 1][2]
        for length, total in by_length.items():
            i = length - n
            tally = minimal.get(length, {})
            grown_tally = grown.get(length + 1, {})
            for r in range(0, length + 1):
                domain = total - sum(tally.get(j, 0) for j in range(1, r + 1))
                image = grown_tally.get(r + 1, 0)
                if domain != image:
                    return _fail("domain and image classes have different sizes",
                                 {"n": n, "i": i, "r": r,
                                  "domain": domain, "image": image})
    return _ok(f"all offsets and levels for n <= {top}")


def check_decomposition(limits: VerifyLimits) -> Verdict:
    top = min(limits.max_n, 6)
    for n in range(1, top + 1):
        for tab in enumerate_maximal_chains(n):
            dec = decompose(tab)
            if plus_full_set_labels(dec.base):
                return _fail("base chain still has plus-full-sets", tab.to_json_dict())
            if any(a > b for a, b in zip(dec.params, dec.params[1:])):
                return _fail("growth levels are not weakly increasing",
                             {"n": n, "params": list(dec.params)})
            expected = tuple(sorted(r + j + 1 for j, r in enumerate(dec.params)))
            labels = plus_full_set_labels(tab)
            if labels != expected:
                return _fail("plus-full-set labels disagree with the levels",
                             {"n": n, "params": list(dec.params), "labels": list(labels)})
            if recompose(dec) != tab:
                return _fail("recompose does not invert decompose", tab.to_json_dict())
    return _ok(f"exhaustive for n <= {top}")


def check_witness(limits: VerifyLimits) -> Verdict:
    for i in range(-1, min(limits.max_i, 4) + 1):
        tab = chain_without_plus_full_sets(i)
        if tab.n != 2 * i + 3 and i >= 0:
            return _fail("witness lattice order is wrong", {"i": i, "n": tab.n})
        if tab.length != 3 * i + 3 and i >= 0:
            return _fail("witness length is wrong", {"i": i, "length": tab.length})
        if not tab.is_staircase or not is_chain_tableau(tab):
            return _fail("witness is not a maximal chain", {"i": i})
        if plus_full_set_labels(tab):
            return _fail("witness has a plus-full-set",
                         {"i": i, "labels": list(plus_full_set_labels(tab))})
    return _ok(f"i <= {min(limits.max_i, 4)}")


# ---------------------------------------------------------------------------
# formulas suite


def check_recursion_vs_walk(limits: VerifyLimits) -> Verdict:
    """#C_i(n) by the recursion equals the histogram climb for every offset; the
    offset -1 row is the lattice's one shortest chain."""
    top = min(limits.max_n, 11)
    for n in range(1, top + 1):
        hist = count_by_length(n)
        # past this offset no chain of order n is long enough; ``initial_values``
        # raises where its two routes disagree
        for i, table in initial_values(range(-1, comb(n, 2) - n + 1), n).items():
            if chains_count(i, n, table) != hist.get(n + i):
                return _fail("recursion disagrees with the lattice walk",
                             {"i": i, "n": n,
                              "recursion": chains_count(i, n, table),
                              "walk": hist.get(n + i)})
    return _ok(f"every offset for n <= {top}")


def check_walk_vs_enumeration(limits: VerifyLimits) -> Verdict:
    """Each tally of the classified chain stream (:func:`stream_census`) equals its
    route over the climbs: the chains by length, the histogram; those with no
    plus-full-set, the clean block of the initial-values climb; the minimal labels,
    :func:`minimal_label_tally` over the histograms of the orders below."""
    top = min(limits.max_n, 6)
    histograms = length_histograms(range(1, top + 1))
    for n in range(1, top + 1):
        climbed = (dict(histograms[n].counts), _nofull_and_all(n, comb(n, 2))[0],
                   minimal_label_tally(n, histograms))
        for name, streamed, counted in zip(("by_length", "nofull_by_length", "min_plus_full"),
                                           stream_census(n), climbed):
            if streamed != counted:
                length = min(length for length in streamed.keys() | counted.keys()
                             if streamed.get(length) != counted.get(length))
                return _fail(f"the climbs disagree with the chain stream on {name}",
                             {"n": n, "tally": name, "length": length,
                              "stream": streamed.get(length), "climb": counted.get(length)})
    return _ok(f"n <= {top}")


def check_degree(limits: VerifyLimits) -> Verdict:
    for i in range(-1, min(limits.max_i, 2) + 1):
        table = nofull_initial_values(i)
        degree = 3 * i + 3
        values = [chains_count(i, n, table) for n in range(1, degree + 4)]
        diffs = values
        for _ in range(degree):
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        leading = table.get(2 * i + 3, 0)
        if any(d != leading for d in diffs):
            return _fail("top finite difference is not the leading initial value",
                         {"i": i, "diffs": diffs, "expected": leading})
        final = [b - a for a, b in zip(diffs, diffs[1:])]
        if any(d != 0 for d in final):
            return _fail("degree exceeds 3i+3", {"i": i, "diffs": final})
    return _ok(f"finite differences for i <= {min(limits.max_i, 2)}")


def check_longest(limits: VerifyLimits) -> Verdict:
    top = min(limits.max_n, 7)
    for n in range(1, top + 1):
        formula = longest_chain_count(n)
        walked = count_by_length(n).get(comb(n, 2))
        if formula != walked:
            return _fail("product formula disagrees with the walk",
                         {"n": n, "formula": formula, "walk": walked})
    return _ok(f"n <= {top}")


def check_vanishing(limits: VerifyLimits) -> Verdict:
    """For n >= 2i+4 no chain of length n+i avoids plus-full-sets, and the minimal
    plus-full-set labels fill 1..3i+4: the chain stream cut at that length, each
    chain classified by :func:`plus_full_set_labels`, for i <= 1 and n <= 10."""
    top = min(limits.max_n, 10)
    done = []
    for i in (-1, 0, 1):
        for n in range(2 * i + 4, top + 1):
            minimal = set()
            for tab in enumerate_maximal_chains(n, length=n + i):
                labels = plus_full_set_labels(tab)
                if not labels:
                    return _fail("a chain avoids plus-full-sets past the threshold",
                                 {"i": i, **tab.to_json_dict()})
                minimal.add(labels[0])
            if minimal != set(range(1, 3 * i + 5)):
                return _fail("the minimal labels do not fill 1..3i+4",
                             {"i": i, "n": n, "minimal": sorted(minimal)})
            done.append((i, n))
    return _ok(f"checked {done}")


def check_equal_representation(limits: VerifyLimits) -> Verdict:
    """For every set U of at most n-1 labels of 1..n+i, with t = |U|: the chains of
    length n+i whose plus-full-set labels are exactly U number N_i(n-t), and those
    whose labels contain U number #C_i(n-t).  The label sets come from the chain
    stream at length n+i classified by :func:`plus_full_set_labels`; the stream
    cuts by length, so past order 7 it walks only those chains (5,544 at (1, 10)),
    and the cases (0, n) and (1, n) for 8 <= n <= ``max_n`` (at most 10) join."""
    cases = [(0, 4), (0, 5), (1, 5), (1, 6)]
    cases += [(i, n) for n in range(8, min(limits.max_n, 10) + 1) for i in (0, 1)]
    cases = [(i, n) for i, n in cases if n <= limits.max_n + 1 and i <= limits.max_i]
    for i, n in cases:
        length = n + i
        tallies: dict[frozenset[int], int] = {}
        for tab in enumerate_maximal_chains(n, length=length):
            labels = frozenset(plus_full_set_labels(tab))
            tallies[labels] = tallies.get(labels, 0) + 1
        for t in range(n):
            # N_i(n-t) is the clean block of the climb of order n-t
            expected = (_nofull_and_all(n - t, n - t + i)[0].get(n - t + i, 0),
                        count_by_length(n - t).get(n - t + i))
            for subset in itertools.combinations(range(1, length + 1), t):
                wanted = frozenset(subset)
                exact = tallies.get(wanted, 0)
                superset = sum(count for labels, count in tallies.items() if wanted <= labels)
                if (exact, superset) != expected:
                    return _fail("subset counts break equal representation",
                                 {"i": i, "n": n, "labels": list(subset),
                                  "exact": exact, "superset": superset})
    return _ok(f"cases {cases}")


def check_mutual_inversion(limits: VerifyLimits) -> Verdict:
    from .fixtures import nofull_table

    fixture = nofull_table()
    for i in range(-1, min(limits.max_i, 5) + 1):
        row = {t: fixture.get((i, t), 0) for t in range(1, 2 * i + 4)}
        counts = {n: chains_count(i, n, row) for n in range(1, 14)}
        for n, back in inclusion_exclusion(i, counts).items():
            expected = fixture.get((i, n), 0) if n <= 2 * i + 3 else 0
            if back != expected:
                return _fail("inclusion-exclusion does not invert the recursion",
                             {"i": i, "n": n, "back": back, "expected": expected})
    return _ok(f"published initial values, i <= {min(limits.max_i, 5)}, n <= 13")


# ---------------------------------------------------------------------------
# conjecture suite


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


def check_conjecture(limits: VerifyLimits) -> Verdict:
    top_i = min(limits.max_i, 5)
    table = initial_values(range(-1, top_i + 1), 2 * top_i + 3)
    for i in range(-1, top_i + 1):
        for n, product in zip((2 * i + 3, 2 * i + 2), conjecture_values(i)):
            if product is None:
                continue
            brute = table[i][n]
            if product != brute:
                return _fail("product disagrees with the classified count",
                             {"i": i, "n": n, "product": product, "brute": brute})
    return _ok(f"i <= {top_i}")


SUITES: dict[str, dict[str, Check]] = {
    "covers": {
        "path-roundtrip": check_path_roundtrip,
        "path-vs-diagram": check_cover_equivalence,
        "prime-trichotomy": check_prime_trichotomy,
        "monotone-heights": check_monotone_heights,
        "strip-translation": check_strip_translation,
        "associahedron": check_associahedron,
    },
    "psi": {
        "roundtrip": check_encoding_roundtrip,
        "characterization": check_characterization,
        "outer-diagonal-distinct": check_outer_diagonal_distinct,
        "equal-length-rows-identical": check_equal_rows,
        "plus-full-set-bound": check_pfs_bound,
    },
    "phi": {
        "repeat-row-roundtrip": check_repeat_row_roundtrip,
        "repeat-row-characterization": check_repeat_row_characterization,
        "grow-step-bijection": check_append_bijection,
        "roundtrip": check_growth_roundtrip,
        "label-shift": check_label_shift,
        "image-counts": check_growth_image_counts,
        "decomposition": check_decomposition,
        "no-plus-full-set-witness": check_witness,
    },
    "formulas": {
        "recursion-vs-walk": check_recursion_vs_walk,
        "walk-vs-enumeration": check_walk_vs_enumeration,
        "polynomial-degree": check_degree,
        "longest-chains": check_longest,
        "vanishing": check_vanishing,
        "equal-representation": check_equal_representation,
        "mutual-inversion": check_mutual_inversion,
    },
    "conjecture": {
        "products": check_conjecture,
    },
}


def run_check(name: str, limits: VerifyLimits) -> CheckResult:
    """The result of the check ``name`` (``suite/check``, as keyed in :data:`SUITES`),
    the one place where a check's fault is caught.

    Whatever the check raises (an ``Exception``, not an interrupt) is its FAIL,
    with the detail ``"{type}: {message}"`` and the counterexample the exception
    carries, if any: a :class:`~tamari.counting.RouteMismatch` gives ``{i, t, ie,
    brute}``, a :class:`~tamari.tableaux.NotChainTableauError` the ``{n, rows}``
    of the tableau that encodes no chain.
    """
    suite, _, short = name.partition("/")
    check = SUITES[suite][short]
    try:
        passed, detail, example = check(limits)
    except Exception as exc:
        return CheckResult(name, False, f"{type(exc).__name__}: {exc}",
                           getattr(exc, "counterexample", None))
    return CheckResult(name, passed, detail, example)


def run_suite(suite: str, limits: VerifyLimits) -> list[CheckResult]:
    if suite == "all":
        chosen = list(SUITES)
    elif suite in SUITES:
        chosen = [suite]
    else:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)} or 'all'")
    return [run_check(f"{name}/{short}", limits) for name in chosen for short in SUITES[name]]

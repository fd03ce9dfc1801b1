"""Property suites behind the ``verify`` command, and the one home of each property.

Each check returns a :class:`CheckResult`; a failing check carries a
serializable counterexample, and its detail names the scale it ran at.  Limits
are deliberately conservative defaults; the CLI lets callers raise them.  The
tests call these checks rather than repeat their loops, and tier-1 runs each
at its stated scale once (README, "Install and test").
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import comb
from typing import Callable, Iterator

from .shapes import (
    Box,
    Partition,
    _require_vertex,
    _steps,
    enclosure,
    from_dyck_path,
    partitions_in_staircase,
    prime_path_of_row,
    prime_subpath_heights,
    staircase,
    strip_of_box,
    to_dyck_path,
    upper_covers,
    upper_covers_dyck,
)
from .tableaux import (
    RSetClass,
    Tableau,
    chain_to_tableau,
    classify_r_set,
    is_chain_tableau,
    outer_diagonal,
    plus_full_set_labels,
    tableau_to_chain,
    NotChainTableauError,
)
from .bijections import (
    chain_without_plus_full_sets,
    decompose,
    expand_chain,
    extract_plus_full_set,
    insert_plus_full_set,
    recompose,
    repeat_row,
    unrepeat_row,
    append_next_label,
)
from .counting import (
    ChainCensus,
    RouteMismatch,
    _chains_up,
    census,
    chains_count,
    conjecture_values,
    count_by_length,
    enumerate_maximal_chains,
    equal_representation_check,
    inclusion_exclusion,
    initial_values,
    longest_chain_count,
    nofull_initial_values,
    vanishing_check,
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


Check = Callable[[VerifyLimits], CheckResult]


def _ok(name: str, detail: str) -> CheckResult:
    return CheckResult(name, True, detail)


def _fail(name: str, detail: str, example: dict) -> CheckResult:
    return CheckResult(name, False, detail, example)


# ---------------------------------------------------------------------------
# generators


def all_chain_tableaux(n: int) -> Iterator[Tableau]:
    """Every saturated chain of the n-th lattice ending at the null diagram,
    encoded as a chain tableau (length = chain length, any shape): the chains
    up from each vertex of :func:`partitions_in_staircase` in turn."""
    for start in partitions_in_staircase(n):
        yield from _chains_up(n, start)


def stream_census(n: int) -> ChainCensus:
    """The census tallied from the chain stream, each chain classified by
    :func:`plus_full_set_labels`: the paper's definition on real tableaux, the
    brute oracle for :func:`tamari.counting.census`."""
    result = ChainCensus(n)
    for tab in enumerate_maximal_chains(n):
        length = tab.length
        result.by_length[length] = result.by_length.get(length, 0) + 1
        labels = plus_full_set_labels(tab)
        if labels:
            tally = result.min_plus_full.setdefault(length, {})
            tally[labels[0]] = tally.get(labels[0], 0) + 1
        else:
            result.nofull_by_length[length] = result.nofull_by_length.get(length, 0) + 1
    return result


def random_chain_to_top(n: int, rng: random.Random,
                        start: Partition | None = None) -> list[Partition]:
    """A saturated chain from a (random) vertex up to the null diagram,
    returned top-first as :func:`tamari.tableaux.chain_to_tableau` expects.

    A random start is a uniform index into :func:`partitions_in_staircase`; the
    start is validated once.  Each step takes a random upper cover, listed in
    :func:`upper_covers` order, so a seed always gives the same chain.
    """
    if start is None:
        vertices = partitions_in_staircase(n)
        start = vertices[rng.randrange(len(vertices))]
    steps = [_require_vertex(start, n)]
    while steps[-1]:
        options = _steps(steps[-1])
        steps.append(options[rng.randrange(len(options))][0])
    steps.reverse()
    return steps


def random_maximal_chain(n: int, rng: random.Random) -> Tableau:
    """The tableau of ``random_chain_to_top(n, rng, start=staircase(n - 1))``, with the
    same calls to ``rng``: the chain stream's walker, one random step per vertex."""
    bottom = _require_vertex(staircase(n - 1), n)
    return next(_chains_up(n, bottom, choose=lambda s: s[rng.randrange(len(s))]))


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


def check_path_roundtrip(limits: VerifyLimits) -> CheckResult:
    name = "covers/path-roundtrip"
    top = min(limits.max_n, 8)
    for n in range(1, top + 1):
        for vertex in partitions_in_staircase(n):
            back = from_dyck_path(to_dyck_path(vertex, n))
            if back != vertex:
                return _fail(name, "conversion does not round-trip",
                             {"n": n, "vertex": list(vertex), "back": list(back)})
    return _ok(name, f"exhaustive for n <= {top}")


def check_cover_equivalence(limits: VerifyLimits) -> CheckResult:
    name = "covers/path-vs-diagram"
    top = min(limits.max_n, 6)
    for n in range(1, top + 1):
        for vertex in partitions_in_staircase(n):
            through_paths = [from_dyck_path(p)
                             for p in upper_covers_dyck(to_dyck_path(vertex, n))]
            direct = upper_covers(vertex, n)
            if through_paths != direct:
                return _fail(name, "cover sets (or their order) disagree",
                             {"n": n, "vertex": list(vertex),
                              "paths": [list(p) for p in through_paths],
                              "diagrams": [list(p) for p in direct]})
    return _ok(name, f"exhaustive for n <= {top}, order included")


def check_prime_trichotomy(limits: VerifyLimits) -> CheckResult:
    name = "covers/prime-trichotomy"
    top = min(limits.max_n, 8)
    for n in range(1, top + 1):
        for path in (to_dyck_path(vertex, n) for vertex in partitions_in_staircase(n)):
            spans = []
            level = 0
            starts = {}
            for idx, step in enumerate(path):
                if step == "N":
                    starts[level] = idx
                    level += 1
                else:
                    level -= 1
                    spans.append((starts.pop(level), idx + 1))
            # a span (a, b) covers the path vertices a..b inclusive
            for (a1, b1), (a2, b2) in itertools.combinations(spans, 2):
                disjoint = b1 < a2 or b2 < a1
                single_point = b1 == a2 or b2 == a1
                equal = (a1, b1) == (a2, b2)
                inside = (a1 <= a2 and b2 <= b1) or (a2 <= a1 and b1 <= b2)
                proper = inside and not equal
                conditions = [disjoint, single_point, proper, equal]
                if sum(conditions) != 1:
                    return _fail(name, "pair fits none or several cases",
                                 {"path": path, "spans": [[a1, b1], [a2, b2]],
                                  "conditions": conditions})
    return _ok(name, f"all subpath pairs for n <= {top}")


def check_monotone_heights(limits: VerifyLimits) -> CheckResult:
    name = "covers/monotone-heights"
    rng = random.Random(limits.seed)
    top = min(limits.max_n, 7)
    trials = max(1, limits.samples // 20)
    for _ in range(trials):
        n = rng.randint(1, top)
        chain = random_chain_to_top(n, rng)
        heights = [prime_subpath_heights(to_dyck_path(v, n)) for v in chain]
        for upper, lower in zip(heights, heights[1:]):
            if any(u < l for u, l in zip(upper, lower)):
                return _fail(name, "heights increased moving down a cover",
                             {"n": n, "chain": [list(v) for v in chain]})
    return _ok(name, f"{trials} random chains, n <= {top}")


def check_strip_translation(limits: VerifyLimits) -> CheckResult:
    name = "covers/strip-translation"
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
            return _fail(name, "the four equivalent conditions disagree",
                         {"first": [list(shape1), n1, list(box1)],
                          "second": [list(shape2), n2, list(box2)],
                          "conditions": conditions})
    return _ok(name, f"{trials} random strip pairs")


def check_poset_extremes(limits: VerifyLimits) -> CheckResult:
    name = "covers/poset-extremes"
    top = min(limits.max_n, 8)
    for n in range(2, top + 1):
        bottom_covers = upper_covers(staircase(n - 1), n)
        if len(bottom_covers) != n - 1:
            return _fail(name, "bottom element cover count is wrong",
                         {"n": n, "covers": len(bottom_covers)})
        if count_by_length(n).get(n - 1) != 1:
            return _fail(name, "shortest chain is not unique", {"n": n})
    return _ok(name, f"n <= {top}")


# ---------------------------------------------------------------------------
# chain-tableau suite


def check_encoding_roundtrip(limits: VerifyLimits) -> CheckResult:
    name = "psi/roundtrip"
    top = min(limits.max_n, 6)
    for n in range(1, top + 1):
        for tab in enumerate_maximal_chains(n):
            chain = tableau_to_chain(tab)
            if chain_to_tableau(chain, n) != tab:
                return _fail(name, "exhaustive round-trip failed",
                             {"n": n, "rows": [list(r) for r in tab.rows]})
    rng = random.Random(limits.seed + 2)
    big = min(limits.max_n + 1, 7)
    for _ in range(limits.samples):
        chain = random_chain_to_top(big, rng)
        tab = chain_to_tableau(chain, big)
        if tableau_to_chain(tab) != tuple(chain):
            return _fail(name, "random round-trip failed",
                         {"n": big, "chain": [list(v) for v in chain]})
    return _ok(name, f"exhaustive n <= {top} plus {limits.samples} random chains at n = {big}")


def check_characterization(limits: VerifyLimits) -> CheckResult:
    name = "psi/characterization"
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
            return _fail(name, "strip and cover characterizations disagree",
                         {"rows": [list(r) for r in tab.rows],
                          "strips": strip_route, "covers": cover_route})
        checked += 1
    return _ok(name, f"{checked} candidate tableaux inside the staircase of order {top - 1}")


def check_outer_diagonal_distinct(limits: VerifyLimits) -> CheckResult:
    name = "psi/outer-diagonal-distinct"
    top = min(limits.max_n, 6)
    for n in range(1, top + 1):
        for tab in enumerate_maximal_chains(n):
            labels = [tab.label(x, y) for x, y in outer_diagonal(tab)]
            if len(labels) != len(set(labels)):
                return _fail(name, "repeated label on the outer diagonal",
                             {"n": n, "rows": [list(r) for r in tab.rows]})
    return _ok(name, f"all maximal chains for n <= {top}")


def check_equal_rows(limits: VerifyLimits) -> CheckResult:
    name = "psi/equal-length-rows-identical"
    top = min(limits.max_n, 5)
    big = min(limits.max_n + 1, 6)
    for tab in itertools.chain(all_chain_tableaux(top), enumerate_maximal_chains(big)):
        rows = tab.rows
        for d in range(len(rows) - 1):
            if len(rows[d]) == len(rows[d + 1]) and rows[d] != rows[d + 1]:
                return _fail(name, "equal-length rows differ",
                             {"rows": [list(r) for r in rows], "d": d + 1})
    return _ok(name, f"all chains ending at the top for n <= {top}, maximal chains at n = {big}")


def check_pfs_bound(limits: VerifyLimits) -> CheckResult:
    name = "psi/plus-full-set-bound"
    top = min(limits.max_n, 6)
    for n in range(1, top + 1):
        for tab in enumerate_maximal_chains(n):
            plus_full = sum(1 for r in range(1, tab.length + 1)
                            if classify_r_set(tab, r) is RSetClass.PLUS_FULL)
            if plus_full > n - 1:
                return _fail(name, "more than n-1 plus-full-sets",
                             {"n": n, "rows": [list(r) for r in tab.rows]})
    return _ok(name, f"all maximal chains for n <= {top}")


# ---------------------------------------------------------------------------
# growth-map suite


def check_repeat_row_roundtrip(limits: VerifyLimits) -> CheckResult:
    name = "phi/repeat-row-roundtrip"
    rng = random.Random(limits.seed + 3)
    big = min(limits.max_n + 1, 7)
    for _ in range(limits.samples):
        tab = random_maximal_chain(big, rng)
        d = rng.randint(1, big)
        if unrepeat_row(repeat_row(tab, d), d) != tab:
            return _fail(name, "row duplication does not round-trip",
                         {"rows": [list(r) for r in tab.rows], "d": d})
    return _ok(name, f"{limits.samples} random chains at n = {big}")


def check_repeat_row_characterization(limits: VerifyLimits) -> CheckResult:
    name = "phi/repeat-row-characterization"
    top = min(limits.max_n, 5)
    rng = random.Random(limits.seed + 5)
    big = min(limits.max_n + 2, 7)
    trials = max(1, limits.samples // 10)
    drawn = (chain_to_tableau(random_chain_to_top(n, rng), n)
             for n in (rng.randint(top + 1, big) for _ in range(trials)))
    for tab in itertools.chain(all_chain_tableaux(top), drawn):
        for d in range(1, tab.n + 1):
            if prime_path_of_row(tab.shape, tab.n, d).height == d:
                if not is_chain_tableau(repeat_row(tab, d)):
                    return _fail(name, "duplication left the chain-tableau class",
                                 {"rows": [list(r) for r in tab.rows], "d": d})
    for tab in all_chain_tableaux(top + 1):
        rows = tab.rows
        for d in range(1, tab.n):
            row_d = rows[d - 1] if d <= len(rows) else ()
            row_d1 = rows[d] if d + 1 <= len(rows) else ()
            if row_d == row_d1 and prime_path_of_row(tab.shape, tab.n, d).height == d:
                if not is_chain_tableau(unrepeat_row(tab, d)):
                    return _fail(name, "collapse left the chain-tableau class",
                                 {"rows": [list(r) for r in rows], "d": d})
    return _ok(name, f"exhaustive both directions for n <= {top}, "
                     f"{trials} random tableaux up to n = {big}")


def check_append_bijection(limits: VerifyLimits) -> CheckResult:
    name = "phi/grow-step-bijection"
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
            trunc = tab.truncate(r)
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
                return _fail(name, "grow step is not a bijection onto its target",
                             {"n": n, "d": d, "r": r,
                              "image": len(image), "target": len(expected)})
        for key in zs:
            if key not in xs:
                return _fail(name, "target class without sources",
                             {"n": n, "d": key[0], "r": key[1]})
    return _ok(name, f"exhaustive source/target comparison for n <= {top}")


def _growth_failure(tab: Tableau, pfs: tuple[int, ...], r: int, grown: Tableau) -> str | None:
    """What is wrong with ``grown``, the growth of ``tab`` (plus-full-set labels
    ``pfs``) at level r, or None."""
    labels = plus_full_set_labels(grown)
    if not labels or labels[0] != r + 1:
        return "grown chain has wrong minimal plus-full-set"
    if len(labels) != len(pfs) + 1:
        return "image does not gain exactly one plus-full-set"
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


def check_growth_roundtrip(limits: VerifyLimits) -> CheckResult:
    name = "phi/roundtrip"
    top = min(limits.max_n, 6)
    cases = 0
    for n in range(1, top + 1):
        for tab in enumerate_maximal_chains(n):
            pfs = plus_full_set_labels(tab)
            bound = min(pfs) - 1 if pfs else tab.length
            for r in range(0, bound + 1):
                if failure := _growth_failure(tab, pfs, r, insert_plus_full_set(tab, r)):
                    return _fail(name, failure,
                                 {"n": n, "r": r, "rows": [list(x) for x in tab.rows]})
                cases += 1
    # the random cases also check the label shift and the decomposition
    rng = random.Random(limits.seed + 4)
    big = min(limits.max_n + 1, 7)
    for _ in range(limits.samples):
        tab = random_maximal_chain(big, rng)
        pfs = plus_full_set_labels(tab)
        bound = min(pfs) - 1 if pfs else tab.length
        r = rng.randint(0, bound)
        grown = insert_plus_full_set(tab, r)
        example = {"n": big, "r": r, "rows": [list(x) for x in tab.rows]}
        if failure := _growth_failure(tab, pfs, r, grown):
            return _fail(name, f"random case: {failure}", example)
        if (j := _misshifted_label(_full_labels(tab), set(pfs), r, grown)) is not None:
            return _fail(name, "random case: full/plus statuses do not shift as required",
                         {**example, "j": j})
        if recompose(decompose(tab)) != tab:
            return _fail(name, "random case: recompose does not invert decompose", example)
    return _ok(name, f"{cases} cases exhaustive for n <= {top} plus {limits.samples} "
                     f"random cases at n = {big} (with label shift and decomposition)")


def check_label_shift(limits: VerifyLimits) -> CheckResult:
    name = "phi/label-shift"
    top = min(limits.max_n, 5)
    for n in range(1, top + 1):
        for tab in enumerate_maximal_chains(n):
            full = _full_labels(tab)
            plus = set(plus_full_set_labels(tab))
            for r in range(0, tab.length + 1):
                j = _misshifted_label(full, plus, r, expand_chain(tab, r))
                if j is not None:
                    return _fail(name, "full/plus statuses do not shift as required",
                                 {"n": n, "r": r, "j": j,
                                  "rows": [list(x) for x in tab.rows]})
    return _ok(name, f"exhaustive for n <= {top}")


def check_growth_image_counts(limits: VerifyLimits) -> CheckResult:
    name = "phi/image-counts"
    top = min(limits.max_n, 6)
    for n in range(1, top + 1):
        small = census(n)
        big = census(n + 1)
        for length, total in small.by_length.items():
            i = length - n
            tally = small.min_plus_full.get(length, {})
            grown_tally = big.min_plus_full.get(length + 1, {})
            for r in range(0, length + 1):
                domain = total - sum(tally.get(j, 0) for j in range(1, r + 1))
                image = grown_tally.get(r + 1, 0)
                if domain != image:
                    return _fail(name, "domain and image classes have different sizes",
                                 {"n": n, "i": i, "r": r,
                                  "domain": domain, "image": image})
    return _ok(name, f"all offsets and levels for n <= {top}")


def check_decomposition(limits: VerifyLimits) -> CheckResult:
    name = "phi/decomposition"
    top = min(limits.max_n, 6)
    for n in range(1, top + 1):
        for tab in enumerate_maximal_chains(n):
            dec = decompose(tab)
            if plus_full_set_labels(dec.base):
                return _fail(name, "base chain still has plus-full-sets",
                             {"n": n, "rows": [list(x) for x in tab.rows]})
            if any(a > b for a, b in zip(dec.params, dec.params[1:])):
                return _fail(name, "growth levels are not weakly increasing",
                             {"n": n, "params": list(dec.params)})
            expected = tuple(sorted(r + j + 1 for j, r in enumerate(dec.params)))
            labels = plus_full_set_labels(tab)
            if labels != expected:
                return _fail(name, "plus-full-set labels disagree with the levels",
                             {"n": n, "params": list(dec.params), "labels": list(labels)})
            if recompose(dec) != tab:
                return _fail(name, "recompose does not invert decompose",
                             {"n": n, "rows": [list(x) for x in tab.rows]})
    return _ok(name, f"exhaustive for n <= {top}")


def check_witness(limits: VerifyLimits) -> CheckResult:
    name = "phi/no-plus-full-set-witness"
    for i in range(-1, min(limits.max_i, 4) + 1):
        tab = chain_without_plus_full_sets(i)
        if tab.n != 2 * i + 3 and i >= 0:
            return _fail(name, "witness lattice order is wrong", {"i": i, "n": tab.n})
        if tab.length != 3 * i + 3 and i >= 0:
            return _fail(name, "witness length is wrong", {"i": i, "length": tab.length})
        if not tab.is_staircase or not is_chain_tableau(tab):
            return _fail(name, "witness is not a maximal chain", {"i": i})
        if plus_full_set_labels(tab):
            return _fail(name, "witness has a plus-full-set",
                         {"i": i, "labels": list(plus_full_set_labels(tab))})
    return _ok(name, f"i <= {min(limits.max_i, 4)}")


# ---------------------------------------------------------------------------
# formulas suite


def check_recursion_vs_walk(limits: VerifyLimits) -> CheckResult:
    name = "formulas/recursion-vs-walk"
    top = min(limits.max_n, 7)
    for n in range(1, top + 1):
        hist = count_by_length(n)
        for i, table in initial_values(range(-1, comb(n, 2) - n + 1), n).items():
            if chains_count(i, n, table) != hist.get(n + i):
                return _fail(name, "recursion disagrees with the lattice walk",
                             {"i": i, "n": n,
                              "recursion": chains_count(i, n, table),
                              "walk": hist.get(n + i)})
    return _ok(name, f"every offset for n <= {top}")


def check_walk_vs_enumeration(limits: VerifyLimits) -> CheckResult:
    name = "formulas/walk-vs-enumeration"
    top = min(limits.max_n, 6)
    for n in range(1, top + 1):
        streamed = stream_census(n)
        if census(n) != streamed or dict(count_by_length(n).counts) != streamed.by_length:
            return _fail(name, "the sweeps disagree with the chain stream", {"n": n})
    return _ok(name, f"n <= {top}")


def check_initial_values_vs_brute(limits: VerifyLimits) -> CheckResult:
    name = "formulas/initial-values-vs-brute"
    top = min(limits.max_n, 7)
    # past this offset no chain of order <= top is long enough: both routes give 0
    top_i = min(limits.max_i, comb(top, 2) - top)
    try:
        initial_values(range(-1, top_i + 1), top)
    except RouteMismatch as exc:
        return _fail(name, "inclusion-exclusion disagrees with classification",
                     {"i": exc.i, "t": exc.t, "ie": exc.ie, "brute": exc.brute})
    return _ok(name, f"i <= {top_i}, t <= {top}")


def check_degree(limits: VerifyLimits) -> CheckResult:
    name = "formulas/polynomial-degree"
    for i in range(-1, min(limits.max_i, 2) + 1):
        table = nofull_initial_values(i)
        degree = 3 * i + 3
        values = [chains_count(i, n, table) for n in range(1, degree + 4)]
        diffs = values
        for _ in range(degree):
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        leading = table.get(2 * i + 3, 0)
        if any(d != leading for d in diffs):
            return _fail(name, "top finite difference is not the leading initial value",
                         {"i": i, "diffs": diffs, "expected": leading})
        final = [b - a for a, b in zip(diffs, diffs[1:])]
        if any(d != 0 for d in final):
            return _fail(name, "degree exceeds 3i+3", {"i": i, "diffs": final})
    return _ok(name, f"finite differences for i <= {min(limits.max_i, 2)}")


def check_longest(limits: VerifyLimits) -> CheckResult:
    name = "formulas/longest-chains"
    top = min(limits.max_n, 7)
    for n in range(1, top + 1):
        formula = longest_chain_count(n)
        walked = count_by_length(n).get(comb(n, 2))
        if formula != walked:
            return _fail(name, "product formula disagrees with the walk",
                         {"n": n, "formula": formula, "walk": walked})
    return _ok(name, f"n <= {top}")


def check_vanishing(limits: VerifyLimits) -> CheckResult:
    name = "formulas/vanishing"
    top = min(limits.max_n, 7)
    done = []
    for i in (-1, 0, 1):
        for n in range(max(2 * i + 4, 1), top + 1):
            if not vanishing_check(i, n):
                return _fail(name, "a chain avoids plus-full-sets past the threshold",
                             {"i": i, "n": n})
            done.append((i, n))
    return _ok(name, f"checked {done}")


def check_equal_representation(limits: VerifyLimits) -> CheckResult:
    name = "formulas/equal-representation"
    cases = [(0, 4), (0, 5), (1, 5), (1, 6)]
    cases = [(i, n) for i, n in cases if n <= limits.max_n + 1 and i <= limits.max_i]
    for i, n in cases:
        if not equal_representation_check(i, n):
            return _fail(name, "subset counts break equal representation", {"i": i, "n": n})
    return _ok(name, f"cases {cases}")


def check_mutual_inversion(limits: VerifyLimits) -> CheckResult:
    name = "formulas/mutual-inversion"
    from .fixtures import nofull_table

    fixture = nofull_table()
    for i in range(-1, min(limits.max_i, 5) + 1):
        row = {t: fixture.get((i, t), 0) for t in range(1, 2 * i + 4)}
        counts = {n: chains_count(i, n, row) for n in range(1, 14)}
        for n, back in inclusion_exclusion(i, counts).items():
            expected = fixture.get((i, n), 0) if n <= 2 * i + 3 else 0
            if back != expected:
                return _fail(name, "inclusion-exclusion does not invert the recursion",
                             {"i": i, "n": n, "back": back, "expected": expected})
    return _ok(name, f"published initial values, i <= {min(limits.max_i, 5)}, n <= 13")


# ---------------------------------------------------------------------------
# conjecture suite


def check_conjecture(limits: VerifyLimits) -> CheckResult:
    name = "conjecture/products"
    top_i = min(limits.max_i, 2)
    table = initial_values(range(-1, top_i + 1), 2 * top_i + 3)
    for i in range(-1, top_i + 1):
        for n, product in zip((2 * i + 3, 2 * i + 2), conjecture_values(i)):
            if product is None:
                continue
            brute = table[i][n]
            if product != brute:
                return _fail(name, "product disagrees with the classified count",
                             {"i": i, "n": n, "product": product, "brute": brute})
    return _ok(name, f"i <= {top_i}")


SUITES: dict[str, list[Check]] = {
    "covers": [
        check_path_roundtrip,
        check_cover_equivalence,
        check_prime_trichotomy,
        check_monotone_heights,
        check_strip_translation,
        check_poset_extremes,
    ],
    "psi": [
        check_encoding_roundtrip,
        check_characterization,
        check_outer_diagonal_distinct,
        check_equal_rows,
        check_pfs_bound,
    ],
    "phi": [
        check_repeat_row_roundtrip,
        check_repeat_row_characterization,
        check_append_bijection,
        check_growth_roundtrip,
        check_label_shift,
        check_growth_image_counts,
        check_decomposition,
        check_witness,
    ],
    "formulas": [
        check_recursion_vs_walk,
        check_walk_vs_enumeration,
        check_initial_values_vs_brute,
        check_degree,
        check_longest,
        check_vanishing,
        check_equal_representation,
        check_mutual_inversion,
    ],
    "conjecture": [
        check_conjecture,
    ],
}


def run_suite(suite: str, limits: VerifyLimits) -> list[CheckResult]:
    if suite == "all":
        names = list(SUITES)
    elif suite in SUITES:
        names = [suite]
    else:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)} or 'all'")
    results = []
    for name in names:
        for check in SUITES[name]:
            results.append(check(limits))
    return results

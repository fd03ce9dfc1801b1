"""Property suites behind the ``verify`` command, and the one home of each property.

A check is named by its place in :data:`SUITES` and run by :func:`run_check`,
which turns its verdict into a :class:`CheckResult`: a failing check carries a
serializable counterexample, and its detail names the scale it ran at.
Whatever a check raises is its FAIL, caught there; only ``psi/characterization``
catches an exception itself, as one of its two routes.  Limits are deliberately
conservative defaults; the CLI lets callers raise them.  The tests run these
checks rather than repeat their loops, and tier-1 runs each at its stated scale
once (README, "Install and test").
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
    _prime_spans,
    _require_vertex,
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
    _chains_up,
    _nofull_and_all,
    census,
    chains_count,
    conjecture_values,
    count_by_length,
    enumerate_maximal_chains,
    inclusion_exclusion,
    initial_values,
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


def random_chain(n: int, rng: random.Random, start: Partition | None = None) -> Tableau:
    """A random saturated chain from ``start`` up to the null diagram, as a chain
    tableau of ``start``'s shape: the chain stream's walker taking one random step
    per vertex, in :func:`upper_covers` order, so a seed always gives the same chain.

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
    top = min(limits.max_n, 6)
    for n in range(1, top + 1):
        for vertex in partitions_in_staircase(n):
            through_paths = [from_dyck_path(p)
                             for p in upper_covers_dyck(to_dyck_path(vertex, n))]
            direct = upper_covers(vertex, n)
            if through_paths != direct:
                return _fail("cover sets (or their order) disagree",
                             {"n": n, "vertex": list(vertex),
                              "paths": [list(p) for p in through_paths],
                              "diagrams": [list(p) for p in direct]})
    return _ok(f"exhaustive for n <= {top}, order included")


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


def check_poset_extremes(limits: VerifyLimits) -> Verdict:
    top = min(limits.max_n, 8)
    for n in range(2, top + 1):
        bottom_covers = upper_covers(staircase(n - 1), n)
        if len(bottom_covers) != n - 1:
            return _fail("bottom element cover count is wrong",
                         {"n": n, "covers": len(bottom_covers)})
        if count_by_length(n).get(n - 1) != 1:
            return _fail("shortest chain is not unique", {"n": n})
    return _ok(f"n <= {top}")


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
                return _fail("grow step is not a bijection onto its target",
                             {"n": n, "d": d, "r": r,
                              "image": len(image), "target": len(expected)})
        for key in zs:
            if key not in xs:
                return _fail("target class without sources",
                             {"n": n, "d": key[0], "r": key[1]})
    return _ok(f"exhaustive source/target comparison for n <= {top}")


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
        if (j := _misshifted_label(_full_labels(tab), set(pfs), r, grown)) is not None:
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
                j = _misshifted_label(full, plus, r, expand_chain(tab, r))
                if j is not None:
                    return _fail("full/plus statuses do not shift as required",
                                 {**tab.to_json_dict(), "r": r, "j": j})
    return _ok(f"exhaustive for n <= {top}")


def check_growth_image_counts(limits: VerifyLimits) -> Verdict:
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
    top = min(limits.max_n, 7)
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
    top = min(limits.max_n, 6)
    for n in range(1, top + 1):
        streamed = stream_census(n)
        if census(n) != streamed or dict(count_by_length(n).counts) != streamed.by_length:
            return _fail("the climbs disagree with the chain stream", {"n": n})
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
    plus-full-set labels split the chains into the nonempty classes 1..3i+4."""
    top = min(limits.max_n, 7)
    done = []
    for i in (-1, 0, 1):
        for n in range(max(2 * i + 4, 1), top + 1):
            summary = census(n)
            if summary.nofull_by_length.get(n + i, 0):
                return _fail("a chain avoids plus-full-sets past the threshold",
                             {"i": i, "n": n})
            # the census tallies are positive and sum to by_length by construction
            if set(summary.min_plus_full.get(n + i, {})) != set(range(1, 3 * i + 5)):
                return _fail("the minimal labels do not fill 1..3i+4", {"i": i, "n": n})
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
        "poset-extremes": check_poset_extremes,
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

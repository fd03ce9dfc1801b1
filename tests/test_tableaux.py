import random
import re
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamari import checks, tableaux
from tamari.checks import (
    RSetClass,
    all_chain_tableaux,
    candidate_tableaux,
    classify_r_set,
    is_chain_tableau,
    outer_diagonal,
    random_chain,
    strip_of_box,
    truncate,
)
from tamari.shapes import ShapeError, covers_with_strips, partitions_in_staircase, staircase
from tamari.tableaux import (
    ChainError,
    NotChainTableauError,
    Tableau,
    TableauError,
    chain_to_tableau,
    plus_full_set_labels,
    _valid_rows,
    tableau_to_chain,
)

PENTAGON_SHORT = Tableau(3, ((1, 2), (1,)))
PENTAGON_LONG = Tableau(3, ((1, 2), (3,)))


def test_validate_tableau():
    assert _valid_rows(((1, 2), (1,)))
    assert _valid_rows(())
    assert not _valid_rows(((3, 2),))
    assert not _valid_rows(((1, 3),))  # label 2 missing
    assert not _valid_rows(((2, 3), (1,)))  # column decreases
    assert not _valid_rows(((1,), (1, 2)))  # shape not a partition


def test_tableau_construction_errors():
    with pytest.raises(TableauError):
        Tableau(3, ((3, 2),))
    with pytest.raises(TableauError):
        Tableau(3, ((1, 2, 3),))  # too wide for ambient 3
    with pytest.raises(TableauError):
        Tableau(0, ())
    for n, rows in [(2, ((True,),)),  # would print as True and equal Tableau(2, ((1,),))
                    (3.0, ((1, 2), (3,))),  # would pass, then break is_staircase
                    (True, ()),
                    ("3", ((1, 2), (3,)))]:  # would be compared to 1: a TypeError
        with pytest.raises(TableauError):
            Tableau(n, rows)


def test_tableau_basics():
    tab = PENTAGON_LONG
    assert tab.shape == (2, 1)
    assert tab.length == 3
    assert tab.label(2, 1) == 3
    assert tab.r_set(1) == ((1, 1),)
    assert tab.r_set(3) == ((2, 1),)
    assert tab.is_staircase
    with pytest.raises(TableauError):
        tab.label(1, 3)
    with pytest.raises(TableauError):
        tab.r_set(4)


def test_a_derived_value_is_computed_once_and_stored():
    calls = []

    class Probe:
        @tableaux._once
        def value(self):
            calls.append(self)
            return len(calls)

    probe = Probe()
    assert (probe.value, probe.value) == (1, 1)
    assert calls == [probe] and vars(probe) == {"value": 1}
    assert isinstance(vars(Probe)["value"], tableaux._once)
    assert "cached_property" not in vars(tableaux)
    for name in ("shape", "length", "_r_sets", "is_staircase", "_plus_full_set_labels"):
        assert isinstance(vars(Tableau)[name], tableaux._once), name
    tab = Tableau(4, ((1, 2, 4), (1, 2), (3,)))
    assert plus_full_set_labels(tab) is plus_full_set_labels(tab) == (4,)
    assert vars(tab)["_plus_full_set_labels"] == (4,)


def test_derived_values_equal_a_fresh_recomputation(chains_by_order):
    for n in range(1, 7):
        for tab in chains_by_order[n]:
            shape = tuple(len(row) for row in tab.rows)
            boxes = [(value, (x, y)) for x, row in enumerate(tab.rows, 1)
                     for y, value in enumerate(row, 1)]
            length = max((value for value, _ in boxes), default=0)
            assert tab.shape == shape and tab.length == length
            assert tab._r_sets == {r: tuple(box for value, box in boxes if value == r)
                                   for r in range(1, length + 1)}
            assert tab.is_staircase and shape == staircase(n - 1)
            assert plus_full_set_labels(tab) == _labels_by_definition(tab)


def test_reading_derived_values_keeps_equality_hash_and_repr():
    fresh = Tableau(3, [[1, 2], [3]])
    tab = Tableau(3, ((1, 2), (3,)))
    assert type(fresh.rows) is tuple and all(type(row) is tuple for row in fresh.rows)
    before = (hash(tab), repr(tab))
    assert (tab.shape, tab.length, tab.r_set(3), tab.is_staircase) == \
        ((2, 1), 3, ((2, 1),), True)
    assert (hash(tab), repr(tab)) == before
    assert repr(tab) == "Tableau(n=3, rows=((1, 2), (3,)))"
    assert tab == fresh and hash(tab) == hash(fresh) == hash((3, ((1, 2), (3,))))
    assert tab != Tableau(3, ((1, 2), (1,)))


def test_encode_pentagon_chains():
    assert chain_to_tableau([(), (1, 1), (2, 1)], 3) == PENTAGON_SHORT
    assert chain_to_tableau([(), (1,), (2,), (2, 1)], 3) == PENTAGON_LONG
    assert chain_to_tableau([()], 5) == Tableau(5, ())


def test_encode_rejects_non_cover_steps():
    with pytest.raises(ChainError):
        chain_to_tableau([(), (2, 1)], 3)  # skips a rank
    with pytest.raises(ChainError):
        chain_to_tableau([(1,), (2, 1)], 3)  # does not start at the top


def test_decode_chains():
    assert tableau_to_chain(PENTAGON_LONG) == ((), (1,), (2,), (2, 1))
    assert tableau_to_chain(Tableau(4, ())) == ((),)
    for bad in (Tableau(4, ((1, 2), (2,))), Tableau(3, ((1, 2), (2,)))):
        with pytest.raises(NotChainTableauError):
            tableau_to_chain(bad)


def test_roundtrip_random_walks():
    rng = random.Random(99)
    for _ in range(300):
        tab = random_chain(6, rng)
        assert chain_to_tableau(tableau_to_chain(tab), 6) == tab
        assert is_chain_tableau(tab)


def test_random_draws_match_the_uncached_vertex_list():
    def uncached(n, rng, start=None):
        vertices = partitions_in_staircase(n)
        steps = [vertices[rng.randrange(len(vertices))] if start is None else start]
        while steps[-1]:
            options = [cover for cover, _ in covers_with_strips(steps[-1], n)]
            steps.append(options[rng.randrange(len(options))])
        return tuple(steps[::-1])

    for n in (1, 4, 7):
        cached_rng, plain_rng = random.Random(2024), random.Random(2024)
        for _ in range(200):
            assert tableau_to_chain(random_chain(n, cached_rng)) == uncached(n, plain_rng)
            bottom = staircase(n - 1)
            assert tableau_to_chain(random_chain(n, cached_rng, start=bottom)) == \
                uncached(n, plain_rng, start=bottom)
        assert cached_rng.getstate() == plain_rng.getstate()  # the same calls to the rng


def test_a_draw_from_a_shape_outside_the_lattice_names_it():
    for n, start in ((3, (3,)), (3, (1, 1, 1)), (4, (2, 3))):
        with pytest.raises(ShapeError, match=re.escape(repr(start))):
            random_chain(n, random.Random(1), start=start)


def test_roundtrip_at_stated_scale():
    # orders <= 6, 10,000 random chains at 7
    result = checks.run_check("psi/roundtrip",
                              checks.VerifyLimits(max_n=6, samples=10_000, seed=17))
    assert result.passed, result


def test_truncate():
    tab = PENTAGON_LONG
    assert truncate(tab, 2) == Tableau(3, ((1, 2),))
    assert truncate(tab, 0) == Tableau(3, ())
    assert truncate(tab, 3) == tab
    for r in (-1, 4):
        with pytest.raises(TableauError):
            truncate(tab, r)


def test_truncations_of_chain_tableaux_stay_chain_tableaux():
    for tab in all_chain_tableaux(4):
        for r in range(tab.length + 1):
            assert is_chain_tableau(truncate(tab, r))


def test_outer_diagonal():
    assert outer_diagonal(Tableau(3, ())) == []
    assert outer_diagonal(PENTAGON_LONG) == [(1, 2), (2, 1)]
    assert outer_diagonal(Tableau(4, ((1, 2, 3), (1, 4), (1,)))) == [(1, 3), (2, 2), (3, 1)]
    assert outer_diagonal(Tableau(5, ((1, 2), (2,)))) == [(1, 2), (2, 1)]


def test_strip_characterization_detects_bad_top_set():
    # tableaux of this shape whose top label set sits strictly inside the
    # strip of (3, 2) cannot encode a chain
    shape = (3, 2, 2, 1)
    assert strip_of_box(shape, 5, (3, 2)) == ((1, 3), (2, 2), (3, 2))
    first = Tableau(5, ((1, 2, 3), (1, 4), (2, 4), (2,)))
    assert first.r_set(4) == ((2, 2), (3, 2))
    assert not is_chain_tableau(first)
    second = Tableau(5, ((1, 2, 3), (2, 3), (2, 3), (2,)))
    assert second.r_set(3) == ((1, 3), (2, 2), (3, 2))
    assert is_chain_tableau(second)
    searched = [tab for tab in candidate_tableaux(5, max_length=4)
                if tab.shape == shape and tab.length == 4
                and tab.r_set(4) == ((2, 2), (3, 2))]
    assert searched
    assert all(not is_chain_tableau(tab) for tab in searched)


def test_is_chain_tableau_examples():
    assert is_chain_tableau(PENTAGON_SHORT)
    assert is_chain_tableau(Tableau(1, ()))
    assert not is_chain_tableau(Tableau(4, ((1, 2), (2,))))
    # its 2-set ends at the last box (2, 1), but the strip of that box is ((2, 1),)
    assert not is_chain_tableau(Tableau(3, ((1, 2), (2,))))


def test_characterization_agrees_with_decoding():
    result = checks.run_check("psi/characterization", checks.VerifyLimits(max_n=4))
    assert result.passed, result


def test_classify_r_set_on_the_short_lattice():
    tab = PENTAGON_LONG
    assert classify_r_set(tab, 1) is RSetClass.NOT_FULL
    assert classify_r_set(tab, 2) is RSetClass.FULL
    assert classify_r_set(tab, 3) is RSetClass.NOT_FULL
    first_growth = Tableau(4, ((1, 2, 3), (1, 4), (1,)))
    assert classify_r_set(first_growth, 1) is RSetClass.PLUS_FULL
    with pytest.raises(TableauError):
        classify_r_set(Tableau(4, ((1, 2), (2,))), 1)  # not a maximal chain


def test_plus_full_set_labels_examples(chains_by_order):
    assert plus_full_set_labels(PENTAGON_LONG) == ()
    assert plus_full_set_labels(Tableau(4, ((1, 2, 4), (1, 2), (3,)))) == (4,)
    length_four = [tab for tab in chains_by_order[4] if tab.length == 4]
    assert sorted(plus_full_set_labels(tab) for tab in length_four) == \
        [(1,), (2,), (3,), (4,)]


def test_plus_full_set_count_bound():
    # every maximal chain at orders <= 6 has at most n-1 plus-full-sets
    result = checks.run_check("psi/plus-full-set-bound", checks.VerifyLimits(max_n=6))
    assert result.passed, result


def test_outer_diagonal_labels_distinct():
    result = checks.run_check("psi/outer-diagonal-distinct", checks.VerifyLimits(max_n=6))
    assert result.passed, result


def test_equal_length_rows_are_identical():
    # all chains to the top at order 5, the maximal chains at 6
    result = checks.run_check("psi/equal-length-rows-identical",
                              checks.VerifyLimits(max_n=6))
    assert result.passed, result


def test_text_format_roundtrip():
    tab = Tableau(4, ((1, 2, 4), (1, 2), (3,)))
    text = tab.to_text()
    assert text.splitlines()[0] == "n=4 l=4"
    assert Tableau.from_text(text) == tab
    empty = Tableau(1, ())
    assert Tableau.from_text(empty.to_text()) == empty
    with pytest.raises(TableauError):
        Tableau.from_text("n=4 l=9\n1 2")


def test_json_format_roundtrip():
    tab = Tableau(4, ((1, 2, 4), (1, 2), (3,)))
    assert Tableau.from_json_dict(tab.to_json_dict()) == tab
    with pytest.raises(TableauError):
        Tableau.from_json_dict({"rows": [[1]]})


@pytest.mark.parametrize("n", [3.7, 4.0, float("inf"), True, "4", None])
def test_json_order_must_be_an_integer(n):
    with pytest.raises(TableauError):
        Tableau.from_json_dict({"n": n, "rows": [[1, 2, 4], [1, 2], [3]]})


@pytest.mark.parametrize("label", [True, False, 3.0, "3", None])
def test_json_labels_must_be_integers(label):
    # True == 1 would otherwise pass as a label
    with pytest.raises(TableauError):
        Tableau.from_json_dict({"n": 3, "rows": [[1, 2], [label]]})
    assert Tableau.from_json_dict({"n": 3, "rows": [[1, 2], [3]]}).rows == ((1, 2), (3,))


def test_is_staircase_checks_the_row_count_first(monkeypatch):
    from tamari import tableaux

    def guarded_staircase(k):
        assert k < 10 ** 6, "staircase sized by an unchecked header"
        return staircase(k)

    monkeypatch.setattr(tableaux, "staircase", guarded_staircase)
    huge = Tableau.from_text("n=100000000000 l=1\n1")
    assert not huge.is_staircase
    assert Tableau(4, ((1, 2, 4), (1, 2), (3,))).is_staircase
    assert not Tableau(4, ((1, 2), (1,), (3,))).is_staircase


def test_huge_label_is_rejected_without_allocating(monkeypatch):
    import builtins

    from tamari import tableaux

    def guarded_range(*bounds):
        assert max(bounds) < 10 ** 6, "a range sized by an input label"
        return builtins.range(*bounds)

    monkeypatch.setattr(tableaux, "range", guarded_range, raising=False)
    with pytest.raises(TableauError):
        Tableau(3, ((10 ** 12,),))
    with pytest.raises(TableauError):
        Tableau.from_text("n=3 l=1000000000000\n1000000000000")
    assert _valid_rows(((1, 2), (3,)))


def test_from_text_rejects_non_integer_labels():
    with pytest.raises(TableauError):
        Tableau.from_text("n=3 l=2\n1 x")


def _labels_by_definition(tab):
    return tuple(r for r in range(1, tab.length + 1)
                 if classify_r_set(tab, r) is RSetClass.PLUS_FULL)


def test_diagonal_scan_matches_the_definition_on_staircase_tableaux():
    # these need not encode chains: labels may repeat along the outer diagonal
    checked = 0
    for n in range(1, 5):
        for tab in candidate_tableaux(n, comb(n, 2)):
            if tab.is_staircase:
                assert plus_full_set_labels(tab) == _labels_by_definition(tab), tab
                checked += 1
    assert checked == 102


@st.composite
def valid_tableaux(draw):
    """Any valid tableau: fill a shape with labels growing along rows and down
    columns, then rename the labels to 1..m in order."""
    n = draw(st.integers(min_value=1, max_value=7))
    shape = draw(st.sampled_from(partitions_in_staircase(n)))
    rows = []
    for x, width in enumerate(shape):
        row = []
        for y in range(width):
            low = max(row[-1] + 1 if row else 1, rows[x - 1][y] if x else 1)
            row.append(low + draw(st.integers(min_value=0, max_value=3)))
        rows.append(row)
    rank = {v: i for i, v in enumerate(sorted({v for row in rows for v in row}), start=1)}
    return Tableau(n, tuple(tuple(rank[v] for v in row) for row in rows))


@settings(max_examples=300, deadline=None)
@given(valid_tableaux())
def test_length_is_the_largest_label(tab):
    assert tab.length == max((v for row in tab.rows for v in row), default=0)

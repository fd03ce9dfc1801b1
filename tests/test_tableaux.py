import random

import pytest

from tamari.checks import all_chain_tableaux, candidate_tableaux, random_chain_to_top
from tamari.shapes import staircase, strip_of_box
from tamari.tableaux import (
    ChainError,
    NotChainTableauError,
    RSetClass,
    Tableau,
    TableauError,
    chain_to_tableau,
    classify_r_set,
    is_chain_tableau,
    outer_diagonal,
    plus_full_set_labels,
    tableau_to_chain,
    validate_tableau,
)

PENTAGON_SHORT = Tableau(3, ((1, 2), (1,)))
PENTAGON_LONG = Tableau(3, ((1, 2), (3,)))


def test_validate_tableau():
    assert validate_tableau([[1, 2], [1]])
    assert validate_tableau([])
    assert not validate_tableau([[3, 2]])
    assert not validate_tableau([[1, 3]])  # label 2 missing
    assert not validate_tableau([[2, 3], [1]])  # column decreases
    assert not validate_tableau([[1], [1, 2]])  # shape not a partition


def test_tableau_construction_errors():
    with pytest.raises(TableauError):
        Tableau(3, ((3, 2),))
    with pytest.raises(TableauError):
        Tableau(3, ((1, 2, 3),))  # too wide for ambient 3
    with pytest.raises(TableauError):
        Tableau(0, ())


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
    bad = Tableau(4, ((1, 2), (2,)))
    with pytest.raises(NotChainTableauError):
        tableau_to_chain(bad)


def test_roundtrip_random_walks():
    rng = random.Random(99)
    for _ in range(300):
        chain = random_chain_to_top(6, rng)
        tab = chain_to_tableau(chain, 6)
        assert tableau_to_chain(tab) == tuple(chain)
        assert is_chain_tableau(tab)


def test_roundtrip_at_stated_scale():
    from tamari.checks import VerifyLimits, check_encoding_roundtrip

    result = check_encoding_roundtrip(VerifyLimits(max_n=6, samples=10_000, seed=17))
    assert result.passed, result


def test_truncate():
    tab = PENTAGON_LONG
    assert tab.truncate(2) == Tableau(3, ((1, 2),))
    assert tab.truncate(0) == Tableau(3, ())
    assert tab.truncate(3) == tab
    with pytest.raises(TableauError):
        tab.truncate(4)


def test_truncations_of_chain_tableaux_stay_chain_tableaux():
    for tab in all_chain_tableaux(4):
        for r in range(tab.length + 1):
            assert is_chain_tableau(tab.truncate(r))


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


def test_characterization_agrees_with_decoding():
    for tab in candidate_tableaux(4, max_length=6):
        by_strips = is_chain_tableau(tab)
        try:
            tableau_to_chain(tab)
            by_covers = True
        except NotChainTableauError:
            by_covers = False
        assert by_strips == by_covers


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


def test_plus_full_set_count_bound(chains_by_order):
    for n in range(1, 7):
        for tab in chains_by_order[n]:
            assert len(plus_full_set_labels(tab)) <= n - 1 or n == 1


def test_outer_diagonal_labels_distinct(chains_by_order):
    for n in range(1, 7):
        for tab in chains_by_order[n]:
            labels = [tab.label(x, y) for x, y in outer_diagonal(tab)]
            assert len(labels) == len(set(labels))


def test_equal_length_rows_are_identical():
    for tab in all_chain_tableaux(5):
        for upper, lower in zip(tab.rows, tab.rows[1:]):
            if len(upper) == len(lower):
                assert upper == lower


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

import random
from math import comb

import pytest

from tamari.bijections import (
    ChainDecomposition,
    GrowthDomainError,
    _cut,
    _grow,
    _pivot,
    NoPlusFullSetError,
    decompose,
    extract_plus_full_set,
    insert_plus_full_set,
    recompose,
)
from tamari.checks import (
    RSetClass,
    append_next_label,
    candidate_tableaux,
    chain_without_plus_full_sets,
    classify_r_set,
    is_chain_tableau,
    random_chain,
    repeat_row,
    truncate,
    unrepeat_row,
)
from tamari.shapes import staircase
from tamari.tableaux import Tableau, TableauError, _valid_rows, plus_full_set_labels

BASE = Tableau(3, ((1, 2), (3,)))  # the unique plus-full-set-free chain of order 3


def _fresh(tab):
    """``tab`` rebuilt from its rows, with nothing stored: a test scans it rather
    than read the labels growth stored on it."""
    return Tableau(tab.n, tab.rows)


def _grown(tab, r):
    """The growth of ``tab`` at level ``r`` by the row kernel, validated, at any level
    (the domain test of ``insert_plus_full_set`` left out)."""
    return Tableau(tab.n + 1, _grow(tab.rows, tab.n, r))


def test_repeat_row():
    assert repeat_row(Tableau(4, ()), 2) == Tableau(5, ())
    assert repeat_row(BASE, 1).rows == ((1, 2), (1, 2), (3,))
    assert repeat_row(BASE, 3).rows == BASE.rows  # row 3 is empty
    assert repeat_row(BASE, 3).n == BASE.n + 1
    with pytest.raises(TableauError):
        repeat_row(BASE, 0)


def test_unrepeat_row():
    widened = Tableau(4, ((1, 2), (1, 2), (3,)))
    assert unrepeat_row(widened, 1) == BASE
    assert unrepeat_row(Tableau(3, ()), 2) == Tableau(2, ())
    with pytest.raises(TableauError):
        unrepeat_row(widened, 2)  # rows 2 and 3 differ
    with pytest.raises(TableauError):
        unrepeat_row(widened, 0)


def test_append_next_label():
    assert append_next_label(Tableau(2, ()), 1).rows == ((1,),)
    grown = append_next_label(Tableau(4, ((1, 2), (1, 2), (3,))), 1)
    assert grown.rows == ((1, 2, 4), (1, 2), (3,))
    assert append_next_label(Tableau(4, ((1, 2), (1,))), 3).rows == \
        ((1, 2, 3), (1, 3), (3,))
    with pytest.raises(TableauError):
        append_next_label(Tableau(2, ((1,),)), 1)  # would overflow the ambient
    with pytest.raises(TableauError):
        append_next_label(BASE, 0)


def test_pivot_on_base_chain():
    assert [_pivot(BASE.rows, BASE.n, r) for r in range(4)] == [3, 3, 1, 1]


def test_pivot_sequence_identifies_published_seven_level_example():
    from tamari.counting import enumerate_maximal_chains

    nofull = [tab for tab in enumerate_maximal_chains(5, length=6)
              if not plus_full_set_labels(tab)]
    assert len(nofull) == 10
    target = (5, 5, 5, 3, 3, 1, 1)
    matches = [tab for tab in nofull
               if tuple(_pivot(tab.rows, tab.n, r) for r in range(7)) == target]
    assert matches
    for tab in matches:
        for r in range(7):
            image = _fresh(insert_plus_full_set(tab, r))
            assert image.n == 6 and image.length == 7
            assert plus_full_set_labels(image)[0] == r + 1


def test_grow_examples():
    assert _grown(BASE, 0).rows == ((1, 2, 3), (1, 4), (1,))
    assert _grown(BASE, 3).rows == ((1, 2, 4), (1, 2), (3,))
    assert _grown(Tableau(1, ()), 0) == Tableau(2, ((1,),))
    middle = _grown(BASE, 1)
    assert middle.rows == ((1, 2, 3), (2, 4), (2,))
    assert is_chain_tableau(middle)


def test_insert_checks_the_domain(chains_by_order):
    short = Tableau(3, ((1, 2), (1,)))  # labels 1 and 2 are both plus-full
    with pytest.raises(GrowthDomainError) as info:
        insert_plus_full_set(short, 1)
    assert info.value.label == 1
    for tab in chains_by_order[4]:
        labels = plus_full_set_labels(tab)
        if labels:
            with pytest.raises(GrowthDomainError):
                insert_plus_full_set(tab, labels[0])


def test_insert_reports_the_domain_before_the_level():
    short = Tableau(3, ((1, 2), (1,)))  # labels 1 and 2 are both plus-full
    with pytest.raises(GrowthDomainError):
        insert_plus_full_set(short, 5)  # past the length too
    for r in (-1, 4):
        with pytest.raises(TableauError, match=f"level {r} out of range 0..3"):
            insert_plus_full_set(BASE, r)
    with pytest.raises(TableauError, match="full-staircase"):
        insert_plus_full_set(Tableau(3, ()), 0)


def test_extract_examples():
    assert extract_plus_full_set(Tableau(4, ((1, 2, 4), (1, 2), (3,)))) == (3, BASE)
    assert extract_plus_full_set(Tableau(4, ((1, 2, 3), (1, 4), (1,)))) == (0, BASE)
    assert extract_plus_full_set(Tableau(2, ((1,),))) == (0, Tableau(1, ()))
    with pytest.raises(NoPlusFullSetError):
        extract_plus_full_set(BASE)


def test_growth_roundtrip_exhaustive(chains_by_order):
    for n in range(1, 6):
        for tab in chains_by_order[n]:
            labels = plus_full_set_labels(tab)
            bound = labels[0] - 1 if labels else tab.length
            for r in range(bound + 1):
                grown = _fresh(insert_plus_full_set(tab, r))
                assert is_chain_tableau(grown)
                assert len(plus_full_set_labels(grown)) == len(labels) + 1
                assert extract_plus_full_set(grown) == (r, tab)


def test_decompose_examples(chains_by_order):
    assert decompose(BASE) == ChainDecomposition(BASE, ())
    assert decompose(Tableau(4, ((1, 2, 4), (1, 2), (3,)))) == \
        ChainDecomposition(BASE, (3,))
    length_four = [tab for tab in chains_by_order[4] if tab.length == 4]
    assert len(length_four) == 4
    for tab in length_four:
        dec = decompose(tab)
        assert dec.base == BASE
        assert len(dec.params) == 1


def test_recompose_examples():
    assert recompose(ChainDecomposition(BASE, ())) == BASE
    assert recompose(ChainDecomposition(BASE, (3,))).rows == ((1, 2, 4), (1, 2), (3,))
    with pytest.raises(ValueError):
        recompose(ChainDecomposition(BASE, (2, 1)))  # not weakly increasing
    with pytest.raises(ValueError):
        recompose(ChainDecomposition(BASE, (4,)))  # level above the base length


def test_witness_chains():
    assert chain_without_plus_full_sets(-1) == Tableau(1, ())
    assert chain_without_plus_full_sets(0) == BASE
    assert chain_without_plus_full_sets(1).rows == \
        ((1, 2, 3, 4), (1, 2, 5), (1, 2), (6,))
    for i in range(-1, 5):
        tab = chain_without_plus_full_sets(i)
        assert tab.n == max(2 * i + 3, 1)
        assert tab.length == max(3 * i + 3, 0)
        assert tab.is_staircase
        assert is_chain_tableau(tab)
        assert plus_full_set_labels(tab) == ()


def test_grow_is_the_paper_construction(chains_by_order):
    # the label-<=r+1 part is repeat_row then append_next_label; the rest shifts up by one
    for n in range(1, 7):
        for tab in chains_by_order[n]:
            for r in range(tab.length + 1):
                grown = _grown(tab, r)
                d = _pivot(tab.rows, n, r)
                assert truncate(grown, r + 1) == \
                    append_next_label(repeat_row(truncate(tab, r), d), d)
                assert [v for row in grown.rows for v in row if v > r + 1] == \
                    [v + 1 for row in tab.rows for v in row if v > r]


@pytest.fixture
def constructions(monkeypatch):
    """Rows of the tableaux built by ``Tableau._trusted``, and of those validated."""
    from tamari import tableaux

    built, validated = [], []
    trusted = tableaux.Tableau._trusted.__func__
    validate = tableaux._valid_rows

    def counted_trusted(cls, n, rows, **stored):
        built.append(rows)
        return trusted(cls, n, rows, **stored)

    def counted_validate(rows):
        validated.append(rows)
        return validate(rows)

    monkeypatch.setattr(tableaux.Tableau, "_trusted", classmethod(counted_trusted))
    monkeypatch.setattr(tableaux, "_valid_rows", counted_validate)
    return built, validated


def test_growth_and_extraction_build_one_tableau_each(constructions):
    built, validated = constructions
    chain = chain_without_plus_full_sets(1)  # every level is in the domain
    validated.clear()
    for r in range(chain.length + 1):
        built.clear()
        grown = insert_plus_full_set(chain, r)
        assert len(built) == 1
        built.clear()
        extract_plus_full_set(grown)
        assert len(built) == 1
        assert validated == []  # neither map re-validates its output


def test_decompose_and_recompose_build_one_tableau_each(constructions):
    # the levels run on row tuples: only the base, or the grown chain, is a tableau
    built, validated = constructions
    base = chain_without_plus_full_sets(2)
    for params in [(3,), (0, 1, 2), (1, 1, 3, 3)]:
        built.clear()
        grown = recompose(ChainDecomposition(base, params))
        assert len(built) == 1
        chain = Tableau(grown.n, grown.rows)
        built.clear()
        validated.clear()
        assert decompose(chain) == ChainDecomposition(base, params)
        assert len(built) == 1 and validated == []


def _as_validated(tab):
    assert _valid_rows(tab.rows)
    checked = Tableau(tab.n, tab.rows)
    assert tab == checked and hash(tab) == hash(checked)


def test_trusted_outputs_are_valid_tableaux(chains_by_order):
    for n in range(1, 6):
        for tab in chains_by_order[n]:
            for r in range(tab.length + 1):
                grown = Tableau._trusted(n + 1, _grow(tab.rows, n, r))
                _as_validated(grown)
                shrunk = Tableau._trusted(n, _cut(grown.rows, r))
                _as_validated(shrunk)
                assert shrunk == tab
            labels = plus_full_set_labels(tab)
            if labels:
                _as_validated(Tableau._trusted(n - 1, _cut(tab.rows, labels[0] - 1)))


STORED = ("shape", "length", "is_staircase")


def test_streamed_and_drawn_tableaux_are_valid_chain_tableaux(chains_by_order):
    # the chain stream builds its tableaux unvalidated too, and so do its draws, from
    # the staircase and from random starts; each arrives with its shape, length and
    # staircase test stored, and they equal those computed from its rows
    draws = [random_chain(n, rng, start=start) for n in range(1, 9)
             for rng in [random.Random(n)] for start in (staircase(n - 1), None)
             for _ in range(500)]
    for tab in [*(tab for n in range(1, 7) for tab in chains_by_order[n]), *draws]:
        _as_validated(tab)
        assert is_chain_tableau(tab), tab
        computed = Tableau(tab.n, tab.rows)
        assert [vars(tab)[name] for name in STORED] == \
            [getattr(computed, name) for name in STORED], tab


@pytest.fixture
def scans(monkeypatch):
    """Rows given to the one plus-full-set scan, from a tableau or from the surgery."""
    from tamari import bijections, tableaux

    scanned = []
    scan = tableaux._scan_plus_full

    def counted(rows, n):
        scanned.append(rows)
        return scan(rows, n)

    for module in (tableaux, bijections):
        monkeypatch.setattr(module, "_scan_plus_full", counted)
    return scanned


def test_decompose_classifies_each_chain_once(scans):
    for params in [(), (3,), (0, 1, 2), (1, 1, 3, 3)]:
        grown = recompose(ChainDecomposition(BASE, params))
        chain = Tableau(grown.n, grown.rows)  # a fresh instance: nothing stored yet
        scans.clear()
        assert decompose(chain) == ChainDecomposition(BASE, params)
        assert len(scans) == len(params) + 1


def test_a_surgery_cycle_classifies_each_new_chain_once(scans):
    # decompose scans the chain and each of its k shrunken chains; recompose
    # reuses the base's labels, insert the chain's, and extract reads those
    # that growth stored on the chain it is given
    base = chain_without_plus_full_sets(2)
    for params in [(), (3,), (0, 1, 2), (1, 1, 3, 3), (0, 4, 4, 6, 9)]:
        grown = recompose(ChainDecomposition(base, params))
        chain = Tableau(grown.n, grown.rows)  # a fresh instance: nothing stored yet
        scans.clear()
        parts = decompose(chain)
        assert recompose(parts) == chain
        r = params[0] if params else chain.length
        assert extract_plus_full_set(insert_plus_full_set(chain, r)) == (r, chain)
        assert len(scans) == len(params) + 1
        assert len({id(rows) for rows in scans}) == len(scans)


def _staircase_tableaux(n):
    """Every staircase tableau of order ``n``, chain or not."""
    return [tab for tab in candidate_tableaux(n, comb(n, 2)) if tab.is_staircase]


def _assert_stores_what_a_scan_finds(tab):
    fresh = _fresh(tab)
    assert vars(tab)["is_staircase"] is fresh.is_staircase is True, tab
    assert vars(tab)["_plus_full_set_labels"] == plus_full_set_labels(fresh), tab


def _growths(tableaux):
    """Growth of each tableau at every level of its domain."""
    for tab in tableaux:
        labels = plus_full_set_labels(tab)
        for r in range(labels[0] if labels else tab.length + 1):
            yield insert_plus_full_set(tab, r)


def test_growth_stores_the_labels_a_scan_finds(chains_by_order):
    # what growth stores on its output is what a scan of a fresh copy finds: on every
    # staircase tableau of order <= 4 and every chain of order <= 6 in the domain of
    # growth
    small = [tab for n in range(1, 5) for tab in _staircase_tableaux(n)]
    assert len(small) == 1 + 1 + 4 + 96
    for grown in _growths([*small, *chains_by_order[5], *chains_by_order[6]]):
        _assert_stores_what_a_scan_finds(grown)


@pytest.mark.slow
def test_growth_stores_the_labels_a_scan_finds_on_every_staircase_tableau_of_order_five():
    tableaux = _staircase_tableaux(5)
    assert len(tableaux) == 19968  # 98 of them chains
    for grown in _growths(tableaux):
        _assert_stores_what_a_scan_finds(grown)


def test_recompose_classifies_only_its_base(monkeypatch):
    from tamari import bijections, checks, tableaux

    per_label, whole = [], []
    classify, labels_of = checks.classify_r_set, tableaux.plus_full_set_labels

    def counted_classify(tab, r):
        per_label.append(r)
        return classify(tab, r)

    def counted_labels(tab):
        whole.append(tab)
        return labels_of(tab)

    monkeypatch.setattr(checks, "classify_r_set", counted_classify)
    monkeypatch.setattr(bijections, "plus_full_set_labels", counted_labels)
    base = chain_without_plus_full_sets(2)
    chain = recompose(ChainDecomposition(base, (3, 5, 8, 9)))
    assert (len(per_label), len(whole)) == (0, 1)
    assert decompose(chain) == ChainDecomposition(base, (3, 5, 8, 9))


def test_insert_raises_at_the_smallest_offending_label(chains_by_order):
    for n in range(1, 6):
        for tab in chains_by_order[n]:
            for r in range(tab.length + 1):
                offending = next((j for j in range(1, r + 1)
                                  if classify_r_set(tab, j) is RSetClass.PLUS_FULL), None)
                if offending is None:
                    assert insert_plus_full_set(tab, r) == _grown(tab, r)
                    continue
                with pytest.raises(GrowthDomainError) as info:
                    insert_plus_full_set(tab, r)
                assert info.value.label == offending


def test_recompose_rejects_a_base_with_a_plus_full_set():
    grown = Tableau(4, ((1, 2, 4), (1, 2), (3,)))  # label 4 is plus-full
    for params in [(), (0,), (2, 4)]:
        with pytest.raises(GrowthDomainError) as info:
            recompose(ChainDecomposition(grown, params))
        assert info.value.label == 4

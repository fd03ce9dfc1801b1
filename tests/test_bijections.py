import random

import pytest

from tamari.bijections import (
    ChainDecomposition,
    _shrink,
    GrowthDomainError,
    NoPlusFullSetError,
    append_next_label,
    chain_without_plus_full_sets,
    decompose,
    expand_chain,
    extract_plus_full_set,
    insert_plus_full_set,
    pivot_row,
    recompose,
    repeat_row,
    unrepeat_row,
)
from tamari.checks import random_chain
from tamari.shapes import staircase
from tamari.tableaux import (
    RSetClass,
    Tableau,
    TableauError,
    classify_r_set,
    is_chain_tableau,
    plus_full_set_labels,
    validate_tableau,
)

BASE = Tableau(3, ((1, 2), (3,)))  # the unique plus-full-set-free chain of order 3


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


def test_pivot_row_on_base_chain():
    assert pivot_row(BASE, 0) == 3
    assert pivot_row(BASE, 1) == 3
    assert pivot_row(BASE, 2) == 1
    assert pivot_row(BASE, 3) == 1


def test_pivot_sequence_identifies_published_seven_level_example():
    from tamari.counting import enumerate_maximal_chains

    nofull = [tab for tab in enumerate_maximal_chains(5, length=6)
              if not plus_full_set_labels(tab)]
    assert len(nofull) == 10
    target = (5, 5, 5, 3, 3, 1, 1)
    matches = [tab for tab in nofull
               if tuple(pivot_row(tab, r) for r in range(7)) == target]
    assert matches
    for tab in matches:
        for r in range(7):
            image = insert_plus_full_set(tab, r)
            assert image.n == 6 and image.length == 7
            assert plus_full_set_labels(image)[0] == r + 1


def test_expand_chain_examples():
    assert expand_chain(BASE, 0).rows == ((1, 2, 3), (1, 4), (1,))
    assert expand_chain(BASE, 3).rows == ((1, 2, 4), (1, 2), (3,))
    assert expand_chain(Tableau(1, ()), 0) == Tableau(2, ((1,),))
    middle = expand_chain(BASE, 1)
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
                grown = insert_plus_full_set(tab, r)
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


def test_expand_chain_is_the_paper_construction(chains_by_order):
    # the label-<=r+1 part is repeat_row then append_next_label; the rest shifts up by one
    for n in range(1, 7):
        for tab in chains_by_order[n]:
            for r in range(tab.length + 1):
                grown = expand_chain(tab, r)
                d = pivot_row(tab, r)
                assert grown.truncate(r + 1) == \
                    append_next_label(repeat_row(tab.truncate(r), d), d)
                assert [v for row in grown.rows for v in row if v > r + 1] == \
                    [v + 1 for row in tab.rows for v in row if v > r]


@pytest.fixture
def constructions(monkeypatch):
    """Rows of the tableaux built by ``Tableau._trusted``, and of those validated."""
    from tamari import tableaux

    built, validated = [], []
    trusted = tableaux.Tableau._trusted.__func__
    validate = tableaux.validate_tableau

    def counted_trusted(cls, n, rows):
        built.append(rows)
        return trusted(cls, n, rows)

    def counted_validate(rows):
        validated.append(rows)
        return validate(rows)

    monkeypatch.setattr(tableaux.Tableau, "_trusted", classmethod(counted_trusted))
    monkeypatch.setattr(tableaux, "validate_tableau", counted_validate)
    return built, validated


def test_growth_and_extraction_build_one_tableau_each(constructions):
    built, validated = constructions
    chain = Tableau(4, ((1, 2, 3), (1, 4), (1,)))
    validated.clear()
    for r in range(chain.length + 1):
        built.clear()
        grown = expand_chain(chain, r)
        assert len(built) == 1
        built.clear()
        extract_plus_full_set(grown)
        assert len(built) == 1
        assert validated == []  # neither map re-validates its output


def _as_validated(tab):
    assert validate_tableau(tab.rows)
    checked = Tableau(tab.n, tab.rows)
    assert tab == checked and hash(tab) == hash(checked)


def test_trusted_outputs_are_valid_tableaux(chains_by_order):
    for n in range(1, 6):
        for tab in chains_by_order[n]:
            for r in range(tab.length + 1):
                grown = expand_chain(tab, r)
                _as_validated(grown)
                shrunk = _shrink(grown, r)
                _as_validated(shrunk)
                assert shrunk == tab
            labels = plus_full_set_labels(tab)
            if labels:
                _as_validated(_shrink(tab, labels[0] - 1))


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


def test_decompose_classifies_each_chain_once(monkeypatch):
    from tamari import bijections

    classified = []

    def counted(tab):
        classified.append(tab)
        return plus_full_set_labels(tab)

    monkeypatch.setattr(bijections, "plus_full_set_labels", counted)
    for params in [(), (3,), (0, 1, 2), (1, 1, 3, 3)]:
        chain = recompose(ChainDecomposition(BASE, params))
        classified.clear()
        assert decompose(chain) == ChainDecomposition(BASE, params)
        assert len(classified) == len(params) + 1


def test_a_surgery_cycle_classifies_each_new_chain_once(monkeypatch):
    # decompose classifies the chain and each of its k shrunken chains; recompose
    # reuses the base's classification, insert the chain's, and extract
    # classifies the one chain it is given
    kernel = vars(Tableau)["_plus_full_set_labels"]
    scan, scanned = kernel.func, []

    def counted(tab):
        scanned.append(tab)
        return scan(tab)

    monkeypatch.setattr(kernel, "func", counted)
    base = chain_without_plus_full_sets(2)
    for params in [(), (3,), (0, 1, 2), (1, 1, 3, 3), (0, 4, 4, 6, 9)]:
        grown = recompose(ChainDecomposition(base, params))
        chain = Tableau(grown.n, grown.rows)  # a fresh instance: nothing stored yet
        scanned.clear()
        parts = decompose(chain)
        assert recompose(parts) == chain
        r = params[0] if params else chain.length
        assert extract_plus_full_set(insert_plus_full_set(chain, r)) == (r, chain)
        assert len(scanned) == len(params) + 2
        assert len({id(tab) for tab in scanned}) == len(scanned)


def test_recompose_classifies_only_its_base(monkeypatch):
    from tamari import bijections, tableaux

    per_label, whole = [], []
    classify, labels_of = tableaux.classify_r_set, tableaux.plus_full_set_labels

    def counted_classify(tab, r):
        per_label.append(r)
        return classify(tab, r)

    def counted_labels(tab):
        whole.append(tab)
        return labels_of(tab)

    monkeypatch.setattr(tableaux, "classify_r_set", counted_classify)
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
                    assert insert_plus_full_set(tab, r) == expand_chain(tab, r)
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

"""Acceptance gate: one test per criterion, each at its stated scale, exact.

The reproduction of the order-8/9 columns and the offset-3 products through
the cover-graph DP runs here because it completes in well under a second.
"""

from math import comb

from tamari import cli
from tamari.checks import VerifyLimits, run_check
from tamari.counting import (
    chains_count,
    conjecture_values,
    count_by_length,
    longest_chain_count,
    nofull_initial_values,
)
from tamari.fixtures import length_table, nofull_table


def _passed(line: str) -> None:
    print(f"PASS {line}")


def test_criterion_1_length_table_reproduction(capsys):
    fixture = length_table()
    for n in range(1, 8):
        assert dict(count_by_length(n).counts) == fixture[n], f"column {n}"
    assert count_by_length(4).counts == {3: 1, 4: 4, 5: 2, 6: 2}
    assert count_by_length(7).total == 340549
    assert cli.main(["table", "--max-n", "7", "--check"]) == 0
    capsys.readouterr()
    _passed("criterion 1: chain counts by length match the committed table "
            "for orders 1..7 exactly")


def test_criterion_2_nofull_table_reproduction(censuses):
    fixture = nofull_table()
    for n in range(1, 8):
        for i in range(-1, 6):
            expected = fixture.get((i, n), 0)
            observed = censuses[n].nofull_by_length.get(n + i, 0)
            assert observed == expected, (i, n)
    assert censuses[3].nofull_by_length.get(3) == 1
    assert censuses[5].nofull_by_length.get(6) == 10
    assert censuses[7].nofull_by_length.get(9) == 280
    _passed("criterion 2: no-plus-full-set counts match the committed table "
            "for every cell with order <= 7 exactly")


def test_criterion_3_recursion_equals_brute_everywhere():
    for n in range(1, 8):
        hist = count_by_length(n)
        for i in range(-1, comb(n, 2) - n + 3):  # two past the top offset
            table = nofull_initial_values(i, max_t=n)
            assert chains_count(i, n, table) == hist.get(n + i), (i, n)
    _passed("criterion 3: the recursion with inclusion-exclusion initial "
            "values equals the brute count for every offset at orders 1..7")


def test_criterion_4_closed_form_spot_checks():
    zero = nofull_initial_values(0)
    for n in range(1, 13):
        assert chains_count(0, n, zero) == comb(n, 3)
    for n in range(1, 8):
        assert count_by_length(n).get(n) == comb(n, 3)
    minus = nofull_initial_values(-1)
    for n in range(1, 13):
        assert chains_count(-1, n, minus) == 1
    three = nofull_initial_values(3)
    expansion = (18 * comb(14, 6) + 220 * comb(14, 5) + 1464 * comb(14, 4)
                 + 9240 * comb(14, 3) + 15400 * comb(14, 2))
    assert chains_count(3, 11, three) == expansion
    _passed("criterion 4: closed forms hold (binomial column for n <= 12, "
            "all-ones column, and the offset-3 expansion at order 11)")


def test_criterion_5_longest_chain_formula():
    for n in range(1, 8):
        assert longest_chain_count(n) == count_by_length(n).get(comb(n, 2))
    assert longest_chain_count(6) == 286
    assert longest_chain_count(7) == 33592
    _passed("criterion 5: the longest-chain product formula matches the "
            "histogram top entry for orders 1..7 (286 and 33,592 included)")


def test_criterion_6_vanishing_of_plus_full_free_chains():
    result = run_check("formulas/vanishing", VerifyLimits(max_n=7))
    assert result.passed, result
    _passed("criterion 6: past the threshold order every chain has a "
            "plus-full-set and the minimal labels fill 1..3i+4, orders <= 7")


def test_criterion_7_bijection_property_suite():
    # the random cases draw from Random(seed + 4) = Random(424242): the chain, then r
    limits = VerifyLimits(max_n=6, samples=10_000, seed=424238)
    results = [run_check(name, limits)
               for name in ("phi/roundtrip", "phi/decomposition", "phi/label-shift")]
    assert all(result.passed for result in results), results
    _passed("criterion 7: growth/extraction round-trip, increment, label shift and "
            "unique decomposition, zero failures: "
            + "; ".join(f"{result.name} {result.detail}" for result in results))


def test_criterion_8_conjecture_check(censuses):
    for i in (-1, 0, 1, 2):
        first, second = conjecture_values(i)
        assert first == censuses[2 * i + 3].nofull_by_length.get(3 * i + 3, 0), i
        if i >= 0 and 2 * i + 2 >= 1:
            assert second == censuses[2 * i + 2].nofull_by_length.get(3 * i + 2, 0), i
    assert conjecture_values(1) == (10, 2)
    assert conjecture_values(2) == (280, 112)
    _passed("criterion 8: conjectured products equal the brute counts for "
            "offsets -1..2 (1; 1,0; 10,2; 280,112)")


def test_criterion_8_extension_offset_three():
    # the enumeration-free route: inclusion-exclusion over the cover-graph
    # walk of orders 8 and 9, equivalent to brute on every desk-scale instance
    values = nofull_initial_values(3)
    assert conjecture_values(3) == (values[9], values[8]) == (15400, 9240)
    _passed("criterion 8 extension: offset 3 products (15400, 9240) match")


def test_criterion_9_large_orders_gated(capsys):
    assert cli.main(["table", "--max-n", "8"]) == 2
    assert cli.main(["table", "--max-n", "9", "--allow-large"]) == 2
    assert cli.main(["table", "--max-n", "8", "--allow-large", "--check"]) == 0
    assert cli.main(["table", "--max-n", "9", "--allow-huge", "--check"]) == 0
    capsys.readouterr()
    fixture = length_table()
    assert count_by_length(8).total == 216569887 == sum(fixture[8].values())
    assert count_by_length(9).total == 994441978397 == sum(fixture[9].values())
    _passed("criterion 9: order 8/9 totals only behind --allow-large/"
            "--allow-huge; both reproduce the committed columns")


def test_equal_representation_extension():
    result = run_check("formulas/equal-representation", VerifyLimits(max_n=5, max_i=1))
    assert result.passed, result
    _passed(f"equal representation over label subsets holds: {result.detail}")

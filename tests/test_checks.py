from itertools import islice
from math import comb

import pytest

from tamari import checks, cli, counting
from tamari.checks import VerifyLimits, run_check, run_suite
from tamari.tableaux import RSetClass


def test_all_suites_pass_at_default_limits():
    results = run_suite("all", VerifyLimits(max_n=5, max_i=2, samples=400, seed=3))
    failures = [r for r in results if not r.passed]
    assert not failures, failures
    assert len(results) == 27


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("bogus", VerifyLimits())


def test_verify_conjecture_cli(capsys):
    assert cli.main(["verify", "--suite", "conjecture", "--max-i", "2"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_formulas_cli(capsys):
    assert cli.main(["verify", "--suite", "formulas", "--max-n", "7",
                     "--samples", "200"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 7


@pytest.mark.slow
def test_equal_representation_past_order_seven():
    # the stream walks only the chains of length n+i, so the cases reach order 10
    result = run_check("formulas/equal-representation", VerifyLimits(max_n=10, max_i=1))
    assert result.passed, result
    assert result.detail == ("cases [(0, 4), (0, 5), (1, 5), (1, 6), (0, 8), (1, 8), "
                             "(0, 9), (1, 9), (0, 10), (1, 10)]")


def test_verify_growth_cli(capsys):
    # plumbing only: criterion 7 and the all-suites test run these checks at scale
    assert cli.main(["verify", "--suite", "phi", "--max-n", "3",
                     "--samples", "20"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 8


def test_initial_values_check_stops_at_the_longest_chains(monkeypatch):
    # ``formulas/recursion-vs-walk`` builds the initial values of each order n, for
    # every offset up to C(n,2) - n, whatever ``--max-i`` says
    offsets = {}
    original = checks.initial_values

    def counted(requested, max_t):
        requested = list(islice(requested, 101))
        offsets[max_t] = requested
        if len(requested) > 100:
            raise AssertionError("the offset loop is not bounded by the chain lengths")
        return original(requested, max_t)

    monkeypatch.setattr(checks, "initial_values", counted)
    result = run_check("formulas/recursion-vs-walk", VerifyLimits(max_n=7, max_i=20000))
    assert result.passed, result
    assert len(offsets[7]) == 16  # offsets -1..14; C(7,2) - 7 = 14
    assert offsets == {n: list(range(-1, comb(n, 2) - n + 1)) for n in range(1, 8)}
    assert result.detail == "every offset for n <= 7"


@pytest.fixture
def one_route_off(monkeypatch):
    """The climb of order 5 with one cell of its clean block off by one: chains of
    length 6 with no plus-full step, so N_1(5) differs between the two routes."""
    original = counting._nofull_and_all

    def off_by_one(t, max_length):
        clean, every = original(t, max_length)
        if t == 5:
            clean[6] += 1
        return clean, every

    monkeypatch.setattr(counting, "_nofull_and_all", off_by_one)


def test_initial_values_check_fails_where_the_routes_disagree(one_route_off):
    result = run_check("formulas/recursion-vs-walk", VerifyLimits(max_n=7, max_i=2))
    assert not result.passed
    assert result.detail == "RouteMismatch: routes disagree at i=1, t=5: brute 11 vs " \
        "inclusion-exclusion 10"
    assert result.counterexample == {"i": 1, "t": 5, "ie": 10, "brute": 11}


def test_nofull_initial_values_raises_where_the_routes_disagree(one_route_off):
    with pytest.raises(counting.RouteMismatch) as caught:
        counting.nofull_initial_values(1)
    assert (caught.value.i, caught.value.t, caught.value.ie, caught.value.brute) == \
        (1, 5, 10, 11)


def test_plus_full_set_bound_can_fail(monkeypatch):
    monkeypatch.setattr(checks, "classify_r_set", lambda tab, r: RSetClass.PLUS_FULL)
    result = run_check("psi/plus-full-set-bound", VerifyLimits(max_n=4))
    assert not result.passed
    assert result.detail == "more than n-1 plus-full-sets"


def test_growth_roundtrip_checks_the_plus_full_set_increment(monkeypatch):
    original = checks.plus_full_set_labels

    def one_spurious_label(tab):  # the minimal label stays as it is
        labels = original(tab)
        return (*labels, 10**6) if tab.n == 4 and labels else labels

    monkeypatch.setattr(checks, "plus_full_set_labels", one_spurious_label)
    result = run_check("phi/roundtrip", VerifyLimits(max_n=5, samples=0))
    assert not result.passed
    assert result.detail == "image does not gain exactly one plus-full-set"


def test_a_route_mismatch_fails_each_check_that_builds_initial_values(one_route_off, capsys):
    example = {"i": 1, "t": 5, "ie": 10, "brute": 11}
    # the checks that build initial values fail; equal representation passes, since
    # ``checks`` bound its own name ``_nofull_and_all`` before the fixture patched
    # ``counting``, and it reads only the clean block, not the second route
    results = run_suite("formulas", VerifyLimits(max_n=7, max_i=2))
    assert len(results) == 7
    failed = {r.name: r.counterexample for r in results if not r.passed}
    assert failed == dict.fromkeys(["formulas/recursion-vs-walk",
                                    "formulas/polynomial-degree"], example)
    conjecture = run_check("conjecture/products", VerifyLimits(max_i=2))
    assert not conjecture.passed and conjecture.counterexample == example
    assert cli.main(["verify", "--suite", "formulas", "--max-n", "7"]) == 1
    lines = capsys.readouterr().out.splitlines()
    checked = [line for line in lines if line.startswith(("PASS ", "FAIL "))]
    assert len(checked) == 7
    assert sum(line.startswith("FAIL ") for line in checked) == 2


@pytest.fixture
def broken_stream(monkeypatch):
    """The chain stream, and so the draws, yielding valid tableaux that encode no
    chain: row x labelled x, x+1, ... (the labels of a wrongly labelled strip)."""
    from tamari import tableaux

    original = counting._chains_up

    def broken(n, start, length=None, choose=None):
        for tab in original(n, start, length, choose):
            yield tableaux.Tableau(n, [range(x, x + len(row))
                                       for x, row in enumerate(tab.rows, 1)])

    monkeypatch.setattr(counting, "_chains_up", broken)
    monkeypatch.setattr(checks, "_chains_up", broken)


def test_a_stream_of_tableaux_that_encode_no_chain_fails_the_checks(broken_stream, capsys):
    assert cli.main(["verify", "--suite", "covers", "--max-n", "5", "--samples", "40"]) == 1
    out = capsys.readouterr().out
    assert "FAIL covers/monotone-heights: NotChainTableauError: labels <= 2 do not " \
        "describe a cover step in ((1,), (2,), (3,))\n" \
        '  counterexample: {"n": 4, "rows": [[1], [2], [3]]}\n' in out
    assert cli.main(["verify", "--suite", "psi", "--max-n", "5", "--samples", "40"]) == 1
    out = capsys.readouterr().out
    assert "FAIL psi/roundtrip: NotChainTableauError: labels <= 2 do not describe a " \
        "cover step in ((1, 2), (2,))\n" \
        '  counterexample: {"n": 3, "rows": [[1, 2], [2]]}\n' in out
    # past the exhaustive orders, where every tableau is still a chain, the draws
    drawn = run_check("psi/roundtrip", VerifyLimits(max_n=2, samples=20))
    assert not drawn.passed and drawn.detail == \
        "NotChainTableauError: labels <= 2 do not describe a cover step in ((1,), (2,))"
    assert drawn.counterexample["n"] == 3


def test_whatever_a_check_raises_is_its_fail_line(broken_stream, capsys):
    # on these tableaux the surgery maps raise ``TableauError``; each check that
    # calls them fails on its own line, and every other check still runs
    assert cli.main(["verify", "--suite", "all", "--max-n", "3", "--max-i", "0",
                     "--samples", "10"]) == 1
    out = capsys.readouterr().out
    checked = [line for line in out.splitlines() if line.startswith(("PASS ", "FAIL "))]
    assert len(checked) == 27
    assert "FAIL phi/roundtrip: TableauError: rows 1 and 2 differ, cannot collapse: " \
        "((1, 2, 3), (2, 3), (3,))\n  counterexample: null\n" in out
    assert "FAIL phi/decomposition: TableauError: rows 1 and 2 differ, cannot collapse: " \
        "((1, 2), (2,))\n  counterexample: null\n" in out

from itertools import islice

import pytest

from tamari import checks, cli, counting
from tamari.checks import VerifyLimits, run_suite
from tamari.tableaux import RSetClass


def test_all_suites_pass_at_default_limits():
    results = run_suite("all", VerifyLimits(max_n=5, max_i=2, samples=400, seed=3))
    failures = [r for r in results if not r.passed]
    assert not failures, failures
    assert len(results) == 28


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
    assert out.count("PASS") == 8


def test_verify_growth_cli(capsys):
    # plumbing only: criterion 7 and the all-suites test run these checks at scale
    assert cli.main(["verify", "--suite", "phi", "--max-n", "3",
                     "--samples", "20"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 8


def test_initial_values_check_stops_at_the_longest_chains(monkeypatch):
    offsets = []
    original = checks.initial_values

    def counted(requested, max_t):
        requested = list(islice(requested, 101))
        offsets.extend(requested)
        if len(offsets) > 100:
            raise AssertionError("the offset loop is not bounded by the chain lengths")
        return original(requested, max_t)

    monkeypatch.setattr(checks, "initial_values", counted)
    result = checks.check_initial_values_vs_brute(VerifyLimits(max_n=7, max_i=20000))
    assert result.passed, result
    assert len(offsets) == 16  # offsets -1..14; C(7,2) - 7 = 14
    assert result.detail == "i <= 14, t <= 7"


@pytest.fixture
def one_route_off(monkeypatch):
    """``counting.sweep`` with one cell off by one: chains of length 6 in order 5
    that skip the plus-full steps, so N_1(5) differs between the two routes."""
    original = counting.sweep

    def off_by_one(n, max_length=None, skip_edge=None):
        counts = original(n, max_length, skip_edge)
        if n == 5 and skip_edge is not None:
            counts[6] += 1
        return counts

    monkeypatch.setattr(counting, "sweep", off_by_one)


def test_initial_values_check_fails_where_the_routes_disagree(one_route_off):
    result = checks.check_initial_values_vs_brute(VerifyLimits(max_n=7, max_i=2))
    assert not result.passed
    assert result.counterexample == {"i": 1, "t": 5, "ie": 10, "brute": 11}


def test_nofull_initial_values_raises_where_the_routes_disagree(one_route_off):
    with pytest.raises(counting.RouteMismatch) as caught:
        counting.nofull_initial_values(1)
    assert (caught.value.i, caught.value.t, caught.value.ie, caught.value.brute) == \
        (1, 5, 10, 11)


def test_plus_full_set_bound_can_fail(monkeypatch):
    monkeypatch.setattr(checks, "classify_r_set", lambda tab, r: RSetClass.PLUS_FULL)
    result = checks.check_pfs_bound(VerifyLimits(max_n=4))
    assert not result.passed
    assert result.detail == "more than n-1 plus-full-sets"


def test_growth_roundtrip_checks_the_plus_full_set_increment(monkeypatch):
    original = checks.plus_full_set_labels

    def one_spurious_label(tab):  # the minimal label stays as it is
        labels = original(tab)
        return (*labels, 10**6) if tab.n == 4 and labels else labels

    monkeypatch.setattr(checks, "plus_full_set_labels", one_spurious_label)
    result = checks.check_growth_roundtrip(VerifyLimits(max_n=5, samples=0))
    assert not result.passed
    assert result.detail == "image does not gain exactly one plus-full-set"


def test_a_route_mismatch_fails_each_check_that_builds_initial_values(one_route_off, capsys):
    example = {"i": 1, "t": 5, "ie": 10, "brute": 11}
    # the checks that build initial values fail; equal representation passes, since
    # ``checks`` bound its own name ``sweep`` before the fixture patched ``counting``
    results = run_suite("formulas", VerifyLimits(max_n=7, max_i=2))
    assert len(results) == 8
    failed = {r.name: r.counterexample for r in results if not r.passed}
    assert failed == dict.fromkeys(["formulas/recursion-vs-walk",
                                    "formulas/initial-values-vs-brute",
                                    "formulas/polynomial-degree"], example)
    conjecture = checks.check_conjecture(VerifyLimits(max_i=2))
    assert not conjecture.passed and conjecture.counterexample == example
    assert cli.main(["verify", "--suite", "formulas", "--max-n", "7"]) == 1
    lines = capsys.readouterr().out.splitlines()
    checked = [line for line in lines if line.startswith(("PASS ", "FAIL "))]
    assert len(checked) == 8
    assert sum(line.startswith("FAIL ") for line in checked) == 3

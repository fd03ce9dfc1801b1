import pytest

from tamari import cli
from tamari.checks import VerifyLimits, run_suite


def test_all_suites_pass_at_default_limits():
    results = run_suite("all", VerifyLimits(max_n=5, max_i=2, samples=400, seed=3))
    failures = [r for r in results if not r.passed]
    assert not failures, failures
    assert len(results) == 29


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
    assert cli.main(["verify", "--suite", "phi", "--max-n", "6",
                     "--samples", "500"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 9

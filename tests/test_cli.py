import json

import pytest

from tamari import cli
from tamari.tableaux import Tableau


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_check_small(capsys):
    code, out, _ = run(capsys, "table", "--max-n", "5", "--check")
    assert code == 0
    assert "table check passed" in out
    assert "98" in out


def test_table_two_columns(capsys):
    code, out, _ = run(capsys, "table", "--max-n", "2")
    assert code == 0
    lines = [line for line in out.splitlines() if line.strip()]
    assert lines[0].split() == ["T_1", "T_2"]
    assert lines[1].split() == ["n", "-", "1", "1", "1"]


def test_table_csv_and_json(capsys):
    code, out, _ = run(capsys, "table", "--max-n", "4", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "n,length,count"
    assert "4,6,2" in out.splitlines()
    code, out, _ = run(capsys, "table", "--max-n", "4", "--format", "json")
    payload = json.loads(out)
    assert payload["4"]["4"] == "4"
    assert payload["totals"]["4"] == "9"


def test_table_gating(capsys):
    code, _, err = run(capsys, "table", "--max-n", "8")
    assert code == 2
    assert "ceiling" in err
    code, out, _ = run(capsys, "table", "--max-n", "8", "--allow-large", "--check")
    assert code == 0
    code, out, _ = run(capsys, "table", "--max-n", "9", "--allow-huge", "--check")
    assert code == 0
    assert "passed for n <= 9" in out


def test_enumerate_streams_tableaux(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "4")
    assert code == 0
    assert out.count("n=4") == 9
    assert out.strip().endswith("total: 9")
    code, out, _ = run(capsys, "enumerate", "--n", "1")
    assert code == 0
    assert out.count("n=1 l=0") == 1
    code, out, _ = run(capsys, "enumerate", "--n", "3", "--length", "2")
    assert code == 0
    assert out.count("n=3") == 1


def test_enumerate_json_parses_back(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "3", "--format", "json")
    lines = out.strip().splitlines()
    assert json.loads(lines[-1]) == {"total": 2}
    tableaux = [Tableau.from_json_dict(json.loads(line)) for line in lines[:-1]]
    assert {tab.length for tab in tableaux} == {2, 3}


def test_enumerate_gating_and_bad_length(capsys):
    code, _, err = run(capsys, "enumerate", "--n", "8")
    assert code == 2 and "ceiling" in err
    code, _, err = run(capsys, "enumerate", "--n", "4", "--length", "99")
    assert code == 2


def test_nofull_check(capsys):
    code, out, _ = run(capsys, "nofull", "--max-i", "1", "--check")
    assert code == 0
    assert "check passed" in out
    code, out, _ = run(capsys, "nofull", "--max-i", "-1")
    assert code == 0
    assert out.split()[-1] == "1"


def test_nofull_csv(capsys):
    code, out, _ = run(capsys, "nofull", "--max-i", "2", "--format", "csv")
    assert code == 0
    rows = out.splitlines()
    assert "2,6,112" in rows and "2,7,280" in rows


def test_nofull_inclusion_exclusion_row(tmp_path, capsys):
    path = tmp_path / "cache.json"
    code, out, _ = run(capsys, "nofull", "--max-i", "3", "--format", "csv",
                       "--cache", str(path))
    assert code == 0
    rows = out.splitlines()
    for cell in ("3,5,18", "3,6,220", "3,7,1464", "3,8,9240", "3,9,15400"):
        assert cell in rows
    cache = json.loads(path.read_text())
    assert cache["provenance"]["3"]["7"] == "brute"
    assert cache["provenance"]["3"]["9"] == "inclusion-exclusion"


def test_nofull_skips_cells_beyond_ceilings(capsys):
    code, out, err = run(capsys, "nofull", "--max-i", "4", "--format", "csv")
    assert code == 0
    rows = out.splitlines()
    assert "4,9,281424" in rows        # still reachable by inclusion-exclusion
    assert not any(r.startswith("4,10,") or r.startswith("4,11,") for r in rows)
    assert "skipped" in err and "(4, 10)" in err and "(4, 11)" in err


def test_count_methods(capsys):
    code, out, _ = run(capsys, "count", "--i", "0", "--n", "9")
    assert code == 0 and out.strip() == "84"
    code, out, _ = run(capsys, "count", "--i", "-1", "--n", "100")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "count", "--i", "1", "--n", "6", "--method", "both")
    assert code == 0 and out.strip() == "112"
    code, out, _ = run(capsys, "count", "--i", "2", "--n", "5", "--method", "brute")
    assert code == 0 and out.strip() == "22"
    code, _, err = run(capsys, "count", "--i", "0", "--n", "9", "--method", "brute")
    assert code == 2 and "ceiling" in err


def test_count_with_huge_offset_returns_at_once(capsys, monkeypatch):
    from math import comb

    from tamari import counting

    calls = []

    def counted_comb(a, b):
        calls.append(b)
        assert len(calls) <= 100, "work grew with --i"
        return comb(a, b)

    monkeypatch.setattr(counting, "comb", counted_comb)
    code, out, _ = run(capsys, "count", "--i", str(10 ** 12), "--n", "3")
    assert code == 0 and out.strip() == "0"


def test_count_writes_and_reuses_cache(tmp_path, capsys):
    path = tmp_path / "cache.json"
    code, out, _ = run(capsys, "count", "--i", "1", "--n", "12",
                       "--cache", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    assert data["nofull"]["1"]["4"] == "2"
    assert data["nofull"]["1"]["5"] == "10"
    assert data["provenance"]["1"]["5"] == "brute"
    assert cli.load_cache(str(path))["nofull"] == data["nofull"]


def test_cache_mismatch_fails_loudly(tmp_path, capsys):
    path = tmp_path / "cache.json"
    cache = cli.empty_cache()
    cli.cache_update(cache, 0, 3, 999, "brute")
    cli.save_cache(str(path), cache)
    code, _, err = run(capsys, "count", "--i", "0", "--n", "5", "--cache", str(path))
    assert code == 1
    assert "disagrees" in err


def test_corrupted_cache_is_ignored_with_warning(tmp_path, capsys):
    path = tmp_path / "cache.json"
    path.write_text("{not json")
    code, out, err = run(capsys, "count", "--i", "0", "--n", "5", "--cache", str(path))
    assert code == 0 and out.strip() == "10"
    assert "corrupted cache" in err
    tampered = dict(cli.empty_cache(), checksum="0" * 64)
    path.write_text(json.dumps(tampered))
    code, out, err = run(capsys, "count", "--i", "0", "--n", "5", "--cache", str(path))
    assert code == 0 and "checksum" in err


def test_check_mode_never_writes_cache(tmp_path, capsys):
    path = tmp_path / "cache.json"
    code, _, _ = run(capsys, "nofull", "--max-i", "0", "--check",
                     "--cache", str(path))
    assert code == 0
    assert not path.exists()


def test_cache_env_variable_is_default(tmp_path, capsys, monkeypatch):
    path = tmp_path / "envcache.json"
    monkeypatch.setenv(cli.CACHE_ENV, str(path))
    code, _, _ = run(capsys, "nofull", "--max-i", "0")
    assert code == 0
    assert path.exists()


BASE_TEXT = "n=3 l=3\n1 2\n3\n"
GROWN_TEXT = "n=4 l=4\n1 2 4\n1 2\n3\n"


def run_with_stdin(capsys, monkeypatch, stdin, *argv):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _one_line_error(code, out, err):
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_grow_from_stdin(capsys, monkeypatch):
    code, out, _ = run_with_stdin(capsys, monkeypatch, BASE_TEXT, "grow", "--r", "3")
    assert code == 0
    assert Tableau.from_text(out) == Tableau(4, ((1, 2, 4), (1, 2), (3,)))


def test_grow_domain_violation_exits_one(capsys, monkeypatch):
    code, _, err = run_with_stdin(capsys, monkeypatch, "n=3 l=2\n1 2\n1\n",
                                  "grow", "--r", "1")
    assert code == 1
    assert "offending label 1" in err


def test_grow_rejects_malformed_input(capsys, monkeypatch):
    code, _, err = run_with_stdin(capsys, monkeypatch, "garbage", "grow", "--r", "0")
    assert code == 2


@pytest.mark.parametrize("n", ["1e400", "3.7", "true", '"4"'])
def test_decompose_rejects_non_integral_order(capsys, monkeypatch, n):
    text = '{"n": %s, "rows": [[1, 2], [3]]}' % n  # a chain of order 3
    code, out, err = run_with_stdin(capsys, monkeypatch, text, "decompose")
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_decompose_rejects_bool_labels(capsys, monkeypatch):
    text = '{"n": 3, "rows": [[1, 2], [true]]}'
    _one_line_error(*run_with_stdin(capsys, monkeypatch, text, "decompose"))


@pytest.mark.parametrize("argv", [["decompose"], ["grow", "--r", "0"],
                                  ["recompose", "--params", "3"]])
@pytest.mark.parametrize("source", ["missing", "directory"])
def test_unreadable_input_file_is_a_usage_error(tmp_path, capsys, argv, source):
    path = tmp_path / "missing.txt" if source == "missing" else tmp_path
    _one_line_error(*run(capsys, *argv, "--input", str(path)))


def test_cache_path_that_is_a_directory_is_a_usage_error(tmp_path, capsys):
    _one_line_error(*run(capsys, "nofull", "--max-i", "1", "--cache", str(tmp_path)))


def test_deeply_nested_json_is_a_usage_error(capsys, monkeypatch):
    text = '{"n": 3, "rows": ' + "[" * 200_000 + "]" * 200_000 + "}"
    _one_line_error(*run_with_stdin(capsys, monkeypatch, text, "decompose"))


def test_decompose_rejects_huge_order_in_header(capsys, monkeypatch):
    from tamari import tableaux
    from tamari.shapes import staircase

    def guarded_staircase(k):
        assert k < 10 ** 6, "staircase sized by an unchecked header"
        return staircase(k)

    monkeypatch.setattr(tableaux, "staircase", guarded_staircase)
    code, _, err = run_with_stdin(capsys, monkeypatch, "n=100000000000 l=1\n1\n",
                                  "decompose")
    assert code == 2 and "full-staircase" in err


def test_decompose_and_recompose_roundtrip(tmp_path, capsys, monkeypatch):
    code, out, _ = run_with_stdin(capsys, monkeypatch, GROWN_TEXT, "decompose")
    assert code == 0
    assert out.strip().splitlines()[-1] == "params: 3"
    assert Tableau.from_text("\n".join(out.splitlines()[:-1])) == \
        Tableau(3, ((1, 2), (3,)))
    source = tmp_path / "base.json"
    source.write_text(Tableau(3, ((1, 2), (3,))).to_json())
    code, out, _ = run(capsys, "recompose", "--params", "3",
                       "--input", str(source), "--format", "json")
    assert code == 0
    assert Tableau.from_json_dict(json.loads(out)) == \
        Tableau(4, ((1, 2, 4), (1, 2), (3,)))


def test_recompose_rejects_bad_params(capsys, monkeypatch):
    code, _, err = run_with_stdin(capsys, monkeypatch, BASE_TEXT,
                                  "recompose", "--params", "2,1")
    assert code == 2
    assert "weakly increasing" in err


def test_verify_cli(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "conjecture", "--max-i", "1")
    assert code == 0
    assert out.startswith("PASS")
    code, out, _ = run(capsys, "verify", "--suite", "covers", "--max-n", "4",
                       "--samples", "50", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] and len(report["checks"]) == 6


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "--suite", "bogus"])
    assert info.value.code == 2
    code, _, _ = run(capsys, "count", "--i", "-3", "--n", "4")
    assert code == 2
    code, _, _ = run(capsys, "table", "--max-n", "0")
    assert code == 2
    with pytest.raises(SystemExit) as info:  # the fork pool and its flag are gone
        cli.main(["nofull", "--max-i", "1", "--threads", "2"])
    assert info.value.code == 2

import json

import pytest

from tamari import cli, counting
from tamari.shapes import staircase
from tamari.tableaux import Tableau


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_check_small(capsys, monkeypatch):
    code, out, _ = run(capsys, "table", "--max-n", "5", "--check")
    assert code == 0
    assert "table check passed" in out
    assert "98" in out
    fixture = cli.length_table()
    monkeypatch.setattr(cli, "length_table", lambda: {**fixture, 4: {**fixture[4], 6: 3}})
    code, out, err = run(capsys, "table", "--max-n", "5", "--check")
    assert (code, out, err) == (1, "", "fixture mismatch in columns [4]\n")


def test_table_check_compares_only_the_orders_the_fixture_holds(capsys, monkeypatch):
    # order 10 is past the committed columns: named, not failed
    code, out, err = run(capsys, "table", "--max-n", "10", "--allow-huge", "--check")
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == ("table check passed for n <= 10; orders [10] are not "
                                   "in the fixture and were not compared")
    fixture = cli.length_table()
    monkeypatch.setattr(cli, "length_table", lambda: {**fixture, 9: {**fixture[9], 36: 1}})
    code, out, err = run(capsys, "table", "--max-n", "10", "--allow-huge", "--check")
    assert (code, out, err) == (1, "", "fixture mismatch in columns [9]\n")


def test_table_two_columns(capsys):
    code, out, _ = run(capsys, "table", "--max-n", "2")
    assert code == 0
    lines = [line for line in out.splitlines() if line.strip()]
    assert lines[0].split() == ["T_1", "T_2"]
    assert lines[1].split() == ["n", "-", "1", "1", "1"]


def test_table_leaves_zero_cells_blank(capsys):
    # T_1 and T_2 have no chain of length n, so only the cell of T_3 is printed
    code, out, _ = run(capsys, "table", "--max-n", "3")
    assert code == 0
    assert out.splitlines()[2].split() == ["n", "1"]


def test_table_csv_and_json(capsys):
    code, out, _ = run(capsys, "table", "--max-n", "4", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "n,length,count"
    assert "4,6,2" in out.splitlines()
    code, out, _ = run(capsys, "table", "--max-n", "4", "--format", "json")
    payload = json.loads(out)
    assert payload["4"]["4"] == "4"
    assert payload["totals"]["4"] == "9"


def test_table_gating(capsys, climbs):
    code, _, err = run(capsys, "table", "--max-n", "8")
    assert code == 2
    assert "ceiling" in err
    code, out, _ = run(capsys, "table", "--max-n", "8", "--allow-large", "--check")
    assert code == 0
    climbs.clear()
    code, out, _ = run(capsys, "table", "--max-n", "9", "--allow-huge", "--check")
    assert code == 0
    assert "passed for n <= 9" in out
    # the path the benchmark's ``tables`` workload times: one climb for every
    # order, unbounded, so it masks no vertex
    assert climbs == [(tuple(staircase(n - 1) for n in range(9, 0, -1)), False, False)]


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
    code, out, _ = run(capsys, "enumerate", "--n", "3", "--format", "csv")
    assert code == 0
    assert out == "index,n,length,rows\n1,3,2,1 2|1\n2,3,3,1 2|3\ntotal: 2\n"


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
    code, out, err = run(capsys, "enumerate", "--n", "0")
    assert (code, out, err) == (2, "", "error: --n must be >= 1\n")


def test_nofull_check(capsys, monkeypatch):
    code, out, _ = run(capsys, "nofull", "--max-i", "1", "--check")
    assert code == 0
    assert "check passed" in out
    code, out, _ = run(capsys, "nofull", "--max-i", "-1")
    assert code == 0
    assert out.split()[-1] == "1"
    fixture = cli.nofull_table()
    monkeypatch.setattr(cli, "nofull_table", lambda: {**fixture, (1, 5): 11})
    code, out, err = run(capsys, "nofull", "--max-i", "1", "--check")
    assert (code, out, err) == (1, "", "fixture mismatch at cells [(1, 5)]\n")


def test_nofull_check_compares_only_the_rows_the_fixture_holds(capsys, monkeypatch):
    # the committed rows 6 and 7 are compared up to the ceiling, order 9; row 8 is named
    argv = ("nofull", "--max-i", "8", "--check", "--format", "csv")
    code, out, err = run(capsys, *argv)
    assert code == 0 and "skipped" in err
    lines = out.splitlines()
    assert lines[0] == ("no-plus-full table check passed for i <= 8; rows [8] are not "
                        "in the fixture and were not compared")
    assert "6,9,5891782" in lines and "7,9,17117380" in lines
    fixture = cli.nofull_table()
    for cell in ((6, 9), (7, 9)):
        monkeypatch.setattr(cli, "nofull_table", lambda: {**fixture, cell: 1})
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and err.endswith(f"fixture mismatch at cells [{cell}]\n")


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
    assert cache["provenance"]["3"]["9"] == "brute"


def test_nofull_skips_cells_beyond_ceilings(capsys):
    code, out, err = run(capsys, "nofull", "--max-i", "4", "--format", "csv")
    assert code == 0
    rows = out.splitlines()
    assert "4,9,281424" in rows        # still reachable by inclusion-exclusion
    assert not any(r.startswith("4,10,") or r.startswith("4,11,") for r in rows)
    assert "skipped" in err and "(4, 10)" in err and "(4, 11)" in err


@pytest.fixture
def climbs(monkeypatch):
    """The seeds of each climb of the counting engine the CLI makes, in call order,
    whether the climb has an order whose plus-full steps it folds at (for
    ``nofull``), and whether it is cut by length masks (bounded at a length)."""
    calls = []
    original = counting._climb

    def counted_climb(seeds, advance, order=None, masks=None):
        calls.append((tuple(seeds), order is not None, masks is not None))
        return original(seeds, advance, order, masks)

    monkeypatch.setattr(counting, "_climb", counted_climb)
    return calls


def once_per_order(top):
    """One climb from each staircase of orders 1..top, folding at the plus-full
    steps to carry both routes, bounded at the longest chain the offsets need."""
    return [((staircase(n - 1),), True, True) for n in range(1, top + 1)]


def test_nofull_climbs_each_order_once(capsys, climbs):
    code, _, _ = run(capsys, "nofull", "--max-i", "3")
    assert code == 0
    assert climbs == once_per_order(9)  # 2i+3 = 9, for every offset at once, all masked


def test_nofull_skipped_report_stays_short(capsys, climbs):
    code, _, err = run(capsys, "nofull", "--max-i", "400", "--format", "csv")
    assert code == 0
    assert len(err.encode()) < 4096
    skipped = sum(2 * i + 3 - cli.DP_LIMIT for i in range(4, 401))
    assert f"{skipped} cells, first: [(4, 10), (4, 11), (5, 10)" in err
    assert climbs == once_per_order(cli.DP_LIMIT)


@pytest.mark.parametrize("skip", [None, "plus-full"])
def test_nofull_routes_that_disagree_fail_and_write_nothing(tmp_path, capsys, monkeypatch,
                                                             skip):
    path = tmp_path / "cache.json"
    original = counting._nofull_and_all

    def off_by_one(t, max_length):
        clean, every = original(t, max_length)
        if t == 5:  # one cell of one route: chains of length 6 in order 5
            (every if skip is None else clean)[6] += 1
        return clean, every

    monkeypatch.setattr(counting, "_nofull_and_all", off_by_one)
    code, out, err = run(capsys, "nofull", "--max-i", "2", "--cache", str(path))
    assert code == 1 and out == ""
    assert "routes disagree at i=1, t=5" in err
    assert not path.exists()


def test_nofull_computes_the_committed_offset_four_cells(tmp_path, capsys):
    from tamari.fixtures import nofull_table

    path = tmp_path / "cache.json"
    code, out, err = run(capsys, "nofull", "--max-i", "4", "--allow-large",
                         "--format", "csv", "--cache", str(path))
    assert code == 0 and err == ""  # both routes agree in every cell; nothing skipped
    rows = out.splitlines()
    assert "4,10,1121120" in rows and "4,11,1401400" in rows
    fixture = nofull_table()
    for line in rows[1:]:
        i, t, value = map(int, line.split(","))
        assert value == fixture.get((i, t), 0), (i, t)
    cache = json.loads(path.read_text())
    assert cache["provenance"]["4"]["10"] == cache["provenance"]["4"]["11"] == "brute"
    # past the default ceiling those two cells now come from the cache: not skipped
    code, out, err = run(capsys, "nofull", "--max-i", "5", "--format", "csv",
                         "--cache", str(path))
    assert code == 0 and "4,11,1401400" in out.splitlines()
    assert "skipped (beyond ceilings, no cache entry): 4 cells, " \
           "first: [(5, 10), (5, 11), (5, 12), (5, 13)]" in err


@pytest.mark.parametrize("argv", [("nofull", "--max-i", "3", "--format", "csv"),
                                  ("count", "--i", "1", "--n", "12")])
def test_cells_are_recorded_only_with_a_cache_file(tmp_path, capsys, monkeypatch, argv):
    updates = []
    original = cli.cache_update

    def counted_cache_update(cache, i, t, value, provenance):
        updates.append((i, t))
        return original(cache, i, t, value, provenance)

    monkeypatch.setattr(cli, "cache_update", counted_cache_update)
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    code, plain, _ = run(capsys, *argv)
    assert code == 0 and updates == []
    code, cached, _ = run(capsys, *argv, "--cache", str(tmp_path / "cache.json"))
    assert code == 0 and updates and cached == plain


def test_skipped_cells_are_counted_not_visited(tmp_path, capsys, monkeypatch):
    lookups = []
    original = cli.cache_get

    def counted_cache_get(cache, i, t):
        lookups.append((i, t))
        return original(cache, i, t)

    monkeypatch.setattr(cli, "cache_get", counted_cache_get)
    max_i = 2000
    cache = str(tmp_path / "cache.json")  # computed cells are looked up only to be recorded
    code, _, err = run(capsys, "nofull", "--max-i", str(max_i), "--format", "csv",
                       "--cache", cache)
    assert code == 0
    skipped = sum(2 * i + 3 - cli.DP_LIMIT for i in range(4, max_i + 1))
    assert f"{skipped} cells, first: [(4, 10), (4, 11), (5, 10)" in err
    assert 0 < len(lookups) <= cli.DP_LIMIT * (max_i + 2)  # the computed cells only
    lookups.clear()
    code, _, err = run(capsys, "count", "--i", str(10 ** 6), "--n", str(10 ** 9),
                       "--cache", cache)
    assert code == 2 and "t in [10, 11, 12," in err
    assert 0 < len(lookups) <= cli.DP_LIMIT


def test_nofull_offset_ceiling_is_checked_before_any_row(capsys, monkeypatch):
    def no_table(*args):
        raise AssertionError("a row was built")

    monkeypatch.setattr(cli, "_initial_values", no_table)
    code, out, err = run(capsys, "nofull", "--max-i", "1000000000")
    assert code == 2 and out == ""
    assert err == f"error: --max-i must lie in -1..{cli.MAX_I}\n"


def test_count_methods(capsys, monkeypatch):
    code, out, _ = run(capsys, "count", "--i", "0", "--n", "9")
    assert code == 0 and out.strip() == "84"
    code, out, _ = run(capsys, "count", "--i", "-1", "--n", "100")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "count", "--i", "1", "--n", "6", "--method", "both")
    assert code == 0 and out.strip() == "112"
    code, out, _ = run(capsys, "count", "--i", "2", "--n", "5", "--method", "brute")
    assert code == 0 and out.strip() == "22"
    code, out, _ = run(capsys, "count", "--i", "2", "--n", "9", "--method", "both")
    assert code == 0 and out.strip() == "37444"
    code, out, _ = run(capsys, "count", "--i", "0", "--n", "9", "--method", "brute")
    assert code == 0 and out.strip() == "84"
    code, _, err = run(capsys, "count", "--i", "0", "--n", "10", "--method", "brute")
    assert code == 2 and "ceiling" in err
    monkeypatch.setattr(cli, "chains_count",
                        lambda i, n, table: counting.chains_count(i, n, table) + 1)
    code, out, err = run(capsys, "count", "--i", "1", "--n", "6", "--method", "both")
    assert (code, out, err) == (1, "", "DISAGREE recursion=113 brute=112\n")


def test_count_with_huge_offset_returns_at_once(capsys, monkeypatch):
    from math import comb

    calls = []

    def counted_comb(a, b):
        calls.append(b)
        assert len(calls) <= 100, "work grew with --i"
        return comb(a, b)

    monkeypatch.setattr(counting, "comb", counted_comb)
    code, out, _ = run(capsys, "count", "--i", str(10 ** 12), "--n", "3")
    assert code == 0 and out.strip() == "0"


def test_brute_count_with_huge_offset_returns_at_once(capsys):
    # the bounded histogram's length bound is 100009, past every chain: each length
    # mask stops at the C(9,2)+1 fields of the one block
    import time

    start = time.perf_counter()
    code, out, _ = run(capsys, "count", "--i", "100000", "--n", "9", "--method", "brute")
    assert code == 0 and out.strip() == "0"
    assert time.perf_counter() - start < 10


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
    path.write_text(json.dumps(dict(cli.empty_cache(), version=2)))
    code, out, err = run(capsys, "nofull", "--max-i", "-1", "--cache", str(path))
    assert code == 0 and out.split()[-1] == "1"
    assert err == f"warning: ignoring corrupted cache {path}: unsupported cache version 2\n"


def test_cache_that_is_not_an_object_is_ignored_with_warning(tmp_path, capsys):
    path = tmp_path / "cache.json"
    path.write_text("[1, 2]")
    code, out, err = run(capsys, "count", "--i", "0", "--n", "5", "--cache", str(path))
    assert code == 0 and out.strip() == "10"
    assert "corrupted cache" in err
    assert cli.cache_get(cli.load_cache(str(path)), 0, 3) == 1


@pytest.mark.parametrize("nofull, provenance", [
    ({"0": {"1": "x"}}, {}),
    ({"0": {"1": 0}}, {}),
    ({"0": {"1": "1.0"}}, {}),
    ({"0": {"1": "9" * 5000}}, {}),
    ({"0": {"01": "0"}}, {}),
    ({"zero": {"1": "0"}}, {}),
    ({"0": ["0"]}, {}),
    (["0"], {}),
    ({"0": {"1": "0"}}, {"0": {"1": 7}}),
    ({}, {"0": None}),
])
def test_cache_with_malformed_entries_is_ignored_with_warning(tmp_path, capsys,
                                                              nofull, provenance):
    path = tmp_path / "cache.json"
    body = {"version": cli.CACHE_VERSION, "nofull": nofull, "provenance": provenance}
    path.write_text(json.dumps(dict(body, checksum=cli._checksum(body))))
    code, out, err = run(capsys, "count", "--i", "0", "--n", "3", "--cache", str(path))
    assert code == 0 and out.strip() == "1"
    assert "corrupted cache" in err
    assert cli.cache_get(cli._read_cache(str(path)), 0, 3) == 1  # overwritten


def test_concurrent_cache_writers_keep_both_entries(tmp_path):
    path = str(tmp_path / "cache.json")
    first, second = cli.load_cache(path), cli.load_cache(path)
    cli.cache_update(first, 0, 3, 5, "brute")
    cli.cache_update(second, 1, 4, 2, "inclusion-exclusion")
    cli.save_cache(path, second)  # lands between the first writer's load and store
    cli.save_cache(path, first)
    merged = cli.load_cache(path)
    assert cli.cache_get(merged, 0, 3) == 5
    assert cli.cache_get(merged, 1, 4) == 2
    assert merged["provenance"]["1"]["4"] == "inclusion-exclusion"


def test_cache_writer_waits_for_the_lock(tmp_path):
    import fcntl
    import os
    import threading

    path = str(tmp_path / "cache.json")
    mine = cli.empty_cache()
    cli.cache_update(mine, 0, 3, 5, "brute")
    rival = cli.empty_cache()
    cli.cache_update(rival, 1, 4, 2, "brute")
    cli.save_cache(str(tmp_path / "rival.json"), rival)
    lock = os.open(tmp_path, os.O_RDONLY)  # the lock is on the cache's directory
    try:
        fcntl.flock(lock, fcntl.LOCK_EX)
        writer = threading.Thread(target=cli.save_cache, args=(path, mine), daemon=True)
        writer.start()
        writer.join(0.2)
        assert writer.is_alive()  # waiting for the lock
        os.replace(tmp_path / "rival.json", path)  # another writer's store
    finally:
        os.close(lock)
    writer.join(10)
    assert not writer.is_alive()
    merged = cli.load_cache(path)
    assert cli.cache_get(merged, 0, 3) == 5
    assert cli.cache_get(merged, 1, 4) == 2


def test_a_cache_save_leaves_only_the_cache(tmp_path):
    path = tmp_path / "cache.json"
    cache = cli.empty_cache()
    cli.cache_update(cache, 0, 3, 1, "brute")
    cli.save_cache(str(path), cache)
    cli.save_cache(str(path), cache)
    assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]


def test_concurrent_cache_writer_conflict_fails(tmp_path, capsys, monkeypatch):
    path = tmp_path / "cache.json"
    original = counting.inclusion_exclusion

    def with_rival_writer(i, chain_counts):
        rival = cli.empty_cache()
        cli.cache_update(rival, 0, 3, 999, "brute")
        cli.save_cache(str(path), rival)
        return original(i, chain_counts)

    monkeypatch.setattr(counting, "inclusion_exclusion", with_rival_writer)
    code, _, err = run(capsys, "count", "--i", "0", "--n", "5", "--cache", str(path))
    assert code == 1 and "disagrees" in err
    assert cli.cache_get(cli.load_cache(str(path)), 0, 3) == 999


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


@pytest.mark.parametrize("cache", ["corrupted", "directory"])
def test_brute_count_reads_no_cache(tmp_path, capsys, cache):
    # only the recursion reads initial values, so only it loads the cache file
    path = tmp_path / "cache.json"
    if cache == "corrupted":
        path.write_text("{not json")
    else:
        path.mkdir()
    code, out, err = run(capsys, "count", "--i", "0", "--n", "5", "--method", "brute",
                         "--cache", str(path))
    assert (code, out, err) == (0, "10\n", "")


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


NOT_CHAINS = ["n=4 l=3\n1 2 3\n1 3\n2\n",  # staircase tableaux that encode no chain
              "n=3 l=2\n1 2\n2\n",
              '{"n": 3, "rows": [[1, 2], [2]]}']


@pytest.mark.parametrize("text", NOT_CHAINS)
@pytest.mark.parametrize("argv", [["decompose"], ["grow", "--r", "0"], ["grow", "--r", "2"],
                                  ["recompose"], ["recompose", "--params", "0"]])
def test_surgery_commands_reject_tableaux_that_are_not_chains(capsys, monkeypatch,
                                                              argv, text):
    code, out, err = run_with_stdin(capsys, monkeypatch, text, *argv)
    _one_line_error(code, out, err)
    assert "cover step" in err


def test_recompose_rejects_a_base_with_a_plus_full_set(capsys, monkeypatch):
    code, out, err = run_with_stdin(capsys, monkeypatch, GROWN_TEXT,
                                    "recompose", "--params", "0")
    assert code == 1 and out == ""
    assert err == "error: chain has a plus-full-set with label 4\n"


def test_verify_cli(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "conjecture", "--max-i", "1")
    assert code == 0
    assert out.startswith("PASS")
    code, out, _ = run(capsys, "verify", "--suite", "covers", "--max-n", "4",
                       "--samples", "50", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] and len(report["checks"]) == 6


def test_only_verify_imports_the_property_suites():
    import os
    import subprocess
    import sys

    import tamari

    script = ("import sys, tamari.cli\n"
              "print('tamari.checks' in sys.modules)\n"
              "code = tamari.cli.main(['verify', '--suite', 'formulas', '--max-n', '4'])\n"
              "print('tamari.checks' in sys.modules, code)\n")
    src = os.path.dirname(os.path.dirname(tamari.__file__))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    lines = proc.stdout.splitlines()
    assert proc.returncode == 0, proc.stderr
    assert lines[0] == "False" and lines[-1] == "True 0"
    assert all(line.startswith("PASS") for line in lines[1:-1]) and len(lines) > 2


# the paper's reference constructions: only ``verify`` and the tests run them
REFERENCE = [
    "NORTH", "EAST", "validate_dyck_path", "to_dyck_path", "from_dyck_path", "_prime_spans",
    "prime_subpath_heights", "PrimePathInfo", "prime_path_of_row", "strip_of_box",
    "corner_boxes", "upper_covers_dyck", "Enclosure", "enclosure", "RSetClass",
    "outer_diagonal", "is_chain_tableau", "classify_r_set", "repeat_row", "unrepeat_row",
    "append_next_label", "chain_without_plus_full_sets", "truncate", "conjecture_values",
]
# the second public faces of the kernels, deleted: covers_with_strips, Tableau(n, rows)
# or _valid_rows, _pivot, and insert_plus_full_set or Tableau(n + 1, _grow(...)) remain
DELETED = ["upper_covers", "validate_tableau", "pivot_row", "expand_chain", "_require_level"]


def test_the_commands_load_none_of_the_reference_constructions():
    import os
    import subprocess
    import sys

    import tamari
    from tamari import checks

    for name in REFERENCE:
        value = vars(checks)[name]
        assert getattr(value, "__module__", "tamari.checks") == "tamari.checks", name
    assert not any(hasattr(checks, name) for name in DELETED)
    # in a fresh interpreter, no module that the commands load defines one of them,
    # nor a deleted name, and a tableau has no truncate method
    script = ("import sys, tamari, tamari.cli\n"
              f"names = {REFERENCE + DELETED!r}\n"
              "loaded = sorted(m for m in sys.modules if m.startswith('tamari'))\n"
              "print(' '.join(loaded))\n"
              "print([f'{m}.{n}' for m in loaded for n in names if n in vars(sys.modules[m])]"
              " + [n for n in names if hasattr(tamari.tableaux.Tableau, n)])\n")
    src = os.path.dirname(os.path.dirname(tamari.__file__))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded, defined = proc.stdout.splitlines()
    assert loaded.split() == ["tamari", "tamari.bijections", "tamari.cli", "tamari.counting",
                              "tamari.fixtures", "tamari.shapes", "tamari.tableaux"]
    assert defined == "[]"


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "--suite", "bogus"])
    assert info.value.code == 2
    code, _, _ = run(capsys, "count", "--i", "-3", "--n", "4")
    assert code == 2
    code, _, _ = run(capsys, "table", "--max-n", "0")
    assert code == 2
    for argv in (["nofull", "--max-i", "1", "--threads", "2"],  # the fork pool is gone
                 # a command declares only the options it reads
                 ["count", "--i", "1", "--n", "6", "--format", "json"],
                 ["verify", "--allow-huge"],
                 ["grow", "--r", "0", "--allow-large"],
                 ["decompose", "--format", "csv"]):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2


@pytest.mark.parametrize("option, value", [("--max-n", "0"), ("--samples", "-1")])
def test_verify_rejects_out_of_range_limits(capsys, option, value):
    code, out, err = run(capsys, "verify", option, value)
    _one_line_error(code, out, err)
    assert option in err


MINIMAL_RUNS = {  # subcommand: (arguments, stdin)
    "enumerate": (["--n", "1"], ""),
    "table": (["--max-n", "1"], ""),
    "nofull": (["--max-i", "-1"], ""),
    "count": (["--i", "-1", "--n", "1", "--method", "both"], ""),
    "grow": (["--r", "3"], BASE_TEXT),
    "decompose": ([], GROWN_TEXT),
    "recompose": (["--params", "3"], BASE_TEXT),
    "verify": (["--suite", "conjecture", "--max-n", "2", "--max-i", "-1"], ""),
}


def test_every_declared_option_is_read(monkeypatch):
    import argparse
    import io

    reads = set()

    class ReadRecorder(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    parser = cli.build_parser()
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    assert set(commands) == set(MINIMAL_RUNS) == set(cli.COMMANDS)
    for name, (argv, stdin) in MINIMAL_RUNS.items():
        args = parser.parse_args([name, *argv], namespace=ReadRecorder())
        reads.clear()  # parsing reads every attribute; keep the command's reads only
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        assert args.func(args) == 0, name
        declared = {action.dest for action in commands[name]._actions if action.option_strings}
        assert declared - {"help"} <= reads, (name, declared - reads)


# argv that `main` may settle with one command's subparser, and argv it must hand
# to the full parser: no command, top-level help, an unknown command, refused
# options, a leftover positional and an option before the command
PARSER_CORPUS = [([name, *argv], stdin) for name, (argv, stdin) in MINIMAL_RUNS.items()] + [
    ([], ""), (["-h"], ""), (["table", "-h"], ""), (["nofull", "--help"], ""),
    (["bogus"], ""), (["table"], ""), (["table", "--max-n", "2", "--format", "xml"], ""),
    (["table", "--max-n", "two"], ""), (["table", "--max-n", "2", "extra"], ""),
    (["--max-n", "2", "table"], ""),
]


def _outcome(capsys, monkeypatch, argv, stdin):
    """(exit status, stdout, stderr) of ``cli.main(argv)``, a usage exit included."""
    try:
        return run_with_stdin(capsys, monkeypatch, stdin, *argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


@pytest.mark.parametrize("argv, stdin", PARSER_CORPUS,
                         ids=[" ".join(argv) or "no-arguments" for argv, _ in PARSER_CORPUS])
def test_one_command_parser_answers_as_the_full_parser(capsys, monkeypatch, argv, stdin):
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    if argv and argv[0] in cli.COMMANDS:  # main builds that command's subparser alone
        sub = next(action for action in cli.build_parser(argv[0])._actions
                   if action.dest == "command")
        assert list(sub.choices) == [argv[0]]
    ours = _outcome(capsys, monkeypatch, argv, stdin)
    full = cli.build_parser
    with monkeypatch.context() as patched:
        patched.setattr(cli, "build_parser", lambda command=None: full())
        theirs = _outcome(capsys, monkeypatch, argv, stdin)
    assert ours == theirs

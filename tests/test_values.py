"""Value semantics of the six record types, what ``import tamari`` loads, and the
fixture reader that lets it load no ``csv``.

The records on the command path are plain classes on ``shapes._Value``
(``ChainCensus`` borrows its equality and repr), and ``checks.PrimePathInfo`` and
``checks.Enclosure`` are frozen dataclasses; these tests pin the behaviour of a
dataclass on all six, and that a histogram also survives ``pickle`` and
``copy.deepcopy``, as do the two errors that carry fields.
"""

import copy
import csv
import os
import pickle
import subprocess
import sys
from pathlib import Path
from types import MappingProxyType

import pytest

import tamari
from tamari.bijections import ChainDecomposition, GrowthDomainError
from tamari.checks import Enclosure, PrimePathInfo
from tamari.counting import ChainCensus, LengthHistogram, RouteMismatch, enumerate_maximal_chains
from tamari.tableaux import Tableau, TableauError

ROWS = ((1, 2), (3,))

# (class, positional fields, the repr of that instance)
CASES = [
    (Tableau, (3, ROWS), "Tableau(n=3, rows=((1, 2), (3,)))"),
    (ChainDecomposition, (Tableau(3, ROWS), (0, 1)),
     "ChainDecomposition(base=Tableau(n=3, rows=((1, 2), (3,))), params=(0, 1))"),
    (LengthHistogram, (3, {2: 1, 3: 1}), "LengthHistogram(n=3, counts=mappingproxy({2: 1, 3: 1}))"),
    (ChainCensus, (3, {2: 1}, {}, {3: {1: 1}}),
     "ChainCensus(n=3, by_length={2: 1}, nofull_by_length={}, min_plus_full={3: {1: 1}})"),
    (PrimePathInfo, (1, 2, "NNEE"), "PrimePathInfo(start_row=1, height=2, steps='NNEE')"),
    (Enclosure, (0, (2, 1), ((0, 1), (1, 1))),
     "Enclosure(top_row=0, shape=(2, 1), boxes=((0, 1), (1, 1)))"),
]
IDS = [cls.__name__ for cls, _, _ in CASES]
FROZEN = [case for case in CASES if case[0] is not ChainCensus]
HASHABLE = [case for case in FROZEN if case[0] is not LengthHistogram]


@pytest.mark.parametrize("cls, args, text", CASES, ids=IDS)
def test_repr_and_construction(cls, args, text):
    value = cls(*args)
    assert repr(value) == text
    assert cls(**dict(zip(cls.__match_args__, args))) == value
    assert tuple(getattr(value, name) for name in cls.__match_args__) == (
        (args[0], MappingProxyType(args[1])) if cls is LengthHistogram else args)


@pytest.mark.parametrize("cls, args, text", CASES, ids=IDS)
def test_equality_only_within_the_class(cls, args, text):
    value, twin = cls(*args), cls(*args)
    assert value == twin and not value != twin
    assert value != args and value.__eq__(args) is NotImplemented
    for other_cls, other_args, _ in CASES:
        if other_cls is not cls:
            assert value != other_cls(*other_args)
            assert value.__eq__(other_cls(*other_args)) is NotImplemented


@pytest.mark.parametrize("cls, args, text", HASHABLE, ids=[c[0].__name__ for c in HASHABLE])
def test_frozen_values_hash_by_their_fields(cls, args, text):
    assert hash(cls(*args)) == hash(cls(*args)) == hash(args)
    assert len({cls(*args), cls(*args)}) == 1


def test_unhashable_records():
    with pytest.raises(TypeError):
        hash(LengthHistogram(3, {2: 1}))  # its counts are a mappingproxy
    with pytest.raises(TypeError):
        hash(ChainCensus(3))


@pytest.mark.parametrize("cls, args, text", FROZEN, ids=[c[0].__name__ for c in FROZEN])
def test_fields_cannot_be_assigned_or_deleted(cls, args, text):
    value = cls(*args)
    for name in cls.__match_args__:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert cls(*args) == value


@pytest.mark.parametrize("cls, args, text", CASES, ids=IDS)
def test_pickle_and_copies_round_trip(cls, args, text):
    value = cls(*args)
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is cls and twin == value and repr(twin) == text


@pytest.mark.parametrize("error, fields", [
    (RouteMismatch(1, 5, 10, 11), ("i", "t", "ie", "brute")),
    (GrowthDomainError(3), ("label",)),
], ids=["RouteMismatch", "GrowthDomainError"])
def test_errors_with_fields_round_trip(error, fields):
    # rebuilt from their fields, not from the message in ``args``
    for twin in (pickle.loads(pickle.dumps(error)), copy.copy(error), copy.deepcopy(error)):
        assert type(twin) is type(error) and str(twin) == str(error)
        assert [getattr(twin, f) for f in fields] == [getattr(error, f) for f in fields]
        assert getattr(twin, "counterexample", None) == getattr(error, "counterexample", None)


def test_census_is_mutable_and_fills_its_tallies():
    census = ChainCensus(4)
    assert census == ChainCensus(4, {}, {}, {})
    census.by_length[5] = 2
    census.n = 5
    assert census == ChainCensus(5, by_length={5: 2})
    assert ChainCensus(4).by_length is not ChainCensus(4).by_length
    del census.min_plus_full


def test_histogram_counts_are_a_read_only_copy():
    counts = {2: 1, 3: 1}
    hist = LengthHistogram(3, counts)
    counts[4] = 1
    assert isinstance(hist.counts, MappingProxyType) and dict(hist.counts) == {2: 1, 3: 1}
    with pytest.raises(TypeError):
        hist.counts[4] = 1


def test_tableau_equality_needs_the_same_order():
    assert Tableau(3, ROWS) != Tableau(4, ROWS)
    assert Tableau(3, [[1, 2], [3]]) == Tableau(3, ROWS)
    assert Tableau._trusted(3, ROWS) == Tableau(3, ROWS)


def test_tableau_keeps_its_derived_values_and_a_trusted_constructor():
    tab = Tableau(3, ROWS)
    assert tab.length == 3 and tab.__dict__["length"] == 3  # stored by the first read
    Tableau._trusted(3, ((2,),))  # not a tableau; _trusted does not look
    with pytest.raises(TableauError):
        Tableau(3, ((2,),))
    with pytest.raises(TableauError):
        pickle.loads(pickle.dumps(Tableau._trusted(3, ((2,),))))  # rebuilt with validation


def test_match_args_destructure_the_fields():
    match ChainDecomposition(Tableau(3, ROWS), (0, 1)):
        case ChainDecomposition(Tableau(n, rows), params):
            assert (n, rows, params) == (3, ROWS, (0, 1))
        case _:
            pytest.fail("no match")


def _modules_after(statement):
    """(modules that ``statement`` adds to a fresh interpreter's ``sys.modules``,
    all the modules loaded after it)."""
    script = ("import sys\nbefore = set(sys.modules)\n" + statement + "\n"
              "print(' '.join(sorted(set(sys.modules) - before)))\n"
              "print(' '.join(sorted(sys.modules)))\n")
    src = os.path.dirname(os.path.dirname(tamari.__file__))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    added, loaded = proc.stdout.splitlines()
    return set(added.split()), set(loaded.split())


# OpenSSL (through hashlib), the cache's lock and the csv reader
CACHE_AND_CSV = {"hashlib", "_hashlib", "fcntl", "csv"}


def test_import_path_loads_no_dataclasses():
    # the package re-exports nothing, so importing it loads no layer
    added, _ = _modules_after("import tamari")
    assert {name for name in added if name.startswith("tamari")} == {"tamari"}
    added, _ = _modules_after("import tamari, tamari.cli")
    assert {name for name in added if name.startswith("tamari")} == {
        "tamari", "tamari.shapes", "tamari.tableaux", "tamari.bijections",
        "tamari.counting", "tamari.fixtures", "tamari.cli"}
    assert not added & {"dataclasses", "inspect"}
    assert not added & CACHE_AND_CSV
    # only ``verify`` loads the property suites, which still use dataclasses
    added, loaded = _modules_after("import tamari.checks")
    assert "tamari.checks" in added and "dataclasses" in loaded


def _modules_after_main(argv):
    """The modules that importing the cli and one ``cli.main(argv)`` call, its
    stdout discarded, add to a fresh interpreter."""
    return _modules_after(
        "import contextlib, io, tamari.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert tamari.cli.main({argv!r}) == 0\n")[0]


def test_only_a_cache_file_loads_openssl(tmp_path):
    chain = tmp_path / "chain.txt"
    chain.write_text(next(enumerate_maximal_chains(4)).to_text())
    for argv in (["table", "--max-n", "4"], ["decompose", "--input", str(chain)]):
        assert not _modules_after_main(argv) & CACHE_AND_CSV, argv
    # the checksum and the lock moved, they did not go: a cache write loads them
    added = _modules_after_main(["nofull", "--max-i", "0", "--cache",
                                 str(tmp_path / "cache.json")])
    assert {"hashlib", "fcntl"} <= added
    assert (tmp_path / "cache.json").exists()


def _committed_csvs():
    return sorted(path for path in (Path(tamari.__file__).parent / "data").iterdir()
                  if path.suffix == ".csv")


def test_the_fixture_reader_agrees_with_csv():
    from tamari import fixtures

    assert len(_committed_csvs()) == 4
    for path in _committed_csvs():
        with path.open(newline="") as handle:
            assert fixtures._rows(path.name) == list(csv.DictReader(handle)), path.name
    # the two tables, rebuilt here through csv exactly as the reader once built them
    length, nofull = {}, {}
    for path in _committed_csvs():
        with path.open(newline="") as handle:
            for row in csv.DictReader(handle):
                if path.name == "table_1_1.csv":
                    length.setdefault(int(row["n"]), {})[int(row["length"])] = int(row["count"])
                else:
                    nofull[int(row["i"]), int(row["n"])] = int(row["count"])
    assert fixtures.length_table() == length
    assert fixtures.nofull_table() == nofull

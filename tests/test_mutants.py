"""The mutation check's anchors: a snippet that no longer occurs once would stop
``tools/mutants.py`` before it runs the suite, so it is caught here instead."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_snippet_occurs_exactly_once_in_src():
    # the checkout's own src, not the imported package: under a mutant, the
    # package on the path is the mutated copy
    mutants = load_mutants()
    sources = {path.name: path.read_text() for path in (ROOT / "src" / "tamari").glob("*.py")}
    assert len({mutant.name for mutant in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for mutant in mutants.MUTANTS:
        assert sources[mutant.path].count(mutant.before) == 1, mutant.name
        assert sum(text.count(mutant.before) for text in sources.values()) == 1, mutant.name

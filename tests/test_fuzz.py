"""Fuzzing of the input parsers: every input parses or raises the module's own error,
and the CLI commands that read a tableau never let an exception escape."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamari import cli
from tamari.bijections import (
    decompose,
    extract_plus_full_set,
    insert_plus_full_set,
    recompose,
)
from tamari.counting import enumerate_maximal_chains
from tamari.tableaux import Tableau, TableauError, plus_full_set_labels

FUZZ = settings(max_examples=300, deadline=None)

# Integers stay small: a huge label is tested on its own, with an allocation
# guard, in test_tableaux; here it could exhaust memory if that guard broke.
small = st.integers(min_value=-10 ** 6, max_value=10 ** 6)
labels = st.one_of(st.integers(min_value=-3, max_value=12),
                   st.integers(min_value=4301, max_value=4310).map("9".__mul__),
                   st.text(alphabet="0123456789-+ x.e", max_size=6))
json_values = st.recursive(
    st.none() | st.booleans() | small | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12)


@st.composite
def tableau_texts(draw):
    """Near-valid fixture text: a header, possibly mangled, then rows of labels."""
    n = draw(st.one_of(st.integers(min_value=-2, max_value=8), labels,
                       st.integers(min_value=10 ** 6, max_value=10 ** 30)))
    length = draw(st.one_of(st.integers(min_value=0, max_value=10), labels))
    header = draw(st.sampled_from(["n={} l={}", "n={} {}", "n={}", "n={} l={} x"]))
    rows = draw(st.lists(st.lists(labels, max_size=5), max_size=6))
    lines = [header.format(n, length)] + [" ".join(map(str, row)) for row in rows]
    return "\n".join(lines)


@FUZZ
@given(st.one_of(tableau_texts(), st.text()))
def test_from_text_parses_or_raises_tableau_error(text):
    try:
        tab = Tableau.from_text(text)
    except TableauError:
        return
    assert Tableau.from_text(tab.to_text()) == tab


@FUZZ
@given(st.one_of(
    json_values,
    st.fixed_dictionaries({"n": st.one_of(st.integers(min_value=-2, max_value=8),
                                          st.integers(min_value=10 ** 6, max_value=10 ** 30),
                                          json_values),
                           "rows": st.one_of(st.lists(st.lists(labels, max_size=5),
                                                      max_size=6), json_values)})))
def test_from_json_dict_parses_or_raises_tableau_error(data):
    try:
        tab = Tableau.from_json_dict(data)
    except TableauError:
        return
    assert Tableau.from_json_dict(json.loads(tab.to_json())) == tab


CHAINS = [tab for n in range(1, 6) for tab in enumerate_maximal_chains(n)]


@st.composite
def staircase_tableaux(draw, max_n=5):
    """Row-strict, column-weak staircase tableaux: most encode no chain, a few do."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    rows = []
    for k in range(n - 1, 0, -1):
        row = []
        for y in range(k):
            least = max(row[-1] + 1 if row else 1, rows[-1][y] if rows else 1)
            row.append(least + draw(st.integers(min_value=0, max_value=2)))
        rows.append(row)
    rank = {v: j for j, v in enumerate(sorted({v for row in rows for v in row}), start=1)}
    return {"n": n, "rows": [[rank[v] for v in row] for row in rows]}


def _as_text(data):
    lines = [f"n={data['n']} l={max((v for row in data['rows'] for v in row), default=0)}"]
    return "\n".join(lines + [" ".join(map(str, row)) for row in data["rows"]])


staircases = st.one_of(st.sampled_from(CHAINS).map(Tableau.to_json_dict), staircase_tableaux())
texts = staircases.map(_as_text)
mangled = st.builds(lambda text, k, c: text[:k] + c + text[k + 1:], texts,
                    st.integers(min_value=0, max_value=40), st.sampled_from(" \n0x-="))
surgery_inputs = st.one_of(
    staircases.map(json.dumps), texts, mangled, st.text(max_size=40),
    st.fixed_dictionaries({"n": small, "rows": json_values}).map(json.dumps))
surgery_commands = st.one_of(
    st.just(["decompose"]),
    small.map(lambda r: ["grow", f"--r={r}"]),
    st.integers(min_value=-2, max_value=12).map(lambda r: ["grow", f"--r={r}"]),
    st.lists(st.integers(min_value=-2, max_value=12), max_size=4).map(
        lambda levels: ["recompose", "--params=" + ",".join(map(str, sorted(levels)))]),
    st.lists(small, max_size=3).map(
        lambda levels: ["recompose", "--params=" + ",".join(map(str, levels))]),
    st.text(alphabet="0123456789,- x", max_size=6).map(
        lambda params: ["recompose", "--params=" + params]))


@FUZZ
@given(surgery_commands, st.sampled_from(["ascii", "json"]), surgery_inputs)
def test_surgery_commands_never_raise(command, style, stdin):
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("sys.stdin", io.StringIO(stdin))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(command + ["--format", style])
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:")
        assert len(err.getvalue().strip().splitlines()) == 1


@FUZZ
@given(staircase_tableaux(max_n=7))
def test_surgery_keeps_its_contract_on_every_staircase_tableau(data):
    """Chain or not, a validated staircase tableau either makes ``decompose`` raise
    TableauError or decomposes into a valid plus-full-set-free base that
    recomposes to it; growth at every level of its domain gives a valid
    tableau that extraction maps back."""
    chain = Tableau(data["n"], data["rows"])
    try:
        parts = decompose(chain)
    except TableauError:
        pass
    else:
        base = Tableau(parts.base.n, parts.base.rows)
        assert base.is_staircase and plus_full_set_labels(base) == ()
        assert recompose(parts) == chain
    labels = plus_full_set_labels(chain)
    for r in range(labels[0] if labels else chain.length + 1):
        grown = insert_plus_full_set(chain, r)
        fresh = Tableau(grown.n, grown.rows)  # scanned, not read from what growth stored
        assert fresh.is_staircase
        assert plus_full_set_labels(grown) == plus_full_set_labels(fresh)
        assert extract_plus_full_set(fresh) == (r, chain)

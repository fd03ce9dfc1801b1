"""Fuzzing of the input parsers: every input parses or raises the module's own error."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from tamari.shapes import ShapeError, parse_partition
from tamari.tableaux import Tableau, TableauError

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


@FUZZ
@given(st.one_of(st.text(alphabet="0123456789,- ", max_size=20), st.text(),
                 st.lists(labels, max_size=6).map(lambda parts: ",".join(map(str, parts)))))
def test_parse_partition_parses_or_raises_shape_error(text):
    try:
        parts = parse_partition(text)
    except ShapeError:
        return
    assert all(a >= b > 0 for a, b in zip(parts, parts[1:] + (1,)))

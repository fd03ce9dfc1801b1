"""The benchmark's tracer names ``tamari`` functions and result fields by string;
a rename in ``src`` would silently drop a span or a counter, so pin them here."""

import importlib
import importlib.util
from pathlib import Path

from tamari.counting import census, count_by_length

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    spans = load_spans()
    for module_name, attr, span_name in spans.LAYER_FUNCTIONS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), span_name


def test_result_counters_read_existing_fields():
    counters = load_spans().RESULT_COUNTERS
    assert count_by_length(3).counts == {2: 1, 3: 1}
    assert census(3).by_length == {2: 1, 3: 1}
    assert counters["counting.dp"][1](count_by_length(3)) == 2
    assert counters["counting.census"][1](census(3)) == 2

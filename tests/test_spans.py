"""The benchmark's tracer names ``tamari`` functions and result fields by string;
a rename in ``src`` would silently drop a span or a counter, so pin them here."""

import importlib
import importlib.util
from pathlib import Path

from tamari.counting import count_by_length

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# traced names whose code is deleted: the tracer skips them, and their metrics read 0
DELETED = {("tamari.counting", "census")}


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    spans = load_spans()
    traced = {(module_name, attr) for module_name, attr, _ in spans.LAYER_FUNCTIONS}
    assert DELETED <= traced
    for module_name, attr, span_name in spans.LAYER_FUNCTIONS:
        found = getattr(importlib.import_module(module_name), attr, None)
        if (module_name, attr) in DELETED:
            assert found is None, span_name
        else:
            assert callable(found), span_name


def test_result_counters_read_existing_fields():
    counters = load_spans().RESULT_COUNTERS
    assert count_by_length(3).counts == {2: 1, 3: 1}
    assert counters["counting.dp"][1](count_by_length(3)) == 2

"""In-memory spans around the calls into each layer of ``tamari``.

The benchmark installs the tracer in a child process after ``import tamari``:
every function listed in ``LAYER_FUNCTIONS`` is replaced, in every ``tamari``
module that refers to it, by a wrapper that records one span (name, start,
end, parent).  Spans live in a flat ``array('q')`` and are written out when
the child ends; the per-layer metrics are computed from them.

Nothing here changes what the program computes: each wrapper calls the
original function and returns its result.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from array import array
from collections import defaultdict

# (module defining it, attribute, span name); the span name's prefix is the layer.
LAYER_FUNCTIONS = (
    ("tamari.shapes", "partitions_in_staircase", "shapes.vertices"),
    ("tamari.shapes", "covers_with_strips", "shapes.covers"),
    ("tamari.counting", "count_by_length", "counting.dp"),
    ("tamari.counting", "census", "counting.census"),
    ("tamari.counting", "nofull_initial_values", "counting.ie"),
    ("tamari.counting", "chains_count", "counting.recursion"),
    ("tamari.tableaux", "plus_full_set_labels", "tableaux.classify"),
    ("tamari.bijections", "decompose", "bijections.decompose"),
    ("tamari.bijections", "recompose", "bijections.recompose"),
    ("tamari.bijections", "insert_plus_full_set", "bijections.insert"),
    ("tamari.bijections", "extract_plus_full_set", "bijections.extract"),
    ("tamari.cli", "main", "cli.main"),
    ("tamari.cli", "save_cache", "cli.cache_write"),
    ("tamari.cli", "load_cache", "cli.cache_read"),
    ("tamari.fixtures", "length_table", "fixtures.load"),
    ("tamari.fixtures", "nofull_table", "fixtures.load"),
)

# Counters taken from a wrapped call's result: span name -> (counter, function).
RESULT_COUNTERS = {
    "shapes.vertices": ("shapes.vertices", len),
    "shapes.covers": ("shapes.edges", len),
    "counting.dp": ("counting.hist_lengths", lambda hist: len(hist.counts)),
    "counting.census": ("counting.census_chains", lambda c: sum(c.by_length.values())),
    "tableaux.classify": ("tableaux.plus_full_sets", len),
    "bijections.decompose": ("bijections.levels", lambda parts: len(parts.params)),
}

FIELDS = 4  # name id, start ns, end ns, parent span index (-1 for a root)


class Tracer:
    """Records spans into one flat integer array; spans nest by call order."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("q")
        self._stack = [-1]
        self.counters: dict[str, int] = defaultdict(int)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        index = len(self.spans) // FIELDS
        self.spans.extend((self._name_id(name), time.perf_counter_ns(), 0, self._stack[-1]))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index * FIELDS + 2] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself around one of its own steps."""
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, name: str, fn):
        counter = RESULT_COUNTERS.get(name)
        counters = self.counters

        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if counter is not None:
                counters[counter[0]] += counter[1](result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_stream(self, name: str, fn):
        """Wrap a generator function: each ``next`` is one span, so work the
        consumer does between items is not charged to the stream."""
        counters = self.counters

        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                index = self.open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self.close(index)
                counters[name + "_chains"] += 1
                yield item

        traced.__wrapped__ = fn
        return traced

    def overhead_estimate(self, calls: int = 20_000) -> dict[str, float]:
        """Spans recorded, times the seconds one wrapped call adds to a no-op.

        This estimates the tracing overhead without the host's run-to-run noise,
        which the traced-minus-untraced difference carries in full.
        """
        def noop() -> None:
            return None

        traced = Tracer().wrap("noop", noop)
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        wrapped = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        per_call = (wrapped - (time.perf_counter() - start)) / calls
        spans = len(self.spans) // FIELDS
        return {"spans": spans, "per_span_s": per_call, "estimate_s": spans * per_call}

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct children.
        """
        spans = self.spans
        count = len(spans) // FIELDS
        child_ns = [0] * count
        for index in range(count):
            parent = spans[index * FIELDS + 3]
            if parent >= 0:
                child_ns[parent] += spans[index * FIELDS + 2] - spans[index * FIELDS + 1]
        table: dict[str, dict[str, float]] = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for index in range(count):
            name_id, start, end, _ = spans[index * FIELDS:(index + 1) * FIELDS]
            row = table[self.names[name_id]]
            row["calls"] += 1
            row["total_s"] += (end - start) / 1e9
            row["self_s"] += (end - start - child_ns[index]) / 1e9
        return table

    def write(self, stem: str) -> None:
        """Write the raw spans (little-endian int64 quads) and their name table."""
        with open(stem + ".i64", "wb") as handle:
            spans = array("q", self.spans)
            if sys.byteorder != "little":
                spans.byteswap()
            spans.tofile(handle)
        with open(stem + ".json", "w") as handle:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"],
                       "names": self.names, "spans": len(self.spans) // FIELDS,
                       "counters": dict(self.counters)}, handle, indent=1)


def install(tracer: Tracer) -> None:
    """Replace each layer function by its traced wrapper wherever ``tamari`` refers to it.

    Also re-points default arguments that hold an original (``nofull_initial_values``
    takes ``count_by_length`` as a default), so nested calls are traced too, and
    wraps the chain stream, the stream's ``Tableau`` constructor and
    ``Tableau.from_text``.
    """
    import tamari.cli  # noqa: F401  (loads every layer module)
    from tamari import counting, tableaux

    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "tamari" or name.startswith("tamari."))]
    replaced: dict[int, object] = {}
    for module_name, attr, span_name in LAYER_FUNCTIONS:
        original = getattr(sys.modules[module_name], attr, None)
        if original is None:  # gone from this version of the program: its metrics read 0
            continue
        replaced[id(original)] = tracer.wrap(span_name, original)
    stream = counting.enumerate_maximal_chains
    replaced[id(stream)] = tracer.wrap_stream("counting.stream", stream)

    for module in modules:
        for value in vars(module).values():
            defaults = getattr(value, "__defaults__", None)
            if defaults and any(id(d) in replaced for d in defaults):
                value.__defaults__ = tuple(replaced.get(id(d), d) for d in defaults)
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in replaced:
                setattr(module, attr, replaced[id(value)])

    # The stream builds its tableaux through the name ``Tableau`` in ``counting``.
    counting.Tableau = tracer.wrap("tableaux.construct", tableaux.Tableau)
    from_text = tableaux.Tableau.from_text.__func__
    tableaux.Tableau.from_text = classmethod(tracer.wrap("tableaux.from_text", from_text))

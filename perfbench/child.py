"""One benchmark child process: set-up, one workload run, and its checks.

Run from the root of a checkout (``perfbench/run.py`` starts it):

    python3 perfbench/child.py setup
    python3 perfbench/child.py gen --seed S             # surgery inputs, JSON on stdout
    python3 perfbench/child.py table --trace 0|1
    python3 perfbench/child.py nofull --trace 0|1
    python3 perfbench/child.py surgery --trace 0|1 --seconds X < inputs.json
    python3 perfbench/child.py selftest

Each mode prints one JSON object as its last line of standard output.  The
program is imported from ``src/`` of the current directory; output the CLI
prints is captured in memory and parsed by the checks.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time
from math import comb

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from spans import Tracer, install  # noqa: E402  (the benchmark's own module)

SRC = os.path.abspath("src")  # the checkout's program, never an installed copy
sys.path.insert(0, SRC)

OUT_DIR = os.path.join("perfbench", "out")
CALIBRATION_LOOP = 300_000
TABLE_MAX_N = 9   # table: `table --max-n 9`, every order of the fixture
NOFULL_MAX_I = 3  # nofull: `nofull --max-i 3` ...
STREAM_ORDER = 6  # ... then the order-6 oracle stream, classified

# Surgery input mix: random-walk maximal chains of WALK_ORDERS, plus chains grown
# by ``recompose`` from plus-full-free bases of BASE_ORDERS with LEVELS levels.
WALK_ORDERS = (7, 8, 9, 10)
PER_WALK_ORDER = 150
BASE_ORDERS = (5, 6, 7)
LEVELS = (2, 3, 4)
PER_GROWN_STRATUM = 50


class Checks:
    """Tally of checked outputs; the first few failures are kept as messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(what)

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "failures": self.messages}


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop; recorded as host jitter, never used to scale."""
    start = time.perf_counter()
    total = 0
    for value in range(CALIBRATION_LOOP):
        total += value * value
    return time.perf_counter() - start


def run_cli(argv: list[str]) -> tuple[int, str, float]:
    """Call ``tamari.cli.main`` in-process; returns exit code, its stdout and wall seconds."""
    import tamari.cli
    buffer = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buffer):
        code = tamari.cli.main(argv)
    return code, buffer.getvalue(), time.perf_counter() - start


def parse_csv(text: str, header: str) -> dict[tuple[int, int], int] | None:
    """Cells of a three-column integer CSV, or None if the text is not one."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != header:
        return None
    cells = {}
    try:
        for line in lines[1:]:
            a, b, value = line.split(",")
            cells[(int(a), int(b))] = int(value)
    except ValueError:
        return None
    return cells


# ---------------------------------------------------------------------------
# checks (also driven by the self-test with corrupted outputs)


def check_table(code: int, text: str, max_n: int, checks: Checks) -> None:
    """Counts by length against the fixture columns where committed, and for every
    order against the recursion (offsets -1..5) and the longest-chain product formula."""
    from tamari import counting, fixtures
    checks.expect(code == 0, f"table exited with {code}")
    cells = parse_csv(text, "n,length,count") or {}
    published = fixtures.length_table()
    nofull = fixtures.nofull_table()
    for n in range(1, max_n + 1):
        got = {length: count for (order, length), count in cells.items() if order == n}
        if n in published:
            for length in set(published[n]) | set(got):
                checks.expect(got.get(length) == published[n].get(length),
                              f"T_{n} length {length}: {got.get(length)}")
        for i in range(-1, 6):
            if n + i >= comb(n, 2):  # the recursion counts chains below the longest
                break
            row = {t: nofull.get((i, t), 0) for t in range(1, 2 * i + 4)}
            checks.expect(got.get(n + i, 0) == counting.chains_count(i, n, row),
                          f"T_{n} offset {i}: {got.get(n + i)}")
        checks.expect(got.get(comb(n, 2)) == counting.longest_chain_count(n),
                      f"T_{n} longest: {got.get(comb(n, 2))}")


def check_nofull(code: int, text: str, max_i: int, cache_path: str, checks: Checks) -> None:
    """No-plus-full cells against ``table_5_1.csv``; the written cache reloads equal."""
    import tamari.cli
    from tamari import fixtures
    checks.expect(code == 0, f"nofull exited with {code}")
    cells = parse_csv(text, "i,n,count") or {}
    published = fixtures.nofull_table()
    wanted = {(i, t) for i in range(-1, max_i + 1) for t in range(1, 2 * i + 4)}
    checks.expect(set(cells) == wanted, f"nofull cells {sorted(set(cells) ^ wanted)}")
    cache = tamari.cli.load_cache(cache_path)
    for i, t in sorted(wanted):
        checks.expect(cells.get((i, t)) == published.get((i, t), 0),
                      f"N_{i}({t}): {cells.get((i, t))}")
        checks.expect(tamari.cli.cache_get(cache, i, t) == cells.get((i, t)),
                      f"cache N_{i}({t}): {tamari.cli.cache_get(cache, i, t)}")


def check_stream(by_length: dict[int, int], nofull: dict[int, int], checks: Checks) -> None:
    """Stream tally by length against the order's column of ``table_1_1.csv``; its
    no-plus-full tally against ``table_5_1.csv`` (offsets <= 5) and
    inclusion-exclusion over the DP (beyond)."""
    from tamari import counting, fixtures
    n = STREAM_ORDER
    published = fixtures.length_table()[n]
    for length in set(published) | set(by_length):
        checks.expect(by_length.get(length) == published.get(length),
                      f"stream T_{n} length {length}: {by_length.get(length)}")
    table = fixtures.nofull_table()
    for length in range(n - 1, comb(n, 2) + 1):
        i = length - n
        want = table.get((i, n), 0) if i <= 5 else counting.nofull_initial_values(i, max_t=n)[n]
        checks.expect(nofull.get(length, 0) == want,
                      f"stream N_{i}({n}): {nofull.get(length, 0)}")


def surgery_op(record: dict, stats: dict | None = None) -> tuple[float, bool, str]:
    """One surgery op on one input; returns op seconds, whether every check held, and why not.

    The op is ``from_text`` -> ``decompose`` -> ``recompose``, then
    ``insert_plus_full_set`` at the record's level and ``extract_plus_full_set``.
    """
    from tamari import bijections, tableaux
    clock = time.perf_counter
    t0 = clock()
    chain = tableaux.Tableau.from_text(record["text"])
    t1 = clock()
    parts = bijections.decompose(chain)
    t2 = clock()
    back = bijections.recompose(parts)
    t3 = clock()
    grown = bijections.insert_plus_full_set(chain, record["r"])
    level, smaller = bijections.extract_plus_full_set(grown)
    t4 = clock()
    if stats is not None:
        stats.setdefault(chain.n, ([], []))
        stats[chain.n][0].append(t2 - t1)
        stats[chain.n][1].append(t3 - t2)
    if back != chain:
        return t4 - t0, False, "recompose(decompose(c)) != c"
    if len(parts.params) != record["levels"]:
        return t4 - t0, False, f"{len(parts.params)} levels, expected {record['levels']}"
    if (level, smaller) != (record["r"], chain):
        return t4 - t0, False, f"extract(insert(c, {record['r']})) != ({record['r']}, c)"
    if "base" in record and (parts.base != record["base"] or parts.params != record["params"]):
        return t4 - t0, False, "decompose did not return the base and levels grown from"
    return t4 - t0, True, ""


# ---------------------------------------------------------------------------
# workloads


def run_table(tracer: Tracer | None) -> dict:
    checks = Checks()
    with region(tracer, "bench.table"):
        code, text, wall = run_cli(
            ["table", "--max-n", str(TABLE_MAX_N), "--allow-huge", "--format", "csv"])
    check_table(code, text, TABLE_MAX_N, checks)
    return {"solve_s": wall, **checks.as_dict()}


def run_nofull(tracer: Tracer | None) -> dict:
    from tamari import counting, tableaux
    checks = Checks()
    os.makedirs(OUT_DIR, exist_ok=True)
    cache_path = os.path.join(OUT_DIR, f"nofull-cache-{os.getpid()}.json")
    if os.path.exists(cache_path):
        os.unlink(cache_path)
    try:
        with region(tracer, "bench.nofull"):
            code, text, nofull_s = run_cli(["nofull", "--max-i", str(NOFULL_MAX_I),
                                            "--format", "csv", "--cache", cache_path])
        start = time.perf_counter()
        with region(tracer, "bench.stream"):
            by_length: dict[int, int] = {}
            nofull: dict[int, int] = {}
            for tab in counting.enumerate_maximal_chains(STREAM_ORDER):
                by_length[tab.length] = by_length.get(tab.length, 0) + 1
                if not tableaux.plus_full_set_labels(tab):
                    nofull[tab.length] = nofull.get(tab.length, 0) + 1
        stream_s = time.perf_counter() - start
        check_nofull(code, text, NOFULL_MAX_I, cache_path, checks)
    finally:
        if os.path.exists(cache_path):
            os.unlink(cache_path)
    check_stream(by_length, nofull, checks)
    return {"solve_s": nofull_s + stream_s, "nofull_s": nofull_s, "stream_s": stream_s,
            **checks.as_dict()}


def run_surgery(tracer: Tracer | None, seconds: float, records: list[dict]) -> dict:
    """Closed loop, one client: passes over the inputs until ``seconds`` have elapsed.

    ``solve_s`` is the sum over the inputs of each input's fastest op: one
    pass with every op at its best.
    """
    from tamari import tableaux
    for record in records:
        if "base" in record:
            record["base"] = tableaux.Tableau.from_json_dict(record["base"])
            record["params"] = tuple(record["params"])
    checks = Checks()
    latencies: list[float] = []
    best: list[float | None] = [None] * len(records)
    passes: list[float] = []
    by_order: dict[int, tuple[list[float], list[float]]] = {}
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        busy = 0.0
        for index, record in enumerate(records):
            try:
                with region(tracer, "bench.op"):
                    op_s, ok, why = surgery_op(record, by_order)
            except Exception as exc:  # a failed op is counted, not fatal
                checks.expect(False, f"{type(exc).__name__}: {exc}")
                continue
            checks.expect(ok, why)
            latencies.append(op_s)
            busy += op_s
            if best[index] is None or op_s < best[index]:
                best[index] = op_s
            if time.perf_counter() >= deadline:
                break
        else:
            passes.append(busy)
    if not passes:  # a run shorter than one pass: scale the partial pass to the whole set
        passes.append(sum(latencies) * len(records) / max(len(latencies), 1))
    return {"solve_s": sum(t for t in best if t is not None), "best_op_s": best,
            "passes": passes, "latencies": latencies,
            "decompose_us_p50_by_order": {n: statistics.median(d) * 1e6
                                          for n, (d, _) in sorted(by_order.items())},
            "recompose_us_p50_by_order": {n: statistics.median(r) * 1e6
                                          for n, (_, r) in sorted(by_order.items())},
            **checks.as_dict()}


def region(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


# ---------------------------------------------------------------------------
# surgery inputs


def random_chain(n: int, rng: random.Random):
    """A maximal chain of the n-th lattice whose every step takes a uniformly random upper cover.

    Chains drawn uniformly from all maximal chains almost never carry a
    plus-full-set at these orders (long chains dominate the count), so the
    surgery mix uses this walk, whose chains average about one.
    """
    from tamari import shapes, tableaux
    vertex = shapes.staircase(n - 1)
    chain = [vertex]
    while vertex:
        vertex = rng.choice(shapes.covers_with_strips(vertex, n))[0]
        chain.append(vertex)
    return tableaux.chain_to_tableau(chain[::-1], n)


def legal_level(chain, rng: random.Random) -> int:
    """A level where ``insert_plus_full_set`` is defined: below the minimal plus-full-set."""
    from tamari import tableaux
    labels = tableaux.plus_full_set_labels(chain)
    return rng.randint(0, labels[0] - 1 if labels else chain.length)


def generate(seed: int) -> list[dict]:
    from tamari import bijections, tableaux
    rng = random.Random(seed)
    records = []
    for n in WALK_ORDERS:
        for _ in range(PER_WALK_ORDER):
            chain = random_chain(n, rng)
            records.append({"text": chain.to_text(), "r": legal_level(chain, rng),
                            "levels": len(tableaux.plus_full_set_labels(chain))})
    for n in BASE_ORDERS:
        for levels in LEVELS:
            for _ in range(PER_GROWN_STRATUM):
                base = random_chain(n, rng)
                while tableaux.plus_full_set_labels(base):
                    base = random_chain(n, rng)
                params = tuple(sorted(rng.randint(0, base.length) for _ in range(levels)))
                chain = bijections.recompose(bijections.ChainDecomposition(base, params))
                records.append({"text": chain.to_text(), "r": legal_level(chain, rng),
                                "levels": levels, "base": base.to_json_dict(),
                                "params": list(params)})
    rng.shuffle(records)
    return records


def input_mix(records: list[dict]) -> dict:
    orders: dict[int, int] = {}
    for record in records:
        n = int(record["text"].split()[0][2:])
        orders[n] = orders.get(n, 0) + 1
    return {"inputs": len(records), "orders": dict(sorted(orders.items())),
            "share_ge2_plus_full_sets": sum(r["levels"] >= 2 for r in records) / len(records),
            "mean_levels": statistics.fmean(r["levels"] for r in records)}


# ---------------------------------------------------------------------------
# self-test: every check must fire on a corrupted output


def self_test() -> dict:
    import tamari.cli
    from tamari import counting, fixtures, tableaux
    cases = {}

    # A correct table output, then the same with one histogram cell changed.
    lines = ["n,length,count"]
    for n in range(1, TABLE_MAX_N + 1):
        if n in fixtures.length_table():
            cells = fixtures.length_table()[n]
        else:
            nofull = fixtures.nofull_table()
            cells = {n + i: counting.chains_count(
                i, n, {t: nofull.get((i, t), 0) for t in range(1, 2 * i + 4)})
                for i in range(-1, 6)}
            cells[comb(n, 2)] = counting.longest_chain_count(n)
        lines += [f"{n},{length},{count}" for length, count in sorted(cells.items())]
    table = "\n".join(lines)
    corrupt_table = table.replace("\n7,12,", "\n7,12,1", 1)
    for name, text in (("table", table), ("table_corrupt_cell", corrupt_table)):
        checks = Checks()
        check_table(0, text, TABLE_MAX_N, checks)
        cases[name] = checks.as_dict()

    # A correct nofull output with its cache, then one nofull cell changed.
    os.makedirs(OUT_DIR, exist_ok=True)
    cache_path = os.path.join(OUT_DIR, f"selftest-cache-{os.getpid()}.json")
    cache = tamari.cli.empty_cache()
    lines = ["i,n,count"]
    for i in range(-1, NOFULL_MAX_I + 1):
        for t in range(1, 2 * i + 4):
            value = fixtures.nofull_table().get((i, t), 0)
            tamari.cli.cache_update(cache, i, t, value, "selftest")
            lines.append(f"{i},{t},{value}")
    tamari.cli.save_cache(cache_path, cache)
    nofull = "\n".join(lines)
    corrupt_nofull = nofull.replace("\n2,7,", "\n2,7,9", 1)
    try:
        for name, text in (("nofull", nofull), ("nofull_corrupt_cell", corrupt_nofull)):
            checks = Checks()
            check_nofull(0, text, NOFULL_MAX_I, cache_path, checks)
            cases[name] = checks.as_dict()
    finally:
        os.unlink(cache_path)

    # A correct surgery input, then the same chain with two labels of its first row swapped.
    rng = random.Random(7)
    chain = random_chain(7, rng)
    record = {"text": chain.to_text(), "r": legal_level(chain, rng),
              "levels": len(tableaux.plus_full_set_labels(chain))}
    head, first, *rest = record["text"].splitlines()
    labels = first.split()
    labels[0], labels[1] = labels[1], labels[0]
    corrupt = dict(record, text="\n".join([head, " ".join(labels), *rest]))
    for name, rec in (("surgery", record), ("surgery_corrupt_tableau", corrupt)):
        checks = Checks()
        try:
            _, ok, why = surgery_op(rec)
            checks.expect(ok, why)
        except Exception as exc:
            checks.expect(False, f"{type(exc).__name__}: {exc}")
        cases[name] = checks.as_dict()
    return cases


# ---------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "gen", "table", "nofull",
                                         "surgery", "selftest"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace-out", default=None, help="file stem for the raw spans")
    args = parser.parse_args(argv)

    records = json.load(sys.stdin) if args.mode == "surgery" else None
    calibration = [calibrate()]
    start = time.perf_counter()
    import tamari
    import tamari.cli  # noqa: F401
    if not os.path.abspath(tamari.__file__).startswith(SRC + os.sep):
        print(f"error: imported tamari from {tamari.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    from tamari import fixtures
    fixtures.length_table()
    fixtures.nofull_table()
    result: dict = {"setup_s": time.perf_counter() - start}

    if args.mode == "gen":
        records = generate(args.seed)
        print(json.dumps({"records": records, "mix": input_mix(records)}))
        return 0
    if args.mode == "selftest":
        print(json.dumps({"cases": self_test()}))
        return 0
    if args.mode == "table":
        result.update(run_table(tracer))
    elif args.mode == "nofull":
        result.update(run_nofull(tracer))
    elif args.mode == "surgery":
        result.update(run_surgery(tracer, args.seconds, records))
    calibration.append(calibrate())
    result.update(peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  calibration_s=calibration)
    if tracer is not None:
        result["spans"] = tracer.summary()
        result["counters"] = dict(tracer.counters)
        result["span_overhead"] = tracer.overhead_estimate()
        if args.trace_out:
            tracer.write(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

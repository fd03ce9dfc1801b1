"""tamari-chains benchmark: cold-start workloads, timed end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tables --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 50        # every workload, one table
    python3 perfbench/run.py --self-test                        # checks must fire on bad outputs

Every workload runs in fresh child processes, one at a time (``child.py``),
with a set-up-only child after each repetition.  With ``--trace 0`` the last
line of standard output is one JSON object with the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced repetition.  The
full record of a run, with sample counts, host, input mix and jitter, is
written to ``perfbench/out/BENCH_<workload>_seed<seed>_trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join("perfbench", "out")
# A repetition of a workload: the children it runs, one after the other.
REPETITION = {"tables": ("table", "nofull"), "surgery": ("surgery",)}
WORKLOADS = tuple(REPETITION)
SURGERY_CHILD_S = 5.0     # a surgery child's share of the run: passes until it has passed
SETUP_PROBES = 4          # set-up-only children before the first repetition
TIME_LIMIT_S = 170.0      # one workload run, set-up and checks included

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER_UNITS = {
    "shapes.vertices": "count", "shapes.edges": "count", "shapes.vertices_s": "s",
    "shapes.covers_s": "s", "shapes.covers_us_per_vertex": "us",
    "counting.dp_s": "s", "counting.hist_lengths": "count", "counting.census_s": "s",
    "counting.census_chains": "count", "counting.ie_s": "s", "counting.recursion_us": "us",
    "counting.stream_chains": "count", "counting.stream_chains_per_s": "1/s",
    "tableaux.construct_us": "us", "tableaux.from_text_us": "us", "tableaux.classify_us": "us",
    "tableaux.plus_full_sets": "count",
    "bijections.decompose_us": "us", "bijections.recompose_us": "us",
    "bijections.insert_us": "us", "bijections.extract_us": "us",
    "bijections.levels_mean": "levels",
    "cli.self_s": "s", "cli.cache_write_s": "s", "fixtures.load_s": "s",
    "trace.overhead_s": "s",
}


class ChildFailed(RuntimeError):
    pass


def spawn(args: list[str], deadline: float, stdin: str | None = None) -> dict:
    """Run one child to completion and return its last stdout line as JSON."""
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([sys.executable, CHILD, *args], input=stdin, text=True,
                              capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"child {args} ran past the time limit") from None
    if proc.returncode != 0:
        raise ChildFailed(f"child {args} exited with {proc.returncode}: {proc.stderr.strip()[-800:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise ChildFailed(f"child {args} printed no result") from None


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` if there is one (an exported tree has none)."""
    try:
        with open(os.path.join(".git", "HEAD")) as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", *head[5:].split("/"))) as handle:
                return handle.read().strip()
        return head
    except OSError:
        return "unknown"


def host() -> dict:
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"cores": cores, "python": platform.python_version(), "commit": git_commit()}


def spread(values: list[float]) -> float:
    """(max - min) / median: the within-run jitter recorded with each result."""
    return (max(values) - min(values)) / statistics.median(values) if len(values) > 1 else 0.0


def metric(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def end_to_end(name: str, setups: list[float], reps: list[list[dict]]) -> dict:
    """End-to-end metrics of untraced repetitions, each with its sample count.

    The work of each timed part is fixed, and the shared host only ever adds
    time to it, in slow phases that can outlast a run.  So ``solve_s`` takes
    each part at its fastest in the run.  For tables, that is the fastest cold
    ``table`` child plus the fastest cold ``nofull`` child; for surgery, the
    sum over the inputs of each input's fastest op, which catches the brief
    fast moments a slow phase still has.  The median repetition is kept as
    ``solve_median_s``.  ``setup_s`` is the median of the short set-ups, which
    are spread over the whole run.
    """
    children = [child for rep in reps for child in rep]
    rss = [max(child["peak_rss_mib"] for child in rep) for rep in reps]
    metrics = {"setup_s": metric(statistics.median(setups), "s", len(setups))}
    if name == "surgery":
        latencies = [t for child in children for t in child["latencies"]]
        best = [min((t for t in column if t is not None), default=0.0)
                for column in zip(*(child["best_op_s"] for child in children))]
        passes = [p for child in children for p in child["passes"]]
        metrics["solve_s"] = metric(sum(best), "s", len(latencies))
        metrics["solve_median_s"] = metric(statistics.median(passes), "s", len(passes))
    else:
        def fastest(mode: str, field: str) -> float:
            return min(child[field] for child in children if child["mode"] == mode)

        solves = [sum(child["solve_s"] for child in rep) for rep in reps]
        metrics["solve_s"] = metric(fastest("table", "solve_s") + fastest("nofull", "solve_s"),
                                    "s", len(reps))
        metrics["solve_median_s"] = metric(statistics.median(solves), "s", len(solves))
    metrics["peak_rss_mib"] = metric(statistics.median(rss), "MiB", len(rss))
    if name == "tables":
        metrics["table_s"] = metric(fastest("table", "solve_s"), "s", len(reps))
        metrics["nofull_s"] = metric(fastest("nofull", "nofull_s"), "s", len(reps))
        metrics["stream_s"] = metric(fastest("nofull", "stream_s"), "s", len(reps))
    if name == "surgery":
        # p99 needs at least ten samples beyond it.
        p99 = statistics.quantiles(latencies, n=100)[98] if len(latencies) >= 1000 else max(latencies)
        metrics["op_p50_us"] = metric(statistics.median(latencies) * 1e6, "us", len(latencies))
        metrics["op_p99_us"] = metric(p99 * 1e6, "us", len(latencies))
        metrics["ops_per_s"] = metric(len(latencies) / sum(latencies), "1/s", len(latencies))
    return metrics


def merge_traces(children: list[dict]) -> tuple[dict, dict]:
    """Span summaries and counters of several traced children, summed by name."""
    spans: dict[str, dict[str, float]] = {}
    counters: dict[str, int] = {}
    for child in children:
        for name, row in child["spans"].items():
            total = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in total:
                total[key] += row[key]
        for name, value in child["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return spans, counters


def per_layer(spans: dict, counters: dict, overhead_s: float) -> dict:
    """Per-layer metrics from a traced repetition; self time excludes child spans."""

    def total(name: str) -> float:
        return spans.get(name, {}).get("total_s", 0.0)

    def self_s(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    def per_call_us(name: str) -> float:
        calls = spans.get(name, {}).get("calls", 0)
        return total(name) / calls * 1e6 if calls else 0.0

    stream_s = total("counting.stream")
    decomposes = spans.get("bijections.decompose", {}).get("calls", 0)
    values = {
        "shapes.vertices": counters.get("shapes.vertices", 0),
        "shapes.edges": counters.get("shapes.edges", 0),
        "shapes.vertices_s": total("shapes.vertices"),
        "shapes.covers_s": total("shapes.covers"),
        "shapes.covers_us_per_vertex": per_call_us("shapes.covers"),
        "counting.dp_s": self_s("counting.dp"),
        "counting.hist_lengths": counters.get("counting.hist_lengths", 0),
        "counting.census_s": self_s("counting.census"),
        "counting.census_chains": counters.get("counting.census_chains", 0),
        "counting.ie_s": self_s("counting.ie"),
        "counting.recursion_us": per_call_us("counting.recursion"),
        "counting.stream_chains": counters.get("counting.stream_chains", 0),
        "counting.stream_chains_per_s":
            counters.get("counting.stream_chains", 0) / stream_s if stream_s else 0.0,
        "tableaux.construct_us": per_call_us("tableaux.construct"),
        "tableaux.from_text_us": per_call_us("tableaux.from_text"),
        "tableaux.classify_us": per_call_us("tableaux.classify"),
        "tableaux.plus_full_sets": counters.get("tableaux.plus_full_sets", 0),
        "bijections.decompose_us": per_call_us("bijections.decompose"),
        "bijections.recompose_us": per_call_us("bijections.recompose"),
        "bijections.insert_us": per_call_us("bijections.insert"),
        "bijections.extract_us": per_call_us("bijections.extract"),
        "bijections.levels_mean":
            counters.get("bijections.levels", 0) / decomposes if decomposes else 0.0,
        "cli.self_s": sum((row["self_s"] for name, row in spans.items()
                           if name.startswith("cli.")), 0.0),
        "cli.cache_write_s": total("cli.cache_write"),
        "fixtures.load_s": total("fixtures.load"),
        "trace.overhead_s": overhead_s,
    }
    return {name: metric(value, PER_LAYER_UNITS[name], 1) for name, value in values.items()}


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    """One run of one workload; returns the full record (raises ChildFailed)."""
    started = time.monotonic()
    deadline = started + TIME_LIMIT_S
    record: dict = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                    "host": host()}
    setups = [spawn(["setup"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    stdin = None
    if name == "surgery":
        generated = spawn(["gen", "--seed", str(seed)], deadline)
        stdin = json.dumps(generated["records"])
        record["input_mix"] = generated["mix"]

    def repetition(child_seconds: float, traced: bool = False) -> list[dict]:
        rep = []
        for mode in REPETITION[name]:
            args = [mode, "--seconds", str(child_seconds)]
            if traced:
                os.makedirs(OUT_DIR, exist_ok=True)
                stem = os.path.join(OUT_DIR, f"spans_{name}_{mode}_seed{seed}")
                args += ["--trace", "1", "--trace-out", stem]
            rep.append(dict(spawn(args, deadline, stdin), mode=mode))
        return rep

    if trace:
        # The same inputs untraced, then traced; surgery splits the seconds between them.
        untraced, traced = repetition(seconds / 2), repetition(seconds / 2, traced=True)
        reps = [untraced, traced]
        spans, counters = merge_traces(traced)
        overhead = sum(c["solve_s"] for c in traced) - sum(c["solve_s"] for c in untraced)
        record["metrics"] = per_layer(spans, counters, overhead)
        record["spans"] = spans
        record["span_overhead"] = [child["span_overhead"] for child in traced]
    else:
        reps = []
        measure_start = time.monotonic()
        while time.monotonic() - measure_start < seconds:
            left = seconds - (time.monotonic() - measure_start)
            reps.append(repetition(min(SURGERY_CHILD_S, max(left, 2.0))))
            setups.append(spawn(["setup"], deadline)["setup_s"])
        setups += [child["setup_s"] for rep in reps for child in rep]
        record["metrics"] = end_to_end(name, setups, reps)
    children = [child for rep in reps for child in rep]
    attempted = sum(child["attempted"] for child in children)
    failed = sum(child["failed"] for child in children)
    record["metrics"]["error_rate"] = metric(failed / attempted if attempted else 1.0,
                                             "fraction", attempted)
    solves = [sum(child["solve_s"] for child in rep) for rep in reps]
    record.update(
        attempted=attempted, failed=failed, correct=failed == 0 and attempted > 0,
        failures=[msg for child in children for msg in child["failures"]][:10],
        repetitions={"setup_probes": len(setups), "repetitions": len(reps),
                     "workload_children": len(children),
                     "surgery_passes": sum(len(c.get("passes", [])) for c in children)},
        jitter={"calibration_s": [t for c in children for t in c["calibration_s"]],
                "calibration_spread": spread([t for c in children for t in c["calibration_s"]]),
                "setup_s": setups, "solve_s": solves, "solve_spread": spread(solves)},
        wall_s=time.monotonic() - started)
    for key in ("decompose_us_p50_by_order", "recompose_us_p50_by_order"):
        if key in children[0]:
            record[key] = children[0][key]
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"BENCH_{name}_seed{seed}_trace{trace}.json"), "w") as handle:
        json.dump(record, handle, indent=1)
    return record


def result_line(record: dict, trace: int) -> dict:
    """The result line: exactly the end-to-end or the per-layer metrics."""
    names = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {name: {"value": record["metrics"][name]["value"],
                               "unit": record["metrics"][name]["unit"]} for name in names}}


def report(record: dict, stream) -> None:
    for name, row in record["metrics"].items():
        print(f"{record['workload']:>10}  {name:<30} {row['value']:>16.6g} {row['unit']:<9}"
              f" n={row['samples']}", file=stream)
    if record.get("input_mix"):
        print(f"{record['workload']:>10}  input mix {json.dumps(record['input_mix'])}", file=stream)
    for message in record["failures"]:
        print(f"{record['workload']:>10}  FAILED {message}", file=stream)


def self_test() -> int:
    """Each check must pass on a correct output and fire (error_rate > 0) on a corrupted one."""
    try:
        cases = spawn(["selftest"], time.monotonic() + TIME_LIMIT_S)["cases"]
    except ChildFailed as exc:
        print(f"self-test FAILED: {exc}")
        return 1
    ok = True
    for name, tally in cases.items():
        rate = tally["failed"] / tally["attempted"]
        expected_bad = "corrupt" in name
        good = rate > 0 if expected_bad else rate == 0
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {name:<26} error_rate={rate:.4g} "
              f"({tally['failed']}/{tally['attempted']}) {tally['failures'][:1]}")
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="tamari-chains benchmark")
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOADS)
    which.add_argument("--all", action="store_true", help="run every workload and print a table")
    which.add_argument("--self-test", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "tamari", "__init__.py")):
        print("error: run from the root of a tamari-chains checkout (src/tamari not found)",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()

    names = WORKLOADS if args.all else (args.workload,)
    lines = {}
    for name in names:
        try:
            record = run_workload(name, args.seed, args.seconds, args.trace)
        except ChildFailed as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
            return 1
        report(record, sys.stdout if args.all else sys.stderr)
        lines[name] = result_line(record, args.trace)
    print(json.dumps(lines if args.all else lines[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

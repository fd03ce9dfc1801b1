"""Mutation check: does the tier-1 suite notice a small break in the program?

Run from the root of a checkout:

    python3 tools/mutants.py                          # every mutant, then the kill table
    python3 tools/mutants.py --only mask-fields,drop-kept
    python3 tools/mutants.py --list

Each mutant replaces one snippet of one file under ``src`` (the snippet must
occur there exactly once).  It is applied to a fresh copy of ``src`` in a
temporary directory, and the tier-1 suite runs against that copy with ``-x``
(``PYTHONPATH`` points at the copy; the tests are the checkout's own), under
a 900 s time limit and a 1 GiB limit on its address space (``RLIMIT_AS``),
so a mutant that allocates without end fails with ``MemoryError`` instead of
growing until the host runs out.  A mutant is killed when the suite fails.
The unmutated copy runs first, since a kill means nothing if the suite
already fails.

Mutants marked equivalent change no behaviour and should survive.  The exit
status is 0 when every other mutant is killed and every equivalent one
survives, 1 otherwise, and 2 when the unmutated suite fails or a snippet is
not found.  Stdlib only; pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIME_LIMIT_S = 900
# the unmutated tier-1 suite peaks near 212 MiB of address space (84 MiB resident)
MEMORY_LIMIT_BYTES = 1 << 30


class Mutant(NamedTuple):
    name: str
    path: str         # relative to src/tamari
    before: str
    after: str
    equivalent: str = ""  # why the mutant changes no behaviour; empty if it does


MUTANTS = (
    # the counting engine's packed state: the one field width (its depth), the one
    # table of length masks (a field's cut-off, a vertex's cut-off, the index a
    # pushed state takes, the byte of the cover's code that index is read from, the
    # vertex whose code it is read from), the one climb of `table` and its seeds' blocks
    Mutant("width-depth", "counting.py", "min(max_length, top)", "min(max_length - 1, top)"),
    Mutant("mask-fields", "counting.py", "min(max_length - k + 1, fields)",
           "min(max_length - k, fields)"),
    Mutant("mask-cutoff", "counting.py", "if k <= max_length else 0",
           "if k < max_length else 0"),
    Mutant("mask-index", "counting.py", "moved &= masks[cover & 255]",
           "moved &= masks[(cover & 255) - 1]"),
    Mutant("mask-row-byte", "counting.py", "moved &= masks[cover & 255]",
           "moved &= masks[cover >> 8 & 255]"),
    Mutant("mask-popped-vertex", "counting.py", "moved &= masks[cover & 255]",
           "moved &= masks[code & 255]"),
    Mutant("step-shift", "counting.py", "lambda reach: (reach << width, 0)",
           "lambda reach: (reach << 0, 0)"),
    Mutant("table-block-offset", "counting.py", "min(bound, comb(n, 2)) + 1",
           "min(bound, comb(n, 2))"),
    # the initial-values climb: a plus-full step keeps the clean block like a plain step
    Mutant("drop-kept", "counting.py",
           "lambda reach: (reach << width, (reach >> span) << (span + width))",
           "lambda reach: (reach << width, reach << width)"),
    Mutant("level-step", "counting.py", "boxes - (d - top)", "boxes - 1"),
    # the box-free cover kernel on a vertex's code (row j's length in byte j-1), its
    # step by one subtraction, and the edge filter on its rows
    Mutant("steps-top-scan", "shapes.py", "top + shape[top - 1] < level",
           "top + shape[top - 1] <= level"),
    Mutant("ones-index", "shapes.py", "(code - _ONES[d] + _ONES[top],",
           "(code - _ONES[d - 1] + _ONES[top],"),
    # a kernel wrong only where a strip takes rows 12 and up, past the exhaustive orders
    Mutant("ones-high-rows", "shapes.py",
           "_ONES = tuple(((1 << 8 * k) - 1) // 255 for k in range(MAX_ORDER))",
           "_ONES = tuple(((1 << 8 * k) - 1) // 255 & ~((k >= 12) << 88) for k in range(MAX_ORDER))"),
    Mutant("plus-full-top", "counting.py", "if top or d + shape[d - 1] != n:",
           "if d + shape[d - 1] != n:"),
    # the chain stream and the one random draw on the same kernel (the draw is
    # the stream's walker choosing one step per vertex), and the stream's cut by
    # length at each end, one step too loose
    Mutant("stream-strip-rows", "counting.py", "for row in range(top + 1, d + 1)]",
           "for row in range(top + 2, d + 1)]"),
    Mutant("cut-low", "counting.py", "depth + first > longest", "depth + first - 1 > longest"),
    Mutant("cut-high", "counting.py", "depth + boxes < shortest", "depth + boxes + 1 < shortest"),
    Mutant("draw-choose", "checks.py", "s[rng.randrange(len(s))]", "s[~rng.randrange(len(s))]"),
    # the paper's reference constructions that the kernel is checked against (a prime
    # subpath ends after its matching east step), and the associahedron's check of
    # the kernel, which must count a repeated step twice to see it
    Mutant("prime-span-end", "checks.py", "spans[which] = (start, idx + 1)",
           "spans[which] = (start, idx)"),
    Mutant("associahedron-dedupe", "checks.py",
           "covers = [cover for cover, _, _ in _steps(code)]",
           "covers = list({cover for cover, _, _ in _steps(code)})"),
    # the brute oracle's tally of minimal labels (the largest label instead), and the
    # formula that counts them from the histograms of the orders below
    Mutant("stream-minimal-label", "checks.py",
           "tally[labels[0]] = tally.get(labels[0], 0) + 1",
           "tally[labels[-1]] = tally.get(labels[-1], 0) + 1"),
    Mutant("formula-binomial", "checks.py", "comb(m - 1, k)", "comb(m, k)"),
    # the two plus-full-set properties: vanishing and equal representation
    Mutant("vanishing-classes", "checks.py", "3 * i + 5", "3 * i + 4"),
    Mutant("equal-rep-superset", "checks.py", "wanted <= labels", "wanted < labels"),
    # older hand-made mutants: counting, cli, checks, tableaux
    Mutant("plus-full-step", "counting.py", "shape[d] >= shape[d - 1] - 1",
           "shape[d] >= shape[d - 1]"),
    Mutant("ie-sign", "counting.py", "(-1) ** (t - s)", "(-1) ** (t - s + 1)"),
    Mutant("recursion-extra-term", "counting.py", "min(2 * i + 3, n) + 1",
           "min(2 * i + 4, n) + 1"),
    Mutant("skipped-count", "cli.py", "missing += max(top - dp_limit, 0) - len(beyond)",
           "missing += max(top - dp_limit, 0)"),
    # the one count report of `table` and `nofull`: zero cells print blank
    Mutant("zero-blank", "cli.py", 'f"{c:,}" if c else ""', 'f"{c:,}"'),
    # arguments the one-command parser leaves unparsed go to the full parser, whose
    # usage line lists every command: re-parsed by the one-command parser instead,
    # the exit status stays 2 but the message changes
    Mutant("parser-no-fallback", "cli.py", "args = build_parser().parse_args(argv)",
           "args = build_parser(argv[0]).parse_args(argv)"),
    # the failures a command reports with exit 1: a fixture mismatch, routes that disagree
    Mutant("check-exit", "cli.py", "bad = [n for n, hist in histograms.items()",
           "bad = [n for n, hist in {}.items()"),
    Mutant("disagree-exit", "cli.py",
           'if args.method == "both" and results["recursion"] != results["brute"]:',
           'if args.method == "both" and False:'),
    Mutant("roundtrip-increment", "checks.py", "if len(labels) != len(pfs) + 1:",
           "if False:"),
    # the one place where what a check raises becomes its FAIL
    Mutant("boundary-reraise", "checks.py", "except Exception as exc:",
           "except ArithmeticError as exc:"),
    # on a staircase tableau that encodes no chain, label(k+1, n-k-1) may equal r,
    # and only this test keeps r out of row k+1, where the scan below no longer looks
    Mutant("labels-strict", "tableaux.py", "rows[k][-1] >= r:", "rows[k][-1] > r:"),
    Mutant("labels-scan-from", "tableaux.py", "for row in rows[k + 1:]:", "for row in rows[k:]:",
           "the first test already keeps r out of row k+1, so the scan may start there or at it"),
    # chain surgery's row kernels (growth at the pivot row, the cut that undoes it),
    # decompose's level loop, the labels growth stores on its output,
    # and the cache's merge and lock
    Mutant("expand-pivot", "bijections.py", "(up,) * (x <= d)", "(up,) * (x < d)"),
    Mutant("expand-shift-shortcut", "bijections.py", "if cut < len(row):", "if cut <= len(row):",
           "a row with no label above r shifts an empty tail, so it is left as it is either way"),
    Mutant("shrink-relabel", "bijections.py", "value - (value > up)", "value - (value >= up)",
           "the label r+1 itself is filtered out, so it is never lowered either way"),
    Mutant("shrink-shortcut", "bijections.py", "if row[-1] >= up else row", "if row[-1] > up else row"),
    Mutant("decompose-level", "bijections.py", "params.append(labels[0] - 1)",
           "params.append(labels[-1] - 1)"),
    Mutant("growth-labels", "bijections.py", "tuple([label + 1 for label in labels])",
           "tuple([label for label in labels])"),
    Mutant("cache-merge", "cli.py", 'for i, row in stored["nofull"].items():',
           "for i, row in ():"),
    Mutant("lock-skip", "cli.py", "fcntl.flock(lock, fcntl.LOCK_EX)", "pass"),
    # the value types: a tableau's equality and the immutability of the records
    Mutant("tableau-eq-rows", "tableaux.py", "return (self.n, self.rows) == (other.n, other.rows)",
           "return self.rows == other.rows"),
    Mutant("value-setattr", "shapes.py", 'raise AttributeError(f"cannot assign to field {name!r}")',
           "object.__setattr__(self, name, value)"),
)


def limit_memory() -> None:
    """Cap the address space of the process about to run the suite (and its children)."""
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT_BYTES, MEMORY_LIMIT_BYTES))


def run_suite(src: str) -> tuple[bool, str, float]:
    """Tier-1 with ``-x`` against the package in ``src``: (passed, first failure, seconds)."""
    env = dict(os.environ, PYTHONPATH=src)
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
               "--continue-on-collection-errors"]
    start = time.monotonic()
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=TIME_LIMIT_S, preexec_fn=limit_memory)
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIME_LIMIT_S} s", time.monotonic() - start
    elapsed = time.monotonic() - start
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    if failed:
        return False, failed.group(1), elapsed
    last = proc.stdout.strip().splitlines()
    return proc.returncode == 0, last[-1] if last else "", elapsed


def fresh_copy(scratch: str) -> str:
    src = os.path.join(scratch, "src")
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "src"), src,
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def mutated(src: str, mutant: Mutant) -> str:
    """The text of the mutant's file in ``src`` with the mutant applied."""
    with open(os.path.join(src, "tamari", mutant.path)) as handle:
        text = handle.read()
    found = text.count(mutant.before)
    if found != 1:
        raise LookupError(f"{mutant.name}: snippet occurs {found} times in {mutant.path}")
    return text.replace(mutant.before, mutant.after)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", help="comma-separated mutant names")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv)
    chosen = MUTANTS
    if args.only:
        names = set(args.only.split(","))
        chosen = tuple(m for m in MUTANTS if m.name in names)
        if unknown := names - {m.name for m in chosen}:
            parser.error(f"unknown mutants: {sorted(unknown)}")
    if args.list:
        for m in chosen:
            print(f"{m.name:22} {m.path:14} {m.before!r} -> {m.after!r}"
                  + (f"  [equivalent: {m.equivalent}]" if m.equivalent else ""))
        return 0
    try:
        for mutant in chosen:
            mutated(os.path.join(ROOT, "src"), mutant)
    except LookupError as exc:
        print(exc, file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix="tamari-mutants-") as scratch:
        passed, first, elapsed = run_suite(fresh_copy(scratch))
        print(f"unmutated: {'passed' if passed else 'FAILED at ' + first} in {elapsed:.0f} s",
              flush=True)
        if not passed:
            return 2
        rows = []
        for mutant in chosen:
            src = fresh_copy(scratch)
            text = mutated(src, mutant)
            with open(os.path.join(src, "tamari", mutant.path), "w") as handle:
                handle.write(text)
            survived, first, elapsed = run_suite(src)
            expected = survived == bool(mutant.equivalent)
            rows.append((mutant.name, "survived" if survived else "killed",
                         "equivalent" if mutant.equivalent else "",
                         "" if expected else "UNEXPECTED", f"{elapsed:.0f} s",
                         "" if survived else first))
            print(" | ".join(rows[-1]), flush=True)

    print()
    print("| mutant | result | marked | | time | first failing test |")
    print("|---|---|---|---|---|---|")
    for row in rows:
        print("| " + " | ".join(row) + " |")
    return 1 if any(row[3] for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: enumeration, tables, counting, verification, cache.

Commands
--------
* ``enumerate``: stream the maximal chains of one lattice as chain tableaux.
* ``table``: chain counts by length for a range of lattices (with ``--check``
  against the committed fixture).
* ``nofull``: counts of chains with no plus-full-sets, each computed twice, by
  skipping the plus-full cover steps and by inclusion-exclusion; maintains
  the cache file.
* ``count``: one chain count, by the recursion and/or brute force: the histogram
  climb of that one order, bounded at the chain length.
* ``grow`` / ``decompose`` / ``recompose``: apply the chain surgery maps to a
  tableau read from stdin or a file; growth-level tuples are comma-separated.
* ``verify``: the property suites of :mod:`tamari.checks`, which only this
  command imports.

``nofull`` and ``count`` build one table of initial values per command, for
all their offsets at once: :func:`tamari.counting.initial_values` up to the
histogram ceiling, the cache beyond.  A cache file records every computed cell
and is merged, under a lock, with whatever another writer stored meanwhile.

Exit codes: 0 success, 1 verification or fixture failure (or an input chain
outside a map's domain), 2 usage error (malformed input, or an unreadable
input file or cache path).  A command returns 0 or 1 for its result and
raises on a refused input; :func:`main` alone turns what it raises into exit
1 or 2 and a one-line ``error:``.  Each subcommand declares only the options
it reads, and :func:`main` builds the subparser of the command it runs alone.
Only a run with a cache file loads ``hashlib`` (and OpenSSL), ``fcntl`` and
``tempfile``.  Effort is gated on ``enumerate``, ``table``, ``nofull`` and
``count``: the enumeration ceiling is order 7 (~3.4e5 chains), and
``--allow-large`` admits order 8 (~2.2e8 chains); every climb of ``nofull``
and ``count`` follows the histogram ceiling, order 9, or 11 with
``--allow-large``.  ``--allow-huge`` removes both ceilings; ``nofull --max-i``
stays at most :data:`MAX_I`, and an order past the cover kernel (above
``shapes.MAX_ORDER``, 256) is refused before anything is climbed or walked.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice
from math import comb

from .bijections import (
    ChainDecomposition,
    GrowthDomainError,
    decompose,
    insert_plus_full_set,
    recompose,
)
from .counting import (
    RouteMismatch,
    chains_count,
    enumerate_maximal_chains,
    initial_values,
    length_histograms,
)
from .fixtures import length_table, nofull_table
from .tableaux import Tableau, TableauError, _require_maximal, tableau_to_chain

CACHE_VERSION = 1
CACHE_ENV = "TAMARI_CACHE"

ENUM_LIMIT = 7
ENUM_LIMIT_LARGE = 8
DP_LIMIT = 9
DP_LIMIT_LARGE = 11
MAX_I = 10_000


def _ceiling(args: argparse.Namespace, base: int, large: int) -> int:
    """The ceiling ``base``, raised to ``large`` by ``--allow-large`` and lifted
    by ``--allow-huge``."""
    if args.allow_huge:
        return 10 ** 9
    return large if args.allow_large else base


class CacheMismatch(ValueError):
    """A freshly computed value contradicts the value the cache holds."""


def _offset_label(i: int) -> str:
    if i == -1:
        return "n - 1"
    if i == 0:
        return "n"
    return f"n + {i}"


def _print_counts(counts: dict[int, dict[int, int]], style: str, header: str,
                  by_order: bool, totals: dict[int, int] | None = None) -> None:
    """Print ``{outer: {inner: count}}``, keys ascending: as json (decimal strings,
    with a ``totals`` object when given) or as csv under ``header``; in ascii as
    the grid of length offsets (rows) by orders (columns), zero cells blank, with
    a ``totals`` row when given.  ``by_order``: the outer keys are orders n and
    the inner ones chain lengths, else the outer keys are offsets and the inner
    ones orders."""
    if style == "json":
        payload = {str(outer): {str(inner): str(count) for inner, count in sorted(row.items())}
                   for outer, row in sorted(counts.items())}
        if totals is not None:
            payload["totals"] = {str(n): str(total) for n, total in sorted(totals.items())}
        print(json.dumps(payload, indent=1))
    elif style == "csv":
        print(header)
        for outer, row in sorted(counts.items()):
            for inner, count in sorted(row.items()):
                print(f"{outer},{inner},{count}")
    else:
        cells = {(inner - outer, outer) if by_order else (outer, inner): count
                 for outer, row in counts.items() for inner, count in row.items()}
        orders = sorted({n for _, n in cells})
        grid = [[""] + [f"T_{n}" for n in orders]]
        for i in sorted({i for i, _ in cells}):
            grid.append([_offset_label(i)] + [f"{c:,}" if c else ""
                                              for c in (cells.get((i, n), 0) for n in orders)])
        if totals is not None:
            grid.append(["totals"] + [f"{totals[n]:,}" for n in orders])
        widths = [max(map(len, column)) for column in zip(*grid)]
        print("\n".join("  ".join(cell.rjust(width) for cell, width in zip(row, widths))
                        for row in grid))


def _not_compared(what: str, keys: list[int]) -> str:
    """The tail of a ``--check`` line naming the ``keys`` its fixture does not hold."""
    return f"; {what} {keys} are not in the fixture and were not compared" if keys else ""


# ---------------------------------------------------------------------------
# cache file


def _cache_body(cache: dict) -> dict:
    return {"version": cache["version"], "nofull": cache["nofull"],
            "provenance": cache["provenance"]}


def _checksum(body: dict) -> str:
    import hashlib  # maps OpenSSL: only a run with a cache file pays for it

    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def empty_cache() -> dict:
    return {"version": CACHE_VERSION, "nofull": {}, "provenance": {}}


def _read_cache(path: str) -> dict:
    """The checked body of the cache file at ``path``, or an empty cache if there
    is none; raises ``ValueError`` or ``KeyError`` if the file is corrupted,
    its entries included."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except FileNotFoundError:
        return empty_cache()
    if not isinstance(data, dict):
        raise ValueError("not a json object")
    if data.get("version") != CACHE_VERSION:
        raise ValueError(f"unsupported cache version {data.get('version')!r}")
    body = _cache_body(data)
    if data.get("checksum") != _checksum(body):
        raise ValueError("checksum mismatch")
    for section, valid in (("nofull", _is_integer), ("provenance", lambda v: isinstance(v, str))):
        rows = body[section]
        if not (isinstance(rows, dict) and all(
                _is_integer(i) and isinstance(row, dict)
                and all(_is_integer(t) and valid(value) for t, value in row.items())
                for i, row in rows.items())):
            raise ValueError(f"malformed {section} entries")
    return body


def _is_integer(text) -> bool:
    """True iff ``text`` is an integer written the way ``str`` writes it."""
    try:
        return isinstance(text, str) and text == str(int(text))
    except ValueError:  # not an integer, or more digits than int() converts
        return False


def load_cache(path: str) -> dict:
    try:
        return _read_cache(path)
    except (ValueError, KeyError) as exc:
        print(f"warning: ignoring corrupted cache {path}: {exc}", file=sys.stderr)
        return empty_cache()


def save_cache(path: str, cache: dict) -> None:
    """Write ``cache`` to ``path``, merged (under a lock on its directory) with what
    another writer stored there since; a contradiction raises :class:`CacheMismatch`,
    a corrupted file is overwritten."""
    import fcntl
    import tempfile

    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    lock = os.open(directory, os.O_RDONLY)
    try:
        fcntl.flock(lock, fcntl.LOCK_EX)  # released when the descriptor closes
        try:
            stored = _read_cache(path)
        except (ValueError, KeyError):
            stored = empty_cache()
        for i, row in stored["nofull"].items():
            for t, value in row.items():
                source = stored["provenance"].get(i, {}).get(t, "cache")
                cache_update(cache, int(i), int(t), int(value), source)
        body = _cache_body(cache)
        payload = dict(body, checksum=_checksum(body))
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, indent=1, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    finally:
        os.close(lock)


def cache_update(cache: dict, i: int, t: int, value: int, provenance: str) -> None:
    """Record one initial value, insisting it agrees with any existing entry."""
    existing = cache_get(cache, i, t)
    if existing is not None and existing != value:
        raise CacheMismatch(
            f"cache disagrees at i={i}, t={t}: cached {existing}, computed {value}")
    cache["nofull"].setdefault(str(i), {})[str(t)] = str(value)
    cache["provenance"].setdefault(str(i), {}).setdefault(str(t), provenance)


def cache_get(cache: dict, i: int, t: int) -> int | None:
    value = cache["nofull"].get(str(i), {}).get(str(t))
    return None if value is None else int(value)


# ---------------------------------------------------------------------------
# the table of initial values shared by `nofull` and `count --method recursion`

SKIPPED_SHOWN = 20  # skipped cells named in a report; the rest are only counted


def _initial_values(offsets, need_t: int, args: argparse.Namespace, cache: dict | None,
                    ) -> tuple[dict[int, dict[int, int]], tuple[int, list[tuple[int, int]]]]:
    """Initial values N_i(t) for each offset i and t <= min(need_t, 2i+3): by
    :func:`initial_values` up to the histogram ceiling, each recorded in ``cache``
    as ``brute`` (None: no cache file), and from ``cache`` beyond.  Returns the table
    and the number of unobtainable cells with the first :data:`SKIPPED_SHOWN` of them.
    """
    dp_limit = _ceiling(args, DP_LIMIT, DP_LIMIT_LARGE)
    table = initial_values(offsets, min(need_t, dp_limit))
    stored = cache["nofull"] if cache is not None else {}
    missing, shown = 0, []
    for i, row in table.items():
        if cache is not None:
            for t, value in row.items():
                cache_update(cache, i, t, value, "brute")
        # Past the histogram ceiling a cell comes from the cache or is skipped;
        # skipped cells are counted, not visited, so the work stays linear in the offsets.
        top = min(need_t, 2 * i + 3)
        beyond = {int(t): int(value) for t, value in stored.get(str(i), {}).items()
                  if dp_limit < int(t) <= top}
        row.update(sorted(beyond.items()))
        missing += max(top - dp_limit, 0) - len(beyond)
        shown += islice(((i, t) for t in range(dp_limit + 1, top + 1) if t not in beyond),
                        SKIPPED_SHOWN - len(shown))
    return table, (missing, shown)


# ---------------------------------------------------------------------------
# commands


def cmd_table(args: argparse.Namespace) -> int:
    if args.max_n < 1:
        raise ValueError("--max-n must be >= 1")
    if args.max_n > _ceiling(args, ENUM_LIMIT, ENUM_LIMIT_LARGE):
        raise ValueError(f"--max-n {args.max_n} exceeds the ceiling; "
                         f"pass --allow-large (order 8) or --allow-huge")
    histograms = length_histograms(range(1, args.max_n + 1))
    if args.check:  # the fixture's orders only
        fixture = length_table()
        bad = [n for n, hist in histograms.items()
               if n in fixture and dict(hist.counts) != fixture[n]]
        if bad:
            print(f"fixture mismatch in columns {bad}", file=sys.stderr)
            return 1
        print(f"table check passed for n <= {args.max_n}"
              + _not_compared("orders", [n for n in histograms if n not in fixture]))
    _print_counts({n: hist.counts for n, hist in histograms.items()}, args.format,
                  "n,length,count", by_order=True,
                  totals={n: hist.total for n, hist in histograms.items()})
    return 0


def cmd_nofull(args: argparse.Namespace) -> int:
    if not -1 <= args.max_i <= MAX_I:  # the table holds one row per offset
        raise ValueError(f"--max-i must lie in -1..{MAX_I}")
    cache_path = args.cache or os.environ.get(CACHE_ENV)
    cache = load_cache(cache_path) if cache_path else None
    values, (missing, shown) = _initial_values(range(-1, args.max_i + 1),
                                               2 * args.max_i + 3, args, cache)
    if args.check:  # the fixture's rows only; each is complete, its zeros unlisted
        fixture = nofull_table()
        rows = {i for i, _ in fixture}
        bad = [(i, t) for i, row in values.items() if i in rows for t, v in row.items()
               if v != fixture.get((i, t), 0)]
        if bad:
            print(f"fixture mismatch at cells {bad}", file=sys.stderr)
            return 1
        print(f"no-plus-full table check passed for i <= {args.max_i}"
              + _not_compared("rows", [i for i in values if i not in rows]))
    elif cache_path:
        save_cache(cache_path, cache)
    if missing:
        print(f"skipped (beyond ceilings, no cache entry): {missing} cells, "
              f"first: {shown}", file=sys.stderr)
    _print_counts(values, args.format, "i,n,count", by_order=False)
    return 0


def cmd_count(args: argparse.Namespace) -> int:
    if args.i < -1 or args.n < 1:
        raise ValueError("need --i >= -1 and --n >= 1")
    results: dict[str, int] = {}
    if args.method in ("recursion", "both"):  # the brute climb reads no cache
        cache_path = args.cache or os.environ.get(CACHE_ENV)
        cache = load_cache(cache_path) if cache_path else None
        table, (missing, shown) = _initial_values([args.i], args.n, args, cache)
        if missing:
            raise ValueError(f"initial values for t in {[t for _, t in shown]} (i={args.i}) "
                             f"need work beyond the current ceilings; pass --allow-large/"
                             f"--allow-huge or supply a cache")
        results["recursion"] = chains_count(args.i, args.n, table[args.i])
        if cache_path:
            save_cache(cache_path, cache)
    if args.method in ("brute", "both"):
        if args.n > _ceiling(args, DP_LIMIT, DP_LIMIT_LARGE):
            raise ValueError(f"the brute climb at n={args.n} exceeds the ceiling; "
                             f"pass --allow-large or --allow-huge")
        length = args.n + args.i
        results["brute"] = length_histograms([args.n], length)[args.n].get(length)
    if args.method == "both" and results["recursion"] != results["brute"]:
        print(f"DISAGREE recursion={results['recursion']} brute={results['brute']}",
              file=sys.stderr)
        return 1
    print(results.get("recursion", results.get("brute")))
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    if args.n > _ceiling(args, ENUM_LIMIT, ENUM_LIMIT_LARGE):
        raise ValueError(f"enumerating order {args.n} exceeds the ceiling; "
                         f"pass --allow-large or --allow-huge")
    if args.length is not None and not args.n - 1 <= args.length <= comb(args.n, 2):
        raise ValueError(f"--length must lie in {args.n - 1}..{comb(args.n, 2)}")
    # an order past the kernel is refused here, before any line is printed
    chains = enumerate_maximal_chains(args.n, length=args.length)
    total = 0
    if args.format == "csv":
        print("index,n,length,rows")
    for tab in chains:
        total += 1
        if args.format == "json":
            print(tab.to_json())
        elif args.format == "csv":
            rows = "|".join(" ".join(str(v) for v in row) for row in tab.rows)
            print(f"{total},{tab.n},{tab.length},{rows}")
        else:
            print(tab.to_text())
            print()
    if args.format == "json":
        print(json.dumps({"total": total}))
    else:
        print(f"total: {total}")
    return 0


def _read_tableau(source: str | None) -> Tableau:
    """Read one tableau, text or JSON format (auto-detected), from a file or stdin."""
    if source in (None, "-"):
        raw = sys.stdin.read()
    else:
        with open(source) as handle:
            raw = handle.read()
    raw = raw.strip()
    if raw.startswith("{"):
        try:
            data = json.loads(raw)
        except RecursionError as exc:
            raise TableauError("tableau json is nested too deeply") from exc
        return Tableau.from_json_dict(data)
    return Tableau.from_text(raw)


def _read_chain(source: str | None) -> Tableau:
    """Read one tableau (see :func:`_read_tableau`) that must encode a maximal chain.

    The maps themselves trust their input; here the staircase shape is checked
    first (cheap, and it bounds the cover check) and then every cover step.
    """
    tab = _read_tableau(source)
    _require_maximal(tab)
    tableau_to_chain(tab)
    return tab


def _emit_tableau(tab: Tableau, style: str) -> None:
    print(tab.to_json() if style == "json" else tab.to_text())


def cmd_grow(args: argparse.Namespace) -> int:
    chain = _read_chain(args.input)
    try:
        result = insert_plus_full_set(chain, args.r)
    except GrowthDomainError as exc:
        print(f"error: not in the domain at level {args.r}: {exc} "
              f"(offending label {exc.label})", file=sys.stderr)
        return 1
    _emit_tableau(result, args.format)
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    parts = decompose(_read_chain(args.input))
    if args.format == "json":
        print(json.dumps({"base": parts.base.to_json_dict(),
                          "params": list(parts.params)}))
    else:
        _emit_tableau(parts.base, args.format)
        print("params: " + ",".join(str(r) for r in parts.params))
    return 0


def cmd_recompose(args: argparse.Namespace) -> int:
    try:
        params = tuple(int(chunk) for chunk in args.params.split(",")) \
            if args.params else ()
    except ValueError as exc:
        raise ValueError(f"cannot parse growth levels from {args.params!r}") from exc
    base = _read_chain(args.input)
    _emit_tableau(recompose(ChainDecomposition(base=base, params=params)), args.format)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .checks import VerifyLimits, run_suite  # no other command loads the suites

    if args.max_n < 1:
        raise ValueError("--max-n must be >= 1")
    if args.max_i < -1:
        raise ValueError("--max-i must be >= -1")
    if args.samples < 0:
        raise ValueError("--samples must be >= 0")
    limits = VerifyLimits(max_n=args.max_n, max_i=args.max_i,
                          samples=args.samples, seed=args.seed)
    results = run_suite(args.suite, limits)
    failures = [r for r in results if not r.passed]
    if args.format == "json":
        print(json.dumps({
            "suite": args.suite,
            "passed": not failures,
            "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail,
                        "counterexample": r.counterexample} for r in results],
        }, indent=1))
    else:
        for r in results:
            print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
            if not r.passed:
                print(f"  counterexample: {json.dumps(r.counterexample)}")
        if failures:
            print(f"{len(failures)} check(s) failed; first counterexample: "
                  f"{json.dumps(failures[0].counterexample)}", file=sys.stderr)
    return 1 if failures else 0


TABLE_FORMATS = ("ascii", "json", "csv")
TEXT_FORMATS = ("ascii", "json")


def _add_options(parser: argparse.ArgumentParser, formats: tuple[str, ...] | None,
                 ceilings: bool = False, cache: bool = False) -> None:
    """Declare the shared options a command reads: ``--format`` (unless ``formats``
    is None), the ceiling flags and ``--cache``."""
    if formats:
        parser.add_argument("--format", choices=formats, default="ascii")
    if ceilings:
        parser.add_argument("--allow-large", action="store_true",
                            help=f"raise the enumeration ceiling from order {ENUM_LIMIT} "
                                 f"to {ENUM_LIMIT_LARGE} and the histogram ceiling from "
                                 f"order {DP_LIMIT} to {DP_LIMIT_LARGE}")
        parser.add_argument("--allow-huge", action="store_true",
                            help="remove both ceilings")
    if cache:
        parser.add_argument("--cache", default=None,
                            help=f"cache file path (default ${CACHE_ENV})")


COMMANDS = ("enumerate", "table", "nofull", "count", "grow", "decompose", "recompose",
            "verify")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``tamari`` parser.  Given the name of one of :data:`COMMANDS`, it holds
    that command's subparser alone; given None or any other string, all of them."""
    parser = argparse.ArgumentParser(
        prog="tamari",
        description="Maximal chains in the Tamari lattices: enumeration, "
                    "counting and verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, summary: str) -> argparse.ArgumentParser | None:
        if command in COMMANDS and command != name:
            return None
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        return p

    if p := add("enumerate", cmd_enumerate, "stream the maximal chains of one lattice"):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--length", type=int, default=None)
        _add_options(p, TABLE_FORMATS, ceilings=True)

    if p := add("table", cmd_table, "chain counts by length for orders 1..max-n"):
        p.add_argument("--max-n", type=int, required=True)
        p.add_argument("--check", action="store_true",
                       help="compare against the committed fixture (never writes)")
        _add_options(p, TABLE_FORMATS, ceilings=True)

    if p := add("nofull", cmd_nofull, "counts of chains with no plus-full-sets"):
        p.add_argument("--max-i", type=int, required=True)
        p.add_argument("--check", action="store_true",
                       help="compare against the committed fixture (never writes)")
        _add_options(p, TABLE_FORMATS, ceilings=True, cache=True)

    if p := add("count", cmd_count,
                "one chain count, by the recursion and/or the brute climb"):
        p.add_argument("--i", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--method", choices=("recursion", "brute", "both"),
                       default="recursion")
        _add_options(p, None, ceilings=True, cache=True)

    if p := add("grow", cmd_grow, "insert a plus-full-set at level r into a "
                                  "chain read from stdin or a file"):
        p.add_argument("--r", type=int, required=True)
        p.add_argument("--input", default=None, help="tableau file, '-' for stdin")
        _add_options(p, TEXT_FORMATS)

    if p := add("decompose", cmd_decompose, "split a chain into a plus-full-set-"
                                            "free base and its growth levels"):
        p.add_argument("--input", default=None, help="tableau file, '-' for stdin")
        _add_options(p, TEXT_FORMATS)

    if p := add("recompose", cmd_recompose, "apply comma-separated growth levels "
                                            "to a base chain"):
        p.add_argument("--params", default="", help="weakly increasing levels, "
                                                    "e.g. '0,2,2'")
        p.add_argument("--input", default=None, help="tableau file, '-' for stdin")
        _add_options(p, TEXT_FORMATS)

    if p := add("verify", cmd_verify, "run the property suites"):
        p.add_argument("--suite", choices=("covers", "psi", "phi", "formulas",
                                           "conjecture", "all"), default="all")
        p.add_argument("--max-n", type=int, default=5)
        p.add_argument("--max-i", type=int, default=2)
        p.add_argument("--samples", type=int, default=2000)
        p.add_argument("--seed", type=int, default=20240)
        _add_options(p, TEXT_FORMATS)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # Only the subparser of the command named first is built (the full parser
    # when none is named, top-level -h included).  An argument it leaves unparsed
    # is parsed again by the full parser, whose usage line names every command,
    # so every message and exit status is the full parser's.
    args, unparsed = build_parser(argv[0] if argv else None).parse_known_args(argv)
    if unparsed:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # A computed value contradicts the cache or the other route, or an input
    # chain lies outside a map's domain.  These subclass ValueError: first.
    except (CacheMismatch, RouteMismatch, GrowthDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # A refused input: malformed (TableauError, json and unicode decode errors,
    # growth levels), out of range, or a file or cache path that cannot be used.
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

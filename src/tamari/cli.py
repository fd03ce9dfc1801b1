"""Command-line front end: enumeration, tables, counting, verification, cache.

Commands
--------
* ``enumerate``: stream the maximal chains of one lattice as chain tableaux.
* ``table``: chain counts by length for a range of lattices (with ``--check``
  against the committed fixture).
* ``nofull``: counts of chains with no plus-full-sets, by classifying every
  cover step where the ceiling admits it and by inclusion-exclusion beyond;
  maintains the cache file.
* ``count``: one chain count, by the recursion and/or brute enumeration.
* ``grow`` / ``decompose`` / ``recompose``: apply the chain surgery maps to a
  tableau read from stdin or a file; growth-level tuples are comma-separated.
* ``verify``: the property suites of :mod:`tamari.checks`.

Exit codes: 0 success, 1 verification or fixture failure (or an input chain
outside a map's domain), 2 usage error (malformed input, or an unreadable
input file or cache path).  Enumeration effort is gated: the default ceiling
is order 7 (~3.4e5 chains); ``--allow-large`` admits order 8 (~2.2e8 chains)
and ``--allow-huge`` removes the ceiling.  Histogram work over the cover
graph has its own, higher ceiling.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from math import comb

from .bijections import (
    ChainDecomposition,
    GrowthDomainError,
    NoPlusFullSetError,
    decompose,
    insert_plus_full_set,
    recompose,
)
from .checks import VerifyLimits, run_suite
from .counting import (
    census,
    chains_count,
    count_by_length,
    enumerate_maximal_chains,
    nofull_initial_values,
)
from .fixtures import length_table, nofull_table
from .tableaux import Tableau, TableauError

CACHE_VERSION = 1
CACHE_ENV = "TAMARI_CACHE"

ENUM_LIMIT = 7
ENUM_LIMIT_LARGE = 8
DP_LIMIT = 9
DP_LIMIT_LARGE = 11


@dataclass
class RunConfig:
    """Common knobs shared by every command, built once from parsed flags."""

    max_n: int = ENUM_LIMIT
    max_i: int = 2
    format: str = "ascii"
    cache_path: str | None = None
    allow_large: bool = False
    allow_huge: bool = False

    def __post_init__(self) -> None:
        if self.format not in ("ascii", "json", "csv"):
            raise ValueError(f"unknown format {self.format!r}")

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        return cls(
            max_n=getattr(args, "max_n", ENUM_LIMIT),
            max_i=getattr(args, "max_i", 2),
            format=getattr(args, "format", "ascii"),
            cache_path=getattr(args, "cache", None) or os.environ.get(CACHE_ENV),
            allow_large=getattr(args, "allow_large", False),
            allow_huge=getattr(args, "allow_huge", False),
        )

    @property
    def enum_limit(self) -> int:
        if self.allow_huge:
            return 10 ** 9
        return ENUM_LIMIT_LARGE if self.allow_large else ENUM_LIMIT

    @property
    def dp_limit(self) -> int:
        if self.allow_huge:
            return 10 ** 9
        return DP_LIMIT_LARGE if self.allow_large else DP_LIMIT


class CacheMismatch(ValueError):
    """A freshly computed value contradicts a cached or cross-route value."""


def _fmt(value: int, style: str) -> str:
    return f"{value:,}" if style == "ascii" else str(value)


def _offset_label(i: int) -> str:
    if i == -1:
        return "n - 1"
    if i == 0:
        return "n"
    return f"n + {i}"


def _render_table(col_names: list[str], rows: list[tuple[str, list[str]]]) -> str:
    headers = [""] + col_names
    grid = [headers] + [[label] + cells for label, cells in rows]
    widths = [max(len(row[j]) for row in grid) for j in range(len(headers))]
    return "\n".join("  ".join(cell.rjust(widths[j]) for j, cell in enumerate(row))
                     for row in grid)


# ---------------------------------------------------------------------------
# cache file


def _cache_body(cache: dict) -> dict:
    return {"version": cache["version"], "nofull": cache["nofull"],
            "provenance": cache["provenance"]}


def _checksum(body: dict) -> str:
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def empty_cache() -> dict:
    return {"version": CACHE_VERSION, "nofull": {}, "provenance": {}}


def load_cache(path: str) -> dict:
    try:
        with open(path) as handle:
            data = json.load(handle)
        if data.get("version") != CACHE_VERSION:
            raise ValueError(f"unsupported cache version {data.get('version')!r}")
        body = _cache_body(data)
        if data.get("checksum") != _checksum(body):
            raise ValueError("checksum mismatch")
        return body
    except FileNotFoundError:
        return empty_cache()
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"warning: ignoring corrupted cache {path}: {exc}", file=sys.stderr)
        return empty_cache()


def save_cache(path: str, cache: dict) -> None:
    body = _cache_body(cache)
    payload = dict(body, checksum=_checksum(body))
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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
# initial values shared by `nofull` and `count --method recursion`


def _nofull_values(i: int, need_t: int, config: RunConfig,
                   cache: dict) -> tuple[dict[int, tuple[int, str]], list[int]]:
    """Initial values N_i(t) for t <= min(need_t, 2i+3), with provenance.

    Up to the enumeration ceiling, :func:`census` classifies every cover step
    by the paper's definition (provenance ``brute``); inclusion-exclusion
    (cross-validated against it on the overlap) up to the histogram ceiling;
    cache entries beyond.  Returns the values and the t's that were
    unobtainable.  Raises :class:`CacheMismatch` on any disagreement.
    """
    enum_limit = config.enum_limit
    dp_limit = config.dp_limit
    top = min(need_t, 2 * i + 3)
    ie_values = nofull_initial_values(i, max_t=min(top, dp_limit)) if top >= 1 else {}
    values: dict[int, tuple[int, str]] = {}
    skipped: list[int] = []
    for t in range(1, top + 1):
        if t <= enum_limit:
            value = census(t).nofull_by_length.get(t + i, 0)
            if t in ie_values and ie_values[t] != value:
                raise CacheMismatch(
                    f"routes disagree at i={i}, t={t}: brute {value} vs "
                    f"inclusion-exclusion {ie_values[t]}")
            values[t] = (value, "brute")
        elif t in ie_values:
            values[t] = (ie_values[t], "inclusion-exclusion")
        else:
            cached = cache_get(cache, i, t)
            if cached is None:
                skipped.append(t)
                continue
            values[t] = (cached, "cache")
        cached = cache_get(cache, i, t)
        if cached is not None and cached != values[t][0]:
            raise CacheMismatch(
                f"cache disagrees at i={i}, t={t}: cached {cached}, "
                f"computed {values[t][0]}")
    return values, skipped


# ---------------------------------------------------------------------------
# commands


def cmd_table(args: argparse.Namespace, config: RunConfig) -> int:
    if args.max_n < 1:
        print("error: --max-n must be >= 1", file=sys.stderr)
        return 2
    if args.max_n > config.enum_limit:
        print(f"error: --max-n {args.max_n} exceeds the ceiling; "
              f"pass --allow-large (order 8) or --allow-huge", file=sys.stderr)
        return 2
    histograms = {n: count_by_length(n) for n in range(1, args.max_n + 1)}
    if args.check:
        fixture = length_table()
        bad = [n for n, hist in histograms.items()
               if dict(hist.counts) != fixture.get(n, {})]
        if bad:
            print(f"fixture mismatch in columns {bad}", file=sys.stderr)
            return 1
        print(f"table check passed for n <= {args.max_n}")
    if config.format == "json":
        payload = {str(n): {str(l): str(c) for l, c in sorted(hist.counts.items())}
                   for n, hist in histograms.items()}
        payload["totals"] = {str(n): str(h.total) for n, h in histograms.items()}
        print(json.dumps(payload, indent=1))
    elif config.format == "csv":
        print("n,length,count")
        for n, hist in sorted(histograms.items()):
            for length in sorted(hist.counts):
                print(f"{n},{length},{hist.get(length)}")
    else:
        orders = sorted(histograms)
        max_offset = max(l - n for n, h in histograms.items() for l in h.counts)
        rows = []
        for i in range(-1, max_offset + 1):
            cells = ["" if histograms[n].get(n + i) == 0 else
                     _fmt(histograms[n].get(n + i), "ascii") for n in orders]
            rows.append((_offset_label(i), cells))
        rows.append(("totals", [_fmt(histograms[n].total, "ascii") for n in orders]))
        print(_render_table([f"T_{n}" for n in orders], rows))
    return 0


def cmd_nofull(args: argparse.Namespace, config: RunConfig) -> int:
    if args.max_i < -1:
        print("error: --max-i must be >= -1", file=sys.stderr)
        return 2
    cache_path = config.cache_path
    cache = load_cache(cache_path) if cache_path else empty_cache()
    values: dict[int, dict[int, int]] = {}
    provenance: dict[int, dict[int, str]] = {}
    skipped: list[tuple[int, int]] = []
    try:
        for i in range(-1, args.max_i + 1):
            row, missing = _nofull_values(i, 2 * i + 3, config, cache)
            values[i] = {t: value for t, (value, _) in row.items()}
            provenance[i] = {t: source for t, (_, source) in row.items()}
            skipped.extend((i, t) for t in missing)
    except CacheMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.check:
        fixture = nofull_table()
        bad = [(i, t) for i, row in values.items() for t, v in row.items()
               if v != fixture.get((i, t), 0)]
        if bad:
            print(f"fixture mismatch at cells {bad}", file=sys.stderr)
            return 1
        print(f"no-plus-full table check passed for i <= {args.max_i}")
    elif cache_path:
        try:
            for i, row in values.items():
                for t, value in row.items():
                    cache_update(cache, i, t, value, provenance[i][t])
        except CacheMismatch as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        save_cache(cache_path, cache)
    if skipped:
        print(f"skipped (beyond ceilings, no cache entry): {skipped}", file=sys.stderr)
    if config.format == "json":
        print(json.dumps({str(i): {str(t): str(v) for t, v in sorted(row.items())}
                          for i, row in values.items()}, indent=1))
    elif config.format == "csv":
        print("i,n,count")
        for i, row in sorted(values.items()):
            for t, value in sorted(row.items()):
                print(f"{i},{t},{value}")
    else:
        orders = sorted({t for row in values.values() for t in row})
        rows = []
        for i in sorted(values):
            cells = ["" if values[i].get(t, 0) == 0 else _fmt(values[i][t], "ascii")
                     for t in orders]
            rows.append((_offset_label(i), cells))
        print(_render_table([f"T_{t}" for t in orders], rows))
    return 0


def cmd_count(args: argparse.Namespace, config: RunConfig) -> int:
    if args.i < -1 or args.n < 1:
        print("error: need --i >= -1 and --n >= 1", file=sys.stderr)
        return 2
    cache_path = config.cache_path
    cache = load_cache(cache_path) if cache_path else empty_cache()
    results: dict[str, int] = {}
    if args.method in ("recursion", "both"):
        try:
            row, missing = _nofull_values(args.i, args.n, config, cache)
        except CacheMismatch as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if missing:
            print(f"error: initial values for t in {missing} (i={args.i}) need "
                  f"work beyond the current ceilings; pass --allow-large/"
                  f"--allow-huge or supply a cache", file=sys.stderr)
            return 2
        results["recursion"] = chains_count(
            args.i, args.n, {t: value for t, (value, _) in row.items()})
        if cache_path:
            try:
                for t, (value, source) in row.items():
                    cache_update(cache, args.i, t, value, source)
            except CacheMismatch as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            save_cache(cache_path, cache)
    if args.method in ("brute", "both"):
        if args.n > config.enum_limit:
            print(f"error: brute enumeration at n={args.n} exceeds the ceiling; "
                  f"pass --allow-large or --allow-huge", file=sys.stderr)
            return 2
        results["brute"] = census(args.n).by_length.get(args.n + args.i, 0)
    if args.method == "both" and results["recursion"] != results["brute"]:
        print(f"DISAGREE recursion={results['recursion']} brute={results['brute']}",
              file=sys.stderr)
        return 1
    print(results.get("recursion", results.get("brute")))
    return 0


def cmd_enumerate(args: argparse.Namespace, config: RunConfig) -> int:
    if args.n < 1:
        print("error: --n must be >= 1", file=sys.stderr)
        return 2
    if args.n > config.enum_limit:
        print(f"error: enumerating order {args.n} exceeds the ceiling; "
              f"pass --allow-large or --allow-huge", file=sys.stderr)
        return 2
    if args.length is not None and not args.n - 1 <= args.length <= comb(args.n, 2):
        print(f"error: --length must lie in {args.n - 1}..{comb(args.n, 2)}",
              file=sys.stderr)
        return 2
    total = 0
    if config.format == "csv":
        print("index,n,length,rows")
    for tab in enumerate_maximal_chains(args.n, length=args.length):
        total += 1
        if config.format == "json":
            print(tab.to_json())
        elif config.format == "csv":
            rows = "|".join(" ".join(str(v) for v in row) for row in tab.rows)
            print(f"{total},{tab.n},{tab.length},{rows}")
        else:
            print(tab.to_text())
            print()
    if config.format == "json":
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


def _emit_tableau(tab: Tableau, style: str) -> None:
    print(tab.to_json() if style == "json" else tab.to_text())


def cmd_grow(args: argparse.Namespace, config: RunConfig) -> int:
    try:
        chain = _read_tableau(args.input)
        result = insert_plus_full_set(chain, args.r)
    except GrowthDomainError as exc:
        print(f"error: not in the domain at level {args.r}: {exc} "
              f"(offending label {exc.label})", file=sys.stderr)
        return 1
    except (TableauError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit_tableau(result, config.format)
    return 0


def cmd_decompose(args: argparse.Namespace, config: RunConfig) -> int:
    try:
        chain = _read_tableau(args.input)
        parts = decompose(chain)
    except (TableauError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if config.format == "json":
        print(json.dumps({"base": parts.base.to_json_dict(),
                          "params": list(parts.params)}))
    else:
        _emit_tableau(parts.base, config.format)
        print("params: " + ",".join(str(r) for r in parts.params))
    return 0


def cmd_recompose(args: argparse.Namespace, config: RunConfig) -> int:
    try:
        params = tuple(int(chunk) for chunk in args.params.split(",")) \
            if args.params else ()
    except ValueError:
        print(f"error: cannot parse growth levels from {args.params!r}",
              file=sys.stderr)
        return 2
    try:
        base = _read_tableau(args.input)
        result = recompose(ChainDecomposition(base=base, params=params))
    except (GrowthDomainError, NoPlusFullSetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TableauError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit_tableau(result, config.format)
    return 0


def cmd_verify(args: argparse.Namespace, config: RunConfig) -> int:
    limits = VerifyLimits(max_n=config.max_n, max_i=config.max_i,
                          samples=args.samples, seed=args.seed)
    try:
        results = run_suite(args.suite, limits)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failures = [r for r in results if not r.passed]
    if config.format == "json":
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


def _add_common(parser: argparse.ArgumentParser, cache: bool = False) -> None:
    parser.add_argument("--format", choices=("ascii", "json", "csv"), default="ascii")
    parser.add_argument("--allow-large", action="store_true",
                        help="admit order-8 enumeration (~2.2e8 chains)")
    parser.add_argument("--allow-huge", action="store_true",
                        help="remove the enumeration ceiling entirely")
    if cache:
        parser.add_argument("--cache", default=None,
                            help=f"cache file path (default ${CACHE_ENV})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tamari",
        description="Maximal chains in the Tamari lattices: enumeration, "
                    "counting and verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="stream the maximal chains of one lattice")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--length", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("table", help="chain counts by length for orders 1..max-n")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--check", action="store_true",
                   help="compare against the committed fixture (never writes)")
    _add_common(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("nofull", help="counts of chains with no plus-full-sets")
    p.add_argument("--max-i", type=int, required=True)
    p.add_argument("--check", action="store_true",
                   help="compare against the committed fixture (never writes)")
    _add_common(p, cache=True)
    p.set_defaults(func=cmd_nofull)

    p = sub.add_parser("count", help="one chain count, by recursion and/or enumeration")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("recursion", "brute", "both"),
                   default="recursion")
    _add_common(p, cache=True)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("grow", help="insert a plus-full-set at level r into a "
                                    "chain read from stdin or a file")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--input", default=None, help="tableau file, '-' for stdin")
    _add_common(p)
    p.set_defaults(func=cmd_grow)

    p = sub.add_parser("decompose", help="split a chain into a plus-full-set-"
                                         "free base and its growth levels")
    p.add_argument("--input", default=None, help="tableau file, '-' for stdin")
    _add_common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("recompose", help="apply comma-separated growth levels "
                                         "to a base chain")
    p.add_argument("--params", default="", help="weakly increasing levels, "
                                                "e.g. '0,2,2'")
    p.add_argument("--input", default=None, help="tableau file, '-' for stdin")
    _add_common(p)
    p.set_defaults(func=cmd_recompose)

    p = sub.add_parser("verify", help="run the property suites")
    p.add_argument("--suite", choices=("covers", "psi", "phi", "formulas",
                                       "conjecture", "all"), default="all")
    p.add_argument("--max-n", type=int, default=5)
    p.add_argument("--max-i", type=int, default=2)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--seed", type=int, default=20240)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig.from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args, config)
    except OSError as exc:  # an input file or cache path that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

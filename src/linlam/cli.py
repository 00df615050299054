"""Command-line surface for the census toolkit.

Subcommands:

  count         count a family by (size, free variables), CSV or JSON
  list          list the terms, or exchange-class groups, of one cell
  crosscheck    run all producer agreement and reference checks
  series-table  print one family's exact coefficient table
  maps-census   count rooted maps with a given number of edges

`count --closed` and `series-table --closed` print one number per line so
the output diffs directly against published sequence prefixes.  Exit status
is 1 when a crosscheck diverges, 2 on usage errors, and 141 (128 + SIGPIPE,
as a shell reports a process that signal ended) when the reader of stdout
closes it before the output ends, as `| head` does; nothing is then written
to stderr.

The parser takes its choices from linlam.names, which loads no layer, and
each command imports the layers it runs when it runs: `--help` loads none,
and `series-table` only the series.  The layers return plain data, and
every output format is written here: json, which no other module imports,
is imported only when a command prints JSON, and `series-table` writes its
CSV one z-row at a time.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterable

from .names import CLASS_FAMILIES, FAMILY_SERIES, CountTable, Family, FamilyName, Variant

_TERM_FAMILIES = {f.value: f for f in Family}
_CLASS_FAMILIES = {f"classes-{f.value}": f for f in CLASS_FAMILIES}
_MAP_VARIANTS = {v.value: v for v in Variant}


class _StdoutClosed(Exception):
    """The reader of stdout closed it: a write or flush met a broken pipe."""


def _write(text: str) -> None:
    """Write to stdout; every command's output goes through here."""
    try:
        sys.stdout.write(text)
    except BrokenPipeError as err:
        raise _StdoutClosed from err


def _write_json(data, indent: int | None = 2) -> None:
    import json
    _write(json.dumps(data, indent=indent) + "\n")


def _write_csv(header: str, rows) -> None:
    _write(header + "\n" + "".join(",".join(map(str, row)) + "\n" for row in rows))


def _emit_sequence(values: Iterable, as_json: bool) -> None:
    """One value per line, each written as it comes, or the whole list as JSON."""
    if as_json:
        _write_json(list(values), indent=None)
    else:
        for v in values:
            _write(f"{v}\n")


def _count_table(args: argparse.Namespace) -> CountTable:
    name = args.family
    if args.producer == "series":
        from . import series
        return series.solve(FAMILY_SERIES[name], args.max_n).series
    if args.producer == "maps":
        from . import maps
        table = CountTable(max_n=args.max_n, provenance="maps:all-genera")
        for n in range(1, args.max_n + 1):
            table.entries.update(
                maps.census(n, Variant.ALL_GENERA, cap_override=args.cap_override).entries
            )
        return table
    if name in _CLASS_FAMILIES:
        from . import exchange
        counts = exchange.count_classes(_CLASS_FAMILIES[name], args.max_n)
        return counts.labeled if args.labeled else counts.unlabeled
    from . import enumeration
    return enumeration.count_family(_TERM_FAMILIES[name], args.max_n)


def cmd_count(args: argparse.Namespace) -> int:
    table = _count_table(args)
    if args.closed:
        _emit_sequence(table.closed_sequence(), args.json)
        return 0
    cells = [(n, k, table.count(n, k)) for n in range(table.max_n + 1) for k in range(n + 2)]
    if args.json:
        _write_json({"provenance": table.provenance, "max_n": table.max_n, "cells": cells})
    else:
        _write_csv("n,k,count", cells)
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    from . import terms
    k = args.k  # --closed allows only the default k = 0
    show = terms.to_ascii if args.ascii else (
        lambda t: terms.render(t, terms.default_context(k))
    )
    if args.family in _CLASS_FAMILIES:
        from . import exchange
        groups = exchange.class_groups(_CLASS_FAMILIES[args.family], args.n, k)
        shown = [[show(t) for t in group] for group in groups]
        if args.json:
            _write_json(shown)
        else:  # blank-line-separated groups, one term per line
            _write("\n".join("".join(f"{line}\n" for line in g) for g in shown))
        return 0
    from . import enumeration
    family = _TERM_FAMILIES[args.family]
    _emit_sequence(map(show, enumeration.enum_family(family, args.n, k)), args.json)
    return 0


def cmd_crosscheck(args: argparse.Namespace) -> int:
    from . import crosscheck
    kwargs = {}
    if args.cap_override is not None:
        kwargs["enum_cap"] = args.cap_override
        kwargs["maps_cap"] = args.cap_override
    report = crosscheck.run_crosscheck(args.max_n, **kwargs)
    if args.json:
        fields = ("name", "producers", "indices", "ok", "divergence")
        checks = [{f: getattr(c, f) for f in fields} for c in report.checks]
        _write_json({"pass": report.ok, "checks": checks})
    else:
        for c in report.checks:
            where = f": {c.divergence}" if c.divergence else ""
            _write(f"[{'ok  ' if c.ok else 'FAIL'}] {c.name} ({c.producers}; {c.indices}){where}\n")
        _write(f"crosscheck: {'PASS' if report.ok else 'FAIL'}\n")
    return 0 if report.ok else 1


def cmd_series_table(args: argparse.Namespace) -> int:
    from . import series
    sol = series.solve(FamilyName(args.family), args.max_n)
    s, name = sol.series, sol.which.value
    if args.closed:
        _emit_sequence(s.closed_sequence(), args.json)
    elif args.json:
        _write_json({"family": name, "flavor": sol.flavor.value, "trunc": s.max_n, "rows": s.rows})
    else:  # the cells k <= n + 1, one z-row n per write
        _write("family,n,k,coeff\n")
        for n in range(s.max_n + 1):
            _write("".join(f"{name},{n},{k},{c}\n" for k, c in enumerate(s.row(n))))
    return 0


def cmd_maps_census(args: argparse.Namespace) -> int:
    from . import maps
    variant = _MAP_VARIANTS[args.variant]
    if args.list:
        reps = maps.census_maps(args.edges, variant, cap_override=args.cap_override)
        for m in reps:
            _write(m.to_text() + "\n")
        return 0
    cens = maps.census(args.edges, variant, cap_override=args.cap_override)
    cells = [(n, k, c) for (n, k), c in sorted(cens.entries.items())]
    if args.json:
        _write_json({"variant": variant.value, "edges": args.edges, "cells": cells})
    else:
        _write_csv("edges,vertices,count", cells)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linlam",
        description="Exact censuses of linear lambda terms, exchange classes, and rooted maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    all_families = [*_TERM_FAMILIES, *_CLASS_FAMILIES]

    p = sub.add_parser("count", help="count a family by size and free variables")
    p.add_argument("--family", required=True, choices=all_families)
    p.add_argument("--max-n", type=int, default=5)
    p.add_argument("--closed", action="store_true", help="print only the k=0 column")
    p.add_argument("--producer", choices=("enum", "series", "maps"), default="enum")
    p.add_argument("--labeled", action="store_true",
                   help="for class families, count labeled contexts (default unlabeled)")
    p.add_argument("--cap-override", type=int, default=None)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("list", help="list the terms or class groups of one cell")
    p.add_argument("--family", required=True, choices=all_families)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--closed", action="store_true", help="same as --k 0")
    p.add_argument("--ascii", action="store_true",
                   help="print the canonical prefix serialization instead of named syntax")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("crosscheck", help="run all agreement and reference checks")
    p.add_argument("--max-n", type=int, default=5)
    p.add_argument("--cap-override", type=int, default=None,
                   help="raise the enumeration and map-census caps (defaults 5 and 5)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("series-table", help="print one family's coefficient table")
    p.add_argument("--family", required=True, choices=[f.value for f in FamilyName])
    p.add_argument("--max-n", type=int, default=12)
    p.add_argument("--closed", action="store_true")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("maps-census", help="count rooted maps with a given edge count")
    p.add_argument("--edges", type=int, required=True)
    p.add_argument("--variant", choices=list(_MAP_VARIANTS), default="all")
    p.add_argument("--cap-override", type=int, default=None)
    p.add_argument("--list", action="store_true", help="print one map per line instead")
    p.add_argument("--json", action="store_true")

    return parser


# the least --max-n each command accepts; crosscheck needs a size to compare
_LEAST_MAX_N = {"count": 0, "series-table": 0, "crosscheck": 1}


def _check_usage(args: argparse.Namespace) -> None:
    """Raise ValueError for out-of-range sizes, map censuses, negative or unused caps,
    and options that cannot go together."""
    least = _LEAST_MAX_N.get(args.command)
    if least is not None and args.max_n < least:
        raise ValueError(f"--max-n must be at least {least}")
    if (getattr(args, "cap_override", None) or 0) < 0:
        raise ValueError("--cap-override must be non-negative")
    if args.command == "list" and min(args.n, args.k) < 0:
        raise ValueError("--n and --k must be non-negative")
    if args.command == "list" and args.closed and args.k:
        raise ValueError(f"--closed lists k = 0, not --k {args.k}")
    if args.command == "maps-census" and args.list and args.json:
        raise ValueError("--list prints one map per line, not --json")
    if args.command == "count" and args.labeled:
        if args.family not in _CLASS_FAMILIES:
            raise ValueError(f"--labeled counts class families only, not {args.family}")
        if args.producer != "enum":
            raise ValueError(f"--labeled needs the enum producer; {args.producer} counts unlabeled")
    if args.command == "maps-census":
        from . import maps
        maps.check_edge_count(args.edges, _MAP_VARIANTS[args.variant], args.cap_override)
    elif args.command == "count" and args.producer != "maps":
        if args.cap_override is not None:
            raise ValueError(f"--cap-override caps the maps producer only, not {args.producer}")
    elif args.command == "count":
        if args.family != "classes-neutral":
            raise ValueError("the maps producer only counts classes-neutral (edges, vertices)")
        if args.max_n >= 1:
            from . import maps
            maps.check_edge_count(args.max_n, Variant.ALL_GENERA, args.cap_override)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_usage(args)
    except ValueError as err:
        parser.error(str(err))
    run = {"count": cmd_count, "list": cmd_list, "crosscheck": cmd_crosscheck,
           "series-table": cmd_series_table, "maps-census": cmd_maps_census}[args.command]
    try:
        status = run(args)
        try:
            sys.stdout.flush()
        except BrokenPipeError as err:
            raise _StdoutClosed from err
    except _StdoutClosed:
        # what is still buffered goes to devnull, so the flush at exit stays silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE
    return status


if __name__ == "__main__":
    sys.exit(main())

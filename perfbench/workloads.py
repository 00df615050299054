"""Workloads of the linlam benchmark and the checks on their outputs.

Every expected value is held here, independent of the producers:

* three OEIS prefixes, A062980, A000168 and A000698, each extended by its
  published recurrence or closed form;
* the (edges, vertices) cells of the all-genera and planar rooted-map
  censuses up to four edges;
* the sha256 of every command's stdout, recorded at the commit that added the
  benchmark (``reference.json``).

A check returns ``None`` when the output is right and a one-line reason when
it is not.  Crosscheck output is judged on its JSON, not hashed, so that
fields added to its rows later (such as timings) do not count as failures.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from functools import partial
from math import comb, factorial
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
SHA256 = json.loads((HERE / "reference.json").read_text())["sha256"]

# Published prefixes, copied from the OEIS.  The functions below extend them;
# the self-test checks that each extension reproduces its copy.
A062980_PREFIX = (1, 5, 60, 1105, 27120, 828250, 30220800, 1282031525)
A000168_PREFIX = (1, 2, 9, 54, 378, 2916, 24057, 208494, 1876446)
A000698_PREFIX = (1, 1, 2, 10, 74, 706, 8162, 110410, 1708394)


def a062980(count: int) -> list[int]:
    """Rooted trivalent maps; a(n) = (6n-2) a(n-1) + sum a(k) a(n-1-k)."""
    a = [1]
    while len(a) < count:
        n = len(a)
        a.append((6 * n - 2) * a[n - 1] + sum(a[k] * a[n - 1 - k] for k in range(n)))
    return a[:count]


def a000168(count: int) -> list[int]:
    """Rooted planar maps with n edges: 2 3^n (2n)! / (n! (n+2)!)."""
    return [
        2 * 3**n * factorial(2 * n) // (factorial(n) * factorial(n + 2))
        for n in range(count)
    ]


def a000698(count: int) -> list[int]:
    """a(n) = (2n-1)!! - sum_{k=1}^{n-1} (2k-1)!! a(n-k), with a(0) = 1."""

    def double_factorial(n: int) -> int:
        return factorial(2 * n) // (2**n * factorial(n))

    a = [1]
    while len(a) < count:
        n = len(a)
        a.append(
            double_factorial(n)
            - sum(double_factorial(k) * a[n - k] for k in range(1, n))
        )
    return a[:count]


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


# Rooted maps of every genus by (edges, vertices).  A row sums to
# A000698(edges + 1); one vertex gives (2e - 1)!! maps and e + 1 vertices
# (plane trees) give Catalan(e).
MAP_CELLS: dict[int, dict[int, int]] = {
    1: {1: 1, 2: 1},
    2: {1: 3, 2: 5, 3: 2},
    3: {1: 15, 2: 32, 3: 22, 4: 5},
    4: {1: 105, 2: 260, 3: 234, 4: 93, 5: 14},
}
# Rooted planar maps with four edges by vertices: duality makes the row
# symmetric, both ends are Catalan(4), and it sums to A000168(4).
PLANAR_CELLS_4: dict[int, int] = {1: 14, 2: 93, 3: 164, 4: 93, 5: 14}


def reference_problems() -> list[str]:
    """Disagreements between the reference data and the facts it must obey."""
    problems = []
    for name, extend, prefix in (("A062980", a062980, A062980_PREFIX),
                                 ("A000168", a000168, A000168_PREFIX),
                                 ("A000698", a000698, A000698_PREFIX)):
        if extend(len(prefix)) != list(prefix):
            problems.append(f"the {name} extension differs from its copy")
    maps_total = a000698(6)
    for e, cells in MAP_CELLS.items():
        one_vertex = factorial(2 * e) // (2**e * factorial(e))
        if (sum(cells.values()) != maps_total[e + 1] or cells[1] != one_vertex
                or cells[e + 1] != catalan(e)):
            problems.append(f"the map cells at {e} edges break a known count")
    row = [PLANAR_CELLS_4[v] for v in range(1, 6)]
    if row != row[::-1] or row[0] != catalan(4) or sum(row) != a000168(5)[4]:
        problems.append("the planar cells at 4 edges break a known count")
    return problems


# ---------------------------------------------------------------------------
# Parsing helpers


def _csv_rows(text: str, header: str) -> list[list[str]] | str:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return f"header is not {header!r}"
    return [line.split(",") for line in lines[1:]]


def _census_cells(text: str, header: str) -> dict[tuple[int, int], int] | str:
    rows = _csv_rows(text, header)
    if isinstance(rows, str):
        return rows
    cells: dict[tuple[int, int], int] = {}
    for row in rows:
        try:
            n, k, c = (int(x) for x in row)
        except ValueError:
            return f"malformed row {','.join(row)!r}"
        cells[(n, k)] = c
    return cells


def _first_difference(got: dict, want: dict) -> str | None:
    for key in sorted(set(got) | set(want)):
        if got.get(key, 0) != want.get(key, 0):
            return f"cell {key}: {got.get(key, 0)} != {want.get(key, 0)}"
    return None


# ---------------------------------------------------------------------------
# Structural checks, one per kind of command


def check_crosscheck(text: str) -> str | None:
    try:
        report = json.loads(text)
    except ValueError:
        return "crosscheck output is not JSON"
    if not isinstance(report, dict) or report.get("pass") is not True:
        return "crosscheck pass is not true"
    rows = report.get("checks")
    if not isinstance(rows, list) or not rows:
        return "crosscheck compared nothing (no rows)"
    failed = [str(r.get("name")) for r in rows if not isinstance(r, dict) or r.get("ok") is not True]
    if failed:
        return f"crosscheck rows failed: {', '.join(failed)}"
    return None


def check_map_cells(text: str, max_edges: int) -> str | None:
    """`count --producer maps` prints (n, k) cells from n = 0."""
    cells = _census_cells(text, "n,k,count")
    if isinstance(cells, str):
        return cells
    want = {(n, k): 0 for n in range(max_edges + 1) for k in range(n + 2)}
    for e in range(1, max_edges + 1):
        want.update({(e, v): c for v, c in MAP_CELLS[e].items()})
    if set(cells) != set(want):
        return "cells do not cover the triangle n <= max_n, k <= n + 1"
    return _first_difference(cells, want)


def check_census(text: str, want: dict[tuple[int, int], int]) -> str | None:
    cells = _census_cells(text, "edges,vertices,count")
    if isinstance(cells, str):
        return cells
    return _first_difference(cells, want)


def _parse_cycles(text: str) -> list[list[int]]:
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(text)
    return [[int(d) for d in c.split()] for c in text[1:-1].split(")(")]


def _map_code(sigma: list[int], alpha: list[int]) -> bytes | None:
    """Root-based relabelling (sigma before alpha); None if not transitive."""
    num = {0: 0}
    order = [0]
    for d in order:
        for e in (sigma[d], alpha[d]):
            if e not in num:
                num[e] = len(order)
                order.append(e)
    if len(order) != len(sigma):
        return None
    return bytes(num[sigma[d]] for d in order) + b"|" + bytes(num[alpha[d]] for d in order)


def check_map_list(text: str, edges: int) -> str | None:
    """Every listed map is valid, none repeats up to rooted isomorphism, and
    the vertex tally matches the census cells."""
    darts = 2 * edges
    alpha = [d ^ 1 for d in range(darts)]
    seen: set[bytes] = set()
    tally: dict[int, int] = {}
    for line in text.splitlines():
        match = re.fullmatch(r"sigma=(\S.*) alpha=(\S.*) root=(\d+)", line)
        try:
            cycles = _parse_cycles(match[1])
            alpha_cycles = _parse_cycles(match[2])
        except (TypeError, ValueError):
            return f"malformed map line {line!r}"
        if match[3] != "0" or alpha_cycles != [[d, d + 1] for d in range(0, darts, 2)]:
            return f"map not on the standard involution and root: {line!r}"
        sigma = [-1] * darts
        for c in cycles:
            for i, d in enumerate(c):
                if not 0 <= d < darts or sigma[d] >= 0:
                    return f"sigma is not a permutation: {line!r}"
                sigma[d] = c[(i + 1) % len(c)]
        if -1 in sigma:
            return f"sigma is not a permutation: {line!r}"
        code = _map_code(sigma, alpha)
        if code is None:
            return f"map is not connected: {line!r}"
        if code in seen:
            return f"map listed twice up to isomorphism: {line!r}"
        seen.add(code)
        tally[len(cycles)] = tally.get(len(cycles), 0) + 1
    return _first_difference(tally, MAP_CELLS[edges])


def check_series(text: str, family: str, max_n: int) -> str | None:
    rows = _csv_rows(text, "family,n,k,coeff")
    if isinstance(rows, str):
        return rows
    want_keys = [(n, k) for n in range(max_n + 1) for k in range(n + 2)]
    coeff: dict[tuple[int, int], int] = {}
    for row in rows:
        try:
            name, n, k, c = row[0], int(row[1]), int(row[2]), int(row[3])
        except (IndexError, ValueError):
            return f"malformed row {','.join(row)!r}"
        if name != family:
            return f"row for family {name!r}"
        coeff[(n, k)] = c
    if list(coeff) != want_keys or len(rows) != len(want_keys):
        return "rows do not cover n <= max_n, k <= n + 1 in order"
    closed = [coeff[(n, 0)] for n in range(1, max_n + 1)]
    reference = {
        # closed linear terms of size n are trivalent maps: A062980(n - 1)
        "L": a062980(max_n),
        # closed planar normal terms of size n are planar maps: A000168(n - 1)
        "PR": a000168(max_n),
        # closed normal exchange classes of size n: A000698(n)
        "QR": a000698(max_n + 1)[1:],
    }.get(family)
    if reference is not None:
        for n, (got, want) in enumerate(zip(closed, reference), start=1):
            if got != want:
                return f"closed column at n={n}: {got} != {want}"
    if family == "QB":
        # neutral classes are rooted maps: (n, k) -> (edges, vertices)
        maps_total = a000698(max_n + 2)
        for n in range(1, max_n + 1):
            if sum(coeff[(n, k)] for k in range(n + 2)) != maps_total[n + 1]:
                return f"row {n} does not sum to A000698({n + 1})"
        for e, cells in MAP_CELLS.items():
            for v in range(e + 2):
                if coeff[(e, v)] != cells.get(v, 0):
                    return f"cell ({e}, {v}): {coeff[(e, v)]} != {cells.get(v, 0)}"
    return None


def check_line_count(text: str, want: int) -> str | None:
    lines = text.splitlines()
    if len(lines) != want:
        return f"{len(lines)} lines, expected {want}"
    if len(set(lines)) != want:
        return "a term is listed twice"
    return None


def check_group_count(text: str, want: int) -> str | None:
    groups = [g for g in text.split("\n\n") if g.strip()]
    if len(groups) != want:
        return f"{len(groups)} groups, expected {want}"
    return None


def check_help(text: str) -> str | None:
    return None if text.startswith("usage: linlam") else "help text does not start with usage"


# ---------------------------------------------------------------------------
# Workloads


@dataclass(frozen=True)
class Command:
    """One `linlam` invocation and the check on its stdout."""

    args: tuple[str, ...]
    check: Callable[[str], str | None]
    hashed: bool = True

    @property
    def key(self) -> str:
        return " ".join(self.args)

    def judge(self, stdout: bytes) -> str | None:
        """Why this stdout is wrong, or None when it is right."""
        if self.hashed and hashlib.sha256(stdout).hexdigest() != SHA256.get(self.key):
            return "stdout differs from the recorded sha256"
        try:
            text = stdout.decode("utf-8")
        except UnicodeDecodeError:
            return "stdout is not UTF-8"
        return self.check(text)


def _cmd(text: str, check: Callable[[str], str | None], hashed: bool = True) -> Command:
    return Command(tuple(text.split()), check, hashed)


HELP = _cmd("--help", check_help, hashed=False)

SERIES_FAMILIES = ("L", "LB", "LR", "PB", "PR", "QB", "QR")
SERIES_MAX_N = 70

# BENCHMARK.json gates crosscheck and series-deep; the others are measured
# with --workload NAME and --all but not gated (see README.md, Workloads).
WORKLOADS: dict[str, tuple[Command, ...]] = {
    "maps-census": (
        _cmd("count --family classes-neutral --producer maps --max-n 4",
             partial(check_map_cells, max_edges=4)),
        _cmd("maps-census --edges 4 --variant planar",
             partial(check_census, want={(4, v): c for v, c in PLANAR_CELLS_4.items()})),
        # trivalent maps with 6 edges have 4 vertices; closed linear size 3
        _cmd("maps-census --edges 6 --variant trivalent",
             partial(check_census, want={(6, 4): a062980(3)[2]})),
        _cmd("maps-census --edges 4 --list", partial(check_map_list, edges=4)),
    ),
    "series-deep": tuple(
        _cmd(f"series-table --family {f} --max-n {SERIES_MAX_N}",
             partial(check_series, family=f, max_n=SERIES_MAX_N))
        for f in SERIES_FAMILIES
    ),
    "list-terms": (
        _cmd("list --family linear --closed --n 5",
             partial(check_line_count, want=a062980(5)[4])),
        _cmd("list --family classes-normal --closed --n 5",
             partial(check_group_count, want=a000698(6)[5])),
        # labeled classes: 2! orderings of the context per rooted map
        _cmd("list --family classes-neutral --n 4 --k 2",
             partial(check_group_count, want=2 * MAP_CELLS[4][2])),
        _cmd("list --family planar-normal --closed --n 6",
             partial(check_line_count, want=a000168(6)[5])),
    ),
    # Every agreement and reference row, with enumeration and classes to n = 4.
    "crosscheck": (_cmd("crosscheck --json --max-n 4", check_crosscheck, hashed=False),),
    # The default crosscheck (n <= 5) takes 45-65 s, too long to repeat within
    # one run, so BENCHMARK.json leaves it out; --all still measures it.
    "crosscheck-full": (_cmd("crosscheck --json", check_crosscheck, hashed=False),),
}

"""Three-way cross-checks between enumeration, series, and map censuses.

Every check compares two independently computed tables (or a table against
an embedded reference prefix) and records the first divergence, if any.
The embedded data also includes the thirty smallest closed normal terms and
their grouping into exchange classes, which pins the parser, the printer,
the classifier, and the canonicalizer against known ground truth.
"""

from __future__ import annotations

from math import factorial

from . import enumeration, exchange, maps, series, terms
from .enumeration import CountTable
from .names import FAMILY_SERIES, Family, FamilyName, Variant
from .terms import FVar, Term


class ReferenceSequences:
    """Closed-term count prefixes, starting at size 1, with OEIS labels."""

    __slots__ = ("linear_closed", "normal_closed", "planar_normal_closed",
                 "quotient_closed", "oeis")

    def __init__(
        self,
        linear_closed: tuple[int, ...] = (1, 5, 60, 1105, 27120, 828250),
        normal_closed: tuple[int, ...] = (1, 3, 26, 367, 7142, 176766),
        planar_normal_closed: tuple[int, ...] = (1, 2, 9, 54, 378, 2916),
        quotient_closed: tuple[int, ...] = (1, 2, 10, 74, 706, 8162),
        oeis: dict[str, str] | None = None,
    ) -> None:
        self.linear_closed = linear_closed
        self.normal_closed = normal_closed
        self.planar_normal_closed = planar_normal_closed
        self.quotient_closed = quotient_closed
        self.oeis = {
            "linear_closed": "A062980",
            "planar_normal_closed": "A000168",
            "quotient_closed": "A000698",
        } if oeis is None else oeis


REFERENCE_SEQUENCES = ReferenceSequences()

# The thirty smallest closed normal terms (sizes 1 to 3), grouped into
# exchange classes; the first member of each group is the class listing's
# representative.
NORMAL_CLASS_GROUPS_UP_TO_SIZE_3: tuple[tuple[str, ...], ...] = (
    ("λx. x",),
    ("λx. x(λy. y)",),
    ("λx. λy. x(y)", "λx. λy. y(x)"),
    ("λx. x(λy. y(λz. z))",),
    ("λx. x(λy. λz. y(z))", "λx. x(λy. λz. z(y))"),
    ("λx. x(λy. y)(λz. z)",),
    ("λx. λy. x(y)(λz. z)", "λx. λy. y(x)(λz. z)"),
    ("λx. λy. x(y(λz. z))", "λx. λy. y(x(λz. z))"),
    ("λx. λy. x(λz. y(z))", "λx. λy. y(λz. x(z))"),
    ("λx. λy. x(λz. z(y))", "λx. λy. y(λz. z(x))"),
    ("λx. λy. x(λz. z)(y)", "λx. λy. y(λz. z)(x)"),
    (
        "λx. λy. λz. x(y)(z)",
        "λx. λy. λz. y(x)(z)",
        "λx. λy. λz. x(z)(y)",
        "λx. λy. λz. z(x)(y)",
        "λx. λy. λz. y(z)(x)",
        "λx. λy. λz. z(y)(x)",
    ),
    (
        "λx. λy. λz. x(y(z))",
        "λx. λy. λz. x(z(y))",
        "λx. λy. λz. y(x(z))",
        "λx. λy. λz. y(z(x))",
        "λx. λy. λz. z(x(y))",
        "λx. λy. λz. z(y(x))",
    ),
)

NORMAL_TERMS_UP_TO_SIZE_3: tuple[str, ...] = tuple(
    text for group in NORMAL_CLASS_GROUPS_UP_TO_SIZE_3 for text in group
)

# Closed-term size m corresponds to maps with m - 1 edges for the quotient
# and planar families, and to trivalent maps with 3(m - 1) edges.
MAP_SIZE_SHIFT = 1


class CheckResult:
    __slots__ = ("name", "producers", "indices", "ok", "divergence")

    def __init__(self, name: str, producers: str, indices: str, ok: bool,
                 divergence: str | None = None) -> None:
        self.name = name
        self.producers = producers
        self.indices = indices
        self.ok = ok
        self.divergence = divergence

    def line(self) -> str:
        status = "ok  " if self.ok else "FAIL"
        where = f": {self.divergence}" if self.divergence else ""
        return f"[{status}] {self.name} ({self.producers}; {self.indices}){where}"


class CrossCheckReport:
    __slots__ = ("checks",)

    def __init__(self, checks: list[CheckResult] | None = None) -> None:
        self.checks = [] if checks is None else checks

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_text(self) -> str:
        lines = [c.line() for c in self.checks]
        lines.append(f"crosscheck: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        import json

        # each check's fields, in the order of CheckResult.__slots__
        checks = [{f: getattr(c, f) for f in CheckResult.__slots__} for c in self.checks]
        data = {"pass": self.ok, "checks": checks}
        return json.dumps(data, indent=2) + "\n"


def _row(name: str, producers: str, indices: str, problem: str | None) -> CheckResult:
    return CheckResult(name, producers, indices, problem is None, problem)


def _compare(name: str, producers: str, indices: str, pairs) -> CheckResult:
    """A row over (where, got, want) triples: fail at the first got != want, or on none."""
    problem = "compared nothing"
    for where, a, b in pairs:
        if a != b:
            return _row(name, producers, indices, f"first divergence at {where}: {a} != {b}")
        problem = None
    return _row(name, producers, indices, problem)


def _compare_cells(
    name: str,
    producers: str,
    left,
    right,
    max_n: int,
    first_n: int = 0,
) -> CheckResult:
    """Compare two (n, k) -> count views over the triangular window from first_n."""
    cells = (
        (f"(n={n}, k={k})", left(n, k), right(n, k))
        for n in range(first_n, max_n + 1)
        for k in range(n + 2)
    )
    return _compare(name, producers, f"n<={max_n}", cells)


def _compare_sequences(
    name: str, producers: str, got: list[int], want: list[int], first_n: int = 1
) -> CheckResult:
    limit = min(len(got), len(want))
    pairs = ((f"n={first_n + i}", got[i], want[i]) for i in range(limit))
    return _compare(name, producers, f"n={first_n}..{first_n + limit - 1}", pairs)


def _check_reference_terms(enum_cap: int) -> CheckResult:
    """Pin parsing, printing, classification, and enumeration to the embedded list."""
    parsed: dict[int, set[Term]] = {1: set(), 2: set(), 3: set()}
    problem = None
    for text in NORMAL_TERMS_UP_TO_SIZE_3:
        t = terms.parse(text)
        if not terms.check_linear(t, 0):
            problem = f"{text!r} is not closed linear"
            break
        cls = terms.classify(t)
        if not cls.is_normal:
            problem = f"{text!r} did not classify as normal"
            break
        if terms.parse(terms.render(t)) != t:
            problem = f"{text!r} failed the print/parse round trip"
            break
        parsed[cls.normal_size].add(t)
    top = min(enum_cap, 3)
    if problem is None and top < 1:
        problem = "compared nothing"
    if problem is None:
        for n in range(1, top + 1):
            enumerated = set(enumeration.enum_family(Family.NORMAL, n, 0))
            if enumerated != parsed[n]:
                problem = f"size {n}: enumerated {len(enumerated)} != listed {len(parsed[n])}"
                break
    return _row(
        "terms:embedded-list",
        "parser/classifier vs enumeration",
        f"sizes 1..{top}",
        problem,
    )


def _grouping_problem() -> str | None:
    # the first way the embedded grouping and deduplication disagree, if any
    want_groups = {
        frozenset(terms.parse(text) for text in group)
        for group in NORMAL_CLASS_GROUPS_UP_TO_SIZE_3
    }
    got_groups = set()
    for n in (1, 2, 3):
        for group in exchange.class_groups(Family.NORMAL, n, 0):
            got_groups.add(frozenset(group))
    if got_groups != want_groups:
        return "class partition differs from the embedded grouping"
    for group in NORMAL_CLASS_GROUPS_UP_TO_SIZE_3:
        members = [terms.parse(text) for text in group]
        rep = members[0]
        for t in members:
            if not exchange.is_isomorphic(t, rep):
                return f"{terms.render(t)} not isomorphic to its representative"
            for swapped in exchange.local_exchanges(t):
                if exchange.canonicalize(swapped) != exchange.canonicalize(rep):
                    return f"an exchange of {terms.render(t)} left its class"
    return None


def _check_reference_grouping() -> CheckResult:
    """The embedded class grouping must match canonical-form deduplication."""
    return _row(
        "classes:embedded-grouping",
        "canonicalize vs embedded classes",
        "sizes 1..3",
        _grouping_problem(),
    )


def _class_construction_problem(top: int) -> str | None:
    # the first cell where construction and deduplication disagree, if any
    for family in enumeration.CLASS_FAMILIES:
        for n, k, cell in enumeration.class_cells(family, top):
            if n < 1:
                continue
            built = list(cell)
            distinct = set(built)
            leaders = [group[0] for group in exchange.class_groups(family, n, k)]
            free = [FVar(j) for j in range(k)]  # first occurring in the order 0..k-1
            in_order = {t for t in leaders if list(exchange.occurrences(t)) == free}
            where = f"{family.value} (n={n}, k={k})"
            if len(distinct) != len(built):
                return f"{where}: a representative was constructed twice"
            if len(distinct) != len(in_order):
                return f"{where}: {len(distinct)} constructed != {len(in_order)} by dedup"
            if distinct != in_order:
                return f"{where}: constructed and dedup representatives differ"
            if factorial(k) * len(distinct) != len(leaders):
                return f"{where}: {k}! x {len(distinct)} constructed != {len(leaders)} by dedup"
    return None


def _check_class_construction(enum_cap: int) -> CheckResult:
    """Constructed class representatives against canonical-form deduplication.

    In every cell of sizes 1..min(enum_cap, 3) of both class families, the
    class grammar must build each representative once, and build exactly
    the leaders of the groups that class_groups finds by deduplication
    whose free variables first occur in order; k! times as many leaders
    must exist in all, one per relabeling.
    """
    top = min(enum_cap, 3)
    problem = _class_construction_problem(top) if top >= 1 else "compared nothing"
    return _row(
        "classes:construction-vs-dedup",
        "class grammar vs canonical dedup",
        f"sizes 1..{top}",
        problem,
    )


def run_crosscheck(
    max_n: int = 5,
    *,
    enum_cap: int = 5,
    maps_cap: int = 5,
    trivalent_edge_cap: int = 12,
    series_trunc: int = 12,
    references: ReferenceSequences = REFERENCE_SEQUENCES,
) -> CrossCheckReport:
    """Run every producer agreement check and reference comparison.

    Enumeration runs to min(max_n, enum_cap); the all-genera map census,
    whose genus-0 maps are the planar census, runs to min(max_n, maps_cap);
    trivalent censuses cover closed sizes 2 <= m <= max_n with 3(m - 1)
    within trivalent_edge_cap.  Series always reach series_trunc.
    """
    enum_n = min(max_n, enum_cap)
    maps_n = min(max_n, maps_cap)
    trunc = max(series_trunc, max_n, len(references.linear_closed))
    report = CrossCheckReport(
        [
            _check_reference_terms(enum_n),
            _check_reference_grouping(),
            _check_class_construction(enum_n),
        ]
    )

    # one solve per equation system: L alone, and each mutual pair once
    systems = (FamilyName.L, FamilyName.LB, FamilyName.PB, FamilyName.QB)
    solved = [series.solve(name, trunc) for name in systems]
    solutions = {which: s for sol in solved for which, s in sol.system.items()}
    checked = {equation: cells for sol in solved for equation, cells in sol.checked.items()}

    neutral_classes = exchange.count_classes(Family.NEUTRAL, enum_n)
    normal_classes = exchange.count_classes(Family.NORMAL, enum_n)

    # enumeration against the series coefficients, bivariately
    enum_tables: dict[Family, CountTable] = {}
    for family in Family:
        table = enum_tables[family] = enumeration.count_family(family, enum_n)
        report.checks.append(
            _compare_cells(
                f"enum-vs-series:{family.value}",
                "enumeration vs series",
                table.count,
                solutions[FAMILY_SERIES[family.value]].coeff,
                enum_n,
            )
        )

    # exchange classes against the quotient series, both families
    report.checks += [
        _compare_cells(
            "classes-vs-series:neutral",
            "class grammar vs quotient series",
            neutral_classes.unlabeled.count,
            solutions[FamilyName.QB].coeff,
            enum_n,
        ),
        _compare_sequences(
            "classes-vs-series:normal-closed",
            "class grammar vs quotient series",
            normal_classes.unlabeled.closed_sequence(1, enum_n),
            solutions[FamilyName.QR].closed_sequence(1, enum_n),
        ),
    ]

    # solve checked the fixpoint equation B(z,x) = x + z B(z,x) B(z,x+1) and
    # the closed column it implies; these rows report the cells it compared
    equation_rows = [
        ("series:quotient-route-agreement", "mutual pair vs fixpoint equation",
         f"n<={trunc}", series.FIXPOINT),
        ("series:closed-quotient-shift", "closed normal classes vs shifted neutral row sums",
         f"n=1..{trunc}", series.CLOSED_SHIFT),
    ]
    for name, producers, indices, equation in equation_rows:
        problem = None if checked[equation] else "compared nothing"
        report.checks.append(_row(name, producers, indices, problem))

    # map censuses: triple agreement with the quotient series and the classes.
    # One pass over each all-genera census tallies the (edges, vertices)
    # table, counts its genus-0 maps, checks every map's genus and, as the
    # census never consults canonical_code, that no two maps share a code
    census = CountTable(max_n=maps_n, provenance="maps:all")
    planar_totals = []
    parity_problem = None
    repeat_problem = None
    for n in range(1, maps_n + 1):
        codes: dict[bytes, maps.RootedMap] = {}
        planar_totals.append(0)
        for m in maps.census_maps(n, Variant.ALL_GENERA, cap_override=maps_cap):
            key = (n, m.n_vertices)
            census.entries[key] = census.entries.get(key, 0) + 1
            try:
                planar_totals[-1] += maps.genus(m) == 0
            except ArithmeticError as err:
                parity_problem = parity_problem or f"map {m.to_text()}: {err}"
            twin = codes.setdefault(maps.canonical_code(m), m)
            if repeat_problem is None and twin is not m:
                repeat_problem = f"maps {twin.to_text()} and {m.to_text()} are isomorphic"
    if not census.total():
        parity_problem = repeat_problem = "compared nothing"

    # maps start at one edge
    report.checks += [
        _compare_cells(
            "series-vs-census:bivariate",
            "quotient series vs map census",
            solutions[FamilyName.QB].coeff,
            census.count,
            maps_n,
            first_n=1,
        ),
        _compare_cells(
            "classes-vs-census:bivariate",
            "class grammar vs map census",
            neutral_classes.unlabeled.count,
            census.count,
            min(maps_n, enum_n),
            first_n=1,
        ),
        _row(
            "maps:euler-parity",
            "faces/genus consistency",
            f"n<={maps_n}",
            parity_problem,
        ),
        _row(
            "maps:distinct-codes",
            "census maps pairwise non-isomorphic",
            f"n<={maps_n}",
            repeat_problem,
        ),
    ]

    # planar maps against planar closed terms, shifted by one size
    report.checks.append(
        _compare_sequences(
            "census:planar-vs-planar-terms",
            "planar census vs planar series",
            planar_totals,
            [
                solutions[FamilyName.PR].coeff(n + MAP_SIZE_SHIFT, 0)
                for n in range(1, maps_n + 1)
            ],
        )
    )

    # trivalent maps against all closed linear terms: size m <-> 3(m-1) edges
    trivalent_sizes = [
        m for m in range(2, max_n + 1) if 3 * (m - 1) <= trivalent_edge_cap
    ]
    if trivalent_sizes:
        got = [
            maps.census(3 * (m - 1), Variant.TRIVALENT).total()
            for m in trivalent_sizes
        ]
        want = [solutions[FamilyName.L].coeff(m, 0) for m in trivalent_sizes]
        report.checks.append(
            _compare_sequences(
                "census:trivalent-vs-linear-terms",
                "trivalent census vs linear series",
                got,
                want,
                first_n=trivalent_sizes[0],
            )
        )

    # embedded reference prefixes, each over the shorter of the prefix and
    # its producer's window
    linear, normal = references.linear_closed, references.normal_closed
    planar, quotient = references.planar_normal_closed, references.quotient_closed
    longest = max(map(len, (linear, normal, planar, quotient)))
    closed = {which: sol.closed_sequence(1, longest) for which, sol in solutions.items()}
    enum_closed = {f: table.closed_sequence(1, enum_n) for f, table in enum_tables.items()}
    by_series, by_enum = "series vs embedded prefix", "enumeration vs embedded prefix"
    prefix_checks = [
        ("references:series-linear", by_series, closed[FamilyName.L], linear),
        ("references:series-normal", by_series, closed[FamilyName.LR], normal),
        ("references:series-planar-normal", by_series, closed[FamilyName.PR], planar),
        ("references:series-quotient", by_series, closed[FamilyName.QR], quotient),
        ("references:enum-linear", by_enum, enum_closed[Family.LINEAR], linear),
        ("references:enum-normal", by_enum, enum_closed[Family.NORMAL], normal),
        ("references:enum-planar-normal", by_enum, enum_closed[Family.PLANAR_NORMAL], planar),
        (
            "references:classes-quotient",
            "class grammar vs embedded prefix",
            normal_classes.unlabeled.closed_sequence(1, enum_n),
            quotient,
        ),
        (
            "references:maps-quotient",
            "map census vs embedded prefix (one-size shift)",
            [sum(census.row(n)) for n in range(1, maps_n + 1)],
            quotient[MAP_SIZE_SHIFT:],
        ),
        (
            "references:maps-planar",
            "planar census vs embedded prefix (one-size shift)",
            planar_totals,
            planar[MAP_SIZE_SHIFT:],
        ),
    ]
    for name, producers, got, want in prefix_checks:
        report.checks.append(_compare_sequences(name, producers, got, list(want)))

    return report

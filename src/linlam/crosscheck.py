"""Three-way cross-checks between enumeration, series, and map censuses.

The crosscheck is one list of rows, each a tuple (name, producers,
indices, problem): what the row checks, which producers it sets against
each other, the window it covers, and the first problem found there, or
None.  Most rows compare two independently computed tables, or a table
against an embedded reference prefix, as (where, got, want) triples, and
one divergence finder reports the first got != want.  One function,
_verdict, decides every row's verdict from what the row compared and its
first problem, so a row that compared nothing fails.  The embedded data
also includes the thirty smallest closed normal terms and their grouping
into exchange classes, which pins the parser, the printer, the
classifier, and the canonicalizer against known ground truth.
"""

from __future__ import annotations

from array import array
from itertools import chain
from math import factorial

from . import enumeration, exchange, maps, series, terms
from .names import FAMILY_SERIES, CountTable, Family, FamilyName, Variant
from .terms import FVar, Term


class ReferenceSequences:
    """Closed-term count prefixes, starting at size 1."""

    __slots__ = ("linear_closed", "normal_closed", "planar_normal_closed",
                 "quotient_closed")

    def __init__(
        self,
        linear_closed: tuple[int, ...] = (1, 5, 60, 1105, 27120, 828250),  # A062980
        normal_closed: tuple[int, ...] = (1, 3, 26, 367, 7142, 176766),
        planar_normal_closed: tuple[int, ...] = (1, 2, 9, 54, 378, 2916),  # A000168
        quotient_closed: tuple[int, ...] = (1, 2, 10, 74, 706, 8162),  # A000698
    ) -> None:
        self.linear_closed = linear_closed
        self.normal_closed = normal_closed
        self.planar_normal_closed = planar_normal_closed
        self.quotient_closed = quotient_closed


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
EMBEDDED_TOP = 3  # the largest size of an embedded term

# (n, k) -> the class groups of one family's cell, as exchange.dedup_ledger builds them
Ledger = dict[tuple[int, int], list[list[Term]]]

# Closed-term size m corresponds to maps with m - 1 edges for the quotient
# and planar families, and to trivalent maps with 3(m - 1) edges.
MAP_SIZE_SHIFT = 1


class CheckResult:
    __slots__ = ("name", "producers", "indices", "divergence")

    def __init__(self, name: str, producers: str, indices: str, divergence: str | None) -> None:
        self.name = name
        self.producers = producers
        self.indices = indices
        self.divergence = divergence

    @property
    def ok(self) -> bool:
        return self.divergence is None


class CrossCheckReport:
    __slots__ = ("checks",)

    def __init__(self, checks: list[CheckResult]) -> None:
        self.checks = checks

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


# Series always reach order SERIES_TRUNC, and further for a larger max_n or
# a longer reference prefix; trivalent censuses stop at TRIVALENT_EDGE_CAP edges.
SERIES_TRUNC = 12
TRIVALENT_EDGE_CAP = maps.DEFAULT_EDGE_CAPS[Variant.TRIVALENT]


def _verdict(compared: int, problem: str | None) -> str | None:
    """A row's verdict: its first problem, else "compared nothing" if it compared nothing."""
    return problem or (None if compared else "compared nothing")


def _divergence(triples) -> str | None:
    """The verdict on (where, got, want) triples: their first got != want, and nonzero gots."""
    compared = 0
    for where, got, want in triples:
        if got != want:
            return _verdict(compared, f"first divergence at {where}: {got} != {want}")
        compared += got != 0
    return _verdict(compared, None)


def _cells(left, right, max_n: int, first_n: int = 0) -> tuple[str, str | None]:
    """Two tables over the triangular window from first_n."""
    return f"n<={max_n}", _divergence(
        (f"(n={n}, k={k})", left.count(n, k), right.count(n, k))
        for n in range(first_n, max_n + 1)
        for k in range(n + 2)
    )


def _prefix(got, want, first_n: int = 1) -> tuple[str, str | None]:
    """Two sequences from size first_n, over the shorter of the two."""
    limit = min(len(got), len(want))
    return f"n={first_n}..{first_n + limit - 1}", _divergence(
        (f"n={first_n + i}", got[i], want[i]) for i in range(limit)
    )


def _reference_terms_problem(embedded: list[list[Term]], top: int, ledger: Ledger) -> str | None:
    # the first way parsing, printing, classification or the enumeration of
    # sizes 1..top, read from the normal family's dedup ledger, disagrees
    # with the embedded list, if any
    parsed: dict[int, set[Term]] = {n: set() for n in range(1, EMBEDDED_TOP + 1)}
    for text, t in zip(NORMAL_TERMS_UP_TO_SIZE_3, chain.from_iterable(embedded)):
        if not terms.check_linear(t, 0):
            return f"{text!r} is not closed linear"
        cls = terms.classify(t)
        if not cls.is_normal:
            return f"{text!r} did not classify as normal"
        if terms.parse(terms.render(t)) != t:
            return f"{text!r} failed the print/parse round trip"
        if cls.normal_size not in parsed:
            return f"{text!r} classified as size {cls.normal_size}, not 1..{EMBEDDED_TOP}"
        parsed[cls.normal_size].add(t)
    for n in range(1, top + 1):
        enumerated = set(chain.from_iterable(ledger[(n, 0)]))
        if enumerated != parsed[n]:
            return f"size {n}: enumerated {len(enumerated)} != listed {len(parsed[n])}"
    return None


def _grouping_problem(embedded: list[list[Term]], ledger: Ledger) -> str | None:
    # the first way the embedded grouping and deduplication disagree, if any
    want_groups = {frozenset(group) for group in embedded}
    got_groups = {frozenset(g) for n in range(1, EMBEDDED_TOP + 1) for g in ledger[(n, 0)]}
    if got_groups != want_groups:
        return "class partition differs from the embedded grouping"
    for members in embedded:
        rep = members[0]
        form = exchange.canonicalize(rep)
        for t in members:
            if not exchange.is_isomorphic(t, rep):
                return f"{terms.render(t)} not isomorphic to its representative"
            for swapped in exchange.local_exchanges(t):
                if exchange.canonicalize(swapped) != form:
                    return f"an exchange of {terms.render(t)} left its class"
    return None


def _class_construction_problem(top: int, ledgers: dict[Family, Ledger]) -> str | None:
    """The first cell where class construction and deduplication disagree, if any.

    In every cell of sizes 1..top of both class families, the class grammar
    must build each representative once, and build exactly the leaders of
    the groups that the family's dedup ledger finds whose free variables
    first occur in order; k! times as many leaders must exist in all, one
    per relabeling.
    """
    for family in enumeration.CLASS_FAMILIES:
        for n, k, cell in enumeration.class_cells(family, top):
            if n < 1:
                continue
            built = list(cell)
            distinct = set(built)
            leaders = [group[0] for group in ledgers[family][(n, k)]]
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


def _code(m: maps.RootedMap) -> bytes:
    """m's canonical code, packed exactly as 16-bit dart numbers."""
    return array("H", maps.canonical_code(m)).tobytes()


def _isomorphic_pair(n_edges: int, code: bytes, maps_cap: int) -> str:
    """Name the first two maps of the n-edge all-genera census whose code is code."""
    twins: list[maps.RootedMap] = []

    def match(m: maps.RootedMap) -> None:
        try:
            if _code(m) == code:
                twins.append(m)
        except ValueError:  # no code, so no match
            pass

    maps.each_map(n_edges, match, Variant.ALL_GENERA, maps_cap)
    return f"maps {twins[0].to_text()} and {twins[1].to_text()} are isomorphic"


def _walk_maps(
    maps_n: int, maps_cap: int
) -> tuple[CountTable, list[int], str | None, str | None]:
    """One pass over each all-genera census from 1 to maps_n edges.

    Returns the (edges, vertices) table, the number of genus-0 maps per
    edge count, and the first Euler parity problem and the first pair of
    isomorphic maps found, if any; the census never consults
    canonical_code, so the codes are an independent check.  Each map is
    tallied and checked as each_map emits it, and only the codes of one
    edge count are kept; a repeated code walks that edge count again to
    name both maps.
    """
    census = CountTable(max_n=maps_n, provenance="maps:all")
    entries = census.entries
    planar_totals = []
    parity_problem = repeat_problem = None
    for n in range(1, maps_n + 1):
        codes: set[bytes] = set()
        planar = 0

        def visit(m: maps.RootedMap) -> None:
            nonlocal planar, parity_problem, repeat_problem
            key = (n, m.n_vertices)
            entries[key] = entries.get(key, 0) + 1
            try:
                planar += maps.genus(m) == 0
            except ArithmeticError as err:
                parity_problem = parity_problem or f"map {m.to_text()}: {err}"
            try:
                code = _code(m)
            except ValueError as err:
                repeat_problem = repeat_problem or f"map {m.to_text()}: {err}"
                return
            if code in codes:
                repeat_problem = repeat_problem or _isomorphic_pair(n, code, maps_cap)
            codes.add(code)

        maps.each_map(n, visit, Variant.ALL_GENERA, maps_cap)
        planar_totals.append(planar)
    return census, planar_totals, parity_problem, repeat_problem


def run_crosscheck(
    max_n: int = 5,
    *,
    enum_cap: int = 5,
    maps_cap: int = 5,
    references: ReferenceSequences = REFERENCE_SEQUENCES,
) -> CrossCheckReport:
    """Run every producer agreement check and reference comparison.

    Enumeration runs to min(max_n, enum_cap); the all-genera map census,
    whose genus-0 maps are the planar census, runs to min(max_n, maps_cap);
    trivalent censuses cover closed sizes 2 <= m <= max_n with 3(m - 1)
    within TRIVALENT_EDGE_CAP.  Series reach SERIES_TRUNC, max_n and the
    longest reference prefix.
    """
    enum_n = min(max_n, enum_cap)
    maps_n = min(max_n, maps_cap)
    top = min(enum_n, EMBEDDED_TOP)
    linear, normal = references.linear_closed, references.normal_closed
    planar, quotient = references.planar_normal_closed, references.quotient_closed
    longest = max(map(len, (linear, normal, planar, quotient)))
    trunc = max(SERIES_TRUNC, max_n, longest)
    # the embedded terms, parsed once, and one dedup ledger per class family
    # over the sizes the embedded grouping covers, which include 1..top
    embedded = [[terms.parse(text) for text in group]
                for group in NORMAL_CLASS_GROUPS_UP_TO_SIZE_3]
    ledgers = {f: exchange.dedup_ledger(f, EMBEDDED_TOP) for f in enumeration.CLASS_FAMILIES}
    rows = [
        ("terms:embedded-list", "parser/classifier vs enumeration", f"sizes 1..{top}",
         _verdict(top, _reference_terms_problem(embedded, top, ledgers[Family.NORMAL]))),
        ("classes:embedded-grouping", "canonicalize vs embedded classes", "sizes 1..3",
         _grouping_problem(embedded, ledgers[Family.NORMAL])),
        ("classes:construction-vs-dedup", "class grammar vs canonical dedup",
         f"sizes 1..{top}", _verdict(top, _class_construction_problem(top, ledgers))),
    ]

    # one solve per equation system: L alone, and each mutual pair once
    systems = (FamilyName.L, FamilyName.LB, FamilyName.PB, FamilyName.QB)
    solved = [series.solve(name, trunc) for name in systems]
    solutions = {which: s for sol in solved for which, s in sol.system.items()}
    checked = {equation: cells for sol in solved for equation, cells in sol.checked.items()}

    neutral_classes = exchange.count_classes(Family.NEUTRAL, enum_n).unlabeled
    normal_classes = exchange.count_classes(Family.NORMAL, enum_n).unlabeled
    class_closed = normal_classes.closed_sequence()

    # enumeration against the series coefficients, bivariately
    enum_tables: dict[Family, CountTable] = {}
    for family in Family:
        table = enum_tables[family] = enumeration.count_family(family, enum_n)
        rows.append((f"enum-vs-series:{family.value}", "enumeration vs series",
                     *_cells(table, solutions[FAMILY_SERIES[family.value]], enum_n)))

    # exchange classes against the quotient series, both families; solve
    # checked the fixpoint equation B(z,x) = x + z B(z,x) B(z,x+1) and the
    # closed column it implies, and the series: rows report the cells it compared
    by_classes = "class grammar vs quotient series"
    rows += [
        ("classes-vs-series:neutral", by_classes,
         *_cells(neutral_classes, solutions[FamilyName.QB], enum_n)),
        ("classes-vs-series:normal-closed", by_classes,
         *_prefix(class_closed, solutions[FamilyName.QR].closed_sequence(enum_n))),
        ("series:quotient-route-agreement", "mutual pair vs fixpoint equation",
         f"n<={trunc}", _verdict(checked[series.FIXPOINT], None)),
        ("series:closed-quotient-shift", "closed normal classes vs shifted neutral row sums",
         f"n=1..{trunc}", _verdict(checked[series.CLOSED_SHIFT], None)),
    ]

    # map censuses, which start at one edge: triple agreement with the
    # quotient series and the classes, and planar maps against planar
    # closed terms, shifted by one size
    census, planar_totals, parity_problem, repeat_problem = _walk_maps(maps_n, maps_cap)
    walked = census.total()
    planar_terms = [solutions[FamilyName.PR].count(n + MAP_SIZE_SHIFT, 0)
                    for n in range(1, maps_n + 1)]
    rows += [
        ("series-vs-census:bivariate", "quotient series vs map census",
         *_cells(solutions[FamilyName.QB], census, maps_n, first_n=1)),
        ("classes-vs-census:bivariate", "class grammar vs map census",
         *_cells(neutral_classes, census, min(maps_n, enum_n), first_n=1)),
        ("maps:euler-parity", "faces/genus consistency", f"n<={maps_n}",
         _verdict(walked, parity_problem)),
        ("maps:distinct-codes", "census maps pairwise non-isomorphic", f"n<={maps_n}",
         _verdict(walked, repeat_problem)),
        ("census:planar-vs-planar-terms", "planar census vs planar series",
         *_prefix(planar_totals, planar_terms)),
    ]

    # trivalent maps against all closed linear terms: size m <-> 3(m-1) edges
    sizes = [m for m in range(2, max_n + 1) if 3 * (m - MAP_SIZE_SHIFT) <= TRIVALENT_EDGE_CAP]
    if sizes:
        got = [maps.census(3 * (m - MAP_SIZE_SHIFT), Variant.TRIVALENT).total() for m in sizes]
        want = [solutions[FamilyName.L].count(m, 0) for m in sizes]
        rows.append(("census:trivalent-vs-linear-terms", "trivalent census vs linear series",
                     *_prefix(got, want, first_n=sizes[0])))

    # embedded reference prefixes, each over the shorter of the prefix and
    # its producer's window
    closed = {which: sol.closed_sequence(longest) for which, sol in solutions.items()}
    enum_closed = {f: table.closed_sequence() for f, table in enum_tables.items()}
    by_series, by_enum = "series vs embedded prefix", "enumeration vs embedded prefix"
    rows += [
        ("references:series-linear", by_series, *_prefix(closed[FamilyName.L], linear)),
        ("references:series-normal", by_series, *_prefix(closed[FamilyName.LR], normal)),
        ("references:series-planar-normal", by_series, *_prefix(closed[FamilyName.PR], planar)),
        ("references:series-quotient", by_series, *_prefix(closed[FamilyName.QR], quotient)),
        ("references:enum-linear", by_enum, *_prefix(enum_closed[Family.LINEAR], linear)),
        ("references:enum-normal", by_enum, *_prefix(enum_closed[Family.NORMAL], normal)),
        ("references:enum-planar-normal", by_enum,
         *_prefix(enum_closed[Family.PLANAR_NORMAL], planar)),
        ("references:classes-quotient", "class grammar vs embedded prefix",
         *_prefix(class_closed, quotient)),
        ("references:maps-quotient", "map census vs embedded prefix (one-size shift)",
         *_prefix([sum(census.row(n)) for n in range(1, maps_n + 1)], quotient[MAP_SIZE_SHIFT:])),
        ("references:maps-planar", "planar census vs embedded prefix (one-size shift)",
         *_prefix(planar_totals, planar[MAP_SIZE_SHIFT:])),
    ]
    return CrossCheckReport([CheckResult(*row) for row in rows])

import hashlib
import marshal
import os
import random
import signal
import subprocess
import sys
import threading
import tracemalloc
from contextlib import contextmanager
from math import factorial
from pathlib import Path

import pytest

from linlam import cli, series
from linlam.names import CountTable
from linlam.series import FamilyName, Flavor, solve
from oracles import (
    add,
    comb_taylor_shift,
    fixpoint_rows,
    linear_rows,
    neutral_rows,
    normal_rows,
    schoolbook_egf,
    schoolbook_ogf,
    series_product,
    stripped,
)

# Hand-iterated coefficient rows, frozen as oracles.  Row n lists the
# integer coefficients of x^0, x^1, ... in the z^n coefficient; under the
# EGF flavor entry k carries an implicit 1/k!.
LINEAR_ROWS = [[], [1, 1], [5, 4, 2], [60, 50, 32, 12]]
NEUTRAL_ROWS = [[0, 1], [0, 1, 2], [0, 4, 10, 12]]
NORMAL_ROWS = [[], [1, 1], [3, 3, 2], [26, 26, 22, 12]]
PLANAR_NEUTRAL_ROWS = [[0, 1], [0, 1, 1], [0, 3, 4, 2]]
PLANAR_NORMAL_ROWS = [[], [1, 1], [2, 2, 1], [9, 9, 6, 2]]
QUOTIENT_NEUTRAL_ROWS = [[0, 1], [0, 1, 1], [0, 3, 5, 2]]
QUOTIENT_NORMAL_ROWS = [[], [1, 1], [2, 3, 1], [10, 19, 11, 2]]

CLOSED_PREFIXES = {
    FamilyName.L: [1, 5, 60, 1105, 27120, 828250],
    FamilyName.LR: [1, 3, 26, 367, 7142, 176766],
    FamilyName.PR: [1, 2, 9, 54, 378, 2916],
    FamilyName.QR: [1, 2, 10, 74, 706, 8162],
}


def labeled(row):
    """A solver row's labeled counts: entry k, the count over k!, times k!."""
    return [c * factorial(k) for k, c in enumerate(row)]


def solver_row(row, flavor):
    """The solver's row for a table row: under EGF entry k is the count over k!, exactly."""
    if flavor is Flavor.OGF:
        return list(row)
    out = []
    for k, c in enumerate(row):
        q, rem = divmod(c, factorial(k))
        assert not rem, (row, k)
        out.append(q)
    return out


def table_row(row, flavor):
    """The table's row for a solver row."""
    return labeled(row) if flavor is Flavor.EGF else row


class TestRowOracles:
    @pytest.mark.parametrize(
        "which,rows",
        [
            (FamilyName.L, LINEAR_ROWS),
            (FamilyName.LB, NEUTRAL_ROWS),
            (FamilyName.LR, NORMAL_ROWS),
            (FamilyName.PB, PLANAR_NEUTRAL_ROWS),
            (FamilyName.PR, PLANAR_NORMAL_ROWS),
            (FamilyName.QB, QUOTIENT_NEUTRAL_ROWS),
            (FamilyName.QR, QUOTIENT_NORMAL_ROWS),
        ],
    )
    def test_low_order_rows(self, which, rows):
        sol = solve(which, 5)
        for n, row in enumerate(rows):
            assert sol.series.rows[n] == row, (which, n)

    @pytest.mark.parametrize("which,want", sorted(CLOSED_PREFIXES.items(), key=str))
    def test_closed_prefixes(self, which, want):
        assert solve(which, 6).series.closed_sequence(6) == want

    def test_solve_accepts_strings(self):
        assert solve("L", 3).which is FamilyName.L

    def test_negative_truncation_rejected(self):
        with pytest.raises(ValueError):
            solve(FamilyName.L, -1)


class TestMul:
    def test_ogf_polynomial_product(self):
        x, x_plus_1 = series._Form([0, 1]), series._Form([1, 1])
        assert series._convolve([(1, x, x_plus_1)]) == [0, 1, 1]  # x^2 + x

    def test_egf_square_of_x_counts_labelings(self):
        # x squared is x^2, whose coefficient 1 = 2 / 2! counts the two labelings
        x = series._Form([0, 1])
        assert labeled(series._convolve([(1, x, x)])) == [0, 0, 2]

    def test_egf_square_feeds_the_linear_equation(self):
        # squaring the linear solution reproduces the known z^2 input
        sol = solve(FamilyName.L, 2).series
        known = list(series._square_rows([solver_row(row, Flavor.EGF) for row in sol.rows]))[2]
        # back-substituting x-degrees from the top: c[k] = known[k] + (k + 1) c[k+1]
        c = {3: 0}
        for k in (2, 1, 0):
            c[k] = (known[k] if k < len(known) else 0) + (k + 1) * c[k + 1]
        assert c[0] == 5
        assert labeled([c[0], c[1], c[2]]) == sol.rows[2]


class TestTaylorShift:
    def test_shift_x(self):
        assert series._taylor_shift_row([0, 1]) == [1, 1]

    def test_shift_x_squared(self):
        assert series._taylor_shift_row([0, 0, 1]) == [1, 2, 1]


class TestQuotientStructure:
    def test_route_agreement_to_deep_truncation(self):
        # the mutual-pair route and the single fixpoint-equation route must
        # produce the same table; rebuild the fixpoint side without the kernel
        qb = solve(FamilyName.QB, 12).series.rows
        assert qb == fixpoint_rows(qb)

    def test_closed_normal_classes_equal_shifted_row_sums(self):
        qb = solve(FamilyName.QB, 8).series
        qr = solve(FamilyName.QR, 8).series
        for n in range(1, 9):
            assert qr.count(n, 0) == sum(qb.rows[n - 1])

    def test_quotient_z2_row(self):
        assert solve(FamilyName.QB, 2).series.rows[2] == [0, 3, 5, 2]


class TestInvariants:
    @pytest.mark.parametrize("which", list(FamilyName))
    def test_triangular_and_non_negative(self, which):
        s = solve(which, 8).series
        for n in range(9):
            row = s.rows[n]
            assert len(row) <= n + 2
            assert all(c >= 0 for c in row)

    def test_defining_equations_hold(self):
        # solve() re-checks each equation internally; spot-check one by hand
        L = solve(FamilyName.L, 6).series.rows
        assert L == linear_rows(L)

    @pytest.mark.parametrize("which", [FamilyName.L, FamilyName.LB, FamilyName.LR])
    def test_egf_counts_divisible_by_free_relabelings(self, which):
        # the k! relabelings of k free variables act freely on labeled terms,
        # so row[k] counts k! copies of each unlabeled term
        s = solve(which, 40).series
        for n in range(41):
            row = s.rows[n]
            assert all(c % factorial(k) == 0 for k, c in enumerate(row)), n


WINDOW_9 = 10 * 13 // 2  # the cells k <= n + 1 of a series to order 9
SYSTEM_RECORDS = {
    FamilyName.L: {"L = zx + L^2 + dL/dx": WINDOW_9},
    FamilyName.LB: {"LB = x + LB LR": WINDOW_9, "LR = z LB + dLR/dx": WINDOW_9},
    FamilyName.PB: {"PB = x + PB PR": WINDOW_9, "PR = z PB + (PR - PR(x=0))/x": WINDOW_9},
    FamilyName.QB: {
        "QB = x + z QB QB(x+1)": WINDOW_9,
        "QR = z QB(x+1)": WINDOW_9,
        "QR(x=0) = z QB(x=1)": 9,
    },
}
SYSTEM_RECORDS[FamilyName.LR] = SYSTEM_RECORDS[FamilyName.LB]
SYSTEM_RECORDS[FamilyName.PR] = SYSTEM_RECORDS[FamilyName.PB]
SYSTEM_RECORDS[FamilyName.QR] = SYSTEM_RECORDS[FamilyName.QB]


@pytest.mark.parametrize("which", list(FamilyName))
def test_solve_records_its_equation_checks(which):
    # every equation of the family's system, in the order checked, with its cells
    checked = solve(which, 9).checked
    assert list(checked.items()) == list(SYSTEM_RECORDS[which].items())


def test_csv_export(capsys):
    assert cli.main(["series-table", "--family", "QB", "--max-n", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "family,n,k,coeff"
    assert "QB,2,2,5" in lines


def random_row(rng, length):
    # counts of up to ~2,000 bits, with plenty of zeros; the top coefficient
    # is left as drawn, so some rows carry trailing zeros
    bits = rng.choice([1, 8, 64, 500, 2000])
    return [0 if rng.random() < 0.3 else rng.getrandbits(rng.randint(1, bits))
            for _ in range(length)]


# the kernel's plain product, checked under EGF on the labeled counts of its
# rows: entry k of a kernel row is the count over k!
FLAVORS = [(Flavor.OGF, schoolbook_ogf), (Flavor.EGF, schoolbook_egf)]
EDGE_ROWS = [[], [0], [0, 0, 0], [1], [0, 3], [5, 0, 0, 7, 0]]


class TestPackedKernel:
    @pytest.mark.parametrize("flavor,oracle", FLAVORS)
    def test_row_product_matches_schoolbook(self, flavor, oracle):
        rng = random.Random(2024)
        pairs = [(a, b) for a in EDGE_ROWS for b in EDGE_ROWS]
        pairs += [(random_row(rng, n), random_row(rng, rng.randint(0, 80))) for n in range(1, 81)]
        for a, b in pairs:
            got = series._convolve([(1, series._Form(a), series._Form(b))])
            want = oracle(table_row(a, flavor), table_row(b, flavor))
            assert table_row(got, flavor) == stripped(want), (a, b)

    @pytest.mark.parametrize("flavor,oracle", FLAVORS)
    def test_series_product_matches_schoolbook(self, flavor, oracle):
        # z-convolutions as the solvers form them, one term per pair of rows;
        # the square (a, a) takes the general product with each form twice
        rng = random.Random(7)
        trunc = 5
        for _ in range(4):
            a, b = ([random_row(rng, rng.randint(0, 40)) for _ in range(trunc + 1)]
                    for _ in range(2))
            for left, right in ((a, b), (a, a)):
                lf = [series._Form(row) for row in left]
                rf = lf if right is left else [series._Form(row) for row in right]
                got = [series._convolve([(1, lf[i], rf[n - i]) for i in range(n + 1)])
                       for n in range(trunc + 1)]
                counts = ([table_row(row, flavor) for row in side] for side in (left, right))
                assert [table_row(row, flavor) for row in got] == series_product(oracle, *counts)

    @pytest.mark.parametrize("flavor,oracle", FLAVORS)
    def test_weighted_sums_match_schoolbook(self, flavor, oracle):
        # mixed lengths, entries of up to ~2,000 bits, and squares, whose two
        # factors are one form; output lengths 1 and 2 included
        rng = random.Random(31)
        cases = [[(1, [3], [5])], [(2, [7], [1, 4])], [(1, [2], [2]), (3, [9], [0, 8])]]
        for _ in range(120):
            lengths = [(rng.randint(1, 40), rng.randint(1, 40)) for _ in range(rng.randint(1, 6))]
            cases.append(
                [(rng.randint(1, 5), random_row(rng, m), random_row(rng, n)) for m, n in lengths]
            )
        cases += [[(wt, a, a) for wt, a, _ in case] for case in cases[::3]]
        sizes = set()
        for case in cases:
            terms = []
            want = []
            for wt, a, b in case:
                fa = series._Form(a)
                terms.append((wt, fa, fa if b is a else series._Form(b)))
                product = oracle(table_row(a, flavor), table_row(b, flavor))
                want = add(want, [wt * c for c in product])
            sizes.add(len(want))
            assert table_row(series._convolve(terms), flavor) == stripped(want), case
        assert {1, 2} <= sizes and any(n % 2 for n in sizes) and any(n % 2 == 0 for n in sizes)

    @pytest.mark.parametrize("flavor,oracle", FLAVORS)
    def test_coefficients_that_fill_the_bound(self, flavor, oracle):
        # rows of equal entries make the middle output coefficient
        # n (2**bits - 1)**2, just under the bound n 2**(2 bits) that sets the
        # point X; sweeping bits puts that bound at every offset within X's rounding
        for n in (1, 2, 3, 8, 33):
            for bits in range(1, 140):
                top = (1 << bits) - 1
                a = [top] * n
                got = series._convolve([(1, series._Form(a), series._Form(a))])
                counts = table_row(a, flavor)
                assert table_row(got, flavor) == stripped(oracle(counts, counts)), (n, bits)

    def test_stale_evaluation_is_not_reused(self):
        # one form in two products at different points X: the second must
        # pack it again rather than reuse the evaluations at the first X
        rng = random.Random(5)
        for flavor, oracle in FLAVORS:
            a = [rng.getrandbits(40) | 1 for _ in range(9)]
            small, large = [1, 0, 1], [rng.getrandbits(3000) for _ in range(9)]
            fa = series._Form(a)
            points = []
            for b in (small, large, small):
                got = series._convolve([(1, fa, series._Form(b))])
                want = oracle(table_row(a, flavor), table_row(b, flavor))
                assert table_row(got, flavor) == stripped(want), b
                points.append(fa.q)
            assert points[0] < points[1] > points[2]

    def test_recover_at_its_bound(self):
        # sequences of entries up to Y**2 / 4 - 1 in magnitude, the largest the
        # recovery allows, with runs of one sign and alternating signs, so the
        # error of the top estimate comes as close to Y / 4 as it can
        rng = random.Random(11)
        for width in (1, 2):
            y = 1 << 8 * width
            top = y * y // 4 - 1
            for count in range(1, 13):
                patterns = [
                    [top] * count,
                    [-top] * count,
                    [top * (-1) ** j for j in range(count)],
                    [-top * (-1) ** j for j in range(count)],
                    [0] * (count - 1) + [top],
                ]
                patterns += [[rng.randint(-top, top) for _ in range(count)] for _ in range(20)]
                patterns += [[rng.choice([top, -top, 0]) for _ in range(count)] for _ in range(20)]
                for d in patterns:
                    low = sum(c * y**j for j, c in enumerate(d))
                    high = sum(c * y**j for j, c in enumerate(reversed(d)))
                    assert series._recover(low, high, count, width) == d, d

    def test_each_form_is_packed_once_per_point(self, monkeypatch):
        real = series._pack_form
        packed = []

        def spy(f, q):
            packed.append((f, q))  # holding f keeps its id from being recycled
            real(f, q)

        monkeypatch.setattr(series, "_pack_form", spy)
        solve(FamilyName.LB, 40)
        keys = [(id(f), q) for f, q in packed]
        assert len(set(keys)) == len(keys)
        # the row-at-a-time kernel this replaced packed a form 3,280 times here
        assert 0 < len(packed) < 3280 // 4

    def test_taylor_shift_matches_comb(self):
        rng = random.Random(99)
        for row in EDGE_ROWS + [random_row(rng, n) for n in range(1, 81)]:
            assert series._taylor_shift_row(row) == comb_taylor_shift(row), row

    @pytest.mark.parametrize("egf", [False, True])
    def test_a_negative_entry_is_rejected(self, egf):
        # every row the solvers and checks form is a count, of unlabeled
        # objects or, under EGF, of labeled ones over k!
        flavor = Flavor.EGF if egf else Flavor.OGF
        with pytest.raises(ArithmeticError, match="negative"):
            series._Form(solver_row([2, -1, 6], flavor))


def test_solved_tables_satisfy_their_equations_by_schoolbook():
    # the solver and its equation checks run one kernel, so rebuild each
    # right-hand side from the schoolbook oracles on the tables' counts instead,
    # at the least order whose check's product runs in a forked sibling
    trunc = series._SIBLING_TRUNC
    L = solve(FamilyName.L, trunc).series.rows
    assert L == linear_rows(L)
    for pair, oracle in (((FamilyName.LB, FamilyName.LR), schoolbook_egf),
                         ((FamilyName.PB, FamilyName.PR), schoolbook_ogf)):
        b, r = (solve(pair[0], trunc).system[name].rows for name in pair)
        assert b == neutral_rows(b, r, oracle), pair[0]
        assert r == normal_rows(b, r), pair[1]
    qb = solve(FamilyName.QB, 20).series.rows
    assert qb == fixpoint_rows(qb)


def test_a_fault_the_kernel_shares_with_its_check(monkeypatch):
    # a kernel that adds 1 to one coefficient of every long product passes
    # solve's own checks, whose product runs the same kernel; the schoolbook
    # fixpoint sees it from b_18, the first row with 20 coefficients
    real = series._convolve

    def faulty(terms):
        out = real(terms)
        if len(out) >= 20:
            out[len(out) // 2] += 1
        return out

    monkeypatch.setattr(series, "_convolve", faulty)
    qb = solve(FamilyName.QB, 24).series.rows
    want = fixpoint_rows(qb)
    assert [n for n in range(25) if qb[n] != want[n]] == list(range(18, 25))


# ---------------------------------------------------------------------------
# The equation checks inside solve reject a wrong table


def bumped(row):
    row = list(row)
    row[len(row) // 2] += 1
    return row


def bump_row_20(rows, side=None):
    """The solver's rows, with a copy of row 20 (of one side, for a pair) bumped as it streams past."""
    for n, row in enumerate(rows):
        if n == 20:
            row = bumped(row) if side is None else tuple(
                bumped(half) if i == side else half for i, half in enumerate(row))
        yield row


# the least truncation whose check's product runs in a forked sibling
FORKED = series._SIBLING_TRUNC


class TestEquationChecksAreLive:
    """Run with the check's product in a forked sibling process."""

    @pytest.fixture(autouse=True)
    def transport(self):
        assert hasattr(os, "fork") and threading.active_count() == 1

    def test_linear(self, monkeypatch):
        real = series._rows_linear
        monkeypatch.setattr(series, "_rows_linear", lambda trunc: bump_row_20(real(trunc)))
        with pytest.raises(ArithmeticError, match="linear family"):
            solve(FamilyName.L, FORKED)

    @pytest.mark.parametrize("which", [FamilyName.LB, FamilyName.LR, FamilyName.PB, FamilyName.PR])
    @pytest.mark.parametrize("side", [0, 1])
    def test_pair(self, monkeypatch, which, side):
        real = series._rows_pair

        def wrong(trunc, abstract):
            return bump_row_20(real(trunc, abstract), side)

        monkeypatch.setattr(series, "_rows_pair", wrong)
        with pytest.raises(ArithmeticError, match="family solution fails its equation"):
            solve(which, FORKED)

    @pytest.mark.parametrize("which", [FamilyName.QB, FamilyName.QR])
    def test_quotient_routes(self, monkeypatch, which):
        # corrupt the first shift of a degree-20 row only, and only in this
        # process: the solver makes it (r_20 from b_19), while the parent's
        # check and the product's own shifts shift b afresh
        real = series._taylor_shift_row
        caller = os.getpid()
        seen = []

        def wrong(row):
            out = real(row)
            if len(row) == 21 and not seen and os.getpid() == caller:
                seen.append(row)
                out[3] += 1
            return out

        monkeypatch.setattr(series, "_taylor_shift_row", wrong)
        with pytest.raises(ArithmeticError, match="fixpoint equation"):
            solve(which, FORKED)
        assert seen

    @pytest.mark.parametrize("which", [FamilyName.LB, FamilyName.PB])
    def test_pair_abstraction_row(self, monkeypatch, which):
        # corrupt the solver's r_20 only, in this process: b_21 is then built
        # from it, and the product's own r_20, formed from b_19, exposes it
        real = series._back_substitute
        caller = os.getpid()
        seen = []

        def wrong(known, kmax, labeled):
            out = real(known, kmax, labeled)
            if kmax == 20 and not seen and os.getpid() == caller:
                seen.append(kmax)
                out[3] += 1
            return out

        monkeypatch.setattr(series, "_back_substitute", wrong)
        with pytest.raises(ArithmeticError, match="neutral family solution fails its equation"):
            solve(which, FORKED)
        assert seen

    @pytest.mark.parametrize(
        "side,message", [(0, "fixpoint equation"), (1, "abstraction rule")]
    )
    def test_quotient_fixpoint(self, monkeypatch, side, message):
        real = series._rows_pair

        def wrong(trunc, abstract):
            return bump_row_20(real(trunc, abstract), side)

        monkeypatch.setattr(series, "_rows_pair", wrong)
        with pytest.raises(ArithmeticError, match=message):
            solve(FamilyName.QB, FORKED)


class TestEquationChecksAreLiveInProcess(TestEquationChecksAreLive):
    """The same checks with the product computed in-process, as where os.fork is missing."""

    @pytest.fixture(autouse=True)
    def transport(self, monkeypatch):
        monkeypatch.delattr(os, "fork")


@pytest.mark.parametrize("which,failure", [
    (FamilyName.L, "linear family solution fails its equation"),
    (FamilyName.LB, "normal family solution fails its equation"),
    (FamilyName.LR, "normal family solution fails its equation"),
])
def test_a_fault_the_back_substitution_shares_with_its_check(monkeypatch, tmp_path, which,
                                                             failure):
    # a labeled step weight of k where k + 1 belongs, at degree 1, in every
    # process: a pair's sibling forms its r from b with the same fault, so the
    # product agrees with the solver, and only the checks' own d/dx can see it
    log = tmp_path / "pids"

    def wrong(known, kmax, labeled):
        with open(log, "a") as out:
            out.write(f"{os.getpid()}\n")
        c = [0] * (kmax + 2)
        for k in range(kmax, -1, -1):
            weight = (k if k == 1 else k + 1) if labeled else 1
            c[k] = (known[k] if k < len(known) else 0) + weight * c[k + 1]
        return stripped(c[: kmax + 1])

    monkeypatch.setattr(series, "_back_substitute", wrong)
    with pytest.raises(ArithmeticError, match=failure):
        solve(which, FORKED)
    assert_no_child()
    pids = set(log.read_text().split())
    # the linear square reads only L; a pair's sibling back-substitutes too
    assert str(os.getpid()) in pids and len(pids) == (1 if which is FamilyName.L else 2)


# the equation that reads the check's product, for each system
PRODUCT_FAILURES = {
    FamilyName.L: "linear family solution fails its equation",
    FamilyName.LB: "neutral family solution fails its equation",
    FamilyName.PB: "neutral family solution fails its equation",
    FamilyName.QB: "quotient solution fails its fixpoint equation",
}


@pytest.mark.parametrize("trunc,fork", [(0, True), (12, True), (FORKED, True), (FORKED, False)],
                         ids=["0", "12", "forked", "in-process"])
@pytest.mark.parametrize("change", ["drop", "append"])
@pytest.mark.parametrize("which", list(PRODUCT_FAILURES))
def test_a_product_with_the_wrong_row_count_fails(monkeypatch, which, change, trunc, fork):
    # the check reads exactly trunc + 1 product rows: it neither pads a short
    # product nor drops a row past trunc, even the empty row a pad would add
    def wrong(real):
        def product(*args):
            rows = list(real(*args))
            return rows[:-1] if change == "drop" else [*rows, []]
        return product

    for name in ("_square_rows", "_pair_products"):
        monkeypatch.setattr(series, name, wrong(getattr(series, name)))
    if not fork:
        monkeypatch.delattr(os, "fork")
    with pytest.raises(ArithmeticError, match=PRODUCT_FAILURES[which]):
        solve(which, trunc)
    assert_no_child()


@pytest.mark.parametrize("trunc", [12, FORKED])
@pytest.mark.parametrize("which", list(FamilyName))
def test_solve_builds_only_the_series_it_returns(monkeypatch, which, trunc):
    # the checks compare rows: no table of x + product, z b + dr/dx or shifted b
    built = []
    real = CountTable.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(CountTable, "__init__", spy)
    sol = solve(which, trunc)
    assert len(built) == len(sol.system) == (1 if which is FamilyName.L else 2)


# ---------------------------------------------------------------------------
# The check's product, computed in a sibling process


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_product_runs_in_a_sibling_process(monkeypatch, tmp_path):
    log = tmp_path / "pids"

    def spy(real):
        def product(*args):
            with open(log, "a") as out:
                out.write(f"{os.getpid()}\n")
            return real(*args)
        return product

    for name in ("_square_rows", "_pair_products"):
        monkeypatch.setattr(series, name, spy(getattr(series, name)))
    for which in ("L", "LB", "PB", "QB"):
        solve(which, FORKED)
    pids = log.read_text().split()
    assert len(pids) == 4 and str(os.getpid()) not in pids
    assert_no_child()


@pytest.mark.parametrize("which", ["L", "LB", "PB", "QB"])
def test_what_crosses_the_pipe(monkeypatch, which):
    # the caller sends L_n, or b_n alone for every pair: the product forms r itself
    sent = []
    real = series._send
    caller = os.getpid()

    def spy(out, value):
        if os.getpid() == caller:
            sent.append(list(value))  # a copy: the table scales the rows in place later
        real(out, value)

    monkeypatch.setattr(series, "_send", spy)
    sol = solve(which, FORKED)
    assert sent == [solver_row(row, sol.flavor) for row in sol.series.rows]
    assert_no_child()


def solved(sol):
    """What a solution holds: its flavor and the rows of each of its tables."""
    return sol.flavor, {which: table.rows for which, table in sol.system.items()}


# FORKED - 1 and FORKED straddle the fork's start; 47 and 48 lie inside the forked range
@pytest.mark.parametrize("trunc", [0, 1, 2, 12, FORKED - 1, FORKED, 47, 48])
@pytest.mark.parametrize("which", list(FamilyName))
def test_in_process_product_gives_the_same_solution(monkeypatch, which, trunc):
    forked = solve(which, trunc)
    monkeypatch.delattr(os, "fork")
    here = solve(which, trunc)
    assert solved(here) == solved(forked)
    assert list(here.checked.items()) == list(forked.checked.items())


@pytest.mark.parametrize("trunc", [12, FORKED - 1])
@pytest.mark.parametrize("which", list(FamilyName))
def test_a_short_series_is_checked_without_a_fork(monkeypatch, which, trunc):
    forks = []
    real = os.fork

    def spy():
        forks.append(trunc)
        return real()

    monkeypatch.setattr(os, "fork", spy)
    here = solve(which, trunc)
    assert forks == []
    monkeypatch.setattr(series, "_SIBLING_TRUNC", 0)
    forked = solve(which, trunc)
    assert forks == [trunc]
    assert solved(here) == solved(forked)
    assert list(here.checked.items()) == list(forked.checked.items())
    assert_no_child()


def test_no_child_is_left(monkeypatch):
    solve(FamilyName.QB, FORKED)
    assert_no_child()
    real = series._rows_linear
    monkeypatch.setattr(series, "_rows_linear", lambda trunc: bump_row_20(real(trunc)))
    with pytest.raises(ArithmeticError, match="linear family"):
        solve(FamilyName.L, FORKED)
    assert_no_child()

    def broken(trunc):
        for n, row in enumerate(real(trunc)):
            if n == 20:
                raise RuntimeError("the solver broke at row 20")
            yield row

    monkeypatch.setattr(series, "_rows_linear", broken)
    with pytest.raises(RuntimeError, match="the solver broke at row 20"):
        solve(FamilyName.L, FORKED)
    assert_no_child()


class Hung(Exception):
    pass


@contextmanager
def hang_guard(seconds=60):
    """Raise Hung in place of waiting more than seconds."""
    def hung(signum, frame):
        raise Hung

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("trunc", [FORKED, 70])
def test_a_sibling_that_dies_without_replying(monkeypatch, trunc):
    caller = os.getpid()

    def die(rows):
        if os.getpid() != caller:
            os._exit(3)
        raise AssertionError("the product ran in the caller's process")

    monkeypatch.setattr(series, "_square_rows", die)
    with hang_guard(), pytest.raises(OSError):
        solve(FamilyName.L, trunc)
    assert_no_child()


def spy_replies(monkeypatch):
    """The messages the caller reads back from the sibling, recorded as they are read."""
    replies = []
    real = series._received
    caller = os.getpid()

    def spy(src):
        for value in real(src):
            if os.getpid() == caller:
                replies.append(value)
            yield value

    monkeypatch.setattr(series, "_received", spy)
    return replies


def product_rows(sol, trunc):
    """The check's product for a solution, computed here from its tables' rows."""
    rows = [solver_row(row, sol.flavor) for row in sol.series.rows]
    if sol.which is FamilyName.L:
        return list(series._square_rows(rows))
    pair = next(p for p in series._PAIRS if sol.which in p)
    return list(series._pair_products(rows, abstraction(pair), trunc))


@pytest.mark.parametrize("which", ["L", "LB", "PB", "QB"])
def test_each_reply_message_is_one_product_row(monkeypatch, which):
    # the caller never holds the product whole: trunc + 1 rows, one a message, then the end marker
    replies = spy_replies(monkeypatch)
    sol = solve(which, FORKED)
    assert replies == [*product_rows(sol, FORKED), None]
    assert len(replies) == FORKED + 2
    assert_no_child()


@pytest.mark.parametrize("forked", [True, False])
def test_an_early_failing_check_stops_reading_the_product(monkeypatch, forked):
    # a copy of b_3 is bumped, so the check fails at row 3 with more than a
    # pipe's worth of reply still to come: the sibling, blocked on the full
    # pipe, must find it closed, not wait for a reader; in-process, no
    # product row past row 3 is made
    pending = product_rows(solve("LB", 70), 70)[4:]
    assert sum(len(marshal.dumps(row)) for row in pending) > 1 << 16
    real_rows, real_products = series._rows_pair, series._pair_products
    caller = os.getpid()
    read = spy_replies(monkeypatch)

    def bump_row_3(trunc, abstract):
        for n, (b, r) in enumerate(real_rows(trunc, abstract)):
            yield (bumped(b) if n == 3 else b), r

    def products(*args):
        for row in real_products(*args):
            if os.getpid() == caller:
                read.append(row)
            yield row

    monkeypatch.setattr(series, "_rows_pair", bump_row_3)
    monkeypatch.setattr(series, "_pair_products", products)
    if not forked:
        monkeypatch.delattr(os, "fork")
    with hang_guard(), pytest.raises(ArithmeticError, match="neutral family"):
        solve("LB", 70)
    assert len(read) == 4
    assert_no_child()


# 5 rows, or the whole product, which without its end marker must not pass either
@pytest.mark.parametrize("kept", [5, FORKED + 1])
def test_a_reply_cut_between_rows(monkeypatch, kept):
    real = series._send
    caller = os.getpid()
    replied = []

    def cut(out, value):
        if os.getpid() != caller:  # the sibling: leave after kept rows
            if len(replied) == kept:
                os._exit(0)
            replied.append(value)
        real(out, value)

    monkeypatch.setattr(series, "_send", cut)
    with hang_guard(), pytest.raises(ChildProcessError, match="sibling process ended"):
        solve(FamilyName.L, FORKED)
    assert replied == []
    assert_no_child()


def test_tables_keep_the_solver_rows(monkeypatch):
    # a series table holds the solver's row lists: no key per cell, no dict
    grown = []
    real = series._table

    def spy(*args):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        table = real(*args)
        grown.append(tracemalloc.get_traced_memory()[1] - start)
        return table

    monkeypatch.setattr(series, "_table", spy)
    tracemalloc.start()
    try:
        solve(FamilyName.PB, 70)
    finally:
        tracemalloc.stop()
    assert len(grown) == 2 and max(grown) < 2048, grown


def test_a_sibling_that_dies_while_rows_come(monkeypatch):
    # the product breaks at row 5 in the sibling, long before the solver's
    # last row: the caller's next row finds the pipe closed
    real = series._pair_products

    def dies(bs, *args):
        for n, row in enumerate(real(bs, *args)):
            if n == 5:
                raise RuntimeError("the product broke at row 5")
            yield row

    monkeypatch.setattr(series, "_pair_products", dies)
    with pytest.raises(ChildProcessError, match="sibling process ended"):
        solve(FamilyName.PB, 60)
    assert_no_child()


@pytest.mark.parametrize("at,ended", [(5, "ended"), (None, "ended without its product")])
def test_a_sibling_that_fails_names_its_cause(monkeypatch, at, ended):
    # the product raises in the sibling alone: at row 5, while rows still
    # come, or once the last row has come, before it replies
    real = series._square_rows
    caller = os.getpid()

    def planted(rows):
        for n, row in enumerate(real(rows)):
            if n == at and os.getpid() != caller:
                raise ArithmeticError("planted in the sibling")
            yield row
        if os.getpid() != caller:
            raise ArithmeticError("planted in the sibling")

    monkeypatch.setattr(series, "_square_rows", planted)
    with pytest.raises(ChildProcessError,
                       match=f"sibling process {ended}.*: ArithmeticError: planted in the sibling"):
        solve(FamilyName.L, 60)
    assert_no_child()


def test_a_cut_header_raises_child_process_error():
    # seven bytes of a header spell no length, so no body is asked for
    rows_in, rows_out = os.pipe()
    os.write(rows_out, b"\xff" * 7)
    os.close(rows_out)
    with open(rows_in, "rb") as src, pytest.raises(ChildProcessError, match="inside a message"):
        next(series._received(src))


def abstraction(pair):
    """The abstraction rule solve gives the pair: r_n from b_(n-1) and n."""
    if pair[0] is FamilyName.QB:
        return lambda row, n: series._taylor_shift_row(row)
    return lambda row, n: series._back_substitute(row, n, pair[0] is FamilyName.LB)


@pytest.mark.parametrize("pair", [None, *series._PAIRS])
def test_streamed_products_equal_the_series_product(pair):
    # the schoolbook series product is the reference
    if pair is None:
        L = solve(FamilyName.L, 40).series.rows
        square = series._square_rows([solver_row(row, Flavor.EGF) for row in L])
        assert list(map(labeled, square)) == series_product(schoolbook_egf, L, L)
        return
    sol = solve(pair[0], 40)
    b, r = (sol.system[name] for name in pair)
    egf = sol.flavor is Flavor.EGF
    want = series_product(schoolbook_egf if egf else schoolbook_ogf, b.rows, r.rows)
    bs = [solver_row(row, sol.flavor) for row in b.rows]
    got = series._pair_products(bs, abstraction(pair), 40)
    assert [table_row(row, sol.flavor) for row in got] == want


@pytest.mark.parametrize("pair", series._PAIRS)
def test_pair_products_keep_pace_with_b(pair):
    trunc = 12
    sol = solve(pair[0], trunc)
    bs = [solver_row(row, sol.flavor) for row in sol.system[pair[0]].rows]
    real = abstraction(pair)
    pulled, formed = [], []

    def rows():
        for row in bs:
            pulled.append(row)
            yield row

    def abstract(row, n):
        formed.append(n)
        return real(row, n)

    products = series._pair_products(rows(), abstract, trunc)
    for n in range(trunc + 1):
        next(products)
        # row n is out once b_(n-1) has come, before b_n is pulled
        assert pulled == bs[:n]
    assert next(products, None) is None
    # b_trunc is read but forms no r_(trunc+1) and no row past trunc
    assert pulled == bs
    assert formed == list(range(1, trunc + 1))


# ---------------------------------------------------------------------------
# Deep tables, pinned against recurrences independent of the solver


def a062980(count):
    """Rooted trivalent maps; a(n) = (6n-2) a(n-1) + sum a(k) a(n-1-k)."""
    a = [1]
    while len(a) < count:
        n = len(a)
        a.append((6 * n - 2) * a[n - 1] + sum(a[k] * a[n - 1 - k] for k in range(n)))
    return a


def a000168(count):
    """Rooted planar maps with n edges: 2 3^n (2n)! / (n! (n+2)!)."""
    return [2 * 3**n * factorial(2 * n) // (factorial(n) * factorial(n + 2)) for n in range(count)]


def a000698(count):
    """a(n) = (2n-1)!! - sum_{k=1}^{n-1} (2k-1)!! a(n-k), with a(0) = 1."""
    double = [factorial(2 * n) // (2**n * factorial(n)) for n in range(count)]
    a = [1]
    while len(a) < count:
        n = len(a)
        a.append(double[n] - sum(double[k] * a[n - k] for k in range(1, n)))
    return a


DEEP = 70


DEEP_CLOSED = {
    # closed linear terms of size n are rooted trivalent maps, A062980(n - 1)
    FamilyName.L: lambda: a062980(DEEP),
    # closed planar normal terms of size n are rooted planar maps, A000168(n - 1)
    FamilyName.PR: lambda: a000168(DEEP),
    # closed normal exchange classes of size n are rooted maps, A000698(n)
    FamilyName.QR: lambda: a000698(DEEP + 1)[1:],
}


@pytest.mark.parametrize("which", list(DEEP_CLOSED))
def test_deep_closed_column(which):
    assert solve(which, DEEP).series.closed_sequence(DEEP) == DEEP_CLOSED[which]()


# sha256 of `linlam series-table --family F --max-n 40`, recorded with the
# schoolbook solver
CSV_SHA256_AT_40 = {
    FamilyName.L: "197531910463bb26c9426ec1d2643e730820f01a327eff53fc821425a4e89e72",
    FamilyName.LB: "f81e7dc8d948767452892d860056d989072c683a68fd37b5d3092a580efd62a5",
    FamilyName.LR: "a83a4a21b30468989e6056cc64c3af0af076541ec22e1b8df6cf7d8aa077f591",
    FamilyName.PB: "92a70ef7d0ccf06214fc73e6f3e6245c8f22288eccf5efea94eaf9d2b08e0e44",
    FamilyName.PR: "fe4170f6cec4ecc62c6e917d9b2adb1fb83940330c8725178ef9f1df1e8f63af",
    FamilyName.QB: "b7fdf9abe971d4e65f5d4c8ac8981388ff5464c57ff2d161404ddb2c28eec3ea",
    FamilyName.QR: "8b3c1f34640b97e36c38f04ad865dd85661785e84456a22fe80fdd6187deeb23",
}


# ---------------------------------------------------------------------------
# Real processes: the sibling adds nothing to what the command prints

ROOT = Path(__file__).resolve().parents[1]


def python(*args):
    # PYTHONUNBUFFERED would make a piped stdout unbuffered, and hide a double flush
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("which", list(FamilyName))
def test_command_table_at_40_is_pinned(which):
    out = python("-m", "linlam", "series-table", "--family", which.value, "--max-n", "40")
    assert hashlib.sha256(out).hexdigest() == CSV_SHA256_AT_40[which]


def test_sibling_leaves_stdio_and_atexit_to_the_caller():
    # stdout is a pipe, so block-buffered: a sibling that flushed it, or ran
    # the atexit hook, would print a line twice
    code = (
        "import atexit, sys\n"
        "from linlam import series\n"
        "assert not sys.stdout.write_through and not sys.stdout.line_buffering\n"
        "print('before')\n"
        "atexit.register(print, 'at exit')\n"
        f"print(series.solve('LB', {FORKED}).checked['LB = x + LB LR'])\n"
    )
    cells = (FORKED + 1) * (FORKED + 4) // 2
    assert python("-c", code).decode().splitlines() == ["before", str(cells), "at exit"]

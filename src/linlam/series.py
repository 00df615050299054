"""Exact truncated bivariate series and the family equation solvers.

The solvers work on rows: row n, the z^n coefficient, is one integer
polynomial in x, and solve returns each checked series as a CountTable.
Two flavors share the representation: under OGF the row ``c[n]`` is the
literal polynomial, under EGF the stored integer ``c[n][k]`` carries an
implicit 1/k! on ``x^k`` (so the table holds plain counts of labeled
objects and no rationals ever appear).  Derivative in x is then an index
shift in both flavors, and the EGF product is a binomial convolution.

Every row the kernel takes is a count: its entries are non-negative, and
forming a row with a negative entry raises ArithmeticError.

Row products are Kronecker substitutions at four points, +X, -X, +1/X and
-1/X (Harvey's KS4).  A coefficient of a sum of weighted products of rows
a and b is at most B = sum weight min(len a, len b) 2^(bits a + bits b),
and the kernel picks X = 2^(8q), for an even byte count q, with
B < X^4 / 4.  Each row a of length l is evaluated at +X and -X, and so is
its reversal x^(l-1) a(1/x); an evaluation adds the row's four classes of
coefficients mod 4, each packed in 4q-byte slots, so it is about a quarter
as long as the row packed in slots that fit the output.  The kernel sums
the weighted products of the evaluations, P at +X, M at -X, and P' and M'
for the reversals, each reversed product first multiplied by (+X or -X)
to the power its length falls short of the output's.  With Y = X^2,
(P + M) / 2 is sum c_(2j) Y^j and (P - M) / 2X is sum c_(2j+1) Y^j over
the output coefficients c, and both divisions are exact shifts; P' and M'
give the same two sums with the coefficients in reverse order.  Slots of
Y overlap, since a coefficient may take up to 4q bytes, and each sequence
d_0 .. d_(n-1) is recovered from its two sums walking up from d_0: the
bottom of the forward sum, less the carry of the d_i already found, gives
d_j mod Y, and the top of the reversed sum, less those d_i, gives d_j plus
d_(j+1) / Y + d_(j+2) / Y^2 + ..., which is below Y / 4 + 2 in magnitude
because every |d_i| < Y^2 / 4.  The residue fixes d_j within that window.
Four products of quarter-length operands replace one product of
full-length ones, about 4/9 of the work under Karatsuba.

A row's kernel form keeps its four evaluations and the q they were packed
for, and repacks only when a product asks for another X; q is even, so
neighbouring rows share X and a solver packs each row about once per X.
The evaluations live and die with the form: a solver's forms last for its
solve, and the product of each equation check builds its own, in another
process for a long series.

An EGF row is first divided by i! term by term and put over its reduced
common denominator D; the OGF product of two such rows is the EGF product
divided by k! D_a D_b, so the kernel scales each product to one common
denominator, recovers the coefficients, and multiplies back by k!, with no
binomial coefficient anywhere.

The Taylor shift p(x) -> p(x + 1) is Pascal's rule on the row.

Seven families are solved order by order in z: the linear family alone,
and the others as three mutual pairs, a neutral family b = x + b r and its
normal family r, each pair in one solve that yields both.  The pairs differ
only in the abstraction rule that gives r_n from b_(n-1).  Where it holds a
same-order derivative (LB/LR, PB/PR) it is triangular in the x-degree and
falls to back-substitution from the top degree down; for the exchange
classes (QB/QR) it is the Taylor shift, so B(z,x) = x + z B(z,x) B(z,x+1).
Every solution is re-checked, exactly, against its defining equations
before being returned, and records each equation with the cells it compared.
Each equation is checked one z-row at a time against the solver's own rows:
row n of its right-hand side is formed from those rows and the product's row
n, compared with row n of the solution, and dropped, and the closed column is
compared with the row sums of b.  So the solve holds no second table, and a
product with other than trunc + 1 rows fails its equation.  The tables are
built from the rows after the check, once its product is dropped.

The check's one expensive operation, its product (L L, or b r for a pair),
runs beside the solver.  From order _SIBLING_TRUNC up, solve forks a
sibling process at its start and writes each z-row to it through a pipe the
moment the solver fixes it, L_n or b_n, as marshal data behind an 8-byte
length.  The sibling reads no r: it forms r_n from b_(n-1) by the pair's own
abstraction rule, so a wrong r_n fails the neutral equation too.  It
computes product row n as soon as L_n, or b_(n-1), has come, and once the
last row has come sends the product rows back the same way and leaves
through os._exit, so it neither flushes the caller's stdio buffers nor runs
its atexit hooks.  A sibling whose product raises sends back the
exception's type and message instead, and the caller raises them in a
ChildProcessError.  The caller compares the solution with the product and
reaps the sibling on every path.  Below that order, without os.fork, or with
another Python thread running, the product consumes the rows in-process
after the solver.
"""

from __future__ import annotations

import marshal
import os
import sys
from collections.abc import Iterable, Iterator
from enum import Enum
from itertools import accumulate, chain, islice, zip_longest
from math import gcd, lcm

from .names import CountTable, FamilyName


class Flavor(Enum):
    EGF = "egf"
    OGF = "ogf"


# ---------------------------------------------------------------------------
# Row (polynomial in x) arithmetic


def _strip(row: list[int]) -> list[int]:
    while row and row[-1] == 0:
        row.pop()
    return row


def _at(row: list[int], k: int) -> int:
    return row[k] if 0 <= k < len(row) else 0


class _Form:
    """A row ready for the kernel: row[i] = nums[i] * i! / den under EGF, nums under OGF.

    The form also keeps its last packing: the byte count q of the point
    X = 2**(8 * q), and the row and its reversal evaluated at +X and -X.
    """

    __slots__ = ("nums", "den", "bits", "q", "evals")

    def __init__(self, nums: list[int], den: int) -> None:
        if nums and min(nums) < 0:
            raise ArithmeticError("the series kernel takes counts, not a negative entry")
        self.nums = nums
        self.den = den
        self.bits = max(nums, default=0).bit_length()  # every nums[i] < 2**bits
        self.q = 0
        self.evals: tuple[int, ...] = ()


def _form(row: list[int], egf: bool) -> _Form:
    nums, den = row, 1
    if egf:
        fact = 1
        for i, c in enumerate(row):
            fact *= i or 1
            den = lcm(den, fact // gcd(c, fact))
        nums, fact = [], 1
        for i, c in enumerate(row):
            fact *= i or 1
            nums.append(c * den // fact)
    return _Form(nums, den)


def _pack_form(f: _Form, q: int) -> None:
    """Store f and its reversal evaluated at +X and -X, X = 2**(8 * q), for nums[i] < X**4."""
    width, shift = 4 * q, 8 * q
    slots = [c.to_bytes(width, "little") for c in f.nums]
    evals = []
    for p in (slots, slots[::-1]):
        # the coefficients i = j mod 4, packed in 4q-byte slots, are a polynomial in X**4
        parts = [int.from_bytes(b"".join(p[j::4]), "little") for j in range(4)]
        even = parts[0] + (parts[2] << 2 * shift)
        odd = (parts[1] << shift) + (parts[3] << 3 * shift)
        evals += [even + odd, even - odd]
    f.q = q
    f.evals = tuple(evals)


def _digits(value: int, width: int, count: int) -> list[int]:
    """The count low base-2**(8 * width) digits of value, non-negative."""
    data = (value & ((1 << 8 * width * count) - 1)).to_bytes(width * count, "little")
    return [int.from_bytes(data[i : i + width], "little") for i in range(0, width * count, width)]


def _recover(low: int, high: int, count: int, width: int) -> list[int]:
    """d_0 .. d_(count-1) from sum d_j Y**j and sum d_(count-1-j) Y**j, Y = 2**(8 * width).

    Exact for |d_j| < Y**2 / 4: walking up from j = 0, the bottom of the first
    sum gives d_j mod Y, and the top of the second gives d_j plus an error
    below Y / 4 + 2 in magnitude, once the d_i already found are taken out.
    """
    if not count:
        return []
    bits = 8 * width
    y, half = 1 << bits, 1 << (bits - 1)
    carry = 0  # (low mod Y**j - sum_(i<j) d_i Y**i) / Y**j
    top = high >> bits * (count - 1)  # floor(high / Y**(count-1-j)) - sum_(i<j) d_i Y**(j-i)
    tops = _digits(high, width, count - 1)[::-1] + [0]
    out = []
    for digit, next_top in zip(_digits(low, width, count), tops):
        residue = digit + carry
        error = (top - residue) & (y - 1)
        d = top - error + (y if error >= half else 0)
        out.append(d)
        carry = (residue - d) >> bits
        top = next_top + ((top - d) << bits)
    return out


def _convolve(terms: list[tuple[int, _Form, _Form]], egf: bool) -> list[int]:
    """The row sum of weight * a * b over the terms (weight, a, b), in the flavor's product."""
    terms = [t for t in terms if t[1].nums and t[2].nums]
    if not terms:
        return []
    den = lcm(*[a.den * b.den for _, a, b in terms]) if egf else 1
    if den > 1:
        terms = [(wt * den // (a.den * b.den), a, b) for wt, a, b in terms]
    bound = size = 0
    for wt, a, b in terms:
        bound += wt * min(len(a.nums), len(b.nums)) << (a.bits + b.bits)
        size = max(size, len(a.nums) + len(b.nums) - 1)
    # X = 2**(8 * q) with every |coefficient| < X**4 / 4, and q even so that
    # neighbouring rows share a point and keep their evaluations
    q = -(-(bound.bit_length() + 2) // 64) * 2
    shift = 8 * q
    plus = minus = rev_plus = rev_minus = 0
    for wt, a, b in terms:
        if a.q != q:
            _pack_form(a, q)
        if b.q != q:
            _pack_form(b, q)
        # for a square (b is a) each product has one integer twice, which CPython squares
        a_plus, a_minus, a_rev_plus, a_rev_minus = a.evals
        b_plus, b_minus, b_rev_plus, b_rev_minus = b.evals
        plus += wt * (a_plus * b_plus)
        minus += wt * (a_minus * b_minus)
        # the reversal of a b as a row of size coefficients is x**gap rev(a) rev(b)
        gap = size + 1 - len(a.nums) - len(b.nums)
        rev_plus += wt * (a_rev_plus * b_rev_plus) << shift * gap
        rev = wt * (a_rev_minus * b_rev_minus) << shift * gap
        rev_minus += -rev if gap & 1 else rev
    evens, odds = (plus + minus) >> 1, (plus - minus) >> (shift + 1)
    rev_evens, rev_odds = (rev_plus + rev_minus) >> 1, (rev_plus - rev_minus) >> (shift + 1)
    if size % 2 == 0:
        # reversing an even number of coefficients swaps even and odd places
        rev_evens, rev_odds = rev_odds, rev_evens
    out = [0] * size
    out[::2] = _recover(evens, rev_evens, (size + 1) // 2, 2 * q)
    out[1::2] = _recover(odds, rev_odds, size // 2, 2 * q)
    if egf:
        fact = 1
        for k in range(len(out)):
            fact *= k or 1
            out[k] = out[k] * fact // den
    return _strip(out)


def _square_terms(forms: list[_Form], n: int, first: int = 0) -> list[tuple[int, _Form, _Form]]:
    """Terms of the sum of row i times row n - i over first <= i <= n - first, pairs once."""
    return [(1 if 2 * i == n else 2, forms[i], forms[n - i]) for i in range(first, n // 2 + 1)]


def _taylor_shift_row(row: list[int]) -> list[int]:
    """p(x) -> p(x + 1) by Pascal's rule: each top-down pass c[j] += c[j + 1] is a running sum."""
    c = row[::-1]
    for k in range(len(c), 1, -1):
        c[:k] = accumulate(c[:k])
    return c[::-1]


def _back_substitute(known: list[int], kmax: int) -> list[int]:
    """Solve c[k] = known[k] + c[k+1] with c vanishing above degree kmax."""
    for k in range(kmax + 1, len(known)):
        if known[k]:
            raise ArithmeticError(
                f"degree bound violated: known coefficient at x^{k} exceeds {kmax}"
            )
    c = [0] * (kmax + 2)
    for k in range(kmax, -1, -1):
        c[k] = _at(known, k) + c[k + 1]
    return _strip(c[: kmax + 1])


# ---------------------------------------------------------------------------
# Solvers


def _rows_linear(trunc: int) -> Iterator[list[int]]:
    """Rows L_0 .. L_trunc, each yielded as soon as it is fixed."""
    # family of all linear terms: same-order derivative, so back-substitute
    forms = [_form([], True)]
    yield []
    for n in range(1, trunc + 1):
        known = [0, 1] if n == 1 else _convolve(_square_terms(forms, n, 1), True)
        row = _back_substitute(known, n)
        yield row
        forms.append(_form(row, True))


def _rows_pair(trunc: int, egf: bool, abstract) -> Iterator[tuple[list[int], list[int]]]:
    """Rows (b_n, r_n) of a mutual pair b = x + b r, with r_n = abstract(b_(n-1), n)."""
    b, r = [0, 1], []
    b_forms, r_forms = [_form(b, egf)], [_form(r, egf)]
    yield b, r
    for n in range(1, trunc + 1):
        r = abstract(b, n)
        r_forms.append(_form(r, egf))
        b = _convolve([(1, b_forms[i], r_forms[n - i]) for i in range(n)], egf)
        yield b, r
        b_forms.append(_form(b, egf))


# ---------------------------------------------------------------------------
# The equation checks' products, streamed beside the solver


def _square_rows(rows: Iterable[list[int]]) -> Iterator[list[int]]:
    """Row n of L L, under EGF, as soon as rows L_0 .. L_n have come."""
    forms = []
    for n, row in enumerate(rows):
        forms.append(_form(row, True))
        yield _convolve(_square_terms(forms, n), True)


def _pair_products(bs: Iterable[list[int]], egf: bool, abstract, trunc: int) -> Iterator[list[int]]:
    """Row n of b r, r_n = abstract(b_(n-1), n), once b_(n-1) has come; b_trunc is read, unused."""
    b_forms, r_forms = [], [_form([], egf)]
    yield []
    for n, b in enumerate(bs, 1):
        if n > trunc:
            break
        b_forms.append(_form(b, egf))
        r_forms.append(_form(abstract(b, n), egf))
        yield _convolve([(1, b_forms[i], r_forms[n - i]) for i in range(n)], egf)


def _send(out, value) -> None:
    # framed for marshal.loads: marshal.load from a buffered file read QB's 71 order-70
    # rows in 10.6 ms, marshal.loads the same 81,170 bytes in 0.26 (2-core Xeon, median of 9)
    data = marshal.dumps(value)
    out.write(len(data).to_bytes(8, "little") + data)
    out.flush()  # the sibling starts on the row now, not when a buffer fills


def _received(src) -> Iterator:
    """The values _send wrote to src, up to its end."""
    while head := src.read(8):
        size = int.from_bytes(head, "little")
        # a cut header gives no length, so no body is read for it
        if len(head) < 8 or len(data := src.read(size)) < size:
            raise ChildProcessError("the series check's pipe ended inside a message")
        yield marshal.loads(data)


# Each of L, LB, PB and QB solved in-process against forked, in ms, medians
# of 21 alternating fresh processes (2-core Xeon VM, Python 3.11):
#   order 24: L 5.2/5.7, LB 6.4/7.3, PB 6.5/6.1, QB 7.0/6.8
#   order 28: L 4.9/5.4, LB 11.8/8.8, PB 8.5/6.9, QB 7.8/7.1
#   order 32: L 6.8/7.1, LB 10.1/8.4, PB 6.8/6.5, QB 9.1/8.6
#   order 40: L 10.5/10.2, LB 18.7/14.0, PB 13.1/9.3, QB 17.0/13.1
# 40 is the least order measured at which the fork wins for all four; below
# it L, the cheapest solve, lost or tied here and in two runs of 9 and 15.
_SIBLING_TRUNC = 40


def _beside(rows: Iterator, product, fork: bool, sent=None) -> tuple[list, list[list[int]]]:
    """The solver's rows, and product(sent(row) for each row) computed beside the solver.

    sent picks what the product reads of each row, the whole row by default.
    Under fork the product runs in a forked sibling that sees only what is
    sent to it; otherwise, without os.fork, or with another thread running
    (a fork copies only the calling thread, and locks the others hold would
    stay held in the copy), it runs here afterwards.  A sibling that ends
    before it replies raises ChildProcessError, carrying the type and message
    of the exception that ended it, if one did; it is reaped on every path.
    """
    sent = sent or (lambda row: row)
    threads = sys.modules.get("threading")  # no module, no other Python thread
    if not (fork and hasattr(os, "fork")) or (threads and threads.active_count() > 1):
        solved = list(rows)
        return solved, list(product(map(sent, solved)))
    rows_in, rows_out = os.pipe()
    reply_in, reply_out = os.pipe()
    pid = os.fork()
    if not pid:
        # the sibling leaves only through os._exit, so it never flushes the
        # parent's stdio buffers or runs its atexit hooks
        status = 1
        try:
            os.close(rows_out)
            os.close(reply_in)
            with open(rows_in, "rb") as src, open(reply_out, "wb") as out:
                try:
                    reply = list(product(_received(src)))
                except Exception as err:  # the caller raises it, or nothing would show it
                    reply = f": {type(err).__name__}: {err}"
                _send(out, reply)
            status = 0
        finally:
            os._exit(status)
    os.close(rows_in)
    os.close(reply_out)
    try:
        with open(reply_in, "rb") as src:
            solved, why = [], "without its product"
            try:
                with open(rows_out, "wb") as out:
                    for row in rows:
                        solved.append(row)
                        _send(out, sent(row))
            except BrokenPipeError:  # the sibling closed its end of the rows
                why = "before the solver's last row"
            reply = next(_received(src), None)
        if not isinstance(reply, list):  # no reply, or the sibling's exception
            raise ChildProcessError(f"the series check's sibling process ended {why}{reply or ''}")
        return solved, reply
    finally:
        os.waitpid(pid, 0)


# the neutral and normal family of each mutual pair
_PAIRS = (
    (FamilyName.LB, FamilyName.LR),
    (FamilyName.PB, FamilyName.PR),
    (FamilyName.QB, FamilyName.QR),
)


class FamilySolution:
    """One family's series, its flavor, every series solved with it (both
    halves of a pair), and checked: each equation verified -> cells compared."""

    __slots__ = ("which", "flavor", "series", "system", "checked")

    def __init__(self, which: FamilyName, flavor: Flavor, series: CountTable,
                 system: dict[FamilyName, CountTable], checked: dict[str, int]) -> None:
        self.which, self.flavor, self.series = which, flavor, series
        self.system, self.checked = system, checked


def _table(which: FamilyName, rows: list[list[int]]) -> CountTable:
    entries = {(n, k): c for n, row in enumerate(rows) for k, c in enumerate(row) if c}
    return CountTable(len(rows) - 1, entries, f"series:{which.value}")


# the names the quotient pair's record gives its fixpoint equation and closed column
FIXPOINT = "QB = x + z QB QB(x+1)"
CLOSED_SHIFT = "QR(x=0) = z QB(x=1)"


def _add(*rows: list[int]) -> list[int]:
    return _strip([sum(c) for c in zip_longest(*rows, fillvalue=0)])


def _cells(got: list[list[int]], want: Iterable[list[int]], failure: str) -> int:
    """How many cells of got (k <= n + 1, or a longer row's) equal want's; raise failure unless all.

    An equation needs one right-hand-side row per solution row, or it fails.
    """
    cells = 0
    try:
        for n, (row, rhs) in enumerate(zip(got, want, strict=True)):
            if row != rhs:
                raise ArithmeticError(failure)
            cells += max(n + 2, len(row))
    except ValueError as err:  # one side ran out first
        raise ArithmeticError(failure) from err
    return cells


def _x_plus(product: list[list[int]]) -> Iterator[list[int]]:
    """Rows of x + product, for the product of a pair's neutral (or fixpoint) equation."""
    return (_add([0, 1] if n == 0 else [], p) for n, p in enumerate(product))


def _verify_linear(s: list[list[int]], square: list[list[int]]) -> dict[str, int]:
    failure = "linear family solution fails its equation"
    rhs = (_add([0, 1] if n == 1 else [], sq, row[1:])
           for n, (sq, row) in enumerate(zip(square, s, strict=True)))
    return {"L = zx + L^2 + dL/dx": _cells(s, rhs, failure)}


def _verify_pair(b: list[list[int]], r: list[list[int]], product: list[list[int]],
                 pair) -> dict[str, int]:
    nb, nr = (name.value for name in pair)
    dr = f"d{nr}/dx" if pair[0] is FamilyName.LB else f"({nr} - {nr}(x=0))/x"
    neutral = "neutral family solution fails its equation"
    # z b + dr/dx, or z b + (r - r(x=0))/x: either derivative drops a row's x^0 term
    normal = (_add(prev, row[1:]) for prev, row in zip(chain(([],), b), r))
    return {
        f"{nb} = x + {nb} {nr}": _cells(b, _x_plus(product), neutral),
        f"{nr} = z {nb} + {dr}": _cells(r, normal, "normal family solution fails its equation"),
    }


def _verify_quotient(b: list[list[int]], r: list[list[int]],
                     product: list[list[int]]) -> dict[str, int]:
    failure = "quotient solution fails its fixpoint equation"
    shifted = chain(([],), map(_taylor_shift_row, islice(b, len(b) - 1)))
    checked = {
        FIXPOINT: _cells(b, _x_plus(product), failure),
        "QR = z QB(x+1)": _cells(r, shifted, "quotient abstraction rule fails"),
    }
    # closed normal classes match the shifted row sums of the neutral classes
    if any(_at(row, 0) != sum(prev) for prev, row in zip(b, islice(r, 1, None))):
        raise ArithmeticError("closed quotient column disagrees with row sums")
    return {**checked, CLOSED_SHIFT: len(r) - 1}


def solve(which: FamilyName | str, trunc: int = 12) -> FamilySolution:
    """Solve one family's functional equation to the given z-truncation.

    All coefficients are exact integers.  A mutual pair is solved once for
    both of its families, which the solution's system carries.  The
    solution is checked against its defining equations before returning,
    one z-row at a time against the solver's own rows, so the solve builds
    no series but the ones it returns; a failure raises ArithmeticError.
    Each series is returned as a CountTable, built from the checked rows
    once the check's product is dropped.
    The check's product (L L, or b r with r formed from b alone) is computed
    beside the solver, in a sibling process from order _SIBLING_TRUNC up if
    the platform can fork, and must have exactly trunc + 1 rows.
    The record, checked, maps each equation of the system to its cells
    compared: the (trunc + 1)(trunc + 4)/2 cells k <= n + 1 of a series, or
    the trunc of the closed column.
    """
    which = FamilyName(which) if isinstance(which, str) else which
    if trunc < 0:
        raise ValueError("truncation must be non-negative")
    fork = trunc >= _SIBLING_TRUNC
    if which is FamilyName.L:
        rows, square = _beside(_rows_linear(trunc), _square_rows, fork)
        checked = _verify_linear(rows, square)
        del square  # the solve's forms, not the table, set the peak
        series = _table(which, rows)
        return FamilySolution(which, Flavor.EGF, series, {which: series}, checked)
    pair = next(p for p in _PAIRS if which in p)
    quotient = pair[0] is FamilyName.QB
    egf = pair[0] is FamilyName.LB
    flavor = Flavor.EGF if egf else Flavor.OGF
    # the abstraction rule: r_n(x) = b_(n-1)(x + 1) for classes, else the
    # same-order derivative, back-substituted under the degree bound n
    abstract = (lambda row, n: _taylor_shift_row(row)) if quotient else _back_substitute
    pairs, product = _beside(
        _rows_pair(trunc, egf, abstract), lambda bs: _pair_products(bs, egf, abstract, trunc),
        fork, sent=lambda pair: pair[0],
    )
    b, r = map(list, zip(*pairs))
    checked = _verify_quotient(b, r, product) if quotient else _verify_pair(b, r, product, pair)
    del product  # the solve's forms, not the tables, set the peak
    system = {name: _table(name, rows) for name, rows in zip(pair, (b, r))}
    return FamilySolution(which, flavor, system[which], system, checked)

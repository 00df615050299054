"""Kernel-free references that the tests hold the package to.

The series solvers, their equation checks and the checks' products all run
one packed kernel, so a fault in it can pass every check inside solve.  The
equations are restated here with schoolbook row products instead, one
right-hand-side row per solution row.  The package never relabels a map,
builds a face permutation or reads a serialized term back, so the
relabeling, the faces and the reader the tests need live here too.
"""

from collections.abc import Sequence
from itertools import zip_longest
from math import comb

from linlam.maps import RootedMap
from linlam.terms import App, FVar, Lam, Term, Var


def conjugate(m: RootedMap, relabel: Sequence[int]) -> RootedMap:
    """Apply a dart relabeling d -> relabel[d] to both permutations and the root."""
    n = len(m.sigma)
    sigma = [0] * n
    alpha = [0] * n
    for d in range(n):
        sigma[relabel[d]] = relabel[m.sigma[d]]
        alpha[relabel[d]] = relabel[m.alpha[d]]
    return RootedMap(tuple(sigma), tuple(alpha), relabel[m.root])


def face_permutation(m: RootedMap) -> tuple[int, ...]:
    """The faces of a map: alpha inverse, then sigma inverse."""
    return tuple(m.sigma.index(m.alpha.index(d)) for d in range(len(m.sigma)))


def read_ascii(text: str) -> Term:
    """Read back the prefix serialization to_ascii writes: L, A, V<i>, F<j>."""
    tokens = iter(text.split())

    def read() -> Term:
        tok = next(tokens)
        if tok == "L":
            return Lam(read())
        if tok == "A":
            fun = read()
            return App(fun, read())
        return (Var if tok[0] == "V" else FVar)(int(tok[1:]))

    term = read()
    assert next(tokens, None) is None, "trailing tokens"
    return term


# ---------------------------------------------------------------------------
# Schoolbook row arithmetic: the products the packed kernel replaced


def schoolbook_ogf(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def schoolbook_egf(a, b):
    # labeled product: c[k] = sum over i+j=k of C(k, i) a[i] b[j]
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += comb(i + j, i) * x * y
    return out


def comb_taylor_shift(row):
    # p(x) -> p(x + 1)
    out = [0] * len(row)
    for k, c in enumerate(row):
        for j in range(k + 1):
            out[j] += comb(k, j) * c
    return out


def add(*rows):
    return [sum(c) for c in zip_longest(*rows, fillvalue=0)]


def stripped(row):
    row = list(row)
    while row and row[-1] == 0:
        row.pop()
    return row


# ---------------------------------------------------------------------------
# The solvers' equations, each right-hand side rebuilt from a solution's rows


def series_product(oracle, a, b):
    """Rows of the series product a b, one per row of a, with oracle as the row product."""
    return [stripped(add(*(oracle(a[i], b[n - i]) for i in range(n + 1)))) for n in range(len(a))]


def linear_rows(L):
    """Rows of zx + L^2 + dL/dx, under EGF."""
    square = series_product(schoolbook_egf, L, L)
    return [stripped(add([0, 1] if n == 1 else [], square[n], L[n][1:])) for n in range(len(L))]


def neutral_rows(b, r, oracle):
    """Rows of x + b r, for a pair's neutral family b and its normal family r."""
    return [stripped(add([0, 1] if n == 0 else [], p))
            for n, p in enumerate(series_product(oracle, b, r))]


def normal_rows(b, r):
    """Rows of z b + dr/dx under EGF, or z b + (r - r(x=0))/x under OGF.

    On a table's counts either derivative is the plain shift r[k + 1].
    """
    return [stripped(add(b[n - 1] if n else [], r[n][1:])) for n in range(len(r))]


def fixpoint_rows(qb):
    """Rows of x + z QB QB(x+1), the exchange classes' fixpoint equation."""
    product = series_product(schoolbook_ogf, qb, [comb_taylor_shift(row) for row in qb])
    return [stripped(add([0, 1] if n == 0 else [], product[n - 1] if n else []))
            for n in range(len(qb))]

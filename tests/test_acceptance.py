"""Acceptance criteria, one test per criterion, zero tolerance throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  Enumeration-side censuses stop at size 5 (their sanctioned
runtime cutoff), apart from the closed linear size-6 cell; the series side
always reaches size 6.
"""

import random
from itertools import permutations as iter_permutations
from math import factorial

import pytest

from linlam.enumeration import Family, count_family, enum_family
from linlam.exchange import canonicalize, count_classes, is_isomorphic, local_exchanges
from linlam.maps import Variant, canonical_code, census, census_maps
from linlam.series import FamilyName, solve
from linlam.terms import App, FVar, Lam, Var
from oracles import conjugate, fixpoint_rows

LINEAR_CLOSED = [1, 5, 60, 1105, 27120, 828250]
NORMAL_CLOSED = [1, 3, 26, 367, 7142, 176766]
PLANAR_NORMAL_CLOSED = [1, 2, 9, 54, 378, 2916]
QUOTIENT_CLOSED = [1, 2, 10, 74, 706, 8162]


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def linear_table():
    return count_family(Family.LINEAR, 5)


@pytest.fixture(scope="module")
def normal_table():
    return count_family(Family.NORMAL, 5)


@pytest.fixture(scope="module")
def planar_table():
    return count_family(Family.PLANAR_NORMAL, 5)


@pytest.fixture(scope="module")
def neutral_classes():
    return count_classes(Family.NEUTRAL, 4)


@pytest.fixture(scope="module")
def censuses():
    return {n: census(n, Variant.ALL_GENERA) for n in (1, 2, 3, 4)}


def test_criterion_1_closed_linear_terms(linear_table):
    series_seq = solve(FamilyName.L, 6).series.closed_sequence(6)
    enum_seq = linear_table.closed_sequence(5)
    ok = series_seq == LINEAR_CLOSED and enum_seq == LINEAR_CLOSED[:5]
    report(
        1,
        ok,
        f"closed linear: series {series_seq}, enumeration {enum_seq} "
        "(enumeration stops at size 5 per the runtime cutoff)",
    )


def test_criterion_1_closed_linear_terms_size_6_enumeration():
    count = sum(1 for _ in enum_family(Family.LINEAR, 6, 0))
    report(1, count == 828250, f"closed linear enumeration at size 6: {count}")


def test_criterion_2_closed_normal_terms(normal_table):
    series_seq = solve(FamilyName.LR, 6).series.closed_sequence(6)
    enum_seq = normal_table.closed_sequence(5)
    ok = series_seq == NORMAL_CLOSED and enum_seq == NORMAL_CLOSED[:5]
    report(2, ok, f"closed normal: series {series_seq}, enumeration {enum_seq}")


def test_criterion_3_closed_planar_normal_terms(planar_table):
    series_seq = solve(FamilyName.PR, 6).series.closed_sequence(6)
    enum_seq = planar_table.closed_sequence(5)
    ok = series_seq == PLANAR_NORMAL_CLOSED and enum_seq == PLANAR_NORMAL_CLOSED[:5]
    report(3, ok, f"closed planar normal: series {series_seq}, enumeration {enum_seq}")


def test_criterion_4_isomorphism_classes_of_closed_normal_terms():
    dedup = [
        len({canonicalize(t) for t in enum_family(Family.NORMAL, n, 0)})
        for n in range(1, 6)
    ]
    qb = solve(FamilyName.QB, 12).series.rows
    qr = solve(FamilyName.QR, 12).series
    # the solver builds the mutual pair; rebuild the table from the fixpoint
    # equation B = x + z B B(x+1), with schoolbook products, and compare the full tables
    routes_agree = qb == fixpoint_rows(qb)
    series_seq = qr.closed_sequence(6)
    ok = (
        dedup == QUOTIENT_CLOSED[:5]
        and routes_agree
        and series_seq == QUOTIENT_CLOSED
    )
    report(
        4,
        ok,
        f"closed normal classes: dedup {dedup}, series {series_seq}, "
        f"routes agree to n=12: {routes_agree}",
    )


def test_criterion_5_bivariate_triple_agreement(neutral_classes, censuses):
    qb = solve(FamilyName.QB, 4).series
    mismatches = []
    for n in range(1, 5):
        for k in range(n + 2):
            class_count = neutral_classes.unlabeled.count(n, k)
            series_count = qb.count(n, k)
            map_count = censuses[n].count(n, k)
            if not class_count == series_count == map_count:
                mismatches.append((n, k, class_count, series_count, map_count))
    report(
        5,
        not mismatches,
        "bivariate triple agreement (classes = series = maps) for n <= 4"
        + (f"; mismatches {mismatches}" if mismatches else ""),
    )


def test_criterion_6_planar_map_census(planar_table):
    totals = [census(n, Variant.PLANAR_ONLY).total() for n in (1, 2, 3, 4)]
    terms_shifted = [planar_table.count(n + 1, 0) for n in (1, 2, 3, 4)]
    ok = totals == [2, 9, 54, 378] and totals == terms_shifted
    report(6, ok, f"planar census totals {totals} vs shifted planar terms {terms_shifted}")


def test_criterion_7_trivalent_census(linear_table):
    totals = [census(3, Variant.TRIVALENT).total(), census(6, Variant.TRIVALENT).total()]
    terms = [linear_table.count(2, 0), linear_table.count(3, 0)]
    ok = totals == [5, 60] and totals == terms
    report(7, ok, f"trivalent census totals {totals} vs closed linear terms {terms}")


def test_criterion_8_property_suites():
    failures = []

    # canonicalization idempotence and single-exchange invariance, size <= 4
    for n in range(5):
        for k in range(n + 2):
            for t in enum_family(Family.LINEAR, n, k):
                c = canonicalize(t)
                if canonicalize(c) != c:
                    failures.append(f"idempotence at {t}")
                for u in local_exchanges(t):
                    if canonicalize(u) != c:
                        failures.append(f"exchange invariance at {t}")

    # reachability equivalence for size <= 3
    def closure(t):
        seen = {t}
        frontier = [t]
        while frontier:
            nxt = []
            for u in frontier:
                for v in local_exchanges(u):
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        return seen

    for n in range(4):
        for k in range(n + 2):
            cell = list(enum_family(Family.LINEAR, n, k))
            closures = {t: closure(t) for t in cell}
            for t1 in cell:
                for t2 in cell:
                    if is_isomorphic(t1, t2) != (t2 in closures[t1]):
                        failures.append(f"reachability mismatch at {t1} / {t2}")

    # canonical-code invariance under 100 random root-fixing relabelings
    rng = random.Random(8162)
    for n in (1, 2, 3):
        for m in census_maps(n, Variant.ALL_GENERA):
            code = canonical_code(m)
            darts = list(range(1, 2 * n))
            for _ in range(100):
                rng.shuffle(darts)
                if canonical_code(conjugate(m, (0, *darts))) != code:
                    failures.append(f"code not conjugation-invariant at {m}")
                    break

    # the k! relabelings act freely on classes, size <= 3
    def relabel(t, perm):
        if isinstance(t, FVar):
            return FVar(perm[t.index])
        if isinstance(t, Var):
            return t
        if isinstance(t, App):
            return App(relabel(t.fun, perm), relabel(t.arg, perm))
        return Lam(relabel(t.body, perm))

    for family in (Family.NEUTRAL, Family.NORMAL):
        for n in range(4):
            for k in range(1, n + 2):
                forms = {canonicalize(t) for t in enum_family(family, n, k)}
                for c in forms:
                    orbit = {
                        canonicalize(relabel(c, perm))
                        for perm in iter_permutations(range(k))
                    }
                    if len(orbit) != factorial(k) or not orbit <= forms:
                        failures.append(f"free action fails at ({family}, {n}, {k})")

    report(
        8,
        not failures,
        "property suites (idempotence, exchange invariance, reachability, "
        "code invariance, free action) with zero counterexamples"
        + (f"; failures {failures[:3]}" if failures else ""),
    )


def test_optional_map_census_at_five_edges():
    total = census(5, Variant.ALL_GENERA).total()
    report(5, total == 8162, f"all-genera census at 5 edges: {total}")

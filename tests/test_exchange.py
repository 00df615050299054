from itertools import permutations
from math import factorial

import pytest

from linlam import exchange
from linlam.enumeration import Family, class_cells, count_family, enum_family
from linlam.exchange import (
    canonicalize,
    class_groups,
    count_classes,
    is_isomorphic,
    local_exchanges,
)
from linlam.series import FamilyName, solve
from linlam.terms import App, FVar, Lam, Term, Var, parse


def relabel_free(t: Term, perm) -> Term:
    if isinstance(t, FVar):
        return FVar(perm[t.index])
    if isinstance(t, Var):
        return t
    if isinstance(t, App):
        return App(relabel_free(t.fun, perm), relabel_free(t.arg, perm))
    return Lam(relabel_free(t.body, perm))


def free_order(t: Term) -> list[int]:
    # free positions in depth-first order, function before argument
    if isinstance(t, FVar):
        return [t.index]
    if isinstance(t, App):
        return free_order(t.fun) + free_order(t.arg)
    if isinstance(t, Lam):
        return free_order(t.body)
    return []


def reachable_by_exchanges(t: Term) -> set[Term]:
    # breadth-first closure of single exchanges: the definition of the
    # equivalence, independent of the canonical form
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


class TestLocalExchanges:
    def test_single_adjacent_pair(self):
        got = local_exchanges(parse("\\x. \\y. x(y)"))
        assert got == [parse("\\x. \\y. y(x)")]

    def test_no_adjacent_pair(self):
        assert local_exchanges(parse("\\x. x")) == []

    def test_triple_run_has_two_positions(self):
        got = local_exchanges(parse("\\x. \\y. \\z. x(y)(z)"))
        assert len(got) == 2
        assert parse("\\x. \\y. \\z. y(x)(z)") in got
        assert parse("\\x. \\y. \\z. x(z)(y)") in got

    def test_exchange_is_its_own_inverse(self):
        t = parse("\\x. \\y. y(\\z. \\w. z(w))(x)")
        for u in local_exchanges(t):
            assert t in local_exchanges(u)


class TestCanonicalize:
    def test_swapped_pair_identified(self):
        assert canonicalize(parse("\\x. \\y. y(x)")) == canonicalize(
            parse("\\x. \\y. x(y)")
        )

    def test_nonlocal_exchange_not_identified(self):
        a = parse("\\x. \\y. y(\\z. x(z))")
        b = parse("\\x. \\y. y(\\z. z(x))")
        assert canonicalize(a) != canonicalize(b)

    def test_nested_blocks_identified(self):
        a = parse("\\x. \\y. y(\\z. \\w. z(w))(x)")
        b = parse("\\x. \\y. x(\\z. \\w. w(z))(y)")
        assert canonicalize(a) == canonicalize(b)

    def test_representative_orders_binders_by_first_use(self):
        assert canonicalize(parse("\\x. \\y. y(x)")) == parse("\\x. \\y. x(y)")

    def test_rejects_nonlinear_terms(self):
        with pytest.raises(ValueError):
            canonicalize(parse("\\x. \\y. x"))

    def test_rejects_a_run_with_one_binder_used_twice(self):
        # two occurrences for a run of two binders, but not one for each
        twice_x, twice_y = parse("\\x. \\y. x(x)"), parse("\\x. \\y. y(y)")
        for t in (twice_x, twice_y):
            with pytest.raises(ValueError):
                canonicalize(t)
        with pytest.raises(ValueError):
            is_isomorphic(twice_x, twice_y)

    def test_a_canonical_term_is_returned_as_it_is(self):
        # a canonical form comes back as the same object, and so does the
        # canonical side of an application whose other side is not
        swapped, ordered = parse("\\x. \\y. y(x)"), parse("\\z. \\w. z(w)")
        form = canonicalize(App(swapped, ordered))
        assert form == App(ordered, ordered)
        assert form.arg is ordered
        assert canonicalize(form) is form

    def test_idempotent_and_exchange_invariant_up_to_size_4(self):
        for n in range(5):
            for k in range(n + 2):
                for t in enum_family(Family.LINEAR, n, k):
                    c = canonicalize(t)
                    assert canonicalize(c) == c
                    for u in local_exchanges(t):
                        assert canonicalize(u) == c


class TestIsIsomorphic:
    def test_swapped_pair_isomorphic(self):
        assert is_isomorphic(parse("\\x. \\y. x(y)"), parse("\\x. \\y. y(x)"))

    def test_reflexive(self):
        t = parse("\\x. x(\\y. y)")
        assert is_isomorphic(t, t)

    def test_distinct_classes(self):
        assert not is_isomorphic(
            parse("\\x. \\y. x(\\z. y(z))"), parse("\\x. \\y. x(\\z. z(y))")
        )

    def test_matches_reachability_up_to_size_3(self):
        # equality of canonical forms must coincide with actual reachability
        for n in range(4):
            for k in range(n + 2):
                cell = list(enum_family(Family.LINEAR, n, k))
                closures = {t: reachable_by_exchanges(t) for t in cell}
                for t1 in cell:
                    for t2 in cell:
                        assert is_isomorphic(t1, t2) == (t2 in closures[t1])


class TestCountClasses:
    def test_closed_normal_prefix(self):
        counts = count_classes(Family.NORMAL, 3)
        assert counts.labeled.closed_sequence(3) == [1, 2, 10]
        assert counts.unlabeled.closed_sequence(3) == [1, 2, 10]

    def test_neutral_bivariate_row_two(self):
        counts = count_classes(Family.NEUTRAL, 2)
        assert counts.unlabeled.row(2) == [0, 3, 5, 2]

    def test_only_neutral_and_normal_supported(self):
        with pytest.raises(ValueError):
            count_classes(Family.LINEAR, 2)

    def test_class_sizes_sum_to_family_counts(self):
        table = count_family(Family.NORMAL, 4)
        for n in range(1, 5):
            groups = class_groups(Family.NORMAL, n, 0)
            assert sum(len(g) for g in groups) == table.count(n, 0)

    def test_free_action_of_relabeling_up_to_size_3(self):
        # each canonical form's orbit under the k! relabelings has exactly
        # k! distinct members, all within the cell
        for family in (Family.NEUTRAL, Family.NORMAL):
            for n in range(4):
                for k in range(1, n + 2):
                    forms = {canonicalize(t) for t in enum_family(family, n, k)}
                    for c in forms:
                        orbit = {
                            canonicalize(relabel_free(c, perm))
                            for perm in permutations(range(k))
                        }
                        assert len(orbit) == factorial(k)
                        assert orbit <= forms

    def test_counts_without_canonicalizing(self, monkeypatch):
        calls = []
        original = exchange.canonicalize

        def spy(t):
            calls.append(t)
            return original(t)

        monkeypatch.setattr(exchange, "canonicalize", spy)
        assert count_classes(Family.NORMAL, 4).labeled.closed_sequence(4) == [1, 2, 10, 74]
        assert count_classes(Family.NEUTRAL, 3).unlabeled.row(3) == [0, 15, 32, 22, 5]
        assert calls == []

    @pytest.mark.parametrize("family", [Family.NEUTRAL, Family.NORMAL])
    def test_labeled_counts_the_dedup_classes(self, family):
        # the labeled table is derived from the unlabeled one; deduplication
        # counts the labeled classes independently
        labeled = count_classes(family, 3).labeled
        for n in range(4):
            for k in range(n + 2):
                assert labeled.count(n, k) == len(class_groups(family, n, k)), (n, k)

    def test_neutral_classes_reach_size_6(self):
        # one form per unlabeled class: 110,410 at size 6, where the labeled
        # classes number about 3.6 million
        unlabeled = count_classes(Family.NEUTRAL, 6).unlabeled
        quotient = solve(FamilyName.QB, 6).series
        for n in range(7):
            for k in range(n + 2):
                assert unlabeled.count(n, k) == quotient.count(n, k), (n, k)
        assert unlabeled.row(6) == [0, 10395, 30669, 36500, 22950, 8178, 1586, 132]
        assert sum(unlabeled.row(6)) == a000698(8)[7] == 110410

    def test_normal_classes_match_the_quotient_series(self):
        # the crosscheck compares only the closed column of the normal classes
        unlabeled = count_classes(Family.NORMAL, 5).unlabeled
        quotient = solve(FamilyName.QR, 5).series
        for n in range(6):
            for k in range(n + 2):
                assert unlabeled.count(n, k) == quotient.count(n, k), (n, k)
        assert unlabeled.row(5) == [706, 1769, 1660, 746, 163, 14, 0]


class TestClassGroups:
    def test_group_sizes_at_size_3(self):
        groups = class_groups(Family.NORMAL, 3, 0)
        assert sorted(len(g) for g in groups) == [1, 1, 2, 2, 2, 2, 2, 2, 6, 6]

    def test_representative_is_canonical_and_member(self):
        for n in (1, 2, 3):
            for group in class_groups(Family.NORMAL, n, 0):
                rep = group[0]
                assert canonicalize(rep) == rep
                assert all(canonicalize(t) == rep for t in group)


def a000698(count):
    """a(n) = (2n-1)!! - sum_{k=1}^{n-1} (2k-1)!! a(n-k), with a(0) = 1."""
    double = [factorial(2 * n) // (2**n * factorial(n)) for n in range(count)]
    a = [1]
    while len(a) < count:
        n = len(a)
        a.append(double[n] - sum(double[k] * a[n - k] for k in range(1, n)))
    return a


class TestClassConstruction:
    @pytest.mark.parametrize("family,max_n", [(Family.NEUTRAL, 4), (Family.NORMAL, 5)])
    def test_representatives_are_the_dedup_forms(self, family, max_n):
        # one canonical form per relabeling orbit: the one whose free
        # variables first occur in the order 0..k-1
        seen = 0
        for n, k, cell in class_cells(family, max_n):
            built = list(cell)
            assert len(set(built)) == len(built), (n, k)
            assert all(canonicalize(t) == t for t in built), (n, k)
            assert all(free_order(t) == list(range(k)) for t in built), (n, k)
            forms = {canonicalize(t) for t in enum_family(family, n, k)}
            in_order = {t for t in forms if free_order(t) == list(range(k))}
            assert set(built) == in_order, (n, k)
            assert factorial(k) * len(built) == len(forms), (n, k)
            seen += 1
        assert seen == sum(n + 2 for n in range(max_n + 1))

    def test_only_neutral_and_normal_supported(self):
        for family in (Family.LINEAR, Family.PLANAR_NORMAL):
            with pytest.raises(ValueError):
                class_cells(family, 2)

    def test_closed_normal_classes_reach_size_7(self):
        # the paper's sequence past the reach of deduplication
        want = a000698(8)[1:]
        assert want == [1, 2, 10, 74, 706, 8162, 110410]
        got = [sum(1 for _ in cell) for n, k, cell in class_cells(Family.NORMAL, 7) if n and not k]
        assert got == want

import hashlib
import json
import tracemalloc
from collections.abc import Iterator
from functools import partial
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linlam import cli, enumeration
from linlam.enumeration import (
    CountTable,
    Family,
    class_cells,
    count_class_cells,
    count_family,
    enum_cells,
    enum_family,
)
from linlam.exchange import class_groups, count_classes, dedup_ledger
from linlam.series import FamilyName, solve
from linlam.terms import Kind, check_linear, classify, parse, render, to_ascii

# series family backing each enumerated family
SERIES_OF = {
    Family.LINEAR: FamilyName.L,
    Family.NEUTRAL: FamilyName.LB,
    Family.NORMAL: FamilyName.LR,
    Family.PLANAR_NEUTRAL: FamilyName.PB,
    Family.PLANAR_NORMAL: FamilyName.PR,
}

EXPECTED_KIND = {
    Family.LINEAR: None,
    Family.NEUTRAL: Kind.NEUTRAL,
    Family.NORMAL: None,  # normal means not NOT_NORMAL
    Family.PLANAR_NEUTRAL: Kind.NEUTRAL,
    Family.PLANAR_NORMAL: None,
}


class TestSmallCells:
    def test_normal_size_one_closed(self):
        assert [render(t) for t in enum_family(Family.NORMAL, 1, 0)] == ["λa.a"]

    def test_normal_size_two_closed(self):
        got = {render(t) for t in enum_family(Family.NORMAL, 2, 0)}
        assert got == {
            "λa.a(λb.b)",
            "λa.λb.a(b)",
            "λa.λb.b(a)",
        }

    def test_normal_size_three_closed_count(self):
        assert sum(1 for _ in enum_family(Family.NORMAL, 3, 0)) == 26

    def test_neutral_size_one_two_free(self):
        got = set(enum_family(Family.NEUTRAL, 1, 2))
        assert got == {parse("x(y)", ["x", "y"]), parse("y(x)", ["x", "y"])}

    def test_empty_cells(self):
        assert list(enum_family(Family.LINEAR, 0, 0)) == []
        assert list(enum_family(Family.NORMAL, 2, 5)) == []

    def test_negative_arguments_rejected(self):
        with pytest.raises(ValueError):
            enum_family(Family.LINEAR, -1, 0)


NEGATIVE_SIZE = "size and context must be non-negative"
NOT_A_CLASS_FAMILY = "exchange classes cover the neutral and normal families"
# every census entry point with a negative size, and every class census or
# listing with a family that has no exchange classes; each raises on the call
OUT_OF_DOMAIN = {
    "enum_family": (partial(enum_family, Family.NORMAL, -1, 0), NEGATIVE_SIZE),
    "enum_cells": (partial(enum_cells, Family.NORMAL, -1), NEGATIVE_SIZE),
    "class_cells": (partial(class_cells, Family.NORMAL, -1), NEGATIVE_SIZE),
    "count_family": (partial(count_family, Family.LINEAR, -1), NEGATIVE_SIZE),
    "count_class_cells": (partial(count_class_cells, Family.NORMAL, -1), NEGATIVE_SIZE),
    "count_classes": (partial(count_classes, Family.NEUTRAL, -1), NEGATIVE_SIZE),
    "dedup_ledger": (partial(dedup_ledger, Family.NORMAL, -1), NEGATIVE_SIZE),
    **{
        f"{call.__name__}:{family.value}": (partial(call, family, 2), NOT_A_CLASS_FAMILY)
        for call in (class_cells, count_classes, class_groups, dedup_ledger)
        for family in (Family.LINEAR, Family.PLANAR_NORMAL)
    },
}


@pytest.mark.parametrize("name", OUT_OF_DOMAIN)
def test_each_domain_is_checked_at_every_entry_point(name):
    call, message = OUT_OF_DOMAIN[name]
    with pytest.raises(ValueError, match=message):
        call()


class TestClosedPrefixes:
    def test_linear(self):
        table = count_family(Family.LINEAR, 4)
        assert table.closed_sequence(4) == [1, 5, 60, 1105]

    def test_normal(self):
        table = count_family(Family.NORMAL, 4)
        assert table.closed_sequence(4) == [1, 3, 26, 367]

    def test_planar_normal(self):
        table = count_family(Family.PLANAR_NORMAL, 5)
        assert table.closed_sequence(5) == [1, 2, 9, 54, 378]

    def test_neutral_bivariate_rows(self):
        table = count_family(Family.NEUTRAL, 2)
        assert table.row(0) == [0, 1]
        assert table.row(1) == [0, 1, 2]
        assert table.row(2) == [0, 4, 10, 12]


# sha256 over to_ascii(t) + "\n" for every term of enum_family(family, n, k),
# n = 0..N and k = 0..n+1 in that order, for N = 4 and N = 5: pins the
# enumeration order
ORDER_SHA256 = {
    Family.LINEAR: (
        "56570f8ea2d6925ee4279b4f8f0ebbe0d7c4e126e8e19266f436db6980fa3600",
        "56b14a616b5bd101167430c03511d50186c4206296feef84d85149fa4ac53dc0",
    ),
    Family.NEUTRAL: (
        "777c7bdf05f06554e6f2aa268a1f81fb3934fe6c58c9b428bc207738784cf281",
        "e76a6fe82e01b95e9e5200293e7a2dea493a90eaa062d8f758007e575390e095",
    ),
    Family.NORMAL: (
        "a60968431d6878138a0b479851225700211df8a6e24dd3a95443f0fcf5c41241",
        "be06b2e5dc2174c2cb8ce678ee2cd10c1ff0c78b390de93abf2d285c564c965d",
    ),
    Family.PLANAR_NEUTRAL: (
        "b6cf31b01f62f7d9cf28b3ccb49ec47c69d6c5ab791344f3d8c381d250a165c1",
        "ef767ecbd7872c6bf9f424c4e0d6556302792d05b0c12c9ae7b582570e00eda8",
    ),
    Family.PLANAR_NORMAL: (
        "75cac3baeed49aa02bffca23c48696978509cb2d2feb19ae6ef67c255d354c45",
        "2b96145de487c69452e3aafbd5d831ccfdb7a7c29e7a3eb708cbcfef447d3ed0",
    ),
}


@pytest.mark.parametrize("family", list(Family))
def test_enumeration_order_is_pinned(family):
    digest = hashlib.sha256()
    got = []
    for n in range(6):
        for k in range(n + 2):
            for t in enum_family(family, n, k):
                digest.update(to_ascii(t).encode() + b"\n")
        if n >= 4:
            got.append(digest.copy().hexdigest())
    assert tuple(got) == ORDER_SHA256[family]


@pytest.mark.parametrize("family", list(Family))
def test_cells_match_enum_family(family):
    # a census's cells share sub-results but yield each cell's own sequence
    for n, k, cell in enum_cells(family, 4):
        assert list(cell) == list(enum_family(family, n, k)), (family, n, k)


def test_enum_family_is_lazy():
    # the first terms of the 828,250-term closed linear size-6 cell need only
    # the smaller sub-results: about 6 MB, where holding the cell takes 150 MB
    tracemalloc.start()
    try:
        terms = enum_family(Family.LINEAR, 6, 0)
        assert isinstance(terms, Iterator)
        first = list(islice(terms, 1000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(first) == 1000
    assert peak < 16 * 2**20


@pytest.mark.parametrize("family", list(Family))
def test_series_agreement(family):
    # the brute-force census must equal the series coefficients cell by cell
    table = count_family(family, 4)
    sol = solve(SERIES_OF[family], 4).series
    for n in range(5):
        for k in range(n + 2):
            assert table.count(n, k) == sol.count(n, k), (family, n, k)


@pytest.mark.parametrize("family", list(Family))
def test_yielded_terms_are_valid_and_distinct(family):
    for n in range(4):
        for k in range(n + 2):
            seen = set()
            for t in enum_family(family, n, k):
                assert check_linear(t, k), (family, n, k, t)
                cls = classify(t)
                want = EXPECTED_KIND[family]
                if want is not None:
                    assert cls.kind is want
                    assert cls.occurrences == n + 1
                elif family is not Family.LINEAR:
                    assert cls.is_normal
                    assert cls.normal_size == n
                else:
                    assert cls.occurrences == n
                assert t not in seen
                seen.add(t)


def test_planar_families_are_subfamilies():
    for n in range(5):
        for k in range(n + 2):
            plain = set(enum_family(Family.NORMAL, n, k))
            planar = set(enum_family(Family.PLANAR_NORMAL, n, k))
            assert planar <= plain


def test_stripping_outer_binders_of_closed_normals_gives_neutrals():
    # a closed normal term is an abstraction run over a neutral body, one
    # size smaller, with as many free variables as binders stripped
    from linlam.terms import FVar, Lam, Term, Var

    def strip(t: Term):
        block = 0
        while isinstance(t, Lam):
            block += 1
            t = t.body

        def free(node, depth):
            if isinstance(node, Var):
                b = node.index - depth
                return FVar(b) if b >= 0 else node
            if isinstance(node, FVar):
                return node
            if isinstance(node, Lam):
                return Lam(free(node.body, depth + 1))
            from linlam.terms import App

            return App(free(node.fun, depth), free(node.arg, depth))

        return block, free(t, 0)

    neutral_counts = count_family(Family.NEUTRAL, 3)
    for n in range(1, 5):
        by_k: dict[int, int] = {}
        for t in enum_family(Family.NORMAL, n, 0):
            block, body = strip(t)
            cls = classify(body)
            assert cls.kind is Kind.NEUTRAL
            assert cls.occurrences == n
            by_k[block] = by_k.get(block, 0) + 1
        if n <= 4:
            for k, c in by_k.items():
                assert c == neutral_counts.count(n - 1, k)


def _drain(cells):
    return sum(1 for _, _, cell in cells for _ in cell)


def test_census_hashes_no_term_node(monkeypatch):
    # memo keys and cut tables hold plain ints, so a census never hashes or
    # compares a variable, application or abstraction node
    from linlam.terms import App, FVar, Lam, Var, _Atom

    calls = []
    for cls in (_Atom, App, Lam):
        for name in ("__hash__", "__eq__"):
            def spy(self, *other, _orig=getattr(cls, name), _name=f"{cls.__name__}.{name}"):
                calls.append(_name)
                return _orig(self, *other)

            monkeypatch.setattr(cls, name, spy)
    assert hash(App(Lam(Var(0)), FVar(0)))
    assert calls  # the spies are live
    calls.clear()
    assert count_family(Family.NEUTRAL, 4).total() > 0
    assert _drain(class_cells(Family.NORMAL, 4)) > 0
    assert sum(1 for _ in enum_family(Family.PLANAR_NORMAL, 4, 1)) > 0
    assert calls == []


def _counted_and_listed(max_n, families, suffix):
    # each counting producer to max_n, beside the node census it must match
    return [(f.value + suffix, partial(count_family, f, max_n), partial(enum_cells, f, max_n))
            for f in families] + [
        (f"classes-{f.value}{suffix}", lambda f=f: count_classes(f, max_n).unlabeled,
         partial(class_cells, f, max_n))
        for f in enumeration.CLASS_FAMILIES
    ]


@pytest.mark.parametrize(
    "name, count, cells",
    # listing the labeled families' nodes to 6 takes seconds; the rest is cheap
    _counted_and_listed(5, Family, "")
    + _counted_and_listed(6, (Family.PLANAR_NEUTRAL, Family.PLANAR_NORMAL), "-to-6"),
)
def test_counting_census_counts_what_the_node_census_lists(name, count, cells):
    table = count()
    listed = {(n, k): len(list(cell)) for n, k, cell in cells()}
    assert sum(listed.values()) > 0
    assert {cell: table.count(*cell) for cell in listed} == listed, name


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    st.sampled_from(["_linear", "_neutral", "_normal"]),
    st.sampled_from([enumeration._singletons, enumeration._one_group, enumeration._new_group]),
    st.integers(0, 4),
    st.lists(st.integers(1, 4), max_size=4).filter(lambda sizes: sum(sizes) <= 4),
    st.lists(st.permutations(range(-4, 4)), min_size=2, max_size=2),
)
def test_contexts_with_equal_group_sizes_have_equally_many_terms(rule, join, n, sizes, atoms):
    # the relabeling argument the counting census's keys rest on, checked on
    # the node census, which keys by atoms: two contexts of the same group
    # sizes, each filled from a shuffle of free and binder atoms
    rule = getattr(enumeration, rule)
    counts = []
    for shuffled in atoms:
        it = iter(shuffled)
        ctx = tuple(tuple(islice(it, size)) for size in sizes)
        counts.append(sum(1 for _ in rule(enumeration._Census(rule, join), n, ctx)))
    assert counts[0] == counts[1]


def test_counting_memo_keys_by_group_sizes(monkeypatch):
    # this census holds 41,319 tuples in 35 sub-results keyed by group
    # sizes, against 161,803 in 565 keyed by the contexts' atoms
    censuses = []
    count_cells = enumeration._count_cells

    def spy(census, *args):
        censuses.append(census)
        return count_cells(census, *args)

    monkeypatch.setattr(enumeration, "_count_cells", spy)
    assert count_family(Family.NEUTRAL, 5).total() > 0
    [census] = censuses
    assert sum(map(len, census.memo.values())) < 50_000


def test_counting_builds_no_term_node(monkeypatch):
    from linlam.terms import App, Lam, _Atom

    built = []
    for cls in (_Atom, App, Lam):  # Var and FVar are made by _Atom.__init__
        def spy(self, *fields, _orig=cls.__init__):
            built.append(type(self).__name__)
            _orig(self, *fields)

        monkeypatch.setattr(cls, "__init__", spy)
    assert sum(1 for _ in enum_family(Family.NEUTRAL, 2, 1)) > 0
    assert {"App", "FVar"} <= set(built)  # the spies are live
    built.clear()
    assert count_family(Family.NEUTRAL, 4).total() > 0
    assert count_classes(Family.NORMAL, 4).unlabeled.total() > 0
    assert built == []


# A term of size n (n leaves for the linear and normal rules, n + 1 for the
# neutral one) uses every atom of its context at least once, and a neutral
# term's head is free in it
_FEASIBLE = {
    "_linear": lambda n, atoms: n >= 1 and atoms <= n,
    "_neutral": lambda n, atoms: n >= 0 and 1 <= atoms <= n + 1,
    "_normal": lambda n, atoms: n >= 1 and atoms <= n,
}


_CENSUSES = {f.value: partial(enum_cells, f, 4) for f in Family} | {
    f"classes-{f.value}": partial(class_cells, f, 4) for f in enumeration.CLASS_FAMILIES
}


@pytest.mark.parametrize("name", list(_CENSUSES))
def test_rules_ask_only_for_feasible_sub_results(monkeypatch, name):
    asked = []
    shared = enumeration._Census.shared

    def spy(self, rule, n, ctx):
        asked.append((rule.__name__, n, sum(map(len, ctx))))
        return shared(self, rule, n, ctx)

    monkeypatch.setattr(enumeration._Census, "shared", spy)
    assert _drain(_CENSUSES[name]()) > 0
    assert asked
    assert [a for a in asked if not _FEASIBLE[a[0]](a[1], a[2])] == []


class TestCountTable:
    def test_csv_shape(self, capsys):
        assert cli.main(["count", "--family", "normal", "--max-n", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,k,count"
        assert "2,0,3" in lines

    def test_json_round_trip(self, capsys):
        assert cli.main(["count", "--family", "normal", "--max-n", "2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["provenance"] == "enum:normal"
        assert [2, 0, 3] in data["cells"]

    def test_triangular(self):
        for family in Family:
            assert all(k <= n + 1 for n, k in count_family(family, 3).entries)

    def test_closed_sequence_empty_range(self):
        assert count_family(Family.LINEAR, 0).closed_sequence(0) == []

    def test_count_outside_table_is_zero(self):
        table = CountTable(max_n=2)
        assert table.count(7, 1) == 0

"""Exhaustive generation of linear term families, indexed by size and context.

Every family is generated by its grammar over an explicit context: a tuple
of non-empty ordered groups of the leaves that refer to the variables in
scope, FVar(j) for a free position and Var(i) for the binder i levels up.
An application gives the function a prefix of every group and the
argument the rest; a leaf needs exactly one atom left and emits it as it
is.  An abstraction run of r binders moves every binder of the context r
levels up, and Var(r - 1), ..., Var(0) join it.  No generated body is
rewritten, and every qualifying term is produced exactly once.

The families differ only in how new atoms (the k free positions of a cell,
the binders of a run) join the context.  The labeled families (linear,
neutral, normal) put each atom in a group of its own, so an application
splits the context into any two subsets.  The planar families put every
atom in the one group, so the function takes a front block.  The class
grammar makes each set of new atoms one new group.  Cuts come out ordered
by the number of atoms the function takes, then by their positions in the
flattened context: on singleton groups the order of itertools.combinations.

The class grammar runs the neutral and normal rules to build one
representative of every exchange class with unlabeled free variables (see
linlam.exchange) and no other term.  A term is its class's canonical form
exactly when, in every maximal binder run, the binders first occur (depth
first, function before argument) in order from the outermost, and each
relabeling orbit holds exactly one such form whose free variables first
occur in the order 0..k-1.  All of a function's variables occur before all
of its argument's, so prefix cuts keep every group in first-occurrence
order: the k free variables form one group, and each maximal binder run,
outermost binder first, one more.

Sub-results are shared within a census.  The terms a rule generates for a
strictly smaller size and a context are built once, kept as a tuple, and
reused by every application that needs them, as is each context's list of
cuts; the cell being generated, and the abstraction bodies under it, stay
generators.  Each call of enum_family, enum_cells (which count_family uses)
or class_cells has its own census and drops it on return.  Terms are
immutable, so sharing subterm objects between them is safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import accumulate, chain, product
from typing import Callable, Iterator

from .names import CLASS_FAMILIES, Family
from .terms import App, FVar, Lam, Term, Var


Atom = FVar | Var
Group = tuple[Atom, ...]
Context = tuple[Group, ...]
Cut = tuple[Context, Context]
Join = Callable[[Context, Group], Context]


def _singletons(ctx: Context, atoms: Group) -> Context:
    # labeled families: every atom is a group of its own
    return ctx + tuple((a,) for a in atoms)


def _one_group(ctx: Context, atoms: Group) -> Context:
    # planar families: the whole context is one ordered group
    merged = tuple(chain(*ctx, atoms))
    return (merged,) if merged else ()


def _new_group(ctx: Context, atoms: Group) -> Context:
    # class grammar: the atoms that join together form one ordered group
    return ctx + (atoms,) if atoms else ctx


def _cuts(ctx: Context) -> list[Cut]:
    # the function takes a prefix of every group, the argument the rest,
    # ordered by atoms taken, then by their flattened positions
    offsets = list(accumulate(map(len, ctx), initial=0))

    def taken(cut: tuple[int, ...]) -> tuple[int, list[int]]:
        positions = [p for o, i in zip(offsets, cut) for p in range(o, o + i)]
        return len(positions), positions

    return [
        (
            tuple(g[:i] for g, i in zip(ctx, cut) if i),
            tuple(g[i:] for g, i in zip(ctx, cut) if i < len(g)),
        )
        for cut in sorted(product(*(range(len(g) + 1) for g in ctx)), key=taken)
    ]


def _shift(a: Atom, r: int) -> Atom:
    return Var(a.index + r) if isinstance(a, Var) else a


def _run(r: int) -> Group:
    # the atoms of a run of r binders, outermost first
    return tuple(Var(i) for i in range(r - 1, -1, -1))


class _Census:
    """A grammar rule, a join rule, and the sub-results built so far.

    A sub-result is the tuple of terms one rule generates for a size and a
    context; it is built the first time it is asked for and then reused, as
    is each context's list of cuts.  Each public call makes its own census
    and drops it on return.
    """

    def __init__(self, rule: Rule, join: Join) -> None:
        self.rule = rule
        self.join = join
        self.memo: dict[tuple[Rule, int, Context], tuple[Term, ...]] = {}
        self.split: Callable[[Context], list[Cut]] = cache(_cuts)

    def cell(self, n: int, k: int) -> Iterator[Term]:
        return self.rule(self, n, self.join((), tuple(FVar(j) for j in range(k))))

    def shared(self, rule: Rule, n: int, ctx: Context) -> tuple[Term, ...]:
        key = (rule, n, ctx)
        terms = self.memo.get(key)
        if terms is None:
            terms = self.memo[key] = tuple(rule(self, n, ctx))
        return terms

    def bind(self, ctx: Context, r: int) -> Context:
        # the body of a run of r binders
        return self.join(tuple(tuple(_shift(a, r) for a in g) for g in ctx), _run(r))


Rule = Callable[[_Census, int, Context], Iterator[Term]]

# The two sides of an application are strictly smaller terms, so they come
# from the census's shared sub-results.  An abstraction's body, and the
# neutral body of a normal term, are as large as the term itself and are
# streamed, so a cell is never held in memory.


def _linear(c: _Census, n: int, ctx: Context) -> Iterator[Term]:
    atoms = sum(map(len, ctx))
    if n < 1 or atoms > n:
        return
    if n == 1 and atoms == 1:
        yield ctx[0][0]
    for n_fun in range(1, n):
        n_arg = n - n_fun
        for fun_ctx, arg_ctx in c.split(ctx):
            funs = c.shared(_linear, n_fun, fun_ctx)
            if funs:
                args = c.shared(_linear, n_arg, arg_ctx)
                for fun in funs:
                    for arg in args:
                        yield App(fun, arg)
    for body in _linear(c, n, c.bind(ctx, 1)):
        yield Lam(body)


def _neutral(c: _Census, n: int, ctx: Context) -> Iterator[Term]:
    # size n means n + 1 variable occurrences
    atoms = sum(map(len, ctx))
    if n < 0 or not atoms or atoms > n + 1:
        return
    if n == 0 and atoms == 1:
        yield ctx[0][0]
    for n_fun in range(n):
        n_arg = n - n_fun
        for fun_ctx, arg_ctx in c.split(ctx):
            funs = c.shared(_neutral, n_fun, fun_ctx)
            if funs:
                args = c.shared(_normal, n_arg, arg_ctx)
                for fun in funs:
                    for arg in args:
                        yield App(fun, arg)


def _normal(c: _Census, n: int, ctx: Context) -> Iterator[Term]:
    # a maximal run of r binders over a neutral body one size smaller
    atoms = sum(map(len, ctx))
    if n < 1 or atoms > n:
        return
    yield from _neutral(c, n - 1, ctx)
    for r in range(1, n - atoms + 1):
        for body in _neutral(c, n - 1, c.bind(ctx, r)):
            for _ in range(r):
                body = Lam(body)
            yield body


_GRAMMARS: dict[Family, tuple[Rule, Join]] = {
    Family.LINEAR: (_linear, _singletons),
    Family.NEUTRAL: (_neutral, _singletons),
    Family.NORMAL: (_normal, _singletons),
    Family.PLANAR_NEUTRAL: (_neutral, _one_group),
    Family.PLANAR_NORMAL: (_normal, _one_group),
}


def enum_family(family: Family, n: int, k: int) -> Iterator[Term]:
    """Yield every family member of size n over a context of k positions.

    Terms come out in a fixed deterministic order with no duplicates; the
    sequence is empty when no such terms exist.  The iterator is lazy: while
    it runs it holds the strictly smaller sub-results, never the cell.
    """
    if n < 0 or k < 0:
        raise ValueError("size and context must be non-negative")
    return _Census(*_GRAMMARS[family]).cell(n, k)


def enum_cells(family: Family, max_n: int) -> Iterator[tuple[int, int, Iterator[Term]]]:
    """Yield (n, k, terms) for every cell n <= max_n, k <= n + 1, in order.

    Each cell's terms are those of enum_family(family, n, k), in the same
    order, but every cell of one call draws on the same shared sub-results.
    """
    census = _Census(*_GRAMMARS[family])
    for n in range(max_n + 1):
        for k in range(n + 2):
            yield n, k, census.cell(n, k)


def class_cells(family: Family, max_n: int) -> Iterator[tuple[int, int, Iterator[Term]]]:
    """Yield (n, k, representatives) for every cell n <= max_n, k <= n + 1.

    Each cell yields one canonical form (linlam.exchange.canonicalize) per
    exchange class with unlabeled free variables, exactly once: the one
    whose free variables first occur in the order 0..k-1.  The class
    grammar builds it directly, so no other term is generated and nothing
    is canonicalized.  Cells stream, and every cell of one call draws on
    the same shared sub-results.
    """
    if family not in CLASS_FAMILIES:
        raise ValueError("class censuses cover the neutral and normal families")
    census = _Census(_GRAMMARS[family][0], _new_group)
    return (
        (n, k, census.cell(n, k)) for n in range(max_n + 1) for k in range(n + 2)
    )


# ---------------------------------------------------------------------------
# Count tables


@dataclass
class CountTable:
    """Census of a two-index family: (n, k) -> exact count.

    Tables are triangular (zero whenever k > n + 1) and remember which
    producer filled them.
    """

    max_n: int
    entries: dict[tuple[int, int], int] = field(default_factory=dict)
    provenance: str = ""

    def count(self, n: int, k: int) -> int:
        return self.entries.get((n, k), 0)

    def total(self) -> int:
        return sum(self.entries.values())

    def row(self, n: int) -> list[int]:
        return [self.count(n, k) for k in range(n + 2)]

    def closed_sequence(self, first: int = 1, last: int | None = None) -> list[int]:
        last = self.max_n if last is None else last
        return [self.count(n, 0) for n in range(first, last + 1)]

    def cells(self) -> Iterator[tuple[int, int, int]]:
        for n in range(self.max_n + 1):
            for k in range(n + 2):
                yield n, k, self.count(n, k)

    def check_triangular(self) -> bool:
        return all(k <= n + 1 or c == 0 for (n, k), c in self.entries.items())

    def to_csv(self) -> str:
        lines = ["n,k,count"]
        lines += [f"{n},{k},{c}" for n, k, c in self.cells()]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        import json

        data = {
            "provenance": self.provenance,
            "max_n": self.max_n,
            "cells": [[n, k, c] for n, k, c in self.cells()],
        }
        return json.dumps(data, indent=2) + "\n"


def count_family(family: Family, max_n: int) -> CountTable:
    """Count family members for all n <= max_n and k <= n + 1 by streaming.

    Every cell is generated and its terms counted one by one; a cell is
    streamed, never held in memory.  The cells of one call share the
    smaller sub-results they are built from, and drop them on return.  No
    count is derived from sub-result sizes or from the series, so this is a
    genuinely independent producer against the series solutions.
    """
    table = CountTable(max_n=max_n, provenance=f"enum:{family.value}")
    for n, k, cell in enum_cells(family, max_n):
        c = sum(1 for _ in cell)
        if c:
            table.entries[(n, k)] = c
    return table

"""Exhaustive generation of linear term families, indexed by size and context.

Each family is generated by its grammar over an explicit ordered context.
The context holds the leaf that refers to each variable in scope: FVar(j)
for a free position, Var(i) for the binder i levels up.  An application
splits the context between function and argument, and the split is the
grammar's one parameter: all subsets for the labeled families, contiguous
blocks (function first) for the planar ones.  An abstraction run of r
binders moves every binder of the context r levels up and appends
Var(r - 1), ..., Var(0), and a leaf emits its context entry as it is, so no
generated body is rewritten and every qualifying term is produced exactly
once.

The same neutral and normal rules also build one representative of every
exchange class (see linlam.exchange) without generating the class's other
members.  A term is its class's canonical form exactly when, in every
maximal binder run, the binders first occur (depth first, function before
argument) in order from the outermost.  The class grammar therefore runs
over a context of groups: each free variable is a singleton group, and each
maximal binder run adds one ordered group, outermost binder first.  An
application gives the function a prefix of every group and the argument the
rest, because all of a function's variables occur before all of its
argument's; on singleton groups that is the subset split.  A leaf needs
exactly one atom left.

Sub-results are shared within a census.  The terms a rule generates for a
strictly smaller size and a context are built once, kept as a tuple, and
reused by every application that needs them; the cell being generated,
and the abstraction bodies under it, stay generators.  Each call of
enum_family, enum_cells (which count_family uses) or class_cells has its
own memo and drops it on return.  Terms are immutable, so sharing subterm
objects between them is safe.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations, product
from typing import Callable, Iterator

from .terms import App, FVar, Lam, Term, Var


class Family(Enum):
    LINEAR = "linear"
    NEUTRAL = "neutral"
    NORMAL = "normal"
    PLANAR_NEUTRAL = "planar-neutral"
    PLANAR_NORMAL = "planar-normal"


Atom = FVar | Var
Context = tuple[Atom, ...]
Split = Callable[[Context], Iterator[tuple[Context, Context]]]


def _subset_splits(ctx: Context) -> Iterator[tuple[Context, Context]]:
    # every way to hand a sub-context to the function, the rest to the argument
    for r in range(len(ctx) + 1):
        for chosen in combinations(ctx, r):
            taken = set(chosen)
            yield chosen, tuple(a for a in ctx if a not in taken)


def _block_splits(ctx: Context) -> Iterator[tuple[Context, Context]]:
    # ordered context cut in two: function gets the front block
    for i in range(len(ctx) + 1):
        yield ctx[:i], ctx[i:]


def _shift(a: Atom, r: int) -> Atom:
    return Var(a.index + r) if isinstance(a, Var) else a


def _run(r: int) -> Context:
    # the atoms of a run of r binders, outermost first
    return tuple(Var(i) for i in range(r - 1, -1, -1))


class _Census:
    """A grammar rule, the contexts it runs over, and its sub-results so far.

    A sub-result is the tuple of terms one rule generates for a size and a
    context; it is built the first time it is asked for and then reused.
    Each public call makes its own census and drops it on return.  A
    subclass fixes the context: start(k) for k free positions, size(ctx)
    atoms in scope, leaf(ctx) for the one atom left, split(ctx) for an
    application, and bind(ctx, r) for the body of a run of r binders.
    """

    def __init__(self, rule: Rule) -> None:
        self.rule = rule
        self.memo: dict[tuple[Rule, int, tuple], tuple[Term, ...]] = {}

    def cell(self, n: int, k: int) -> Iterator[Term]:
        return self.rule(self, n, self.start(k))

    def shared(self, rule: Rule, n: int, ctx: tuple) -> tuple[Term, ...]:
        key = (rule, n, ctx)
        terms = self.memo.get(key)
        if terms is None:
            terms = self.memo[key] = tuple(rule(self, n, ctx))
        return terms


class _AtomCensus(_Census):
    """Contexts are ordered tuples of atoms, split as the family says."""

    def __init__(self, family: Family) -> None:
        rule, self.split = _GRAMMARS[family]
        super().__init__(rule)

    @staticmethod
    def start(k: int) -> Context:
        return tuple(FVar(j) for j in range(k))

    size = staticmethod(len)

    @staticmethod
    def leaf(ctx: Context) -> Atom:
        return ctx[0]

    @staticmethod
    def bind(ctx: Context, r: int) -> Context:
        return tuple(_shift(a, r) for a in ctx) + _run(r)


GroupContext = tuple[Context, ...]


class _GroupCensus(_Census):
    """Contexts are tuples of non-empty ordered groups: the class grammar."""

    @staticmethod
    def start(k: int) -> GroupContext:
        return tuple((FVar(j),) for j in range(k))

    @staticmethod
    def size(ctx: GroupContext) -> int:
        return sum(map(len, ctx))

    @staticmethod
    def leaf(ctx: GroupContext) -> Atom:
        return ctx[0][0]

    @staticmethod
    def split(ctx: GroupContext) -> Iterator[tuple[GroupContext, GroupContext]]:
        # the function takes a prefix of every group, the argument the rest
        for cuts in product(*(range(len(g) + 1) for g in ctx)):
            yield (
                tuple(g[:i] for g, i in zip(ctx, cuts) if i),
                tuple(g[i:] for g, i in zip(ctx, cuts) if i < len(g)),
            )

    @staticmethod
    def bind(ctx: GroupContext, r: int) -> GroupContext:
        if not r:
            return ctx
        return tuple(tuple(_shift(a, r) for a in g) for g in ctx) + (_run(r),)


Rule = Callable[[_Census, int, tuple], Iterator[Term]]

# The two sides of an application are strictly smaller terms, so they come
# from the census's shared sub-results.  An abstraction's body, and the
# neutral body of a normal term, are as large as the term itself and are
# streamed, so a cell is never held in memory.


def _linear(c: _Census, n: int, ctx: Context) -> Iterator[Term]:
    atoms = c.size(ctx)
    if n < 1 or atoms > n:
        return
    if n == 1 and atoms == 1:
        yield c.leaf(ctx)
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


def _neutral(c: _Census, n: int, ctx: tuple) -> Iterator[Term]:
    # size n means n + 1 variable occurrences
    atoms = c.size(ctx)
    if n < 0 or not atoms or atoms > n + 1:
        return
    if n == 0 and atoms == 1:
        yield c.leaf(ctx)
    for n_fun in range(n):
        n_arg = n - n_fun
        for fun_ctx, arg_ctx in c.split(ctx):
            funs = c.shared(_neutral, n_fun, fun_ctx)
            if funs:
                args = c.shared(_normal, n_arg, arg_ctx)
                for fun in funs:
                    for arg in args:
                        yield App(fun, arg)


def _normal(c: _Census, n: int, ctx: tuple) -> Iterator[Term]:
    # a maximal run of r binders over a neutral body one size smaller
    atoms = c.size(ctx)
    if n < 1 or atoms > n:
        return
    yield from _neutral(c, n - 1, ctx)
    for r in range(1, n - atoms + 1):
        for body in _neutral(c, n - 1, c.bind(ctx, r)):
            for _ in range(r):
                body = Lam(body)
            yield body


_GRAMMARS: dict[Family, tuple[Rule, Split]] = {
    Family.LINEAR: (_linear, _subset_splits),
    Family.NEUTRAL: (_neutral, _subset_splits),
    Family.NORMAL: (_normal, _subset_splits),
    Family.PLANAR_NEUTRAL: (_neutral, _block_splits),
    Family.PLANAR_NORMAL: (_normal, _block_splits),
}

# Exchange classes are defined for the labeled neutral and normal families.
_CLASS_RULES: dict[Family, Rule] = {Family.NEUTRAL: _neutral, Family.NORMAL: _normal}


def enum_family(family: Family, n: int, k: int) -> Iterator[Term]:
    """Yield every family member of size n over a context of k positions.

    Terms come out in a fixed deterministic order with no duplicates; the
    sequence is empty when no such terms exist.  The iterator is lazy: while
    it runs it holds the strictly smaller sub-results, never the cell.
    """
    if n < 0 or k < 0:
        raise ValueError("size and context must be non-negative")
    return _AtomCensus(family).cell(n, k)


def enum_cells(family: Family, max_n: int) -> Iterator[tuple[int, int, Iterator[Term]]]:
    """Yield (n, k, terms) for every cell n <= max_n, k <= n + 1, in order.

    Each cell's terms are those of enum_family(family, n, k), in the same
    order, but every cell of one call draws on the same shared sub-results.
    """
    census = _AtomCensus(family)
    for n in range(max_n + 1):
        for k in range(n + 2):
            yield n, k, census.cell(n, k)


def class_cells(family: Family, max_n: int) -> Iterator[tuple[int, int, Iterator[Term]]]:
    """Yield (n, k, representatives) for every cell n <= max_n, k <= n + 1.

    Each cell yields the canonical form (linlam.exchange.canonicalize) of
    every exchange class of the family's (n, k) cell exactly once, built
    directly by the class grammar: no other class member is generated and
    nothing is canonicalized.  Cells stream, and every cell of one call
    draws on the same shared sub-results.
    """
    if family not in _CLASS_RULES:
        raise ValueError("class censuses cover the neutral and normal families")
    census = _GroupCensus(_CLASS_RULES[family])
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

"""Exhaustive generation of linear term families, indexed by size and context.

Each family is generated by its grammar over an explicit ordered context.
The context holds the leaf that refers to each variable in scope: FVar(j)
for a free position, Var(i) for the binder i levels up.  An application
splits the context between function and argument, and the split is the
grammar's one parameter: all subsets for the labeled families, contiguous
blocks (function first) for the planar ones.  An abstraction moves every
binder of the context one level up and appends Var(0), and a leaf emits its
context entry as it is, so no generated body is rewritten and every
qualifying term is produced exactly once.

Sub-results are shared within a census.  The terms a rule generates for a
strictly smaller size and a context are built once, kept as a tuple, and
reused by every application that needs them; the cell being generated,
and the chain of same-size abstraction bodies under it, stay generators.
Each call of enum_family or enum_cells (which count_family and the class
census use) has its own memo and drops it on return.  Terms are immutable,
so sharing subterm objects between them is safe.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations
from typing import Callable, Iterator

from .terms import App, FVar, Lam, Term, Var


class Family(Enum):
    LINEAR = "linear"
    NEUTRAL = "neutral"
    NORMAL = "normal"
    PLANAR_NEUTRAL = "planar-neutral"
    PLANAR_NORMAL = "planar-normal"


Context = tuple[FVar | Var, ...]
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


def _under_binder(ctx: Context) -> Context:
    # the context of an abstraction's body: one more level to every binder
    return tuple(Var(a.index + 1) if isinstance(a, Var) else a for a in ctx) + (Var(0),)


class _Census:
    """One family's grammar and the sub-results it has built so far.

    A sub-result is the tuple of terms one rule generates for a size and a
    context; it is built the first time it is asked for and then reused.
    Each public call makes its own census and drops it on return.
    """

    def __init__(self, family: Family) -> None:
        self.rule, self.split = _GRAMMARS[family]
        self.memo: dict[tuple[Rule, int, Context], tuple[Term, ...]] = {}

    def cell(self, n: int, k: int) -> Iterator[Term]:
        return self.rule(self, n, tuple(FVar(j) for j in range(k)))

    def shared(self, rule: Rule, n: int, ctx: Context) -> tuple[Term, ...]:
        key = (rule, n, ctx)
        terms = self.memo.get(key)
        if terms is None:
            terms = self.memo[key] = tuple(rule(self, n, ctx))
        return terms


Rule = Callable[[_Census, int, Context], Iterator[Term]]

# The two sides of an application are strictly smaller terms, so they come
# from the census's shared sub-results.  An abstraction's body, and the
# neutral body of a normal term, are as large as the term itself and are
# streamed, so a cell is never held in memory.


def _linear(c: _Census, n: int, ctx: Context) -> Iterator[Term]:
    if n < 1 or len(ctx) > n:
        return
    if n == 1 and len(ctx) == 1:
        yield ctx[0]
    for n_fun in range(1, n):
        n_arg = n - n_fun
        for fun_ctx, arg_ctx in c.split(ctx):
            funs = c.shared(_linear, n_fun, fun_ctx)
            if funs:
                args = c.shared(_linear, n_arg, arg_ctx)
                for fun in funs:
                    for arg in args:
                        yield App(fun, arg)
    for body in _linear(c, n, _under_binder(ctx)):
        yield Lam(body)


def _neutral(c: _Census, n: int, ctx: Context) -> Iterator[Term]:
    # size n means n + 1 variable occurrences
    if n < 0 or not ctx or len(ctx) > n + 1:
        return
    if n == 0 and len(ctx) == 1:
        yield ctx[0]
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
    if n < 1 or len(ctx) > n:
        return
    yield from _neutral(c, n - 1, ctx)
    for body in _normal(c, n, _under_binder(ctx)):
        yield Lam(body)


_GRAMMARS: dict[Family, tuple[Rule, Split]] = {
    Family.LINEAR: (_linear, _subset_splits),
    Family.NEUTRAL: (_neutral, _subset_splits),
    Family.NORMAL: (_normal, _subset_splits),
    Family.PLANAR_NEUTRAL: (_neutral, _block_splits),
    Family.PLANAR_NORMAL: (_normal, _block_splits),
}


def enum_family(family: Family, n: int, k: int) -> Iterator[Term]:
    """Yield every family member of size n over a context of k positions.

    Terms come out in a fixed deterministic order with no duplicates; the
    sequence is empty when no such terms exist.  The iterator is lazy: while
    it runs it holds the strictly smaller sub-results, never the cell.
    """
    if n < 0 or k < 0:
        raise ValueError("size and context must be non-negative")
    return _Census(family).cell(n, k)


def enum_cells(family: Family, max_n: int) -> Iterator[tuple[int, int, Iterator[Term]]]:
    """Yield (n, k, terms) for every cell n <= max_n, k <= n + 1, in order.

    Each cell's terms are those of enum_family(family, n, k), in the same
    order, but every cell of one call draws on the same shared sub-results.
    """
    census = _Census(family)
    for n in range(max_n + 1):
        for k in range(n + 2):
            yield n, k, census.cell(n, k)


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

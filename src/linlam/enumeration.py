"""Exhaustive generation of linear term families, indexed by size and context.

Each family is generated by its grammar over an explicit ordered context of
atoms: a free position FVar(j), or the depth of an enclosing binder.  An
application splits the context between function and argument, and the split
is the grammar's one parameter: all subsets for the labeled families,
contiguous blocks (function first) for the planar ones.  An abstraction at
depth d appends d to the context, and a leaf at depth d emits its atom
directly, FVar(j) as it is and the binder from depth b as Var(d - 1 - b), so
no generated body is rewritten and every qualifying term is produced
exactly once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from itertools import combinations
from typing import Callable, Iterator

from .terms import App, FVar, Lam, Term, Var


class Family(Enum):
    LINEAR = "linear"
    NEUTRAL = "neutral"
    NORMAL = "normal"
    PLANAR_NEUTRAL = "planar-neutral"
    PLANAR_NORMAL = "planar-normal"


Atom = FVar | int
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


def _leaf(atom: Atom, depth: int) -> Term:
    return atom if isinstance(atom, FVar) else Var(depth - 1 - atom)


def _linear(split: Split, n: int, ctx: Context, depth: int) -> Iterator[Term]:
    if n < 1 or len(ctx) > n:
        return
    if n == 1 and len(ctx) == 1:
        yield _leaf(ctx[0], depth)
    for n_fun in range(1, n):
        n_arg = n - n_fun
        for fun_ctx, arg_ctx in split(ctx):
            for fun in _linear(split, n_fun, fun_ctx, depth):
                for arg in _linear(split, n_arg, arg_ctx, depth):
                    yield App(fun, arg)
    for body in _linear(split, n, ctx + (depth,), depth + 1):
        yield Lam(body)


def _neutral(split: Split, n: int, ctx: Context, depth: int) -> Iterator[Term]:
    # size n means n + 1 variable occurrences
    if n < 0 or not ctx or len(ctx) > n + 1:
        return
    if n == 0 and len(ctx) == 1:
        yield _leaf(ctx[0], depth)
    for n_fun in range(n):
        n_arg = n - n_fun
        for fun_ctx, arg_ctx in split(ctx):
            for fun in _neutral(split, n_fun, fun_ctx, depth):
                for arg in _normal(split, n_arg, arg_ctx, depth):
                    yield App(fun, arg)


def _normal(split: Split, n: int, ctx: Context, depth: int) -> Iterator[Term]:
    if n < 1 or len(ctx) > n:
        return
    yield from _neutral(split, n - 1, ctx, depth)
    for body in _normal(split, n, ctx + (depth,), depth + 1):
        yield Lam(body)


_GENERATORS: dict[Family, Callable[[int, Context, int], Iterator[Term]]] = {
    Family.LINEAR: partial(_linear, _subset_splits),
    Family.NEUTRAL: partial(_neutral, _subset_splits),
    Family.NORMAL: partial(_normal, _subset_splits),
    Family.PLANAR_NEUTRAL: partial(_neutral, _block_splits),
    Family.PLANAR_NORMAL: partial(_normal, _block_splits),
}


def enum_family(family: Family, n: int, k: int) -> Iterator[Term]:
    """Yield every family member of size n over a context of k positions.

    Terms come out in a fixed deterministic order with no duplicates; the
    sequence is empty when no such terms exist.
    """
    if n < 0 or k < 0:
        raise ValueError("size and context must be non-negative")
    return _GENERATORS[family](n, tuple(FVar(j) for j in range(k)), 0)


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

    The generator output is counted term by term, never held in memory, so
    this is a genuinely independent producer against the series solutions.
    """
    table = CountTable(max_n=max_n, provenance=f"enum:{family.value}")
    for n in range(max_n + 1):
        for k in range(n + 2):
            c = sum(1 for _ in enum_family(family, n, k))
            if c:
                table.entries[(n, k)] = c
    return table

"""Isomorphism of linear terms under free exchange of adjacent binders.

Swapping two consecutive lambda abstractions never moves any other node, so
the equivalence acts independently on each maximal run of binders and the
adjacent swaps generate the full symmetric group there.  The canonical
representative therefore sorts every run so the binders occur in
left-to-right depth-first order of the body, outermost binder first; two
terms are isomorphic exactly when their canonical forms coincide.

Relabeling the k free variables acts freely on the classes of a cell and
never moves a binder, so each relabeling orbit (an unlabeled class) holds
k! classes and exactly one canonical form whose free variables first occur
in the order 0..k-1.  The class grammar in linlam.enumeration builds those
forms directly (class_cells), and classes are counted from them alone, by
the counting census, which builds no term node; the labeled count, k!
times the unlabeled one, is derived on read.  Listing the members of each
class still deduplicates terms by canonical form: class_groups for one
cell, and dedup_ledger for every cell of a family from one census, which
the crosscheck compares with the class grammar.
"""

from __future__ import annotations

from math import factorial
from typing import Iterable, Iterator

from . import enumeration
from .enumeration import CountTable, Family, enum_family
from .terms import App, FVar, Lam, Term, Var


def _rebind(t: Term, perm: dict[int, int], depth: int = 0) -> Term:
    """Send each reference to the binder b levels above t to perm.get(b, b)."""
    if isinstance(t, Var):
        b = t.index - depth
        return Var(depth + perm[b]) if b in perm else t
    if isinstance(t, FVar):
        return t
    if isinstance(t, App):
        return App(_rebind(t.fun, perm, depth), _rebind(t.arg, perm, depth))
    return Lam(_rebind(t.body, perm, depth + 1))


def local_exchanges(t: Term) -> list[Term]:
    """All terms obtained by one swap of an adjacent binder pair, one per pair."""
    out: list[Term] = []
    if isinstance(t, Lam):
        if isinstance(t.body, Lam):
            out.append(Lam(Lam(_rebind(t.body.body, {0: 1, 1: 0}))))
        out.extend(Lam(b) for b in local_exchanges(t.body))
    elif isinstance(t, App):
        out.extend(App(f, t.arg) for f in local_exchanges(t.fun))
        out.extend(App(t.fun, a) for a in local_exchanges(t.arg))
    return out


def occurrences(t: Term) -> Iterator[Var | FVar]:
    """The variables of t not bound inside it, depth first, function before argument.

    Var(b) is the binder b levels above t, and a free variable is its FVar."""
    stack = [(t, 0)]  # the subterms still to visit, the next one last
    while stack:
        t, depth = stack.pop()
        if isinstance(t, App):
            stack += ((t.arg, depth), (t.fun, depth))
        elif isinstance(t, Lam):
            stack.append((t.body, depth + 1))
        elif isinstance(t, FVar):
            yield t
        elif t.index >= depth:
            yield Var(t.index - depth)


def canonicalize(t: Term) -> Term:
    """The designated representative of a linear term's exchange class.

    Works bottom-up; in each maximal binder run the binder occurring first
    in the body's depth-first order becomes the outermost lambda.  A subterm
    already in that form is returned as it is, not rebuilt.
    """
    if isinstance(t, App):
        fun, arg = canonicalize(t.fun), canonicalize(t.arg)
        return t if fun is t.fun and arg is t.arg else App(fun, arg)
    if not isinstance(t, Lam):
        return t
    block = 0
    body: Term = t
    while isinstance(body, Lam):
        block += 1
        body = body.body
    form = canonicalize(body)
    order = [v.index for v in occurrences(form) if isinstance(v, Var) and v.index < block]
    # order's entries lie in range(block): a permutation of it iff block of them, all distinct
    if len(order) != block or len(set(order)) != block:
        raise ValueError("canonicalize requires a linear term")
    moved = {b: block - 1 - rank for rank, b in enumerate(order) if b != block - 1 - rank}
    if moved:
        form = _rebind(form, moved)
    elif form is body:
        return t
    for _ in range(block):
        form = Lam(form)
    return form


def is_isomorphic(t1: Term, t2: Term) -> bool:
    """Whether two linear terms are related by a sequence of local exchanges."""
    return canonicalize(t1) == canonicalize(t2)


# ---------------------------------------------------------------------------
# Class censuses


class ClassCounts:
    """Exchange-class censuses with labeled and unlabeled free variables.

    The unlabeled table, the one stored, counts the relabeling orbits of
    exchange classes per (size, context) cell.  Relabeling the k context
    positions acts freely on classes, so the labeled table, the number of
    distinct canonical forms, is the unlabeled one times k!, built on read.
    """

    __slots__ = ("family", "unlabeled")

    def __init__(self, family: Family, unlabeled: CountTable) -> None:
        self.family = family
        self.unlabeled = unlabeled

    @property
    def labeled(self) -> CountTable:
        entries = {(n, k): factorial(k) * c for (n, k), c in self.unlabeled.entries.items()}
        return CountTable(self.unlabeled.max_n, entries, f"classes:{self.family.value}")


def count_classes(family: Family, max_n: int) -> ClassCounts:
    """Count the exchange classes of the neutral or normal family, n <= max_n.

    Each unlabeled class is counted once, by streaming the representatives
    that enumeration.class_cells would construct through the counting
    census (enumeration.count_class_cells); no term node is built and
    nothing is canonicalized.
    """
    return ClassCounts(family, enumeration.count_class_cells(family, max_n))


def _groups(terms: Iterable[Term]) -> list[list[Term]]:
    # canonicalize each term once; a group's representative leads, and the
    # other members keep their order
    groups: dict[Term, list[Term]] = {}
    for t in terms:
        groups.setdefault(canonicalize(t), []).append(t)
    return [
        [rep] + [t for t in members if t != rep] for rep, members in groups.items()
    ]


def class_groups(family: Family, n: int, k: int = 0) -> list[list[Term]]:
    """Partition one (n, k) cell into exchange classes, representative first.

    Groups appear in order of first member seen during enumeration; inside a
    group the canonical representative leads and the remaining members keep
    enumeration order.
    """
    enumeration.check_class_family(family)
    return _groups(enum_family(family, n, k))


def dedup_ledger(family: Family, max_n: int) -> dict[tuple[int, int], list[list[Term]]]:
    """The class_groups of every cell n <= max_n, k <= n + 1, from one census.

    The cells come from one enumeration.enum_cells call, so every cell
    draws on the same shared sub-results, and each term is canonicalized
    once.
    """
    enumeration.check_class_family(family)
    return {(n, k): _groups(cell) for n, k, cell in enumeration.enum_cells(family, max_n)}

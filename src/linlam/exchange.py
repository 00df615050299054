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
forms directly (class_cells), and classes are counted from them alone.
Listing the members of each class still deduplicates a cell's terms by
canonical form (class_groups), and the crosscheck compares the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Iterator

from . import enumeration
from .enumeration import CLASS_FAMILIES, CountTable, Family, enum_family
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


def occurrences(t: Term, depth: int = 0) -> Iterator[Var | FVar]:
    """The variables of t not bound inside it, depth first, function before argument.

    Each is seen from depth binders above t: Var(b) is the binder b levels
    up from there, and a free variable is its FVar."""
    if isinstance(t, Var):
        if t.index >= depth:
            yield Var(t.index - depth)
    elif isinstance(t, FVar):
        yield t
    elif isinstance(t, App):
        yield from occurrences(t.fun, depth)
        yield from occurrences(t.arg, depth)
    else:
        yield from occurrences(t.body, depth + 1)


def canonicalize(t: Term) -> Term:
    """The designated representative of a linear term's exchange class.

    Works bottom-up; in each maximal binder run the binder occurring first
    in the body's depth-first order becomes the outermost lambda.
    """
    if isinstance(t, (Var, FVar)):
        return t
    if isinstance(t, App):
        return App(canonicalize(t.fun), canonicalize(t.arg))
    block = 0
    body: Term = t
    while isinstance(body, Lam):
        block += 1
        body = body.body
    body = canonicalize(body)
    order = [v.index for v in occurrences(body) if isinstance(v, Var) and v.index < block]
    if len(order) != block:
        raise ValueError("canonicalize requires a linear term")
    perm = {b: block - 1 - rank for rank, b in enumerate(order)}
    body = _rebind(body, perm)
    for _ in range(block):
        body = Lam(body)
    return body


def is_isomorphic(t1: Term, t2: Term) -> bool:
    """Whether two linear terms are related by a sequence of local exchanges."""
    return canonicalize(t1) == canonicalize(t2)


# ---------------------------------------------------------------------------
# Class censuses


@dataclass
class ClassCounts:
    """Exchange-class censuses with labeled and unlabeled free variables.

    The unlabeled table counts the relabeling orbits of exchange classes
    per (size, context) cell.  Relabeling the k context positions acts
    freely on classes, so the labeled table, the number of distinct
    canonical forms, is the unlabeled one times k!.
    """

    family: Family
    labeled: CountTable
    unlabeled: CountTable


def count_classes(family: Family, max_n: int) -> ClassCounts:
    """Count the exchange classes of the neutral or normal family, n <= max_n.

    Each unlabeled class is counted once, by streaming the representatives
    that enumeration.class_cells constructs; no other term is generated and
    nothing is canonicalized.
    """
    labeled = CountTable(max_n=max_n, provenance=f"classes:{family.value}")
    unlabeled = CountTable(max_n=max_n, provenance=f"classes:{family.value}:unlabeled")
    for n, k, cell in enumeration.class_cells(family, max_n):
        count = sum(1 for _ in cell)
        if count:
            unlabeled.entries[(n, k)] = count
            labeled.entries[(n, k)] = factorial(k) * count
    return ClassCounts(family, labeled, unlabeled)


def class_groups(family: Family, n: int, k: int = 0) -> list[list[Term]]:
    """Partition one (n, k) cell into exchange classes, representative first.

    Groups appear in order of first member seen during enumeration; inside a
    group the canonical representative leads and the remaining members keep
    enumeration order.
    """
    if family not in CLASS_FAMILIES:
        raise ValueError("class listings cover the neutral and normal families")
    groups: dict[Term, list[Term]] = {}
    for t in enum_family(family, n, k):
        groups.setdefault(canonicalize(t), []).append(t)
    return [
        [rep] + [t for t in members if t != rep] for rep, members in groups.items()
    ]


def groups_to_text(groups: list[list[Term]], renderer) -> str:
    """Blank-line-separated class groups, one rendered term per line."""
    blocks = ["\n".join(renderer(t) for t in group) for group in groups]
    return "\n\n".join(blocks) + "\n"


def groups_to_json(groups: list[list[Term]], renderer) -> str:
    import json

    return json.dumps([[renderer(t) for t in group] for group in groups], indent=2) + "\n"

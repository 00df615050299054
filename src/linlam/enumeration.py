"""Exhaustive generation of linear term families, indexed by size and context.

Every family is generated by its grammar over an explicit context: a tuple
of non-empty ordered groups of atoms, one per variable in scope.  An atom
is a plain int, so contexts hash and compare at C speed: free position j
is -1 - j, and the binder i levels up is i.  An application gives the
function a prefix of every group and the argument the rest; a leaf needs
exactly one atom left and emits its FVar or Var, built once per atom and
kept by the census.  An abstraction run of r binders moves every binder of
the context r levels up, and r - 1, ..., 0 join it.  No generated body is
rewritten, and every qualifying term is produced exactly once.

The families differ only in how new atoms (the k free positions of a cell,
the binders of a run) join the context.  The labeled families (linear,
neutral, normal) put each atom in a group of its own, so an application
splits the context into any two subsets.  The planar families put every
atom in the one group, so the function takes a front block.  The class
grammar makes each set of new atoms one new group.  A context's cut table
lists its cuts by the number of atoms the function takes, then by their
positions in the flattened context: on singleton groups the order of
itertools.combinations.  A rule visits only the entries whose atom counts
both sides can use, so it never asks for a sub-result that must be empty.

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
reused by every application that needs them, as are each context's cut
table and each atom's variable node; the cell being generated, and the
abstraction bodies under it, stay lazy iterators.  Each call of
enum_family, enum_cells, class_cells, count_family or count_class_cells
has its own census and drops it on return; no term is mutated, so sharing
is safe.

A rule returns its terms as a chain of itertools pipelines over the
census's term constructors, written once for two censuses.  The node
census, which the listings use, builds Var, FVar, App and Lam nodes.  The
counting census, which count_family and count_class_cells use, builds each
term as a plain tuple: a leaf is its atom int, an application the
(function, argument) pair that itertools.product yields, and an
abstraction the 1-tuple that zip yields.  Counting then runs at C speed
and constructs no node, yet still generates every term one by one; no
count is taken from the size of a sub-result.

The counting census keys a sub-result by its context's group sizes.  A
rule reads a context only through its group sizes, its cut table and the
atoms at its leaves, and relabeling atoms is a bijection on a cell's
terms, so contexts with equal group sizes have equally many terms.  A
shared tuple carries the atoms of the context that first built it, which
is harmless: counting reads no atom.  The node census keys by atoms.
"""

from __future__ import annotations

from collections import deque
from functools import cache, partial
from itertools import chain, count, product, starmap
from typing import Callable, Iterable, Iterator

from .names import CLASS_FAMILIES, CountTable, Family
from .terms import App, FVar, Lam, Term, Var


Atom = int
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


def _cuts(ctx: Context) -> list[list[Cut]]:
    # the function takes a prefix of every group, the argument the rest;
    # entry t holds the cuts giving the function t atoms, ordered by their
    # flattened positions: the longest prefix of the first group first, and
    # so on
    table: list[list[Cut]] = [[((), ())]]
    for g in reversed(ctx):
        grown: list[list[Cut]] = [[] for _ in range(len(table) + len(g))]
        for i in range(len(g), -1, -1):
            head = (g[:i],) if i else ()
            tail = (g[i:],) if i < len(g) else ()
            for t, cuts in enumerate(table, i):
                grown[t] += [(head + fun, tail + arg) for fun, arg in cuts]
        table = grown
    return table


def _variable(a: Atom) -> Var | FVar:
    return Var(a) if a >= 0 else FVar(-1 - a)


class _Census:
    """A grammar rule, a join rule, the term constructors, and the sub-results built so far.

    A sub-result is the tuple of terms one rule generates for a size and a
    context; it is built the first time it is asked for and then reused, as
    are each context's cut table and atom's variable.  Each public call
    makes its own census and drops it on return.  This census builds term
    nodes: each variable once, an App per application and a Lam per
    abstraction.
    """

    def __init__(self, rule: Rule, join: Join) -> None:
        self.rule = rule
        self.join = join
        self.memo: dict[tuple[Rule, int, tuple], tuple] = {}
        self.split, self.leaf = cache(_cuts), cache(_variable)

    # the term constructors: a leaf from its atom, every application of the
    # functions to the arguments, and an abstraction over every body
    def var(self, a: Atom) -> Var | FVar:
        return self.leaf(a)

    @staticmethod
    def apps(funs: tuple, args: tuple) -> Iterator[App]:
        return starmap(App, product(funs, args))

    lams = staticmethod(partial(map, Lam))

    def cell(self, n: int, k: int) -> Iterator:
        # free position j is the atom -1 - j
        return iter(self.rule(self, n, self.join((), tuple(range(-1, -1 - k, -1)))))

    @staticmethod
    def shape(ctx: Context) -> tuple:
        return ctx  # listings need real atoms, so the node census keys by them

    def shared(self, rule: Rule, n: int, ctx: Context) -> tuple:
        key = (rule, n, self.shape(ctx))
        terms = self.memo.get(key)
        if terms is None:
            terms = self.memo[key] = tuple(rule(self, n, ctx))
        return terms

    def bind(self, ctx: Context, r: int) -> Context:
        # the body of a run of r binders: every binder of ctx moves r levels
        # up, and the run's atoms join outermost first
        shifted = tuple(tuple(a + r if a >= 0 else a for a in g) for g in ctx)
        return self.join(shifted, tuple(range(r - 1, -1, -1)))


class _Counting(_Census):
    """The same census building each term as a plain tuple, for counting.

    A leaf is its atom, an application the (function, argument) pair that
    product yields and an abstraction the 1-tuple that zip yields, so the
    rules run at C speed and construct no node.  product and zip may reuse
    a tuple nobody else holds, so a cell's terms are counted, never kept.
    """

    @staticmethod
    def var(a: Atom) -> Atom:
        return a

    @staticmethod
    def shape(ctx: Context) -> tuple:
        return tuple(map(len, ctx))

    apps = product
    lams = zip


Rule = Callable[[_Census, int, Context], Iterable]

# Each rule returns its terms as one chain of the census's constructors.
# The two sides of an application are strictly smaller terms, so they come
# from the census's shared sub-results, asked for only when the chain
# reaches their cut.  An abstraction's body, and the neutral body of a
# normal term, are as large as the term itself and are streamed, so a cell
# is never held in memory.


def _linear(c: _Census, n: int, ctx: Context) -> Iterable:
    atoms = sum(map(len, ctx))
    if n < 1 or atoms > n:
        return ()
    if n == 1 and atoms == 1:
        return (c.var(ctx[0][0]),)
    cuts = c.split(ctx)
    # each side has at least as many leaves as atoms
    apps = (
        c.apps(c.shared(_linear, n_fun, fun), c.shared(_linear, n - n_fun, arg))
        for n_fun in range(1, n)
        for fun, arg in chain.from_iterable(cuts[max(0, atoms - n + n_fun):n_fun + 1])
    )
    return chain(chain.from_iterable(apps), c.lams(_linear(c, n, c.bind(ctx, 1))))


def _neutral(c: _Census, n: int, ctx: Context) -> Iterable:
    # size n means n + 1 variable occurrences
    atoms = sum(map(len, ctx))
    if n < 0 or not atoms or atoms > n + 1:
        return ()
    if n == 0:
        return (c.var(ctx[0][0]),)
    cuts = c.split(ctx)
    # the neutral function takes its head and at most n_fun + 1 atoms, the
    # normal argument at most n - n_fun
    apps = (
        c.apps(c.shared(_neutral, n_fun, fun), c.shared(_normal, n - n_fun, arg))
        for n_fun in range(n)
        for fun, arg in chain.from_iterable(cuts[max(1, atoms - n + n_fun):n_fun + 2])
    )
    return chain.from_iterable(apps)


def _normal(c: _Census, n: int, ctx: Context) -> Iterable:
    # a maximal run of r binders over a neutral body one size smaller; a
    # body without binders needs a free head
    atoms = sum(map(len, ctx))
    if n < 1 or atoms > n:
        return ()
    runs = [_neutral(c, n - 1, ctx)] if atoms else []
    for r in range(1, n - atoms + 1):
        bodies = _neutral(c, n - 1, c.bind(ctx, r))
        for _ in range(r):
            bodies = c.lams(bodies)
        runs.append(bodies)
    return chain.from_iterable(runs)


_GRAMMARS: dict[Family, tuple[Rule, Join]] = {
    Family.LINEAR: (_linear, _singletons),
    Family.NEUTRAL: (_neutral, _singletons),
    Family.NORMAL: (_normal, _singletons),
    Family.PLANAR_NEUTRAL: (_neutral, _one_group),
    Family.PLANAR_NORMAL: (_normal, _one_group),
}


def check_class_family(family: Family) -> None:
    """Raise ValueError unless exchange classes are defined for family."""
    if family not in CLASS_FAMILIES:
        raise ValueError("exchange classes cover the neutral and normal families")


def _class_grammar(family: Family) -> tuple[Rule, Join]:
    check_class_family(family)
    return _GRAMMARS[family][0], _new_group


def _check_sizes(*sizes: int) -> None:
    if min(sizes) < 0:
        raise ValueError("size and context must be non-negative")


def _cells(census: _Census, max_n: int) -> Iterator[tuple[int, int, Iterator]]:
    _check_sizes(max_n)
    return ((n, k, census.cell(n, k)) for n in range(max_n + 1) for k in range(n + 2))


def enum_family(family: Family, n: int, k: int) -> Iterator[Term]:
    """Yield every family member of size n over a context of k positions.

    Terms come out in a fixed deterministic order with no duplicates; the
    sequence is empty when no such terms exist.  The iterator is lazy: while
    it runs it holds the strictly smaller sub-results, never the cell.
    """
    _check_sizes(n, k)
    return _Census(*_GRAMMARS[family]).cell(n, k)


def enum_cells(family: Family, max_n: int) -> Iterator[tuple[int, int, Iterator[Term]]]:
    """Yield (n, k, terms) for every cell n <= max_n, k <= n + 1, in order.

    Each cell's terms are those of enum_family(family, n, k), in the same
    order, but every cell of one call draws on the same shared sub-results.
    """
    return _cells(_Census(*_GRAMMARS[family]), max_n)


def class_cells(family: Family, max_n: int) -> Iterator[tuple[int, int, Iterator[Term]]]:
    """Yield (n, k, representatives) for every cell n <= max_n, k <= n + 1.

    Each cell yields one canonical form (linlam.exchange.canonicalize) per
    exchange class with unlabeled free variables, exactly once: the one
    whose free variables first occur in the order 0..k-1.  The class
    grammar builds it directly, so no other term is generated and nothing
    is canonicalized.  Cells stream, and every cell of one call draws on
    the same shared sub-results.
    """
    return _cells(_Census(*_class_grammar(family)), max_n)


def _count_cells(census: _Counting, max_n: int, provenance: str) -> CountTable:
    table = CountTable(max_n=max_n, provenance=provenance)
    for n, k, cell in _cells(census, max_n):
        # one tick per term, at C speed, keeping none of them
        ticks = count()
        deque(zip(cell, ticks), maxlen=0)
        if c := next(ticks):
            table.add(n, k, c)
    return table


def count_family(family: Family, max_n: int) -> CountTable:
    """Count family members for all n <= max_n and k <= n + 1 by streaming.

    The counting census runs the grammar of enum_cells but builds each term
    as a plain tuple, not a node, and every cell is generated and its terms
    counted one by one; a cell is streamed, never held in memory.  The cells
    of one call share the smaller sub-results they are built from, one per
    rule, size and group sizes, and drop them on return.  No count is taken
    from sub-result sizes or from the series, so this is a genuinely
    independent producer against the series solutions.
    """
    return _count_cells(_Counting(*_GRAMMARS[family]), max_n, f"enum:{family.value}")


def count_class_cells(family: Family, max_n: int) -> CountTable:
    """Count what class_cells yields, cell by cell, building no node.

    The counting census runs the class grammar as count_family runs the
    family grammar: the table holds one count per exchange class with
    unlabeled free variables.
    """
    return _count_cells(_Counting(*_class_grammar(family)), max_n,
                        f"classes:{family.value}:unlabeled")

"""Exhaustive census of rooted maps on oriented surfaces via permutation pairs.

A map on 2n darts is a pair of permutations: sigma rotates darts around
vertices and alpha pairs each dart with its other half-edge (a fixed-point
free involution).  The pair must act transitively, and a root dart breaks
all symmetry (Walsh and Lehman), so isomorphism is conjugation by a
root-preserving bijection and each rooted map has (n-1)! 2^(n-1) distinct
labellings on the standard involution (0 1)(2 3)... with root 0.

The census builds one of them directly, the least in a fixed order, as in
McKay's canonical construction path: darts take their sigma-images in turn,
each image either an already labelled dart or the first dart of the next
fresh edge.  Every map therefore comes out exactly once and connected, with
no duplicate check and no transitivity filter.  canonical_code stays as an
independent isomorphism test.

The searches keep no list: they emit each map as they complete it, and
each_map streams the maps of one census to a callback.  census and the
crosscheck's walk tally the maps as they arrive, so their memory stays flat
as the census grows; census_maps is the wrapper that lists them.
"""

from __future__ import annotations

from itertools import count
from typing import Callable, Sequence

from .names import CountTable, Variant

Perm = tuple[int, ...]


DEFAULT_EDGE_CAPS = {
    Variant.ALL_GENERA: 6,
    Variant.PLANAR_ONLY: 6,
    Variant.TRIVALENT: 12,
}


def cycles(p: Sequence[int]) -> list[list[int]]:
    """Cycle decomposition; each cycle starts at its minimum, cycles sorted."""
    seen = [False] * len(p)
    out: list[list[int]] = []
    for d in range(len(p)):
        if not seen[d]:
            out.append([])
        while not seen[d]:  # walk the cycle from d, if new
            seen[d] = True
            out[-1].append(d)
            d = p[d]
    return out


def cycle_count(p: Sequence[int]) -> int:
    seen = [False] * len(p)
    count = 0
    for d in range(len(p)):
        if seen[d]:
            continue
        count += 1
        while not seen[d]:
            seen[d] = True
            d = p[d]
    return count


def cycles_to_text(p: Sequence[int]) -> str:
    return "".join("(" + " ".join(str(d) for d in c) + ")" for c in cycles(p))


def standard_alpha(n_edges: int) -> Perm:
    """The involution (0 1)(2 3)... pairing consecutive darts into edges."""
    out = []
    for e in range(n_edges):
        out += [2 * e + 1, 2 * e]
    return tuple(out)


class RootedMap:
    """A vertex rotation sigma and an edge involution alpha on the same darts, and a root dart.

    Maps are never mutated after construction; two maps are equal when all
    three fields are, and hash as the tuple of the three.  The vertex count
    is counted on first use and kept, so a census tally and genus share it.
    """

    __slots__ = ("sigma", "alpha", "root", "_vertices")

    def __init__(self, sigma: Perm, alpha: Perm, root: int = 0) -> None:
        self.sigma = sigma
        self.alpha = alpha
        self.root = root
        self._vertices: int | None = None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is RootedMap:
            return (self.sigma, self.alpha, self.root) == (other.sigma, other.alpha, other.root)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.sigma, self.alpha, self.root))

    def __repr__(self) -> str:
        return f"RootedMap(sigma={self.sigma!r}, alpha={self.alpha!r}, root={self.root!r})"

    @property
    def n_vertices(self) -> int:
        if self._vertices is None:
            self._vertices = cycle_count(self.sigma)
        return self._vertices

    def validate(self) -> None:
        n = len(self.sigma)
        if n == 0 or n % 2:
            raise ValueError("the dart set must be non-empty and of even size")
        if sorted(self.sigma) != list(range(n)) or sorted(self.alpha) != list(range(n)):
            raise ValueError("sigma and alpha must permute the same dart set")
        for d in range(n):
            if self.alpha[d] == d or self.alpha[self.alpha[d]] != d:
                raise ValueError("alpha must be a fixed-point-free involution")
        canonical_code(self)  # raises ValueError for a root out of range or an intransitive pair

    def to_text(self) -> str:
        return (
            f"sigma={cycles_to_text(self.sigma)} "
            f"alpha={cycles_to_text(self.alpha)} root={self.root}"
        )


def genus(m: RootedMap) -> int:
    """Genus from Euler's formula c(sigma) - c(alpha) + c(faces) = 2 - 2g.

    The faces are the cycles of d -> alpha(sigma(d)), counted in one walk.
    That map is the inverse of the face permutation, which follows alpha
    inverse, then sigma inverse, and has the same cycles.
    """
    sigma, alpha = m.sigma, m.alpha
    seen = [False] * len(sigma)
    n_faces = 0
    for d in range(len(sigma)):
        if seen[d]:
            continue
        n_faces += 1
        while not seen[d]:
            seen[d] = True
            d = alpha[sigma[d]]
    defect = 2 - (m.n_vertices - cycle_count(alpha) + n_faces)
    if defect % 2:
        raise ArithmeticError("odd Euler defect: invalid map")
    g = defect // 2
    if g < 0:
        raise ArithmeticError("negative genus: invalid map")
    return g


def canonical_code(m: RootedMap) -> tuple[int, ...]:
    """Relabel darts by first visit from the root and emit the tables.

    The traversal explores the sigma-successor before the alpha-partner, so
    the code depends only on the structure seen from the root: two maps get
    equal codes exactly when a root-preserving conjugation links them.
    """
    sigma, alpha, root = m.sigma, m.alpha, m.root
    if not 0 <= root < len(sigma):
        raise ValueError("root dart out of range")
    num = [-1] * len(sigma)  # each dart's position in the order of first visit
    num[root] = 0
    order = [root]
    for d in order:  # the loop reaches the darts appended as it goes
        e = sigma[d]
        if num[e] < 0:
            num[e] = len(order)
            order.append(e)
        e = alpha[d]
        if num[e] < 0:
            num[e] = len(order)
            order.append(e)
    if len(order) != len(sigma):
        raise ValueError("sigma and alpha must act transitively on the darts")
    # the dart numbered i is order[i]
    return tuple([num[sigma[d]] for d in order] + [num[alpha[d]] for d in order])


# ---------------------------------------------------------------------------
# Exhaustive censuses


def _sigmas(dart_count: int, emit: Callable[[Perm], object]) -> None:
    """Call emit with the vertex rotation of every rooted map on dart_count darts, in lex order.

    Dart d takes as sigma(d) a labelled dart not yet in sigma's image, or
    the first dart of the next fresh edge.  Reaching a dart that is still
    unlabelled means the labelled darts are closed under sigma and alpha,
    so the map would be disconnected and the branch dies.  The last dart,
    once reached, is labelled and takes the one dart left.
    """
    sigma = [0] * dart_count
    hit = [False] * dart_count
    last = dart_count - 1

    def rec(d: int, fresh: int) -> None:
        if d == fresh:
            return
        if d == last:
            sigma[d] = hit.index(False)
            emit(tuple(sigma))
            return
        for e in range(min(fresh + 1, dart_count)):
            if not hit[e]:
                hit[e] = True
                sigma[d] = e
                rec(d + 1, fresh + 2 if e == fresh else fresh)
                hit[e] = False

    try:
        rec(0, 2)
    finally:
        del rec  # rec refers to itself: free it, and what it holds, now and not at a collection


def _trivalent_search(sigma: list[int], emit: Callable[[], object]) -> None:
    """Call emit once per vertex rotation of a rooted trivalent map, in order.

    sigma holds the rotation being built, -1 on darts not yet on a vertex,
    and emit reads it at each complete rotation.  The least labelled dart a
    not yet on a vertex opens the vertex (a b c); b and then c are each a
    labelled dart not yet on a vertex or the first dart of the next fresh
    edge.  Rotations come in the order of the vertex sequence (b c) of each
    vertex taken by its least dart.
    """
    dart_count = len(sigma)

    def rec(a: int, fresh: int) -> None:
        while a < fresh and sigma[a] >= 0:
            a += 1
        if a == fresh:
            if fresh == dart_count:
                emit()
            return
        # the darts after a not yet on a vertex, up to the next fresh one
        darts = [e for e in range(a + 1, min(fresh + 1, dart_count)) if sigma[e] < 0]
        for b in darts:
            fresh_b, choices = fresh, darts
            if b == fresh:
                # b opens an edge, so c may also be its partner or the next fresh dart
                fresh_b = fresh + 2
                choices = darts + list(range(fresh + 1, min(fresh + 3, dart_count)))
            for c in choices:
                if c == b:
                    continue
                sigma[a], sigma[b], sigma[c] = b, c, a
                rec(a + 1, fresh_b + 2 if c == fresh_b else fresh_b)
                sigma[a] = sigma[b] = sigma[c] = -1

    try:
        if dart_count % 3 == 0:
            rec(0, 2)
    finally:
        del rec  # as in _sigmas


def check_edge_count(n_edges: int, variant: Variant, cap_override: int | None) -> None:
    """Raise ValueError unless a census at n_edges is in range and within the cap."""
    if n_edges < 1:
        raise ValueError("a rooted map needs at least one edge")
    cap = DEFAULT_EDGE_CAPS[variant] if cap_override is None else cap_override
    if n_edges > cap:
        raise ValueError(
            f"census at {n_edges} edges exceeds the {variant.value} cap of {cap}; "
            "raise it explicitly to proceed"
        )


def each_map(
    n_edges: int,
    emit: Callable[[RootedMap], object],
    variant: Variant = Variant.ALL_GENERA,
    cap_override: int | None = None,
) -> None:
    """Call emit with every rooted map with n edges, once each, in its canonical labelling.

    The maps sit on the standard involution and root 0.  All-genera and
    planar maps are the lexicographically least sigma among their
    relabellings, emitted in lexicographic order; planar ones are the
    genus-zero maps among them.  Trivalent maps are least, and emitted, by
    their vertex sequence.  Both are the representatives, in the order,
    that a scan over every sigma keeping each map's first appearance finds.
    """
    check_edge_count(n_edges, variant, cap_override)
    alpha = standard_alpha(n_edges)
    if variant is Variant.TRIVALENT:
        sigma = [-1] * (2 * n_edges)
        _trivalent_search(sigma, lambda: emit(RootedMap(tuple(sigma), alpha)))
    elif variant is Variant.PLANAR_ONLY:

        def planar(s: Perm) -> None:
            m = RootedMap(s, alpha)
            if genus(m) == 0:
                emit(m)

        _sigmas(2 * n_edges, planar)
    else:
        _sigmas(2 * n_edges, lambda s: emit(RootedMap(s, alpha)))


def census_maps(
    n_edges: int, variant: Variant = Variant.ALL_GENERA, cap_override: int | None = None
) -> list[RootedMap]:
    """The maps each_map emits, as a list in the order it emits them."""
    reps: list[RootedMap] = []
    each_map(n_edges, reps.append, variant, cap_override)
    return reps


def census(
    n_edges: int, variant: Variant = Variant.ALL_GENERA, cap_override: int | None = None
) -> CountTable:
    """Tally the maps with n edges by vertex count, as cells (edges, vertices),
    as each_map emits them; trivalent maps, which all have 2n/3 vertices, are
    counted and never built."""
    table = CountTable(max_n=n_edges, provenance=f"maps:{variant.value}")
    if variant is Variant.TRIVALENT:
        check_edge_count(n_edges, variant, cap_override)
        ticks = count()
        _trivalent_search([-1] * (2 * n_edges), ticks.__next__)
        if total := next(ticks):
            table.add(n_edges, 2 * n_edges // 3, total)
    else:
        each_map(n_edges, lambda m: table.add(n_edges, m.n_vertices), variant, cap_override)
    return table

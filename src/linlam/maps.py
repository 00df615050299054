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
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .enumeration import CountTable
from .names import Variant

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
    three fields are, and hash as the tuple of the three.
    """

    __slots__ = ("sigma", "alpha", "root")

    def __init__(self, sigma: Perm, alpha: Perm, root: int = 0) -> None:
        self.sigma = sigma
        self.alpha = alpha
        self.root = root

    def __eq__(self, other: object) -> bool:
        if other.__class__ is RootedMap:
            return (self.sigma, self.alpha, self.root) == (other.sigma, other.alpha, other.root)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.sigma, self.alpha, self.root))

    def __repr__(self) -> str:
        return f"RootedMap(sigma={self.sigma!r}, alpha={self.alpha!r}, root={self.root!r})"

    @property
    def dart_count(self) -> int:
        return len(self.sigma)

    @property
    def n_edges(self) -> int:
        return len(self.sigma) // 2

    @property
    def n_vertices(self) -> int:
        return cycle_count(self.sigma)

    def validate(self) -> None:
        n = len(self.sigma)
        if n == 0 or n % 2:
            raise ValueError("the dart set must be non-empty and of even size")
        if sorted(self.sigma) != list(range(n)) or sorted(self.alpha) != list(range(n)):
            raise ValueError("sigma and alpha must permute the same dart set")
        for d in range(n):
            if self.alpha[d] == d or self.alpha[self.alpha[d]] != d:
                raise ValueError("alpha must be a fixed-point-free involution")
        if not 0 <= self.root < n:
            raise ValueError("root dart out of range")
        canonical_code(self)  # raises ValueError unless sigma and alpha act transitively

    def to_text(self) -> str:
        return (
            f"sigma={cycles_to_text(self.sigma)} "
            f"alpha={cycles_to_text(self.alpha)} root={self.root}"
        )


def conjugate(m: RootedMap, relabel: Sequence[int]) -> RootedMap:
    """Apply a dart relabeling d -> relabel[d] to both permutations and the root."""
    n = len(m.sigma)
    sigma = [0] * n
    alpha = [0] * n
    for d in range(n):
        sigma[relabel[d]] = relabel[m.sigma[d]]
        alpha[relabel[d]] = relabel[m.alpha[d]]
    return RootedMap(tuple(sigma), tuple(alpha), relabel[m.root])


def faces(m: RootedMap) -> Perm:
    """The face permutation: follow alpha inverse, then sigma inverse.

    Dart alpha(sigma(d)) goes back to d, so one pass fills it in.
    """
    sigma, alpha = m.sigma, m.alpha
    phi = [0] * len(sigma)
    for d in range(len(sigma)):
        phi[alpha[sigma[d]]] = d
    return tuple(phi)


def genus(m: RootedMap) -> int:
    """Genus from Euler's formula c(sigma) - c(alpha) + c(faces) = 2 - 2g."""
    chi = cycle_count(m.sigma) - cycle_count(m.alpha) + cycle_count(faces(m))
    defect = 2 - chi
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
    n = len(sigma)
    num = [-1] * n
    order = [root]
    num[root] = 0
    i = 0
    while i < len(order):
        d = order[i]
        i += 1
        for e in (sigma[d], alpha[d]):
            if num[e] < 0:
                num[e] = len(order)
                order.append(e)
    if len(order) != n:
        raise ValueError("sigma and alpha must act transitively on the darts")
    sigma_rel = [0] * n
    alpha_rel = [0] * n
    for d in range(n):
        sigma_rel[num[d]] = num[sigma[d]]
        alpha_rel[num[d]] = num[alpha[d]]
    return tuple(sigma_rel + alpha_rel)


# ---------------------------------------------------------------------------
# Exhaustive censuses


def _sigmas(dart_count: int) -> Iterator[Perm]:
    """Vertex rotations of every rooted map on dart_count darts, in lex order.

    Dart d takes as sigma(d) a labelled dart not yet in sigma's image, or
    the first dart of the next fresh edge.  Reaching a dart that is still
    unlabelled means the labelled darts are closed under sigma and alpha,
    so the map would be disconnected and the branch dies.
    """
    sigma = [0] * dart_count
    hit = [False] * dart_count

    def rec(d: int, fresh: int) -> Iterator[Perm]:
        if d == dart_count:
            yield tuple(sigma)
            return
        if d == fresh:
            return
        for e in range(min(fresh + 1, dart_count)):
            if not hit[e]:
                hit[e] = True
                sigma[d] = e
                yield from rec(d + 1, fresh + 2 if e == fresh else fresh)
                hit[e] = False

    yield from rec(0, 2)


def _trivalent_sigmas(dart_count: int) -> Iterator[Perm]:
    """Vertex rotations of every rooted trivalent map, one vertex at a time.

    The least labelled dart a not yet on a vertex opens the vertex (a b c);
    b and then c are each a labelled dart not yet on a vertex or the first
    dart of the next fresh edge.  Maps come out ordered by the vertex
    sequence (b c) of each vertex taken by its least dart.
    """
    sigma = [-1] * dart_count

    def open_darts(a: int, fresh: int) -> list[int]:
        return [e for e in range(a + 1, min(fresh + 1, dart_count)) if sigma[e] < 0]

    def rec(a: int, fresh: int) -> Iterator[Perm]:
        while a < fresh and sigma[a] >= 0:
            a += 1
        if a == fresh:
            if fresh == dart_count:
                yield tuple(sigma)
            return
        for b in open_darts(a, fresh):
            fresh_b = fresh + 2 if b == fresh else fresh
            for c in open_darts(a, fresh_b):
                if c == b:
                    continue
                sigma[a], sigma[b], sigma[c] = b, c, a
                yield from rec(a + 1, fresh_b + 2 if c == fresh_b else fresh_b)
                sigma[a] = sigma[b] = sigma[c] = -1

    if dart_count % 3 == 0:
        yield from rec(0, 2)


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


def census_maps(
    n_edges: int, variant: Variant = Variant.ALL_GENERA, cap_override: int | None = None
) -> list[RootedMap]:
    """Every rooted map with n edges, once each, in its canonical labelling.

    The maps sit on the standard involution and root 0.  All-genera and
    planar maps are the lexicographically least sigma among their
    relabellings, listed in lexicographic order; planar ones are the
    genus-zero maps among them.  Trivalent maps are least, and listed, by
    their vertex sequence.  Both are the representatives, in the order,
    that a scan over every sigma keeping each map's first appearance finds.
    """
    check_edge_count(n_edges, variant, cap_override)
    alpha = standard_alpha(n_edges)
    if variant is Variant.TRIVALENT:
        return [RootedMap(s, alpha) for s in _trivalent_sigmas(2 * n_edges)]
    reps = (RootedMap(s, alpha) for s in _sigmas(2 * n_edges))
    if variant is Variant.PLANAR_ONLY:
        return [m for m in reps if genus(m) == 0]
    return list(reps)


def census(
    n_edges: int, variant: Variant = Variant.ALL_GENERA, cap_override: int | None = None
) -> CountTable:
    """Tally the maps with n edges by vertex count, as cells (edges, vertices);
    trivalent maps, which all have 2n/3 vertices, are counted and never built."""
    table = CountTable(max_n=n_edges, provenance=f"maps:{variant.value}")
    if variant is Variant.TRIVALENT:
        check_edge_count(n_edges, variant, cap_override)
        count = sum(1 for _ in _trivalent_sigmas(2 * n_edges))
        table.entries = {(n_edges, 2 * n_edges // 3): count} if count else {}
    else:
        for m in census_maps(n_edges, variant, cap_override):
            key = (n_edges, m.n_vertices)
            table.entries[key] = table.entries.get(key, 0) + 1
    return table

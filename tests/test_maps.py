import os
import random
import subprocess
import sys
from functools import cache
from itertools import permutations
from pathlib import Path
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linlam.maps import (
    Perm,
    RootedMap,
    Variant,
    canonical_code,
    census,
    census_maps,
    conjugate,
    cycle_count,
    cycles,
    faces,
    genus,
    standard_alpha,
)

# OEIS A000698 shifted: rooted maps of every genus with 1..6 edges
ALL_GENERA_TOTALS = [2, 10, 74, 706, 8162, 110410]

LINK = RootedMap(sigma=(0, 1), alpha=(1, 0))  # one edge, two vertices
LOOP = RootedMap(sigma=(1, 0), alpha=(1, 0))  # one edge, one vertex


def flower(n_edges):
    # one vertex whose rotation visits the darts in order, so each edge is a loop
    darts = 2 * n_edges
    return RootedMap(tuple((d + 1) % darts for d in range(darts)), standard_alpha(n_edges))


def root_fixing_relabelings(dart_count):
    for rest in permutations(range(1, dart_count)):
        yield (0,) + rest


class TestPermutationBasics:
    def test_cycles_start_at_minimum(self):
        assert cycles((1, 2, 0, 3)) == [[0, 1, 2], [3]]

    def test_standard_alpha(self):
        assert standard_alpha(2) == (1, 0, 3, 2)

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.integers(0, 40).flatmap(lambda n: st.permutations(range(n))))
    def test_cycle_count_counts_the_cycles(self, p):
        assert cycle_count(p) == len(cycles(p))


class TestFacesAndGenus:
    def test_link_map(self):
        phi = faces(LINK)
        assert phi == (1, 0)
        assert cycle_count(LINK.sigma) == 2
        assert cycle_count(LINK.alpha) == 1
        assert cycle_count(phi) == 1
        assert genus(LINK) == 0

    def test_loop_map(self):
        phi = faces(LOOP)
        assert phi == (0, 1)
        assert cycle_count(phi) == 2
        assert genus(LOOP) == 0

    def test_all_one_edge_maps_are_planar(self):
        assert all(genus(m) == 0 for m in census_maps(1, Variant.ALL_GENERA))

    def test_two_edge_torus_map_exists(self):
        genera = [genus(m) for m in census_maps(2, Variant.ALL_GENERA)]
        assert genera.count(1) == 1
        assert set(genera) == {0, 1}

    def test_euler_parity(self):
        for n in (1, 2, 3):
            for m in census_maps(n, Variant.ALL_GENERA):
                oracle = tuple(m.sigma.index(m.alpha.index(d)) for d in range(m.dart_count))
                assert faces(m) == oracle  # sigma^-1 after alpha^-1
                chi = (
                    cycle_count(m.sigma) - cycle_count(m.alpha) + cycle_count(faces(m))
                )
                assert (2 - chi) % 2 == 0


class TestValidation:
    def test_valid_map_passes(self):
        LOOP.validate()

    def test_alpha_with_fixed_point_rejected(self):
        with pytest.raises(ValueError, match="involution"):
            RootedMap(sigma=(0, 1), alpha=(0, 1)).validate()

    def test_intransitive_map_rejected(self):
        m = RootedMap(sigma=(0, 1, 2, 3), alpha=(1, 0, 3, 2))
        with pytest.raises(ValueError, match="transitively"):
            m.validate()

    # a negative root must not wrap to a dart counted from the end
    @pytest.mark.parametrize("root", [-1, 2])
    @pytest.mark.parametrize("check", [canonical_code, RootedMap.validate])
    def test_root_outside_the_darts_rejected(self, check, root):
        with pytest.raises(ValueError, match="root dart out of range"):
            check(RootedMap(sigma=(1, 0), alpha=(1, 0), root=root))

    def test_odd_dart_set_rejected(self):
        with pytest.raises(ValueError):
            RootedMap(sigma=(0,), alpha=(0,)).validate()

    def test_one_vertex_map_with_129_edges_passes(self):
        # 258 darts: more labels than one byte holds
        flower(129).validate()


class TestCanonicalCode:
    def test_loop_and_link_differ(self):
        assert canonical_code(LOOP) != canonical_code(LINK)

    def test_codes_past_one_byte_of_labels(self):
        m = flower(129)
        darts = list(range(1, 258))
        random.Random(129).shuffle(darts)
        assert canonical_code(conjugate(m, (0, *darts))) == canonical_code(m)
        # the reversed rotation sends the root away from its own edge's other dart
        mirror = RootedMap(tuple(m.sigma.index(d) for d in range(258)), m.alpha)
        assert canonical_code(mirror) != canonical_code(m)

    def test_exactly_two_one_edge_maps(self):
        codes = set()
        for sigma in permutations(range(2)):
            codes.add(canonical_code(RootedMap(sigma, standard_alpha(1))))
        assert len(codes) == 2

    def test_conjugation_invariance_under_random_relabelings(self):
        rng = random.Random(20260809)
        for n in (1, 2, 3):
            for m in census_maps(n, Variant.ALL_GENERA):
                code = canonical_code(m)
                darts = list(range(1, 2 * n))
                for _ in range(100):
                    rng.shuffle(darts)
                    relabel = (0, *darts)
                    assert canonical_code(conjugate(m, relabel)) == code

    def test_rooted_maps_are_rigid(self):
        # the identity is the only root-preserving automorphism
        for n in (1, 2, 3):
            for m in census_maps(n, Variant.ALL_GENERA):
                fixing = sum(
                    1
                    for relabel in root_fixing_relabelings(2 * n)
                    if conjugate(m, relabel) == m
                )
                assert fixing == 1

    def test_requires_transitive_map(self):
        m = RootedMap(sigma=(0, 1, 2, 3), alpha=(1, 0, 3, 2))
        with pytest.raises(ValueError):
            canonical_code(m)


@cache
def _census_list(n_edges: int) -> list[RootedMap]:
    return census_maps(n_edges, Variant.ALL_GENERA)


@st.composite
def relabeled_maps(draw):
    # a census map up to 5 edges and any dart relabeling, the root's included
    n_edges = draw(st.integers(1, 5))
    maps = _census_list(n_edges)
    m = maps[draw(st.integers(0, len(maps) - 1))]
    return m, draw(st.permutations(range(2 * n_edges)))


class TestConjugationProperties:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(relabeled_maps())
    def test_invariants_survive_relabeling(self, case):
        m, relabel = case
        image = conjugate(m, relabel)
        assert canonical_code(image) == canonical_code(m)
        assert genus(image) == genus(m)
        assert image.n_vertices == m.n_vertices


class TestCensus:
    def test_one_edge(self):
        c = census(1, Variant.ALL_GENERA)
        assert c.entries == {(1, 1): 1, (1, 2): 1}
        assert c.total() == 2

    def test_all_genera_totals(self):
        assert [census(n, Variant.ALL_GENERA).total() for n in (1, 2, 3)] == [2, 10, 74]

    def test_bivariate_row_two(self):
        c = census(2, Variant.ALL_GENERA)
        assert c.entries == {(2, 1): 3, (2, 2): 5, (2, 3): 2}

    def test_planar_totals(self):
        assert [census(n, Variant.PLANAR_ONLY).total() for n in (1, 2, 3)] == [2, 9, 54]

    def test_planar_within_all_genera(self):
        for n in (1, 2, 3):
            full = census(n, Variant.ALL_GENERA)
            planar = census(n, Variant.PLANAR_ONLY)
            for key, c in planar.entries.items():
                assert c <= full.count(*key)

    def test_trivalent_three_edges(self):
        assert census(3, Variant.TRIVALENT).total() == 5

    def test_trivalent_requires_multiple_of_three(self):
        assert census(2, Variant.TRIVALENT).total() == 0

    @pytest.mark.parametrize("n_edges", [3, 6, 9, 12])
    def test_trivalent_census_tallies_the_listed_maps(self, n_edges):
        tally = {}
        for m in census_maps(n_edges, Variant.TRIVALENT):
            key = (n_edges, m.n_vertices)
            tally[key] = tally.get(key, 0) + 1
        table = census(n_edges, Variant.TRIVALENT)
        assert table.entries == tally
        assert (table.max_n, table.provenance) == (n_edges, "maps:trivalent")

    def test_census_maps_are_valid_and_deterministic(self):
        reps = census_maps(2, Variant.ALL_GENERA)
        for m in reps:
            m.validate()
        assert reps == census_maps(2, Variant.ALL_GENERA)

    def test_cap_guard(self):
        with pytest.raises(ValueError, match="cap"):
            census(7, Variant.ALL_GENERA)
        with pytest.raises(ValueError, match="at least one edge"):
            census(0, Variant.ALL_GENERA)

    def test_map_text_form(self):
        assert LOOP.to_text() == "sigma=(0 1) alpha=(0 1) root=0"


def test_all_genera_five_edges_total():
    assert census(5, Variant.ALL_GENERA).total() == 8162


def test_census_count_accessor():
    c = census(1, Variant.ALL_GENERA)
    assert (c.max_n, c.provenance) == (1, "maps:all")
    assert c.count(1, 2) == 1
    assert c.count(1, 3) == 0
    assert c.count(2, 1) == 0


# ---------------------------------------------------------------------------
# Reference census: the brute-force scan the generator replaced


def _order3_sigmas(dart_count: int) -> Iterator[Perm]:
    # permutations whose cycles all have length 3 (vertex degree 3 everywhere)
    if dart_count % 3:
        return
    perm = [0] * dart_count

    def rec(remaining: list[int]) -> Iterator[Perm]:
        if not remaining:
            yield tuple(perm)
            return
        a = remaining[0]
        rest = remaining[1:]
        for bi, b in enumerate(rest):
            for ci, c in enumerate(rest):
                if bi == ci:
                    continue
                perm[a], perm[b], perm[c] = b, c, a
                yield from rec([d for d in rest if d is not b and d is not c])

    yield from rec(list(range(dart_count)))


@cache
def scanned_maps(n_edges: int, variant: Variant) -> tuple[RootedMap, ...]:
    """Scan every vertex permutation on the standard involution and root,
    keep the transitive (and, per variant, genus-zero or trivalent) ones,
    and keep the first map of each canonical code."""
    dart_count = 2 * n_edges
    alpha = standard_alpha(n_edges)
    if variant is Variant.TRIVALENT:
        sigmas: Iterator[Perm] = _order3_sigmas(dart_count)
    else:
        sigmas = permutations(range(dart_count))
    seen: set[bytes] = set()
    reps = []
    for sigma in sigmas:
        m = RootedMap(sigma, alpha)
        try:
            code = canonical_code(m)
        except ValueError:  # not transitive
            continue
        if variant is Variant.PLANAR_ONLY and genus(m) != 0:
            continue
        if code not in seen:
            seen.add(code)
            reps.append(m)
    return tuple(reps)


ORACLE_CASES = [
    (n, variant)
    for variant, sizes in (
        (Variant.ALL_GENERA, (1, 2, 3, 4)),
        (Variant.PLANAR_ONLY, (1, 2, 3, 4)),
        (Variant.TRIVALENT, (1, 2, 3, 4, 5, 6)),
    )
    for n in sizes
]


class TestAgainstScan:
    @pytest.mark.parametrize("n, variant", ORACLE_CASES)
    def test_census_cells(self, n, variant):
        want: dict[tuple[int, int], int] = {}
        for m in scanned_maps(n, variant):
            want[(n, m.n_vertices)] = want.get((n, m.n_vertices), 0) + 1
        assert census(n, variant).entries == want

    @pytest.mark.parametrize("n, variant", ORACLE_CASES)
    def test_same_representatives_in_scan_order(self, n, variant):
        # the generator emits the scan's first map of each class, in scan order,
        # so `maps-census --list` prints what the scan printed
        assert census_maps(n, variant) == list(scanned_maps(n, variant))


class TestGeneratedCensus:
    def test_all_genera_totals_through_six_edges(self):
        got = [census(n, Variant.ALL_GENERA).total() for n in range(1, 7)]
        assert got == ALL_GENERA_TOTALS

    def test_trivalent_totals_match_a062980(self):
        assert census(9, Variant.TRIVALENT).total() == 1105
        assert census(12, Variant.TRIVALENT).total() == 27120

    @pytest.mark.parametrize(
        "n, variant",
        [(5, Variant.ALL_GENERA), (5, Variant.PLANAR_ONLY), (9, Variant.TRIVALENT)],
    )
    def test_valid_and_pairwise_non_isomorphic(self, n, variant):
        reps = census_maps(n, variant)
        for m in reps:
            m.validate()
            if variant is Variant.TRIVALENT:
                assert all(len(c) == 3 for c in cycles(m.sigma))
        assert len({canonical_code(m) for m in reps}) == len(reps)


# ---------------------------------------------------------------------------
# Memory: the census streams its maps, so its peak does not grow with them

# Runs the command line given as arguments, then writes the process's peak
# resident set (VmHWM, in kB) to stderr.  VmHWM belongs to the address space
# made at exec, so the test process's own peak does not count.
PEAK = """
import sys
from linlam import cli
status = cli.main(sys.argv[1:])
with open("/proc/self/status", encoding="ascii") as status_file:
    sys.stderr.write(next(line.split()[1] for line in status_file if line.startswith("VmHWM:")))
sys.exit(status)
"""

def census_peak(n_edges: int) -> tuple[str, int]:
    """The CSV that maps-census prints at n_edges, and the peak in kB of the process."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    argv = ["maps-census", "--edges", str(n_edges), "--cap-override", str(n_edges)]
    done = subprocess.run([sys.executable, "-c", PEAK, *argv], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return done.stdout, int(done.stderr)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="VmHWM is read from /proc/self/status")
class TestFlatMemory:
    def test_six_edges_peak_as_four(self):
        # the 6-edge census has 110,410 maps: a census that listed them would
        # peak about 24 MB above the 4-edge one
        _, four = census_peak(4)
        _, six = census_peak(6)
        assert six - four <= 2048

    @pytest.mark.slow
    def test_seven_edges_reach_a000698(self):
        out, seven = census_peak(7)
        cells = [135135, 422232, 546476, 388136, 166110, 43400, 6476, 429]
        assert out == "edges,vertices,count\n" + "".join(
            f"7,{v},{c}\n" for v, c in enumerate(cells, start=1))
        assert sum(cells) == 1708394  # A000698(8)
        _, six = census_peak(6)
        assert seven - six <= 2048

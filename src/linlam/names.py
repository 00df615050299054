"""The names the command line chooses from, and the one table every producer fills.

This module imports nothing from the package, so the parser can offer its
choices without loading a layer, and every layer can return a CountTable
without loading another.  enumeration, series, maps and crosscheck
re-export these same objects.
"""

from enum import Enum


class Family(Enum):
    LINEAR = "linear"
    NEUTRAL = "neutral"
    NORMAL = "normal"
    PLANAR_NEUTRAL = "planar-neutral"
    PLANAR_NORMAL = "planar-normal"


# Exchange classes are defined for the labeled neutral and normal families.
CLASS_FAMILIES = (Family.NEUTRAL, Family.NORMAL)


class FamilyName(Enum):
    L = "L"  # all linear terms
    LB = "LB"  # neutral terms
    LR = "LR"  # normal terms
    PB = "PB"  # planar neutral terms
    PR = "PR"  # planar normal terms
    QB = "QB"  # neutral exchange classes
    QR = "QR"  # normal exchange classes


class Variant(Enum):
    ALL_GENERA = "all"
    PLANAR_ONLY = "planar"
    TRIVALENT = "trivalent"


# the series that counts each family, by name; class families by the quotient pair
FAMILY_SERIES = {
    Family.LINEAR.value: FamilyName.L,
    Family.NEUTRAL.value: FamilyName.LB,
    Family.NORMAL.value: FamilyName.LR,
    Family.PLANAR_NEUTRAL.value: FamilyName.PB,
    Family.PLANAR_NORMAL.value: FamilyName.PR,
    "classes-neutral": FamilyName.QB,
    "classes-normal": FamilyName.QR,
}


class CountTable:
    """Census of a two-index family: (n, k) -> exact count.

    Stored as rows, one list per n <= max_n with entry k the count of (n, k),
    each ending at its last nonzero cell; a series table keeps the solver's
    own rows.  Every cell outside the rows counts zero, and entries, the
    nonzero cells keyed by (n, k), is a view built on each read.  Tables are
    triangular (zero whenever k > n + 1) and remember which producer filled them.
    """

    __slots__ = ("max_n", "rows", "provenance")

    def __init__(self, max_n: int, rows: list[list[int]] | None = None,
                 provenance: str = "") -> None:
        self.max_n = max_n
        self.rows = [[] for _ in range(max_n + 1)] if rows is None else rows
        self.provenance = provenance

    def add(self, n: int, k: int, c: int = 1) -> None:
        row = self.rows[n]
        row.extend([0] * (k + 1 - len(row)))
        row[k] += c

    def count(self, n: int, k: int) -> int:
        # bounds first: a negative index would wrap to the other end
        row = self.rows[n] if 0 <= n < len(self.rows) else ()
        return row[k] if 0 <= k < len(row) else 0

    @property
    def entries(self) -> dict[tuple[int, int], int]:
        return {(n, k): c for n, row in enumerate(self.rows) for k, c in enumerate(row) if c}

    def total(self) -> int:
        return sum(map(sum, self.rows))

    def row(self, n: int) -> list[int]:
        return [self.count(n, k) for k in range(n + 2)]

    def closed_sequence(self, last: int | None = None) -> list[int]:
        last = self.max_n if last is None else last
        return [self.count(n, 0) for n in range(1, last + 1)]

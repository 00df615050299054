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

    Tables are triangular (zero whenever k > n + 1) and remember which
    producer filled them.
    """

    __slots__ = ("max_n", "entries", "provenance")

    def __init__(self, max_n: int, entries: dict[tuple[int, int], int] | None = None,
                 provenance: str = "") -> None:
        self.max_n = max_n
        self.entries = {} if entries is None else entries
        self.provenance = provenance

    def count(self, n: int, k: int) -> int:
        return self.entries.get((n, k), 0)

    def total(self) -> int:
        return sum(self.entries.values())

    def row(self, n: int) -> list[int]:
        return [self.count(n, k) for k in range(n + 2)]

    @property
    def rows(self) -> list[list[int]]:
        """Each row n <= max_n, up to its last nonzero cell."""
        rows = [self.row(n) for n in range(self.max_n + 1)]
        for row in rows:
            while row and not row[-1]:
                row.pop()
        return rows

    def closed_sequence(self, last: int | None = None) -> list[int]:
        last = self.max_n if last is None else last
        return [self.count(n, 0) for n in range(1, last + 1)]

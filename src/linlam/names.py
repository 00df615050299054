"""The names the command line chooses from: families, series and map variants.

This module imports nothing from the package, so the parser can offer its
choices without loading a layer.  enumeration, series, maps and crosscheck
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

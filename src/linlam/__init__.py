"""Exact census toolkit for linear lambda terms and rooted maps.

Counts linear and beta-normal terms by size and free variables, counts
their isomorphism classes under free exchange of adjacent binders, solves
the matching generating-function equations exactly, and independently
counts rooted maps on oriented surfaces so the censuses can be compared.
"""

from .enumeration import CountTable, Family, class_cells, count_family, enum_family
from .exchange import (
    ClassCounts,
    canonicalize,
    class_groups,
    count_classes,
    is_isomorphic,
    local_exchanges,
)
from .maps import RootedMap, Variant, canonical_code, census, faces, genus
from .series import BiSeries, FamilyName, FamilySolution, Flavor, solve
from .terms import (
    App,
    Classification,
    FVar,
    Kind,
    Lam,
    ParseError,
    Term,
    Var,
    check_linear,
    classify,
    default_context,
    from_ascii,
    parse,
    render,
    to_ascii,
)

__all__ = [
    "App",
    "BiSeries",
    "ClassCounts",
    "Classification",
    "CountTable",
    "FVar",
    "Family",
    "FamilyName",
    "FamilySolution",
    "Flavor",
    "Kind",
    "Lam",
    "ParseError",
    "RootedMap",
    "Term",
    "Var",
    "Variant",
    "canonical_code",
    "canonicalize",
    "census",
    "check_linear",
    "class_cells",
    "class_groups",
    "classify",
    "count_classes",
    "count_family",
    "default_context",
    "enum_family",
    "faces",
    "from_ascii",
    "genus",
    "is_isomorphic",
    "local_exchanges",
    "parse",
    "render",
    "solve",
    "to_ascii",
]

__version__ = "0.1.0"

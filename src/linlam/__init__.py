"""Exact census toolkit for linear lambda terms and rooted maps.

Counts linear and beta-normal terms by size and free variables, counts
their isomorphism classes under free exchange of adjacent binders, solves
the matching generating-function equations exactly, and independently
counts rooted maps on oriented surfaces so the censuses can be compared.

Each public name is imported from its home module the first time it is
read, so importing the package loads no layer until one is used.
"""

from importlib import import_module

_EXPORTS = {
    "enumeration": ("class_cells", "count_family", "enum_family"),
    "exchange": (
        "ClassCounts",
        "canonicalize",
        "class_groups",
        "count_classes",
        "is_isomorphic",
        "local_exchanges",
    ),
    "maps": ("RootedMap", "canonical_code", "census", "genus"),
    "names": ("CountTable", "Family", "FamilyName", "Variant"),
    "series": ("FamilySolution", "Flavor", "solve"),
    "terms": (
        "App",
        "Classification",
        "FVar",
        "Kind",
        "Lam",
        "ParseError",
        "Term",
        "Var",
        "check_linear",
        "classify",
        "default_context",
        "parse",
        "render",
        "to_ascii",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

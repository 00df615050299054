"""Linear lambda terms in de Bruijn form: parsing, printing, classification.

A term is a tree built from four node kinds.  Bound variables carry a de
Bruijn index (0 refers to the innermost enclosing binder); free variables
carry a position into an ambient ordered context.  Two named terms are
alpha-equivalent exactly when their de Bruijn trees are equal, so
structural equality doubles as the alpha-quotient.

Nodes are plain slotted classes, and no node is mutated after construction,
so subterms are shared freely.  A node equals only a node of its own kind
with equal fields, and hashes as the tuple of its fields.

A term-in-context over k free variables uses the positions 0..k-1, and a
term is linear when every binder and every context position is referenced
exactly once.  One walk decides both linearity and the neutral/normal
class: it keeps a use counter per enclosing binder and counts each free
position, and check_linear and classify read its result through one
predicate on the free positions.
"""

from __future__ import annotations

import re
from enum import Enum
from itertools import count
from typing import Iterator, Sequence


class _Atom:
    """A variable: one integer index, compared and hashed as the tuple (index,)."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.index == other.index
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.index,))

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}(index={self.index!r})"


class Var(_Atom):
    """Bound variable; the index counts enclosing binders, innermost first."""

    __slots__ = ()


class FVar(_Atom):
    """Free variable; the index is a position in the ambient context."""

    __slots__ = ()


class App:
    __slots__ = ("fun", "arg")

    def __init__(self, fun: Term, arg: Term) -> None:
        self.fun = fun
        self.arg = arg

    def __eq__(self, other: object) -> bool:
        if other.__class__ is App:
            return (self.fun, self.arg) == (other.fun, other.arg)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.fun, self.arg))

    def __repr__(self) -> str:
        return f"App(fun={self.fun!r}, arg={self.arg!r})"


class Lam:
    __slots__ = ("body",)

    def __init__(self, body: Term) -> None:
        self.body = body

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Lam:
            return (self.body,) == (other.body,)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.body,))

    def __repr__(self) -> str:
        return f"Lam(body={self.body!r})"


Term = Var | FVar | App | Lam


# ---------------------------------------------------------------------------
# Linearity and the neutral / normal classification


class Kind(Enum):
    NEUTRAL = "neutral"
    NORMAL_ONLY = "normal-only"
    NOT_NORMAL = "not-normal"


class Classification:
    """Outcome of the neutral/normal analysis of a linear term.

    ``occurrences`` counts variable occurrences (free or bound).  A normal
    term has size equal to its occurrence count; a neutral term has size one
    less.
    """

    __slots__ = ("kind", "occurrences")

    def __init__(self, kind: Kind, occurrences: int) -> None:
        self.kind = kind
        self.occurrences = occurrences

    @property
    def is_normal(self) -> bool:
        return self.kind is not Kind.NOT_NORMAL

    @property
    def normal_size(self) -> int:
        if self.kind is Kind.NOT_NORMAL:
            raise ValueError("normal_size is undefined for a non-normal term")
        return self.occurrences


def _walk(t: Term) -> tuple[Kind, int, dict[int, int]] | None:
    """Scan a term once: its kind, its occurrence count, each free position's count.

    Returns None when a bound index escapes its binders or a binder is not
    used exactly once.
    """
    uses: list[int] = []  # one counter per enclosing binder, innermost last
    free: dict[int, int] = {}

    def walk(node: Term) -> tuple[Kind, int] | None:
        if isinstance(node, Var):
            if not 0 <= node.index < len(uses):
                return None
            uses[-1 - node.index] += 1
            return Kind.NEUTRAL, 1
        if isinstance(node, FVar):
            free[node.index] = free.get(node.index, 0) + 1
            return Kind.NEUTRAL, 1
        if isinstance(node, App):
            fun, arg = walk(node.fun), walk(node.arg)
            if fun is None or arg is None:
                return None
            neutral = fun[0] is Kind.NEUTRAL and arg[0] is not Kind.NOT_NORMAL
            return Kind.NEUTRAL if neutral else Kind.NOT_NORMAL, fun[1] + arg[1]
        uses.append(0)
        body = walk(node.body)
        if uses.pop() != 1 or body is None:
            return None
        return Kind.NOT_NORMAL if body[0] is Kind.NOT_NORMAL else Kind.NORMAL_ONLY, body[1]

    found = walk(t)
    return None if found is None else (*found, free)


def _over_context(free: dict[int, int], k: int) -> bool:
    """Every free position 0..k-1 is used once, and no other position is used."""
    return free == dict.fromkeys(range(k), 1)


def check_linear(t: Term, context_size: int = 0) -> bool:
    """True iff every binder and every context position is used exactly once."""
    found = _walk(t)
    return found is not None and _over_context(found[2], context_size)


def classify(t: Term) -> Classification:
    """Classify a linear term as neutral, normal-but-not-neutral, or neither.

    A variable is neutral; an application is neutral iff its function part is
    neutral and its argument is normal; an abstraction of a normal body is
    normal.  Anything containing an abstraction applied to an argument is not
    normal.  Raises ValueError on non-linear input.
    """
    found = _walk(t)
    if found is None or not _over_context(found[2], len(found[2])):
        raise ValueError("classify requires a linear term over a contiguous context")
    return Classification(found[0], found[1])


# ---------------------------------------------------------------------------
# Concrete syntax


class ParseError(ValueError):
    """Syntax or scoping error, with the offending character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# a symbol, a name, or any other visible character, which no term contains
_TOKEN = re.compile(r"(?P<symbol>[\\λ.()])|(?P<name>[A-Za-z_][A-Za-z0-9_']*)|(?P<other>\S)")


def parse(text: str, context: Sequence[str] = ()) -> Term:
    """Parse named lambda syntax into a de Bruijn term.

    Binders are written ``\\x.`` or ``λx.`` and extend as far right as
    possible; application is juxtaposition, so ``f x`` and ``f(x)`` mean the
    same thing.  Free names resolve against ``context`` (by position) and
    binders resolve innermost-first.  Rebinding a name whose scope is still
    open is rejected.
    """
    names = list(context)
    if len(set(names)) != len(names):
        raise ValueError("duplicate name in context")
    # (kind, text, position): a symbol is its own kind, a backslash read as λ
    tokens = []
    for m in _TOKEN.finditer(text):
        if m.lastgroup == "other":
            raise ParseError(f"unexpected character {m[0]!r}", m.start())
        kind = "name" if m.lastgroup == "name" else m[0].replace("\\", "λ")
        tokens.append((kind, m[0], m.start()))
    tokens.append(("end", "", len(text)))
    pos = 0

    def take(kind: str, what: str = "") -> tuple[str, str, int] | None:
        # consume the next token if it is of this kind; otherwise fail with
        # "expected <what>", or return None when what is empty
        nonlocal pos
        token = tokens[pos]
        if token[0] == kind:
            pos += 1
            return token
        if what:
            raise ParseError(f"expected {what}", token[2])
        return None

    def term(binders: list[str]) -> Term:
        if take("λ"):
            _, name, at = take("name", "a binder name")
            if name in binders:
                raise ParseError(f"name {name!r} bound twice in overlapping scopes", at)
            take(".", "'.'")
            return Lam(term(binders + [name]))
        result = atom(binders)
        while tokens[pos][0] in ("name", "(", "λ"):
            # a lambda in argument position reads to the end of the scope
            result = App(result, term(binders) if tokens[pos][0] == "λ" else atom(binders))
        return result

    def atom(binders: list[str]) -> Term:
        if take("("):
            inner = term(binders)
            take(")", "')'")
            return inner
        _, name, at = take("name", "a term")
        if name in binders:  # once only, since rebinding an open scope fails
            return Var(binders[::-1].index(name))
        if name in names:
            return FVar(names.index(name))
        raise ParseError(f"unbound name {name!r}", at)

    try:
        result = term([])
    except RecursionError:
        raise ParseError("term nested too deeply", tokens[pos][2]) from None
    if tokens[pos][0] != "end":
        raise ParseError("unexpected trailing input", tokens[pos][2])
    return result


_BINDER_LETTERS = "abcdefghijklmnopqrstuvwxyz"
_CONTEXT_LETTERS = ("x", "y", "z", "u", "v", "w", "s", "t")


def default_context(k: int) -> tuple[str, ...]:
    """Conventional names for a context of size k (x, y, z, ... then x9, x10)."""
    if k < 0:
        raise ValueError("context size must be non-negative")
    if k <= len(_CONTEXT_LETTERS):
        return _CONTEXT_LETTERS[:k]
    extra = tuple(f"x{j}" for j in range(len(_CONTEXT_LETTERS) + 1, k + 1))
    return _CONTEXT_LETTERS + extra


def _binder_names(used: set[str]) -> Iterator[str]:
    for c in _BINDER_LETTERS:
        if c not in used:
            yield c
    for i in count(1):
        for c in _BINDER_LETTERS:
            name = f"{c}{i}"
            if name not in used:
                yield name


def render(t: Term, context: Sequence[str] = ()) -> str:
    """Pretty-print with fresh binder names, e.g. ``λa.λb.b(a)``.

    Arguments are always parenthesized and a lambda in function position is
    wrapped, so the output parses back to the same de Bruijn term.
    """
    names = _binder_names(set(context))

    def rec(node: Term, binders: list[str]) -> str:
        if isinstance(node, Var):
            if not 0 <= node.index < len(binders):
                raise ValueError(f"unbound de Bruijn index {node.index}")
            return binders[-1 - node.index]
        if isinstance(node, FVar):
            if not 0 <= node.index < len(context):
                raise ValueError(f"context has no position {node.index}")
            return context[node.index]
        if isinstance(node, App):
            fun = rec(node.fun, binders)
            if isinstance(node.fun, Lam):
                fun = f"({fun})"
            return f"{fun}({rec(node.arg, binders)})"
        name = next(names)
        binders.append(name)
        body = rec(node.body, binders)
        binders.pop()
        return f"λ{name}.{body}"

    return rec(t, [])


# ---------------------------------------------------------------------------
# Canonical ASCII form (for golden files and streams)


def to_ascii(t: Term) -> str:
    """Serialize in prefix notation: L <body>, A <fun> <arg>, V<i>, F<j>."""
    out: list[str] = []

    def walk(node: Term) -> None:
        if isinstance(node, Var):
            out.append(f"V{node.index}")
        elif isinstance(node, FVar):
            out.append(f"F{node.index}")
        elif isinstance(node, App):
            out.append("A")
            walk(node.fun)
            walk(node.arg)
        else:
            out.append("L")
            walk(node.body)

    walk(t)
    return " ".join(out)

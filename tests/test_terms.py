from collections import Counter
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linlam.terms import (
    App,
    FVar,
    Kind,
    Lam,
    ParseError,
    Var,
    check_linear,
    classify,
    default_context,
    from_ascii,
    parse,
    render,
    to_ascii,
)


# Parser inputs: strings over a small alphabet of symbols, names and stray
# characters, and, so that a good share of them parse, texts built by the
# term grammar from a few names.
PARSER_ALPHABET = ["\\", "λ", ".", "(", ")", "x", "y", "z", "a", "b", "ab", "x'",
                   "1", "#", "'", "_", "é", " ", "\t"]


def parser_inputs():
    names = st.sampled_from(["x", "y", "a", "x'"])

    def extend(inner):
        return (st.builds("{}{}.{}".format, st.sampled_from(["\\", "λ"]), names, inner)
                | st.builds("{} {}".format, inner, inner)
                | st.builds("({})".format, inner))

    return (st.lists(st.sampled_from(PARSER_ALPHABET), max_size=14).map("".join)
            | st.recursive(names, extend, max_leaves=8))


class TestParse:
    def test_identity(self):
        assert parse("\\x. x") == Lam(Var(0))

    def test_lambda_glyph(self):
        assert parse("λx. x") == Lam(Var(0))

    def test_two_binders(self):
        assert parse("\\x. \\y. y(x)") == Lam(Lam(App(Var(0), Var(1))))

    def test_free_variable_from_context(self):
        assert parse("x(\\y. y)", ["x"]) == App(FVar(0), Lam(Var(0)))

    def test_juxtaposition_equals_parens(self):
        assert parse("\\x. \\y. x y") == parse("\\x. \\y. x(y)")

    def test_application_left_associative(self):
        t = parse("f x y", ["f", "x", "y"])
        assert t == App(App(FVar(0), FVar(1)), FVar(2))

    def test_trailing_lambda_argument(self):
        assert parse("x \\y. y", ["x"]) == App(FVar(0), Lam(Var(0)))

    def test_innermost_binding_wins(self):
        # the inner binder shadows the context name
        t = parse("x(\\x. x)", ["x"])
        assert t == App(FVar(0), Lam(Var(0)))

    def test_unbound_name_reports_position(self):
        with pytest.raises(ParseError) as exc:
            parse("\\x. y")
        assert exc.value.position == 4

    def test_rebinding_in_overlapping_scope_rejected(self):
        with pytest.raises(ParseError, match="bound twice"):
            parse("\\x. \\x. x")

    def test_syntax_error_reports_position(self):
        with pytest.raises(ParseError) as exc:
            parse("\\x. (x")
        assert exc.value.position == 6

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError, match="trailing"):
            parse("\\x. x )")

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            parse("")

    def test_duplicate_context_name_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse("x", ["x", "x"])

    @pytest.mark.parametrize("text, context, message, position", [
        ("\\x. #", (), "unexpected character '#'", 4),
        ("\\. x", (), "expected a binder name", 1),
        ("\\x x", (), "expected '.'", 3),
        ("\\x. \\x. x", (), "name 'x' bound twice in overlapping scopes", 5),
        ("\\x. y", (), "unbound name 'y'", 4),
        ("λx. x'", (), "unbound name \"x'\"", 4),
        ("\\x. (x", (), "expected ')'", 6),
        ("\\x. x )", (), "unexpected trailing input", 6),
        ("f . x", ("f", "x"), "unexpected trailing input", 2),
        ("", (), "expected a term", 0),
        ("\\x.", (), "expected a term", 3),
        ("x (", ("x",), "expected a term", 3),
    ])
    def test_each_error_names_its_site(self, text, context, message, position):
        with pytest.raises(ParseError) as exc:
            parse(text, context)
        assert str(exc.value) == f"{message} (at position {position})"
        assert exc.value.position == position

    @settings(derandomize=True, database=None, max_examples=500, deadline=None)
    @given(parser_inputs())
    def test_parse_round_trips_or_fails_in_range(self, text):
        context = ("x", "y")
        try:
            t = parse(text, context)
        except ParseError as err:
            assert 0 <= err.position <= len(text)
        else:
            assert parse(render(t, context), context) == t


class TestRender:
    def test_identity(self):
        assert render(Lam(Var(0))) == "λa.a"

    def test_swapped_pair(self):
        assert render(Lam(Lam(App(Var(0), Var(1))))) == "λa.λb.b(a)"

    def test_free_variables_use_context(self):
        assert render(App(FVar(0), FVar(1)), ("x", "y")) == "x(y)"

    def test_redex_function_parenthesized(self):
        t = App(Lam(Var(0)), FVar(0))
        assert render(t, ("x",)) == "(λa.a)(x)"

    def test_binders_avoid_context_names(self):
        t = Lam(App(Var(0), FVar(0)))
        assert render(t, ("a",)) == "λb.b(a)"

    def test_missing_context_position_rejected(self):
        with pytest.raises(ValueError):
            render(FVar(0))

    def test_negative_context_position_rejected(self):
        # a negative position must not read the context from its end
        with pytest.raises(ValueError, match="no position -1"):
            render(FVar(-1), ("x", "y"))


class TestAscii:
    def test_round_trip(self):
        t = parse("\\x. \\y. x(\\z. z)(y)")
        assert from_ascii(to_ascii(t)) == t

    def test_format(self):
        assert to_ascii(App(FVar(0), Lam(Var(0)))) == "A F0 L V0"

    def test_bad_token_rejected(self):
        with pytest.raises(ValueError):
            from_ascii("A F0")

    @pytest.mark.parametrize("text", ["F-1", "V-1", "L V-2", "F", "F+1", "Fx"])
    def test_malformed_index_rejected(self, text):
        with pytest.raises(ValueError, match="bad token"):
            from_ascii(text)

    # each reads as V0 or F1 through int(), but to_ascii writes neither
    @pytest.mark.parametrize("text", ["V00", "F01", "V\u0660", "V\uff10"])
    def test_only_what_to_ascii_writes_is_read(self, text):
        with pytest.raises(ValueError, match="bad token"):
            from_ascii(text)


class TestCheckLinear:
    def test_identity_is_linear(self):
        assert check_linear(parse("\\x. x"), 0)

    def test_duplicated_variable_is_not(self):
        assert not check_linear(parse("\\x. x x"), 0)

    def test_dropped_binder_is_not(self):
        assert not check_linear(parse("\\x. \\y. x"), 0)

    def test_swap_term_is_linear(self):
        assert check_linear(parse("\\x. \\y. y x"), 0)

    def test_context_positions_must_all_be_used(self):
        assert check_linear(FVar(0), 1)
        assert not check_linear(FVar(0), 2)
        assert not check_linear(FVar(1), 1)

    def test_malformed_escaping_index_is_not_linear(self):
        assert not check_linear(Var(0), 0)


class TestClassify:
    def test_variable_is_neutral(self):
        c = classify(FVar(0))
        assert c.kind is Kind.NEUTRAL
        assert c.occurrences == 1
        assert c.neutral_size == 0
        assert c.normal_size == 1

    def test_identity_is_normal_only(self):
        c = classify(parse("\\x. x"))
        assert c.kind is Kind.NORMAL_ONLY
        assert c.normal_size == 1
        with pytest.raises(ValueError):
            c.neutral_size

    def test_redex_is_not_normal(self):
        c = classify(parse("(\\x. x)(\\y. y)"))
        assert c.kind is Kind.NOT_NORMAL
        assert not c.is_normal
        with pytest.raises(ValueError):
            c.normal_size

    def test_applied_variable_is_neutral(self):
        c = classify(parse("x(\\y. y)", ["x"]))
        assert c.kind is Kind.NEUTRAL
        assert c.occurrences == 2
        assert c.neutral_size == 1
        assert c.normal_size == 2

    def test_rejects_nonlinear_input(self):
        with pytest.raises(ValueError):
            classify(parse("\\x. x x"))

    def test_rejects_gap_in_context_positions(self):
        with pytest.raises(ValueError):
            classify(App(FVar(0), FVar(2)))


def test_default_context_is_stable():
    assert default_context(3) == ("x", "y", "z")
    assert len(set(default_context(12))) == 12


class TestInvariantsOverSmallTerms:
    """Independent oracles checked over every linear term of size <= 3."""

    @staticmethod
    def _cells():
        from linlam.enumeration import Family, enum_family

        for n in range(4):
            for k in range(n + 2):
                yield k, list(enum_family(Family.LINEAR, n, k))

    def test_classify_agrees_with_direct_redex_scan(self):
        def has_redex(t):
            if isinstance(t, App):
                return (
                    isinstance(t.fun, Lam) or has_redex(t.fun) or has_redex(t.arg)
                )
            if isinstance(t, Lam):
                return has_redex(t.body)
            return False

        for _, cell in self._cells():
            for t in cell:
                assert classify(t).is_normal == (not has_redex(t))

    def test_sizes_count_variable_occurrences(self):
        def leaves(t):
            if isinstance(t, (Var, FVar)):
                return 1
            if isinstance(t, App):
                return leaves(t.fun) + leaves(t.arg)
            return leaves(t.body)

        for _, cell in self._cells():
            for t in cell:
                c = classify(t)
                assert c.occurrences == leaves(t)
                if c.is_normal:
                    assert c.normal_size == leaves(t)
                if c.kind is Kind.NEUTRAL:
                    assert c.neutral_size == leaves(t) - 1

    def test_parse_render_round_trip(self):
        for k, cell in self._cells():
            names = default_context(k)
            for t in cell:
                assert parse(render(t, names), names) == t


# Random trees of every node kind, indices from -1 up, so most are not
# linear: a binder goes unused or is used twice, an index escapes, or a
# free position is negative, repeated or skipped.
variables = st.builds(Var, st.integers(-1, 3)) | st.builds(FVar, st.integers(-1, 3))
random_trees = st.recursive(
    variables, lambda sub: st.builds(App, sub, sub) | st.builds(Lam, sub), max_leaves=10
)


@cache
def small_linear_terms():
    from linlam.enumeration import Family, enum_family

    families = (Family.LINEAR, Family.NEUTRAL, Family.NORMAL)
    return [t for f in families for n in range(5) for k in range(3) for t in enum_family(f, n, k)]


def replace_leaf(t, i, leaf):
    """t with its i-th variable, depth first, replaced by leaf; and the count left of i."""
    if isinstance(t, (Var, FVar)):
        return (leaf if i == 0 else t), i - 1
    if isinstance(t, App):
        fun, i = replace_leaf(t.fun, i, leaf)
        arg, i = replace_leaf(t.arg, i, leaf)
        return App(fun, arg), i
    body, i = replace_leaf(t.body, i, leaf)
    return Lam(body), i


@st.composite
def near_linear_terms(draw):
    # a linear, neutral or normal term of size <= 4, perhaps with one
    # variable replaced, so that every kind turns up among the linear ones
    t = draw(st.sampled_from(small_linear_terms()))
    if draw(st.booleans()):
        t, _ = replace_leaf(t, draw(st.integers(0, 4)), draw(variables))
    return t


def subterms(t, depth=0):
    """Every node of t with the number of binders above it."""
    yield t, depth
    if isinstance(t, App):
        yield from subterms(t.fun, depth)
        yield from subterms(t.arg, depth)
    elif isinstance(t, Lam):
        yield from subterms(t.body, depth + 1)


def uses_of_binder(lam):
    """Occurrences of the binder of lam: Vars in its body whose index equals their depth there."""
    return sum(1 for u, d in subterms(lam.body) if isinstance(u, Var) and u.index == d)


def oracle(t):
    """(k if t is linear over the context 0..k-1, else None; its kind; its leaf count)."""
    nodes = list(subterms(t))
    escapes = any(isinstance(u, Var) and not 0 <= u.index < d for u, d in nodes)
    binders_once = all(uses_of_binder(u) == 1 for u, _ in nodes if isinstance(u, Lam))
    free = Counter(u.index for u, _ in nodes if isinstance(u, FVar))
    k = len(free)
    contiguous = free == Counter(range(k))
    linear_k = k if not escapes and binders_once and contiguous else None
    redex = any(isinstance(u, App) and isinstance(u.fun, Lam) for u, _ in nodes)
    # a normal term is neutral exactly when it is not an abstraction
    kind = Kind.NOT_NORMAL if redex else Kind.NORMAL_ONLY if isinstance(t, Lam) else Kind.NEUTRAL
    leaves = sum(1 for u, _ in nodes if isinstance(u, (Var, FVar)))
    return linear_k, kind, leaves


class TestOneWalkProperties:
    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(random_trees | near_linear_terms())
    def test_check_linear_and_classify_match_direct_counting(self, t):
        linear_k, kind, leaves = oracle(t)
        for k in range(5):
            assert check_linear(t, k) == (k == linear_k), k
        if linear_k is None:
            with pytest.raises(ValueError, match="contiguous context"):
                classify(t)
        else:
            c = classify(t)
            assert (c.kind, c.occurrences) == (kind, leaves)

"""Grammar, evaluation, differentiation, and printing of field expressions."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from finsleroid.errors import ConfigSyntaxError, DomainError
from finsleroid.expressions import (
    BinOp,
    Call,
    FieldExpression,
    Neg,
    Num,
    Var,
    _tokenize,
    parse_expression,
)


def ev(text: str, *coords: float) -> float:
    return parse_expression(text).compiled(coords)


class TestEvaluation:
    def test_literals_and_variables(self):
        assert ev("2.5") == 2.5
        assert ev("x0", 7.0) == 7.0
        assert ev("x1", 1.0, -3.0) == -3.0
        assert ev("1e2") == 100.0
        assert ev("2.5e-1") == 0.25
        assert ev(".5") == 0.5

    def test_arithmetic_precedence(self):
        assert ev("2 + 3 * 4") == 14.0
        assert ev("2 * 3 + 4") == 10.0
        assert ev("2 * 3 ^ 2") == 18.0
        assert ev("8 / 4 / 2") == 1.0
        assert ev("8 - 4 - 2") == 2.0
        assert ev("(2 + 3) * 4") == 20.0

    def test_power_right_associative(self):
        assert ev("2 ^ 3 ^ 2") == 512.0

    def test_unary_minus_binds_tighter_than_power(self):
        # '-x0^2' parses as (-x0)^2: the grammar folds the minus into the base
        assert ev("-x0^2", 3.0) == 9.0
        assert ev("-(1 + 0.1*x0)^2", 0.0) == 1.0
        assert ev("-((1 + 0.1*x0)^2)", 0.0) == -1.0
        assert ev("0 - x0^2", 3.0) == -9.0

    def test_functions(self):
        assert ev("exp(0)") == 1.0
        assert ev("ln(exp(2))") == pytest.approx(2.0, rel=1e-15)
        assert ev("sqrt(x0)", 9.0) == 3.0
        assert ev("sin(0) + cos(0)") == 1.0
        assert ev("abs(0 - 3)") == 3.0
        assert ev("tanh(0)") == 0.0
        assert ev("atan(1)") == pytest.approx(math.pi / 4, rel=1e-15)

    def test_whitespace_insensitive(self):
        assert ev("1+2 * x0", 3.0) == ev("1 + 2*x0", 3.0) == 7.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ev("sqrt(0 - 1)")
        with pytest.raises(DomainError):
            ev("ln(0)")
        with pytest.raises(DomainError):
            ev("1 / x0", 0.0)
        with pytest.raises(DomainError):
            ev("x0 ^ (0 - 0.5)", -4.0)

    def test_missing_coordinate(self):
        with pytest.raises(DomainError):
            ev("x3", 1.0, 2.0)


class TestSyntaxErrors:
    def test_trailing_operator_reports_end(self):
        with pytest.raises(ConfigSyntaxError, match="at end of expression"):
            parse_expression("1/")

    def test_misplaced_operator_reports_offset(self):
        with pytest.raises(ConfigSyntaxError, match="offset 4"):
            parse_expression("1 + * 2")

    def test_unclosed_parenthesis(self):
        with pytest.raises(ConfigSyntaxError, match="at end of expression"):
            parse_expression("(1 + 2")

    def test_unexpected_character(self):
        with pytest.raises(ConfigSyntaxError, match=r"unexpected character '\$' at offset 2"):
            parse_expression("1 $ 2")

    @pytest.mark.parametrize(
        "text, char, offset",
        [("\u00b2", "\u00b2", 0), ("x0\u00b2", "\u00b2", 2), ("\u0663 + 1", "\u0663", 0)],
    )
    def test_non_ascii_character(self, text, char, offset):
        """Digits and letters beyond ASCII are stray characters, not numbers or names."""
        with pytest.raises(ConfigSyntaxError) as info:
            parse_expression(text)
        assert str(info.value) == f"unexpected character {char!r} at offset {offset}"

    def test_overflowing_literal_is_refused_at_its_offset(self):
        """A literal that reads as infinity never reaches a tree: its printed
        text would need ``int(inf)``."""
        with pytest.raises(ConfigSyntaxError) as info:
            parse_expression("sin(1e400)")
        assert str(info.value) == "number '1e400' overflows at offset 4"
        assert parse_expression("1.7e308").ast == Num(1.7e308)

    def test_unicode_space_separates_tokens(self):
        assert parse_expression("x0\u00a0+\u20031").ast == BinOp("+", Var(0), Num(1.0))

    def test_unknown_function(self):
        with pytest.raises(ConfigSyntaxError):
            parse_expression("frob(x0)")

    def test_bad_variable_name(self):
        with pytest.raises(ConfigSyntaxError):
            parse_expression("y0 + 1")

    def test_dangling_tokens(self):
        with pytest.raises(ConfigSyntaxError):
            parse_expression("1 2")


#: tokens as ``(kind, text, offset)``, the end token included
TOKEN_CASES = [
    ("1.", [("num", "1.", 0), ("end", "", 2)]),
    (".5.3", [("num", ".5", 0), ("num", ".3", 2), ("end", "", 4)]),
    ("1e", [("num", "1", 0), ("ident", "e", 1), ("end", "", 2)]),
    ("1e+", [("num", "1", 0), ("ident", "e", 1), ("+", "+", 2), ("end", "", 3)]),
    ("1.e5", [("num", "1.e5", 0), ("end", "", 4)]),
    ("1E-3*x1", [("num", "1E-3", 0), ("*", "*", 4), ("ident", "x1", 5), ("end", "", 7)]),
    ("2x0", [("num", "2", 0), ("ident", "x0", 1), ("end", "", 3)]),
    ("x0 2", [("ident", "x0", 0), ("num", "2", 3), ("end", "", 4)]),
    ("e5", [("ident", "e5", 0), ("end", "", 2)]),
    ("1..2", [("num", "1.", 0), ("num", ".2", 2), ("end", "", 4)]),
    (
        "a_1(x0)",
        [("ident", "a_1", 0), ("(", "(", 3), ("ident", "x0", 4), (")", ")", 6), ("end", "", 7)],
    ),
    ("\tx0", [("ident", "x0", 1), ("end", "", 3)]),
    ("x0 ", [("ident", "x0", 0), ("end", "", 3)]),
]


class TestTokens:
    @pytest.mark.parametrize("text, expected", TOKEN_CASES)
    def test_token_table(self, text, expected):
        assert [(t.kind, t.text, t.offset) for t in _tokenize(text)] == expected

    @pytest.mark.parametrize("text, offset", [(".e5", 0), ("x0 + .", 5), ("1 , 2", 2)])
    def test_stray_characters(self, text, offset):
        with pytest.raises(ConfigSyntaxError, match=f"unexpected character .+ at offset {offset}$"):
            _tokenize(text)


#: ASCII fragments that random expression text is built from
_FRAGMENTS = (
    list("0123456789.eE+-*/^() \t\n$#!,_")
    + ["x0", "x1", "x12", "sin", "exp", "ln", "sqrt", "abs", "foo", "1e3", ".5", "2.5E-1"]
)


@settings(max_examples=400, derandomize=True, database=None)
@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=12).map("".join))
def test_ascii_text_parses_or_is_a_syntax_error(text):
    """Any ASCII text parses, and its printed form parses to the same tree;
    or it raises ``ConfigSyntaxError``. Nothing else escapes."""
    try:
        expr = parse_expression(text)
    except ConfigSyntaxError:
        return
    assert parse_expression(str(expr)).ast == expr.ast


class TestDifferentiation:
    @pytest.mark.parametrize(
        "text, var, point, expected",
        [
            ("x0^3", 0, (2.0,), 12.0),
            ("x0 * x1", 1, (3.0, 5.0), 3.0),
            ("exp(-x1)", 1, (0.0, 0.5), -math.exp(-0.5)),
            ("1 / x0", 0, (2.0,), -0.25),
            ("sqrt(x0)", 0, (4.0,), 0.25),
            ("sin(2*x0)", 0, (0.3,), 2 * math.cos(0.6)),
            ("ln(x0)", 0, (2.0,), 0.5),
            ("x0 ^ 2.5", 0, (4.0,), 2.5 * 4.0**1.5),
            ("tanh(x0)", 0, (0.4,), 1 - math.tanh(0.4) ** 2),
            ("atan(x0)", 0, (2.0,), 1.0 / 5.0),
            ("cosh(x0)", 0, (0.7,), math.sinh(0.7)),
            ("cos(x0)", 0, (0.3,), -math.sin(0.3)),
            ("tan(x0)", 0, (0.4,), 1.0 / math.cos(0.4) ** 2),
            ("sinh(x0)", 0, (0.7,), math.cosh(0.7)),
            ("abs(x0)", 0, (-1.5,), -1.0),
            ("x0 ^ x1", 0, (2.0, 3.0), 12.0),
            ("x0 ^ x1", 1, (2.0, 3.0), 8.0 * math.log(2.0)),
        ],
    )
    def test_closed_forms(self, text, var, point, expected):
        derivative = parse_expression(text).differentiate(var)
        assert derivative.compiled(point) == pytest.approx(expected, rel=1e-14)

    def test_unused_variable_gives_zero(self):
        derivative = parse_expression("x0^2 + 3").differentiate(1)
        assert derivative.is_constant
        assert derivative.compiled((5.0, 5.0)) == 0.0

    def test_matches_finite_difference(self):
        expr = parse_expression("exp(-x0) * sin(x1) + x0 ^ 2 / (1 + x1 ^ 2)")
        point = (0.7, 0.4)
        step = 1e-6
        for var in (0, 1):
            shifted_up = list(point)
            shifted_dn = list(point)
            shifted_up[var] += step
            shifted_dn[var] -= step
            numeric = (expr.compiled(shifted_up) - expr.compiled(shifted_dn)) / (2 * step)
            symbolic = expr.differentiate(var).compiled(point)
            assert symbolic == pytest.approx(numeric, rel=1e-8)


class TestInterface:
    def test_constant_wrapping(self):
        expr = FieldExpression.constant(-2.5)
        assert expr.is_constant
        assert expr.max_var_index == -1
        assert expr.compiled(()) == -2.5

    def test_max_var_index(self):
        assert parse_expression("x0 + x3 * x1").max_var_index == 3

    def test_compiled_matches_direct_formula(self):
        expr = parse_expression("exp(-x1) * (1 + 0.1 * x0) ^ 2")
        for x0, x1 in ((0.0, 0.0), (1.0, 0.5), (-2.0, 3.0)):
            direct = math.exp(-x1) * (1 + 0.1 * x0) ** 2
            assert expr.compiled((x0, x1)) == pytest.approx(direct, rel=1e-15)

    def test_compiled_domain_error(self):
        expr = parse_expression("1 / x0")
        with pytest.raises(DomainError):
            expr.compiled((0.0,))

    def test_render_round_trip_fixed_cases(self):
        for text in (
            "1 + 2 * x0",
            "-x0^2",
            "-((1 + 0.1*x0)^2)",
            "exp(-x1) * 0.6",
            "2 ^ 3 ^ 2",
            "(x0 - x1) / (x0 + x1)",
            "8 - 4 - 2",
            "8 / 4 / 2",
        ):
            expr = parse_expression(text)
            reparsed = parse_expression(str(expr))
            for point in ((0.5, 0.25), (2.0, 1.5)):
                assert reparsed.compiled(point) == pytest.approx(
                    expr.compiled(point), rel=1e-15
                )


def _ast_strategy():
    leaves = st.one_of(
        st.builds(Num, st.floats(min_value=0.0, max_value=4.0, allow_nan=False)),
        st.builds(Var, st.integers(min_value=0, max_value=2)),
    )

    def extend(children):
        return st.one_of(
            st.builds(Neg, children),
            st.builds(
                BinOp, st.sampled_from(["+", "-", "*"]), children, children
            ),
            st.builds(Call, st.sampled_from(["sin", "cos", "exp", "tanh"]), children),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=120, derandomize=True)
@given(ast=_ast_strategy())
def test_render_parse_round_trip_property(ast):
    """Printing any tree and re-parsing it preserves its value."""
    expr = FieldExpression(ast)
    reparsed = parse_expression(str(expr))
    for point in ((0.5, -1.25, 2.0), (0.0, 0.0, 0.0)):
        try:
            original = expr.compiled(point)
        except DomainError:
            continue
        assert reparsed.compiled(point) == pytest.approx(original, rel=1e-12, abs=1e-12)


@settings(max_examples=60, derandomize=True)
@given(
    ast=_ast_strategy(),
    var=st.integers(min_value=0, max_value=2),
    point=st.tuples(
        st.floats(min_value=-1.5, max_value=1.5),
        st.floats(min_value=-1.5, max_value=1.5),
        st.floats(min_value=-1.5, max_value=1.5),
    ),
)
def test_differentiation_matches_finite_difference_property(ast, var, point):
    """Symbolic derivatives of random trees agree with central differences."""
    expr = FieldExpression(ast)
    step = 1e-5
    up = list(point)
    dn = list(point)
    up[var] += step
    dn[var] -= step
    try:
        numeric = (expr.compiled(up) - expr.compiled(dn)) / (2 * step)
        symbolic = expr.differentiate(var).compiled(point)
    except DomainError:
        return
    assert symbolic == pytest.approx(numeric, rel=2e-4, abs=2e-4)

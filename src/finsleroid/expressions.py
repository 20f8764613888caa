"""Tiny arithmetic-expression language for position-dependent background fields.

Configuration values are scalar expressions in the coordinates ``x0 .. x{N-1}``
built from ``+ - * / ^`` (with ``^`` binding tightest and associating to the
right), parentheses, unary minus, decimal literals, and the function set
``sin cos tan exp ln sqrt sinh cosh tanh atan abs``.

The tokens are ASCII. A number is ``[0-9]+(.[0-9]*)?`` or ``.[0-9]+``,
followed by an exponent ``[eE][+-]?[0-9]+`` only where the exponent has a
digit (``1e+`` is the number ``1``, the name ``e`` and ``+``). A name is
``[A-Za-z_][A-Za-z0-9_]*``. Whitespace, Unicode spaces included, separates
tokens; any other character, a digit or letter beyond ASCII among them, is a
syntax error at its offset.

Key entry points
----------------
parse_expression
    Text -> :class:`FieldExpression`, with positioned syntax errors.
str(FieldExpression)
    Inverse of parsing: ``parse_expression(str(e)).ast == e.ast``.
FieldExpression.compiled
    Numeric evaluation at a coordinate tuple.
FieldExpression.differentiate
    Exact symbolic partial derivative; this is the normative derivative route
    for background fields (finite differences only cross-check it).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence, Union

from .errors import ConfigSyntaxError, DomainError

__all__ = [
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "Node",
    "FieldExpression",
    "parse_expression",
    "FUNCTIONS",
]


# --- abstract syntax tree ----------------------------------------------------


@dataclass(frozen=True)
class Num:
    """Non-negative numeric literal (negative constants appear as ``Neg(Num)``)."""

    value: float


@dataclass(frozen=True)
class Var:
    """Coordinate variable ``x{index}``."""

    index: int


@dataclass(frozen=True)
class Neg:
    """Unary minus."""

    arg: "Node"


@dataclass(frozen=True)
class BinOp:
    """Binary operation; ``op`` is one of ``+ - * / ^``."""

    op: str
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    """Function application ``fn(arg)``."""

    fn: str
    arg: "Node"


Node = Union[Num, Var, Neg, BinOp, Call]

FUNCTIONS: dict[str, Callable[[float], float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "ln": math.log,
    "sqrt": math.sqrt,
    "sinh": math.sinh,
    "cosh": math.cosh,
    "tanh": math.tanh,
    "atan": math.atan,
    "abs": abs,
}


# --- tokenizer ---------------------------------------------------------------

# ``\s`` matches what ``str.isspace`` accepts, so Unicode spaces still
# separate tokens; any other character the first three groups refuse is ``bad``.
_TOKEN = re.compile(
    r"(?P<num>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<bad>\S)"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "num", "ident", an operator character, or "end"
    text: str
    offset: int  # 0-based offset of the first character in the source text


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for match in _TOKEN.finditer(text):
        kind, token, offset = match.lastgroup, match.group(), match.start()
        if kind == "bad":
            raise ConfigSyntaxError(f"unexpected character {token!r} at offset {offset}")
        tokens.append(_Token(token if kind == "op" else kind, token, offset))
    tokens.append(_Token("end", "", len(text)))
    return tokens


# --- parser ------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def fail(self, message: str, token: _Token) -> ConfigSyntaxError:
        where = "end of expression" if token.kind == "end" else f"offset {token.offset}"
        return ConfigSyntaxError(f"{message} at {where}")

    def parse(self) -> Node:
        node = self.expr()
        trailing = self.peek()
        if trailing.kind != "end":
            raise self.fail(f"unexpected {trailing.text!r}", trailing)
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind in "+-":
            op = self.advance().kind
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek().kind in "*/":
            op = self.advance().kind
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Node:
        node = self.base()
        if self.peek().kind == "^":
            self.advance()
            node = BinOp("^", node, self.factor())
        return node

    def parenthesized(self) -> Node:
        """``( expr )``, from the opening parenthesis at ``peek()``."""
        self.advance()
        node = self.expr()
        closing = self.peek()
        if closing.kind != ")":
            raise self.fail("expected ')'", closing)
        self.advance()
        return node

    def base(self) -> Node:
        token = self.peek()
        if token.kind == "-":
            self.advance()
            return Neg(self.base())
        if token.kind == "num":
            value = float(token.text)
            if math.isinf(value):
                raise self.fail(f"number {token.text!r} overflows", token)
            self.advance()
            return Num(value)
        if token.kind == "(":
            return self.parenthesized()
        if token.kind == "ident":
            self.advance()
            if self.peek().kind == "(":
                if token.text not in FUNCTIONS:
                    raise self.fail(f"unknown function {token.text!r}", token)
                return Call(token.text, self.parenthesized())
            name = token.text
            if name.startswith("x") and name[1:].isdigit():
                return Var(int(name[1:]))
            raise self.fail(f"unknown identifier {name!r}", token)
        if token.kind == "end":
            raise self.fail("unexpected end of expression", token)
        raise self.fail(f"unexpected {token.text!r}", token)


# --- printing ----------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _precedence(node: Node) -> int:
    if isinstance(node, BinOp):
        return _PREC_POW if node.op == "^" else (_PREC_ADD if node.op in "+-" else _PREC_MUL)
    if isinstance(node, Neg):
        return _PREC_NEG
    return _PREC_ATOM


def _format_number(value: float) -> str:
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _to_text(node: Node) -> str:
    if isinstance(node, Num):
        if node.value < 0:  # not produced by parsing, but stay printable
            return _to_text(Neg(Num(-node.value)))
        return _format_number(node.value)
    if isinstance(node, Var):
        return f"x{node.index}"
    if isinstance(node, Call):
        return f"{node.fn}({_to_text(node.arg)})"
    if isinstance(node, Neg):
        inner = _to_text(node.arg)
        if isinstance(node.arg, BinOp):
            inner = f"({inner})"
        return f"-{inner}"
    left, right = node.left, node.right
    if node.op == "^":
        left_text = _to_text(left)
        if _precedence(left) < _PREC_ATOM:
            left_text = f"({left_text})"
        right_text = _to_text(right)
        # the right operand of '^' is a factor: atoms, '-', and nested '^' stand bare
        if isinstance(right, BinOp) and right.op != "^":
            right_text = f"({right_text})"
        return f"{left_text}^{right_text}"
    own = _precedence(node)
    left_text = _to_text(left)
    if _precedence(left) < own:
        left_text = f"({left_text})"
    right_text = _to_text(right)
    if _precedence(right) <= own:
        right_text = f"({right_text})"
    return f"{left_text} {node.op} {right_text}"


# --- symbolic differentiation ------------------------------------------------


def _num(value: float) -> Node:
    if value < 0:
        return Neg(Num(-value))
    return Num(value)


def _is_const(node: Node, value: float) -> bool:
    return isinstance(node, Num) and node.value == value


def _add(a: Node, b: Node) -> Node:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return _num(a.value + b.value)
    return BinOp("+", a, b)


def _sub(a: Node, b: Node) -> Node:
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return Neg(b) if not isinstance(b, Num) else _num(-b.value)
    if isinstance(a, Num) and isinstance(b, Num):
        return _num(a.value - b.value)
    return BinOp("-", a, b)


def _mul(a: Node, b: Node) -> Node:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Num(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return _num(a.value * b.value)
    return BinOp("*", a, b)


def _div(a: Node, b: Node) -> Node:
    if _is_const(a, 0.0):
        return Num(0.0)
    if _is_const(b, 1.0):
        return a
    return BinOp("/", a, b)


def _pow(a: Node, b: Node) -> Node:
    if _is_const(b, 1.0):
        return a
    if _is_const(b, 0.0):
        return Num(1.0)
    return BinOp("^", a, b)


def _differentiate(node: Node, k: int) -> Node:
    if isinstance(node, Num):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0) if node.index == k else Num(0.0)
    if isinstance(node, Neg):
        inner = _differentiate(node.arg, k)
        if _is_const(inner, 0.0):
            return Num(0.0)
        return Neg(inner) if not isinstance(inner, Num) else _num(-inner.value)
    if isinstance(node, Call):
        du = _differentiate(node.arg, k)
        if _is_const(du, 0.0):
            return Num(0.0)
        u = node.arg
        if node.fn == "sin":
            outer: Node = Call("cos", u)
        elif node.fn == "cos":
            outer = Neg(Call("sin", u))
        elif node.fn == "tan":
            outer = _div(Num(1.0), _pow(Call("cos", u), Num(2.0)))
        elif node.fn == "exp":
            outer = Call("exp", u)
        elif node.fn == "ln":
            outer = _div(Num(1.0), u)
        elif node.fn == "sqrt":
            outer = _div(Num(1.0), _mul(Num(2.0), Call("sqrt", u)))
        elif node.fn == "sinh":
            outer = Call("cosh", u)
        elif node.fn == "cosh":
            outer = Call("sinh", u)
        elif node.fn == "tanh":
            outer = _div(Num(1.0), _pow(Call("cosh", u), Num(2.0)))
        elif node.fn == "atan":
            outer = _div(Num(1.0), _add(Num(1.0), _pow(u, Num(2.0))))
        else:  # abs: u/|u| away from the kink
            outer = _div(u, Call("abs", u))
        return _mul(outer, du)
    left, right, op = node.left, node.right, node.op
    da = _differentiate(left, k)
    db = _differentiate(right, k)
    if op == "+":
        return _add(da, db)
    if op == "-":
        return _sub(da, db)
    if op == "*":
        return _add(_mul(da, right), _mul(left, db))
    if op == "/":
        return _div(_sub(_mul(da, right), _mul(left, db)), _pow(right, Num(2.0)))
    # power rule; constant exponents get the short form
    if isinstance(right, Num) and _is_const(db, 0.0):
        return _mul(_mul(_num(right.value), _pow(left, _num(right.value - 1.0))), da)
    logarithmic = _add(_mul(db, Call("ln", left)), _div(_mul(right, da), left))
    return _mul(_pow(left, right), logarithmic)


# --- compilation to nested closures (fast path for hot loops) ---------------


def _compile(node: Node) -> Callable[[Sequence[float]], float]:
    if isinstance(node, Num):
        value = node.value
        return lambda x: value
    if isinstance(node, Var):
        index = node.index
        return lambda x: x[index]
    if isinstance(node, Neg):
        inner = _compile(node.arg)
        return lambda x: -inner(x)
    if isinstance(node, Call):
        fn = FUNCTIONS[node.fn]
        inner = _compile(node.arg)
        return lambda x: fn(inner(x))
    left = _compile(node.left)
    right = _compile(node.right)
    if node.op == "+":
        return lambda x: left(x) + right(x)
    if node.op == "-":
        return lambda x: left(x) - right(x)
    if node.op == "*":
        return lambda x: left(x) * right(x)
    if node.op == "/":
        return lambda x: left(x) / right(x)
    return lambda x: math.pow(left(x), right(x))


def _max_var_index(node: Node) -> int:
    if isinstance(node, Var):
        return node.index
    if isinstance(node, Neg):
        return _max_var_index(node.arg)
    if isinstance(node, Call):
        return _max_var_index(node.arg)
    if isinstance(node, BinOp):
        return max(_max_var_index(node.left), _max_var_index(node.right))
    return -1


# --- public interface --------------------------------------------------------


@dataclass(frozen=True)
class FieldExpression:
    """A parsed scalar field of the coordinates, with exact differentiation."""

    ast: Node

    @classmethod
    def parse(cls, text: str) -> "FieldExpression":
        return cls(_Parser(text).parse())

    @classmethod
    def constant(cls, value: float) -> "FieldExpression":
        return cls(_num(float(value)))

    @cached_property
    def compiled(self) -> Callable[[Sequence[float]], float]:
        """Closure-compiled evaluator; raises ``DomainError`` where the value is undefined."""
        raw = _compile(self.ast)

        def call(x: Sequence[float]) -> float:
            try:
                return float(raw(x))
            except (ValueError, OverflowError, ZeroDivisionError) as exc:
                raise DomainError(f"cannot evaluate {self} at {tuple(x)!r}") from exc
            except IndexError as exc:
                raise DomainError(
                    f"expression refers to x{self.max_var_index} but only "
                    f"{len(x)} coordinates were given"
                ) from exc

        return call

    def differentiate(self, k: int) -> "FieldExpression":
        return FieldExpression(_differentiate(self.ast, k))

    @property
    def max_var_index(self) -> int:
        """Largest coordinate index used, or -1 for a constant expression."""
        return _max_var_index(self.ast)

    @property
    def is_constant(self) -> bool:
        return self.max_var_index < 0

    def __str__(self) -> str:
        """Text that parses back to the identical tree."""
        return _to_text(self.ast)


def parse_expression(text: str) -> FieldExpression:
    """Parse ``text`` into a :class:`FieldExpression`.

    Raises
    ------
    ConfigSyntaxError
        With a message locating the problem by 0-based offset in ``text``.
    """
    return FieldExpression.parse(text)

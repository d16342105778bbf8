"""Small analytic expression language for radial warping functions.

Expressions are built from numeric literals, the variable ``r``, the binary
operators ``+ - * /``, powers ``^`` with a constant rational exponent, the
unary functions sin, cos, sinh, cosh, exp, ln, sqrt, and unary negation.
Precedence from loose to tight: sums, products, unary minus, powers; all
left associative except ``^`` which associates right.

Differentiation is exact and stays inside the same grammar (the power rule
only ever shifts the rational exponent), so second derivatives are obtained
by differentiating twice.  Only literal arithmetic is constant-folded; no
other simplification is attempted, and correctness is checked by evaluation.
Evaluation is the one path by which the model side reads w, w' and w'': the
space forms build their three trees from the node classes directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import EvalDomainError, ParseError

FUNCTIONS = ("sin", "cos", "sinh", "cosh", "exp", "ln", "sqrt")

_INF = float("inf")


class Expr:
    """Immutable expression node; safe to share between threads."""

    __slots__ = ()


@dataclass(frozen=True)
class Num(Expr):
    value: Fraction


@dataclass(frozen=True)
class Var(Expr):
    pass


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # one of + - * /
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: Fraction


@dataclass(frozen=True)
class Call(Expr):
    func: str
    arg: Expr


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


_ZERO = Num(Fraction(0))
_ONE = Num(Fraction(1))
R = Var()


# ---------------------------------------------------------------------------
# smart constructors: fold literal arithmetic, keep everything else verbatim

def add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value + b.value)
    if isinstance(a, Num) and a.value == 0:
        return b
    if isinstance(b, Num) and b.value == 0:
        return a
    return BinOp("+", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value - b.value)
    if isinstance(b, Num) and b.value == 0:
        return a
    if isinstance(a, Num) and a.value == 0:
        return neg(b)
    return BinOp("-", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value * b.value)
    if isinstance(a, Num):
        if a.value == 0:
            return _ZERO
        if a.value == 1:
            return b
    if isinstance(b, Num):
        if b.value == 0:
            return _ZERO
        if b.value == 1:
            return a
    return BinOp("*", a, b)


def div(a: Expr, b: Expr) -> Expr:
    if isinstance(b, Num) and b.value != 0:
        if isinstance(a, Num):
            return Num(a.value / b.value)
        if b.value == 1:
            return a
    if isinstance(a, Num) and a.value == 0 and not (isinstance(b, Num) and b.value == 0):
        return _ZERO
    return BinOp("/", a, b)


def pow_(base: Expr, exponent: Fraction) -> Expr:
    exponent = Fraction(exponent)
    if exponent == 1:
        return base
    if exponent == 0:
        return _ONE
    if isinstance(base, Num) and exponent.denominator == 1 and (base.value != 0 or exponent > 0):
        return Num(base.value ** int(exponent))
    return Pow(base, exponent)


def neg(a: Expr) -> Expr:
    if isinstance(a, Num):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


# ---------------------------------------------------------------------------
# tokenizer / parser

_TOK_OPS = "+-*/^()"


class _Token:
    __slots__ = ("kind", "text", "value", "offset")

    def __init__(self, kind, text, offset, value=None):
        self.kind = kind
        self.text = text
        self.offset = offset
        self.value = value


def _tokenize(source: str) -> list[_Token]:
    toks: list[_Token] = []
    i = 0
    offset = 0  # byte offset into the UTF-8 encoding of source
    n = len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            offset += len(ch.encode("utf-8"))
            i += 1
            continue
        if ch in _TOK_OPS:
            toks.append(_Token(ch, ch, offset))
            offset += 1
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            while j < n and source[j].isdigit():
                j += 1
            if j < n and source[j] == ".":
                j += 1
                while j < n and source[j].isdigit():
                    j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            try:
                value = Fraction(text)
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"malformed number {text!r}", offset)
            toks.append(_Token("num", text, offset, value))
            offset += len(text.encode("utf-8"))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            toks.append(_Token("ident", text, offset))
            offset += len(text.encode("utf-8"))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", offset)
    toks.append(_Token("end", "", offset))
    return toks


_ATOM_EXPECTED = ("number", "'r'", "function", "'('", "'-'")


class _Parser:
    def __init__(self, toks: list[_Token]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def take(self) -> _Token:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"unexpected {tok.text!r}" if tok.kind != "end" else "unexpected end of input",
                tok.offset,
                expected=(f"'{kind}'",),
            )
        return self.take()

    def parse_expr(self) -> Expr:
        e = self.parse_term()
        while self.peek().kind in "+-":
            op = self.take().kind
            rhs = self.parse_term()
            e = add(e, rhs) if op == "+" else sub(e, rhs)
        return e

    def parse_term(self) -> Expr:
        e = self.parse_unary()
        while self.peek().kind in "*/":
            op = self.take().kind
            rhs = self.parse_unary()
            e = mul(e, rhs) if op == "*" else div(e, rhs)
        return e

    def parse_unary(self) -> Expr:
        if self.peek().kind == "-":
            self.take()
            return neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.peek().kind != "^":
            return base
        self.take()
        exp_tok = self.peek()
        exp_expr = self.parse_unary()  # unary includes power: right associativity
        # the smart constructors fold every rational constant to a Num
        if not isinstance(exp_expr, Num):
            raise ParseError("exponent must be a rational constant", exp_tok.offset)
        return pow_(base, exp_expr.value)

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.take()
            return Num(tok.value)
        if tok.kind == "(":
            self.take()
            e = self.parse_expr()
            self.expect(")")
            return e
        if tok.kind == "ident":
            self.take()
            if tok.text == "r":
                return R
            if tok.text in FUNCTIONS:
                self.expect("(")
                arg = self.parse_expr()
                self.expect(")")
                return Call(tok.text, arg)
            raise ParseError(f"unknown identifier {tok.text!r}", tok.offset)
        raise ParseError(
            f"unexpected {tok.text!r}" if tok.kind != "end" else "unexpected end of input",
            tok.offset,
            expected=_ATOM_EXPECTED,
        )


def parse(source: str) -> Expr:
    """Parse an expression in the variable r; raise ParseError with the byte
    offset of the first offending token otherwise."""
    parser = _Parser(_tokenize(source))
    e = parser.parse_expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise ParseError(f"unexpected trailing {tail.text!r}", tail.offset)
    return e


# ---------------------------------------------------------------------------
# differentiation

def differentiate(e: Expr) -> Expr:
    """Exact derivative d/dr, valid wherever both sides are defined."""
    if isinstance(e, Num):
        return _ZERO
    if isinstance(e, Var):
        return _ONE
    if isinstance(e, Neg):
        return neg(differentiate(e.arg))
    if isinstance(e, BinOp):
        da, db = differentiate(e.left), differentiate(e.right)
        if e.op == "+":
            return add(da, db)
        if e.op == "-":
            return sub(da, db)
        if e.op == "*":
            return add(mul(da, e.right), mul(e.left, db))
        return div(sub(mul(da, e.right), mul(e.left, db)), pow_(e.right, Fraction(2)))
    if isinstance(e, Pow):
        du = differentiate(e.base)
        return mul(mul(Num(e.exponent), pow_(e.base, e.exponent - 1)), du)
    if isinstance(e, Call):
        du = differentiate(e.arg)
        u = e.arg
        if e.func == "sin":
            return mul(Call("cos", u), du)
        if e.func == "cos":
            return neg(mul(Call("sin", u), du))
        if e.func == "sinh":
            return mul(Call("cosh", u), du)
        if e.func == "cosh":
            return mul(Call("sinh", u), du)
        if e.func == "exp":
            return mul(Call("exp", u), du)
        if e.func == "ln":
            return div(du, u)
        if e.func == "sqrt":
            return div(du, mul(Num(Fraction(2)), Call("sqrt", u)))
    raise TypeError(f"cannot differentiate {e!r}")


# ---------------------------------------------------------------------------
# evaluation

def _eval_call(func: str, x: float) -> float:
    try:
        if func == "sin":
            return math.sin(x)
        if func == "cos":
            return math.cos(x)
        if func == "sinh":
            return math.sinh(x)
        if func == "cosh":
            return math.cosh(x)
        if func == "exp":
            return math.exp(x)
        if func == "ln":
            if x <= 0.0:
                raise EvalDomainError(f"ln of non-positive value {x!r}")
            return math.log(x)
        if func == "sqrt":
            if x < 0.0:
                raise EvalDomainError(f"sqrt of negative value {x!r}")
            return math.sqrt(x)
    except OverflowError:
        # IEEE semantics for the saturating functions
        if func == "sinh":
            return math.copysign(_INF, x)
        if func == "cosh":
            return _INF
        if func == "exp":
            return _INF
        raise
    raise ValueError(f"unknown function {func!r}")


def evaluate(e: Expr, r: float) -> float:
    """IEEE double value of e at the point r.

    Domain violations raise EvalDomainError instead of returning NaN;
    overflow saturates to +-inf as IEEE arithmetic would.
    """
    if isinstance(e, Num):
        return float(e.value)
    if isinstance(e, Var):
        return float(r)
    if isinstance(e, Neg):
        return -evaluate(e.arg, r)
    if isinstance(e, BinOp):
        a = evaluate(e.left, r)
        b = evaluate(e.right, r)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if b == 0.0:
            raise EvalDomainError(f"division by zero at r={r!r}")
        return a / b
    if isinstance(e, Pow):
        x = evaluate(e.base, r)
        c = e.exponent
        if c.denominator == 1:
            n = int(c)
            if x == 0.0 and n < 0:
                raise EvalDomainError(f"zero raised to negative power at r={r!r}")
            try:
                return x ** n
            except OverflowError:
                sign = 1.0 if (x > 0 or n % 2 == 0) else -1.0
                return math.copysign(_INF, sign)
        if x < 0.0:
            raise EvalDomainError(f"fractional power of negative value {x!r}")
        if x == 0.0 and c < 0:
            raise EvalDomainError(f"zero raised to negative power at r={r!r}")
        try:
            return x ** float(c)
        except OverflowError:
            return _INF
    if isinstance(e, Call):
        return _eval_call(e.func, evaluate(e.arg, r))
    raise TypeError(f"cannot evaluate {e!r}")

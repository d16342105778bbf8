import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from excomp import wexpr
from excomp.errors import EvalDomainError, ParseError


def central_diff(e, r, h=1e-5):
    return (wexpr.evaluate(e, r + h) - wexpr.evaluate(e, r - h)) / (2 * h)


class TestParse:
    def test_variable(self):
        assert wexpr.parse("r") == wexpr.Var()

    def test_grammar_reading(self):
        e = wexpr.parse("sinh(2*r)/2")
        assert isinstance(e, wexpr.BinOp) and e.op == "/"
        assert isinstance(e.left, wexpr.Call) and e.left.func == "sinh"
        assert e.right == wexpr.Num(Fraction(2))

    def test_syntax_error_offset(self):
        with pytest.raises(ParseError) as err:
            wexpr.parse("r + + 1")
        assert err.value.offset == 4
        assert err.value.expected  # expected-token set attached

    def test_unknown_identifier(self):
        with pytest.raises(ParseError) as err:
            wexpr.parse("tan(r)")
        assert err.value.offset == 0

    def test_nonconstant_exponent(self):
        with pytest.raises(ParseError, match="rational constant"):
            wexpr.parse("2^r")
        with pytest.raises(ParseError, match="rational constant"):
            wexpr.parse("r^sqrt(2)")  # constant but irrational
        for src in ("r^(1/0)", "r^(0^-1)", "r^(2^(1/2))"):  # constant but no rational
            with pytest.raises(ParseError, match="rational constant") as err:
                wexpr.parse(src)
            assert err.value.offset == 2

    def test_rational_exponent(self):
        e = wexpr.parse("r^(1/2)")
        assert isinstance(e, wexpr.Pow) and e.exponent == Fraction(1, 2)
        assert wexpr.evaluate(e, 4.0) == 2.0
        for src, exponent in (("r^((1+1)^2)", Fraction(4)), ("r^(-(3/4))", Fraction(-3, 4))):
            e = wexpr.parse(src)
            assert isinstance(e, wexpr.Pow) and e.base == wexpr.Var() and e.exponent == exponent

    def test_precedence(self):
        # ^ binds tighter than unary minus, which binds tighter than *
        assert wexpr.evaluate(wexpr.parse("-r^2"), 3.0) == -9.0
        assert wexpr.evaluate(wexpr.parse("2*-r"), 3.0) == -6.0
        assert wexpr.evaluate(wexpr.parse("2-3-4"), 0.0) == -5.0
        assert wexpr.evaluate(wexpr.parse("2^3^2"), 0.0) == 512.0  # right assoc

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            wexpr.parse("r + 1)")

    def test_byte_offsets_utf8(self):
        with pytest.raises(ParseError) as err:
            wexpr.parse("(r + µ)")
        assert err.value.offset == 5


class TestDifferentiate:
    def test_variable(self):
        assert wexpr.differentiate(wexpr.parse("r")) == wexpr.Num(Fraction(1))

    def test_table_rule(self):
        d = wexpr.differentiate(wexpr.parse("sinh(r)"))
        assert d == wexpr.Call("cosh", wexpr.Var())

    def test_fd_oracle_polynomial_plus_sine(self):
        e = wexpr.parse("r^3 + sin(r)")
        d = wexpr.differentiate(e)
        assert abs(wexpr.evaluate(d, 0.7) - central_diff(e, 0.7)) < 1e-8

    def test_second_derivative_of_sinh(self):
        e = wexpr.parse("sinh(r)")
        d2 = wexpr.differentiate(wexpr.differentiate(e))
        for r in np.linspace(0.1, 3, 17):
            assert wexpr.evaluate(d2, r) == pytest.approx(math.sinh(r), rel=1e-14)

    @pytest.mark.parametrize("src", [
        "r^3 - 2*r + 1", "sin(r)*cos(r)", "sinh(2*r)/2", "exp(-r^2)",
        "ln(1 + r^2)", "sqrt(1 + r^2)", "r/(1 + r)", "cosh(r)^2",
        "r^(3/2)", "(r + 1)^(-2)",
    ])
    def test_fd_oracle_many(self, src):
        e = wexpr.parse(src)
        d = wexpr.differentiate(e)
        for r in (0.3, 0.9, 1.7):
            fd = central_diff(e, r)
            scale = max(1.0, abs(fd))
            assert abs(wexpr.evaluate(d, r) - fd) / scale < 1e-6


class TestEvaluate:
    def test_square(self):
        assert wexpr.evaluate(wexpr.parse("r^2"), 3.0) == 9.0

    def test_sinh_against_series(self):
        # independent oracle: Taylor series of sinh at 1
        series = sum(1.0 / math.factorial(2 * k + 1) for k in range(12))
        got = wexpr.evaluate(wexpr.parse("sinh(r)"), 1.0)
        assert got == pytest.approx(series, rel=1e-15)
        assert got == pytest.approx(1.1752011936438014, rel=1e-15)

    def test_ln_domain_error(self):
        with pytest.raises(EvalDomainError):
            wexpr.evaluate(wexpr.parse("ln(r)"), 0.0)

    def test_sqrt_domain_error(self):
        with pytest.raises(EvalDomainError):
            wexpr.evaluate(wexpr.parse("sqrt(r - 2)"), 1.0)

    def test_division_by_zero(self):
        with pytest.raises(EvalDomainError):
            wexpr.evaluate(wexpr.parse("1/r"), 0.0)

    def test_overflow_saturates(self):
        assert wexpr.evaluate(wexpr.parse("sinh(r)"), 1e6) == math.inf
        assert wexpr.evaluate(wexpr.parse("sinh(-r)"), 1e6) == -math.inf
        assert wexpr.evaluate(wexpr.parse("exp(r)"), 1e6) == math.inf
        assert wexpr.evaluate(wexpr.parse("exp(r)"), math.inf) == math.inf
        assert wexpr.evaluate(wexpr.parse("exp(-r)"), math.inf) == 0.0

    def test_deterministic(self):
        e = wexpr.parse("sin(r)*exp(r/3) + r^(5/2)")
        vals = {wexpr.evaluate(e, 1.2345) for _ in range(10)}
        assert len(vals) == 1


# hypothesis strategy: expression strings built from the grammar
_numbers = st.one_of(
    st.integers(min_value=0, max_value=9).map(str),
    st.sampled_from(["0.5", "1.25", "2", "3.0", "0.1"]),
)


def _exprs(depth):
    if depth == 0:
        return st.one_of(_numbers, st.just("r"))
    sub = _exprs(depth - 1)
    return st.one_of(
        _numbers,
        st.just("r"),
        st.tuples(sub, st.sampled_from("+-*"), sub).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(sub, st.sampled_from(["sin", "cos", "sinh", "cosh"])).map(
            lambda t: f"{t[1]}({t[0]})"),
        st.tuples(sub, st.integers(min_value=0, max_value=3)).map(
            lambda t: f"({t[0]})^{t[1]}"),
        sub.map(lambda s: f"-({s})"),
    )


@given(_exprs(2))
def test_derivative_matches_finite_differences(src):
    e = wexpr.parse(src)
    d = wexpr.differentiate(e)
    for r in (0.4, 1.3):
        val = wexpr.evaluate(e, r)
        fd = central_diff(e, r)
        if abs(val) > 1e6 or abs(fd) > 1e6:
            continue  # away from blowups only
        assert abs(wexpr.evaluate(d, r) - fd) / max(1.0, abs(fd)) < 1e-6


def test_expressions_shareable_across_threads():
    from concurrent.futures import ThreadPoolExecutor
    e = wexpr.parse("sinh(2*r)/2 + r^3 - ln(1 + r^2)")
    points = [0.1 * k + 0.05 for k in range(40)]
    expected = [wexpr.evaluate(e, r) for r in points]
    with ThreadPoolExecutor(max_workers=8) as pool:
        for _ in range(5):
            got = list(pool.map(lambda r: wexpr.evaluate(e, r), points))
            assert got == expected

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import polynomial_source, taylor_shift
from frontals.expressions import (
    BinOp,
    Call,
    Const,
    EvalDomainError,
    Neg,
    ParseError,
    Pow,
    Var,
    eval_jet,
    parse,
    to_source,
)


class TestParse:
    def test_pow_binds_before_division(self):
        e = parse("t^3/6")
        assert e == BinOp("/", Pow(Var(), Fraction(3)), Const(6.0))
        assert eval_jet(e, 2.0, 0).value == pytest.approx(8.0 / 6.0)

    def test_product_jet(self):
        j = eval_jet(parse("sin(t)*exp(t)"), 0.0, 3)
        assert j.coeffs == pytest.approx((0.0, 1.0, 1.0, 1.0 / 3.0))

    def test_half_square(self):
        assert eval_jet(parse("t^2/2"), 3.0, 0).value == pytest.approx(4.5)

    def test_precedence_unary_minus_vs_pow(self):
        assert parse("-t^2") == Neg(Pow(Var(), Fraction(2)))
        assert eval_jet(parse("-t^2"), 3.0, 0).value == -9.0

    def test_left_associativity(self):
        assert parse("1 - 2 - 3") == BinOp(
            "-", BinOp("-", Const(1.0), Const(2.0)), Const(3.0)
        )
        assert parse("8/4/2") == BinOp(
            "/", BinOp("/", Const(8.0), Const(4.0)), Const(2.0)
        )

    def test_rational_exponent_needs_parens(self):
        assert parse("t^(1/2)") == Pow(Var(), Fraction(1, 2))
        assert parse("t^-2") == Pow(Var(), Fraction(-2))
        assert parse("t^(-3/2)") == Pow(Var(), Fraction(-3, 2))

    @pytest.mark.parametrize("source, expected", [
        # a ')' after the denominator that closes an enclosing call or
        # group does not make the exponent rational
        ("exp(t^3/7)", Call("exp", BinOp("/", Pow(Var(), Fraction(3)),
                                         Const(7.0)))),
        ("(t^3/7)", BinOp("/", Pow(Var(), Fraction(3)), Const(7.0))),
        ("sin(t^3/6)", Call("sin", BinOp("/", Pow(Var(), Fraction(3)),
                                         Const(6.0)))),
        ("(1+t^2/2)", BinOp("+", Const(1.0), BinOp(
            "/", Pow(Var(), Fraction(2)), Const(2.0)))),
        ("t^(1/2)", Pow(Var(), Fraction(1, 2))),
        ("t^(-3/2)", Pow(Var(), Fraction(-3, 2))),
        ("(t^(3/7))", Pow(Var(), Fraction(3, 7))),
    ])
    def test_rational_exponent_only_inside_its_own_parens(self, source,
                                                          expected):
        assert parse(source) == expected
        assert parse(to_source(expected)) == expected

    def test_rational_exponent_needs_integer_denominator(self):
        with pytest.raises(ParseError, match="integer denominator"):
            parse("t^(3/t)")
        with pytest.raises(ParseError, match="zero denominator"):
            parse("t^(3/0)")

    def test_function_requires_parens(self):
        with pytest.raises(ParseError):
            parse("sin t")

    def test_syntax_error_carries_offset(self):
        with pytest.raises(ParseError) as err:
            parse("1 + * 2")
        assert err.value.offset == 4
        assert "expected" in str(err.value)

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier 'x'"):
            parse("x + 1")

    def test_non_literal_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse("t^t")
        with pytest.raises(ParseError):
            parse("t^2.5")


class TestEval:
    def test_flat_exponential(self):
        got = eval_jet(parse("exp(-1/t^2)"), 0.5, 0).value
        assert got == pytest.approx(math.exp(-4.0), rel=1e-12)

    def test_identity_jet(self):
        j = eval_jet(parse("t"), 1.0, 2)
        assert j.coeffs.tolist() == [1.0, 1.0, 0.0]

    def test_quartic_over_24(self):
        got = eval_jet(parse("t^4/24"), 2.0, 0).value
        assert got == pytest.approx(16.0 / 24.0)

    def test_division_by_zero_carries_subexpression(self):
        with pytest.raises(EvalDomainError) as err:
            eval_jet(parse("1/(t-1)"), 1.0, 0)
        assert "t - 1" in str(err.value)

    def test_sqrt_negative(self):
        with pytest.raises(EvalDomainError):
            eval_jet(parse("sqrt(t)"), -1.0, 0)

    def test_fractional_power_of_negative_base(self):
        with pytest.raises(EvalDomainError):
            eval_jet(parse("t^(1/2)"), -1.0, 0)

    @pytest.mark.parametrize("fn", ["sin", "cos"])
    def test_trigonometric_of_infinite_argument(self, fn):
        with pytest.raises(EvalDomainError, match=f"{fn} of a non-finite"):
            eval_jet(parse(f"{fn}(1e300*t*1e300)"), 1.0, 0)

    def test_jet_division_domain_error(self):
        with pytest.raises(EvalDomainError):
            eval_jet(parse("1/t"), 0.0, 3)


# ---------------------------------------------------------------------------
# round-trip and oracle properties


def _random_expr(rng, depth):
    if depth == 0:
        return rng.choice([Var(), Const(float(round(rng.uniform(0, 9), 3)))])
    kind = rng.integers(0, 8)
    if kind <= 1:
        return rng.choice([Var(), Const(float(round(rng.uniform(0, 9), 3)))])
    if kind == 2:
        return Neg(_random_expr(rng, depth - 1))
    if kind == 3:
        fn = rng.choice(["sin", "cos", "exp", "sqrt"])
        return Call(str(fn), _random_expr(rng, depth - 1))
    if kind == 4:
        num = int(rng.integers(-4, 5))
        den = int(rng.integers(1, 4))
        return Pow(_random_expr(rng, depth - 1), Fraction(num, den))
    op = str(rng.choice(["+", "-", "*", "/"]))
    return BinOp(op, _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))


def test_print_parse_roundtrip_on_random_corpus():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        tree = _random_expr(rng, int(rng.integers(1, 7)))
        assert parse(to_source(tree)) == tree


def test_jet_matches_polynomial_shift_oracle():
    rng = np.random.default_rng(11)
    for _ in range(100):
        deg = int(rng.integers(0, 7))
        coeffs = [float(round(c, 6)) for c in rng.uniform(-2, 2, deg + 1)]
        t0 = float(round(rng.uniform(-2, 2), 6))
        src = polynomial_source(coeffs)
        jet = eval_jet(parse(src), t0, deg)
        expect = taylor_shift(coeffs, t0)
        scale = max(1.0, max(abs(x) for x in expect))
        assert all(
            abs(a - b) <= 1e-10 * scale for a, b in zip(jet.coeffs, expect)
        )

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from frontals.jets import (
    Jet,
    JetDomainError,
    constant,
    derivative,
    jet_div,
    jet_elem,
    jet_mul,
    jet_pow,
    variable,
)

coeff = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


def make_jet(coeffs, base=0.0):
    return Jet(base, tuple(coeffs))


class TestArithmetic:
    def test_mul_sin_times_exp(self):
        s = make_jet([0.0, 1.0, 0.0, -1.0 / 6.0])
        e = make_jet([1.0, 1.0, 0.5, 1.0 / 6.0])
        out = jet_mul(s, e)
        assert out.coeffs == pytest.approx((0.0, 1.0, 1.0, 1.0 / 3.0))

    def test_add_zero_identity(self):
        x = make_jet([2.0, -1.0, 0.25])
        zero = constant(0.0, 0.0, 2)
        assert x + zero == x

    def test_div_geometric_series(self):
        out = jet_div(make_jet([1.0, 0.0, 0.0]), make_jet([1.0, 1.0, 0.0]))
        assert out.coeffs == pytest.approx((1.0, -1.0, 1.0))

    def test_div_singular(self):
        with pytest.raises(JetDomainError, match="jet division singular"):
            jet_div(make_jet([1.0, 0.0]), make_jet([0.0, 1.0]))

    def test_base_mismatch(self):
        with pytest.raises(ValueError, match="base"):
            make_jet([1.0, 0.0], base=0.0) + make_jet([1.0, 0.0], base=1.0)


class TestElementary:
    def test_exp_of_identity(self):
        out = jet_elem("exp", variable(0.0, 3))
        assert out.coeffs == pytest.approx((1.0, 1.0, 0.5, 1.0 / 6.0))

    def test_sqrt_binomial(self):
        # sqrt(4 + 4h) = 2 (1 + h)^(1/2) = 2 + h - h^2/4 by binomial series
        out = jet_elem("sqrt", make_jet([4.0, 4.0, 0.0]))
        assert out.coeffs == pytest.approx((2.0, 1.0, -0.25))
        # finite-difference oracle for both derivatives
        h = 1e-6

        def f(x):
            return math.sqrt(4 + 4 * x)

        fd1 = (f(h) - f(-h)) / (2 * h)
        fd2 = (f(h) - 2 * f(0.0) + f(-h)) / (h * h)
        assert derivative(out, 1) == pytest.approx(fd1, rel=1e-9)
        assert derivative(out, 2) == pytest.approx(fd2, rel=1e-3)

    def test_square_power(self):
        out = jet_pow(make_jet([1.0, 1.0, 0.0]), 2)
        assert out.coeffs == pytest.approx((1.0, 2.0, 1.0))

    def test_sqrt_domain(self):
        with pytest.raises(JetDomainError):
            jet_elem("sqrt", make_jet([0.0, 1.0]))
        with pytest.raises(JetDomainError):
            jet_elem("sqrt", make_jet([-1.0, 1.0]))

    def test_rational_power_needs_positive_base(self):
        from fractions import Fraction

        with pytest.raises(JetDomainError):
            jet_pow(make_jet([-2.0, 1.0]), Fraction(1, 2))

    def test_negative_integer_power(self):
        out = jet_pow(make_jet([1.0, 1.0, 0.0]), -1)
        assert out.coeffs == pytest.approx((1.0, -1.0, 1.0))

    def test_monomial_power_at_zero_base(self):
        # integer powers work even with vanishing constant term
        out = jet_pow(variable(0.0, 4), 3)
        assert out.coeffs == pytest.approx((0.0, 0.0, 0.0, 1.0, 0.0))


class TestDerivative:
    def test_second_derivative_of_square(self):
        assert derivative(make_jet([1.0, 2.0, 1.0], base=1.0), 2) == pytest.approx(2.0)

    def test_order_zero_is_value(self):
        j = make_jet([3.25, -1.0, 2.0])
        assert derivative(j, 0) == j.coeffs[0]

    def test_cubic_over_six(self):
        j = make_jet([0.0, 0.0, 0.0, 1.0 / 6.0, 0.0])
        assert derivative(j, 3) == pytest.approx(1.0)

    def test_insufficient_order(self):
        with pytest.raises(ValueError, match="insufficient jet order"):
            derivative(make_jet([1.0, 2.0]), 2)


class TestProperties:
    @given(
        st.lists(coeff, min_size=1, max_size=9),
        st.lists(coeff, min_size=1, max_size=9),
    )
    def test_mul_matches_convolution_oracle(self, ac, bc):
        k = max(len(ac), len(bc)) - 1
        ac = ac + [0.0] * (k + 1 - len(ac))
        bc = bc + [0.0] * (k + 1 - len(bc))
        out = jet_mul(make_jet(ac), make_jet(bc))
        # brute-force truncated convolution
        expect = [
            sum(ac[i] * bc[n - i] for i in range(n + 1)) for n in range(k + 1)
        ]
        scale = max(1.0, max(abs(x) for x in expect))
        assert all(
            abs(x - y) <= 1e-12 * scale for x, y in zip(out.coeffs, expect)
        )

    def test_div_mul_roundtrip(self):
        # b drawn with dominant constant term of magnitude >= 1e-3, the
        # regime in which jets are used here (normalization quotients)
        rng = np.random.default_rng(7)
        for _ in range(500):
            k = int(rng.integers(1, 9))
            a = make_jet(rng.uniform(-1, 1, k + 1))
            b0 = rng.uniform(1e-3, 1.0) * rng.choice([-1.0, 1.0])
            bc = rng.uniform(-1, 1, k + 1) * abs(b0)
            bc[0] = b0
            rec = jet_div(jet_mul(a, make_jet(bc)), make_jet(bc))
            assert max(
                abs(x - y) for x, y in zip(rec.coeffs, a.coeffs)
            ) <= 1e-10

    @pytest.mark.parametrize("t0", [0.0, 0.5, -1.25])
    def test_exp_all_derivatives(self, t0):
        k = 8
        out = jet_elem("exp", variable(t0, k))
        for order in range(k + 1):
            assert abs(derivative(out, order) - math.exp(t0)) <= 1e-10 * math.exp(t0)

    @pytest.mark.parametrize(
        "fn,ref",
        [("sin", math.sin), ("cos", math.cos), ("exp", math.exp),
         ("sqrt", math.sqrt)],
    )
    def test_first_derivative_matches_central_difference(self, fn, ref):
        t0 = 0.7
        h = 1e-5
        out = jet_elem(fn, variable(t0, 2))
        fd = (ref(t0 + h) - ref(t0 - h)) / (2 * h)
        assert derivative(out, 1) == pytest.approx(fd, rel=1e-6)

    def test_power_first_derivative_matches_central_difference(self):
        from fractions import Fraction

        t0, h = 1.3, 1e-5
        out = jet_pow(variable(t0, 2), Fraction(3, 2))
        fd = ((t0 + h) ** 1.5 - (t0 - h) ** 1.5) / (2 * h)
        assert derivative(out, 1) == pytest.approx(fd, rel=1e-6)

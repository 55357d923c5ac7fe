import math
from fractions import Fraction

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
        assert (x + zero).base == x.base
        assert (x + zero).coeffs.tobytes() == x.coeffs.tobytes()

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

    @pytest.mark.parametrize("order", [0, 2])
    def test_power_keeps_the_product_signed_zeros(self, order):
        # binary powering used to start from the constant 1, and 1 * a
        # turned -0.0 into 0.0; the powers stay so, bit for bit
        a = Jet(np.array([0.5, 1.5]), np.array(
            [[-0.0, 2.0], [1.0, -0.0], [-0.0, -0.0]])[:order + 1])
        first = jet_mul(constant(1.0, a.base, order), a)
        assert not np.signbit(first.coeffs).any()
        assert jet_pow(a, 1).coeffs.tobytes() == first.coeffs.tobytes()
        assert jet_pow(a, 3).coeffs.tobytes() == jet_mul(
            first, jet_mul(a, a)).coeffs.tobytes()


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


class TestJetArrays:
    """The jet at node i of a grid jet equals the jet about that base
    point alone, bit for bit."""

    @staticmethod
    def _expressions():
        from frontals.expressions import BinOp, Call, Const, Neg, Pow, Var

        leaves = st.one_of(
            st.just(Var()),
            st.sampled_from([0.0, 0.5, 1.0, -2.0, 3.25]).map(Const),
        )

        def extend(children):
            return st.one_of(
                children.map(Neg),
                st.tuples(st.sampled_from(["sin", "cos", "exp", "sqrt"]),
                          children).map(lambda a: Call(*a)),
                st.tuples(st.sampled_from(list("+-*/")), children,
                          children).map(lambda a: BinOp(*a)),
                st.tuples(children, st.sampled_from(
                    [2, 3, -1, Fraction(1, 2), Fraction(-2, 3)])
                ).map(lambda a: Pow(a[0], Fraction(a[1]))),
            )

        return st.recursive(leaves, extend, max_leaves=6)

    @staticmethod
    def _outcome(fn):
        try:
            return fn()
        except Exception as exc:  # compared as (type, message)
            return (type(exc), str(exc))

    @given(data=st.data())
    def test_eval_matches_scalar_jets(self, data):
        from frontals.expressions import eval_jet

        expr = data.draw(self._expressions())
        order = data.draw(st.integers(0, 5))
        ts = np.array(data.draw(st.lists(
            st.floats(-2.0, 2.0, allow_nan=False), min_size=1, max_size=6)))
        with np.errstate(all="ignore"):
            batch = self._outcome(lambda: eval_jet(expr, ts, order))
        scalar = [self._outcome(lambda t=t: eval_jet(expr, t, order))
                  for t in ts.tolist()]
        failures = [s for s in scalar if isinstance(s, tuple)]
        if isinstance(batch, tuple):
            # the batch stops at the first subexpression failing at any
            # node, which is where that node fails on its own
            assert batch in failures
            return
        assert not failures
        for i, jet in enumerate(scalar):
            assert batch[i].base == jet.base
            assert (np.array(batch[i].coeffs).tobytes()
                    == np.array(jet.coeffs).tobytes())

    @pytest.mark.parametrize("source", [
        "exp(sin(2*t) + 0.125*t^3)",
        "sin(t^2 - 3*t) * cos(exp(t)/3)",
        "sqrt(2 + t^3) / (1.5 + cos(t))",
        "(3 + t*sin(t))^(3/2) - t^5",
        "(2.5 + t^3)^(-2/3) * exp(-t^2)",
    ])
    def test_every_recurrence_on_a_dense_grid(self, source):
        # many nodes and a high order, so a last-bit difference in a
        # constant term or a reordered sum shows up
        from frontals.expressions import eval_jet, parse

        expr = parse(source)
        ts = np.linspace(-1.2, 1.3, 257)
        batch = eval_jet(expr, ts, 7)
        for i, t in enumerate(ts.tolist()):
            jet = eval_jet(expr, t, 7)
            assert (batch.coeffs[:, i].tobytes()
                    == np.array(jet.coeffs).tobytes()), t

    def test_operations_keep_the_node_axis(self):
        ts = np.array([0.25, 0.5, 2.0])
        x = variable(ts, 3)
        out = jet_elem("sin", x) * jet_pow(x, Fraction(3, 2)) - 1.0 / x
        assert out.coeffs.shape == (4, 3)
        for i, t in enumerate(ts):
            s = variable(float(t), 3)
            expect = jet_elem("sin", s) * jet_pow(s, Fraction(3, 2)) - 1.0 / s
            assert out[i].base.shape == ()
            assert out[i].base == expect.base
            assert out[i].coeffs.tobytes() == expect.coeffs.tobytes()

    def test_zero_coefficient_at_some_nodes_is_skipped(self):
        # 0 * inf is nan, so a product must skip a zero coefficient per
        # node exactly as the scalar loop does
        a = Jet(np.array([0.0, 1.0]), np.array([[0.0, 2.0], [1.0, 1.0]]))
        b = Jet(a.base, np.array([[np.inf, 1.0], [1.0, 1.0]]))
        with np.errstate(all="ignore"):
            out = jet_mul(a, b)
        for i in range(2):
            assert (out[i].coeffs.tobytes()
                    == jet_mul(a[i], b[i]).coeffs.tobytes())
        assert out.coeffs[0, 0] == 0.0

    def test_domain_error_has_scalar_message(self):
        x = variable(np.array([1.0, 0.0, 2.0]), 2)
        with pytest.raises(JetDomainError, match="^jet division singular$"):
            jet_div(constant(1.0, x.base, 2), x)
        with pytest.raises(JetDomainError, match="non-positive constant"):
            jet_elem("sqrt", x)

    def test_overflow_at_one_point_gives_inf_without_a_warning(self):
        # d/dt t^-1 = -t^-2 overflows; RuntimeWarnings are errors in tier-1
        from frontals.expressions import eval_jet, parse

        expr = parse("t^-1")
        jet = eval_jet(expr, 6.2e-233, 1)
        assert jet.coeffs.tolist() == [1.0 / 6.2e-233, -math.inf]
        grid = eval_jet(expr, np.array([1.0, 6.2e-233]), 1)
        assert grid[1].coeffs.tobytes() == jet.coeffs.tobytes()

    def test_mixing_point_and_grid_jets_is_rejected(self):
        with pytest.raises(ValueError, match="base"):
            variable(0.5, 2) + variable(np.array([0.5]), 2)

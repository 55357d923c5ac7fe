import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from frontals.errors import MathPreconditionError
from frontals.linalg import (
    DEFAULT_RANK_TOL,
    batched_rank,
    gram_deviation,
    gram_schmidt,
    orthonormal_completion,
    ruled_singular_values,
    singular_value_rank,
)


class TestRuledSingularValues:
    """The closed-form singular values of J = [c, d V] against LAPACK's
    on the assembled matrix."""

    @given(m=st.integers(2, 5), data=st.data(),
           seed=st.integers(0, 2 ** 32 - 1),
           case=st.sampled_from(["generic", "in_span", "zero_c", "zero_d"]),
           log_c=st.floats(-3.0, 3.0), log_d=st.floats(-3.0, 3.0))
    def test_matches_lapack(self, m, data, seed, case, log_c, log_d):
        q = data.draw(st.integers(1, m - 1), label="q")
        rng = np.random.default_rng(seed)
        v = np.linalg.qr(rng.standard_normal((m, q)))[0]
        d = 0.0 if case == "zero_d" else 10.0 ** log_d
        c = 10.0 ** log_c * rng.standard_normal(m)
        if case == "in_span":
            c = v @ (10.0 ** log_c * rng.standard_normal(q))
        elif case == "zero_c":
            c = np.zeros(m)
        jac = np.column_stack([c, d * v])
        expected = np.linalg.svd(jac, compute_uv=False)
        sv = ruled_singular_values(c, v, d)
        assert sv.shape == (1 + q,)
        assert np.isfinite(sv).all()
        assert np.abs(sv - expected).max() <= 1e-14 * expected[0]
        # ranks agree unless a singular value sits near the threshold
        smax = expected[0]
        thresh = DEFAULT_RANK_TOL if smax < DEFAULT_RANK_TOL \
            else DEFAULT_RANK_TOL * smax
        if not ((expected > 0.5 * thresh) & (expected < 2.0 * thresh)).any():
            assert singular_value_rank(sv) == batched_rank(jac)

    def test_broadcast_stack(self):
        # one V per row, shared by every column of the stack, and a scale
        # per row that is 0 (a cusp of a derivative ruling) on one row
        rng = np.random.default_rng(7)
        v = np.linalg.qr(rng.standard_normal((6, 4, 2)))[0][:, None]
        c = rng.standard_normal((6, 5, 4))
        c[2, 3] = 0.0
        d = np.array([1.0, 0.0, 2.0, 0.5, 3.0, 1e-200])[:, None]
        jac = np.concatenate([c[..., None], np.broadcast_to(
            d[..., None, None] * v, c.shape + (2,))], axis=-1)
        sv = ruled_singular_values(c, v, d)
        expected = np.linalg.svd(jac, compute_uv=False)
        assert np.isfinite(sv).all()
        assert np.abs(sv - expected).max() <= 1e-14 * expected.max()
        assert (singular_value_rank(sv) == batched_rank(jac)).all()
        assert (singular_value_rank(sv)[1] <= 1).all()

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_extreme_scales(self, scale):
        # every matrix is scaled to largest entry 1 before any square
        c = scale * np.array([3.0, 4.0, 0.0])
        v = np.array([[0.0], [0.0], [1.0]])
        assert ruled_singular_values(c, v, scale) == pytest.approx(
            [5.0 * scale, scale], rel=1e-15)

    @pytest.mark.parametrize("v", [
        [[1.0, 0.0], [0.0, 1.001], [0.0, 0.0]],
        [[1.0, 1.0], [0.0, 0.0], [0.0, 1.0]],
        [[np.nan], [0.0], [1.0]],
    ], ids=["long", "skew", "nan"])
    def test_non_orthonormal_rulings_raise(self, v):
        with pytest.raises(MathPreconditionError, match="orthonormal"):
            ruled_singular_values(np.ones(3), np.array(v), 1.0)


class TestGramSchmidt:
    def test_completion_orthonormal_after_cancellation(self):
        # e_2 keeps a residual of 2.5e-6 against this tau, just above the
        # pivot tolerance; the second projection pass removes what the
        # first one's cancellation left
        tau = np.array([1.0, 2.5e-6, 1e-8])
        tau /= np.linalg.norm(tau)
        rows = np.array([tau, *orthonormal_completion([tau], 3, 2)])
        assert np.abs(rows @ rows.T - np.eye(3)).max() <= 1e-15

    @pytest.mark.parametrize("r, m, dim", [
        (0, 1, 3), (1, 1, 3), (2, 1, 3), (0, 3, 3), (1, 2, 3),
        (0, 4, 4), (1, 3, 4), (2, 2, 4), (2, 1, 4),
    ])
    def test_matches_lapack_qr(self, r, m, dim):
        # the rows of Q^T, with each column of Q signed so that diag R is
        # positive, are the Gram-Schmidt rows of the same input
        rng = np.random.default_rng(100 * r + 10 * m + dim)
        rows = rng.standard_normal((6, 5, r + m, dim))
        q, rr = np.linalg.qr(np.swapaxes(rows, -1, -2))
        q *= np.sign(np.diagonal(rr, axis1=-2, axis2=-1))[..., None, :]
        expected = np.swapaxes(q, -1, -2)
        got = gram_schmidt(rows[..., r:, :], expected[..., :r, :], 1e-6)
        assert got.shape == (6, 5, m, dim)
        assert np.abs(got - expected[..., r:, :]).max() <= 1e-13
        full = np.concatenate([expected[..., :r, :], got], axis=-2)
        assert gram_deviation(full).max() <= 1e-15

    def test_broadcasts_one_basis_over_a_stack(self):
        rng = np.random.default_rng(3)
        basis = np.array([[0.0, 0.6, 0.8]])
        rows = rng.standard_normal((7, 2, 3))
        got = gram_schmidt(rows, basis, 0.0)
        each = [gram_schmidt(v, basis, 0.0) for v in rows]
        assert np.array_equal(got, np.array(each))

    @pytest.mark.parametrize("pivot_tol, kept", [(1e-6, 2e-6), (0.0, 1e-100)])
    def test_dependent_rows_are_zero_and_order_kept(self, pivot_tol, kept):
        # rows 1 and 3 lie within the tolerance of row 0's span, row 2 just
        # outside it; later rows keep their places
        e = np.eye(4)
        rows = np.array([e[1], e[1], e[1] + kept * e[3],
                         e[1] + 0.5 * pivot_tol * e[2], e[2], e[0]])
        got = gram_schmidt(rows, np.zeros((0, 4)), pivot_tol)
        assert np.array_equal(got, [e[1], 0 * e[1], e[3], 0 * e[1], e[2],
                                    e[0]])

    def test_non_finite_row_stays_non_finite(self):
        rows = np.array([[np.nan, 0.0, 0.0], [0.0, 1.0, 0.0]])
        got = gram_schmidt(rows, np.zeros((0, 3)), 0.0)
        assert np.isnan(got).all()
        assert np.isnan(gram_deviation(got))


def test_gram_deviation_per_stack():
    rows = np.stack([np.eye(3), np.diag([1.0, 1.0, 1.0 + 2e-9]),
                     [[1.0, 0, 0], [0, 1.0, 0], [1e-7, 0, 1.0]]])
    assert gram_deviation(rows) == pytest.approx([0.0, 4e-9, 1e-7],
                                                 rel=1e-6)

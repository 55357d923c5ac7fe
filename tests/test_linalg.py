import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from frontals.errors import MathPreconditionError
from frontals.linalg import (
    DEFAULT_RANK_TOL,
    batched_rank,
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

"""Small numerical linear-algebra helpers: tolerance-based ranks,
closed-form singular values of ruled Jacobians, and the stacked
Gram-Schmidt and Gram check of every orthonormal frame."""

from __future__ import annotations

import numpy as np

from .errors import MathPreconditionError

DEFAULT_RANK_TOL = 1e-9
#: largest |V^T V - I| entry of ruling columns taken as orthonormal
_RULING_ORTHO_TOL = 1e-12
_COMPLETION_PIVOT_TOL = 1e-6


def singular_value_rank(sv: np.ndarray, tol: float = DEFAULT_RANK_TOL,
                        smax=None) -> np.ndarray:
    """Ranks from a stack of singular values, largest first along the
    last axis: the number above ``tol * smax``, or above ``tol`` itself
    where ``smax < tol`` (a numerically zero matrix).

    ``smax`` is the scale per matrix, broadcastable to the stack shape;
    by default each matrix's own largest singular value.
    """
    if smax is None:
        smax = sv[..., 0]
    thresh = np.where(smax < tol, tol, tol * smax)
    return (sv > thresh[..., None]).sum(axis=-1)


def batched_rank(mats: np.ndarray, tol: float = DEFAULT_RANK_TOL,
                 smax=None) -> np.ndarray:
    """Ranks of a stack of matrices with shape (..., m, n), by
    :func:`singular_value_rank` of their singular values."""
    sv = np.linalg.svd(np.asarray(mats, dtype=float), compute_uv=False)
    return singular_value_rank(sv, tol, smax)


def ruled_singular_values(c: np.ndarray, v: np.ndarray,
                          d=1.0) -> np.ndarray:
    """Singular values, largest first, of the matrices J = [c, d V]: a
    column c (..., m), q orthonormal columns V (..., m, q) and a scale
    d >= 0 (...), all broadcast together. Returns (..., 1 + q).

    With c_par = V^T c and c_perp = c - V c_par, J^T J has the
    eigenvalue d^2 (q - 1 times) on the span of V orthogonal to c_par,
    and its remaining 2x2 block has trace |c|^2 + d^2 and determinant
    d^2 |c_perp|^2 (Golub & Van Loan, Matrix Computations, 4th ed.,
    §8.5), so sigma_max^2 = (|c|^2 + d^2 + sqrt((|c|^2 - d^2)^2
    + 4 d^2 |c_par|^2)) / 2 and sigma_min = d |c_perp| / sigma_max.
    The projections are divided by each matrix's largest entry before
    any square, so no square overflows or underflows; a singular value
    past the float range is inf, and one of a non-finite J is nan.
    Columns V further than ``_RULING_ORTHO_TOL`` from orthonormal raise
    :class:`MathPreconditionError`.
    """
    v = np.asarray(v, dtype=float)
    deviation = gram_deviation(np.swapaxes(v, -1, -2)).max()
    if not deviation <= _RULING_ORTHO_TOL:
        raise MathPreconditionError(
            f"ruling columns deviate from orthonormal by {deviation:.3e} "
            f"(tolerance {_RULING_ORTHO_TOL:g})")
    scale = np.maximum(np.abs(c).max(axis=-1), d)
    scale = np.where(scale > 0.0, scale, 1.0)  # J = 0 keeps its zeros
    c_par = c[..., None, :] @ v  # (..., 1, q)
    c_perp = (c_par @ np.swapaxes(v, -1, -2))[..., 0, :]
    np.subtract(c, c_perp, out=c_perp)
    c_par /= scale[..., None, None]
    c_perp /= scale[..., None]
    d = d / scale
    pp = np.einsum("...q,...q->...", c_par[..., 0, :], c_par[..., 0, :])
    ee = np.einsum("...m,...m->...", c_perp, c_perp)
    cc, dd = pp + ee, d * d  # |c|^2 by Pythagoras
    smax = np.sqrt(0.5 * (cc + dd + np.sqrt((cc - dd) ** 2 + 4.0 * dd * pp)))
    smin = d * np.sqrt(ee)
    smin /= np.where(smax > 0.0, smax, 1.0)
    d = np.broadcast_to(d, smax.shape)
    with np.errstate(over="ignore"):  # a norm past the float range is inf
        return scale[..., None] * np.stack(
            [smax, *[d] * (v.shape[-1] - 1), smin], -1)


def gram_deviation(rows: np.ndarray) -> np.ndarray:
    """Largest |G - I| of the Gram matrix G of each stack of rows."""
    g = np.einsum("...id,...jd->...ij", rows, rows)
    return np.abs(g - np.eye(rows.shape[-2])).max(axis=(-2, -1))


def project_off(vectors, rows) -> np.ndarray:
    """``vectors`` (..., m, dim) less their parts along the orthonormal or
    zero ``rows`` (..., r, dim): one classical Gram-Schmidt pass."""
    coeffs = np.einsum("...md,...rd->...mr", vectors, rows)
    return vectors - np.einsum("...mr,...rd->...md", coeffs, rows)


def gram_schmidt(vectors, against, pivot_tol: float) -> np.ndarray:
    """Orthonormalize the rows of ``vectors`` (..., m, dim) in order
    against the orthonormal rows ``against`` (..., r, dim) and each
    other, stacks broadcast together. Each row is projected twice, which
    leaves it orthogonal to the basis to rounding however much the first
    pass cancelled ("twice is enough": Giraud, Langou & Rozloznik,
    Comput. Math. Appl. 50, 2005). A row left no longer than ``pivot_tol``
    becomes a zero row and a nan row stays nan. Norms are not rescaled:
    rows shorter than about 1e-154, whose squares underflow, lose accuracy.
    """
    vectors = np.asarray(vectors, dtype=float)
    basis = np.asarray(against, dtype=float)
    for j in range(vectors.shape[-2]):
        w = project_off(project_off(vectors[..., j:j + 1, :], basis), basis)
        norm = np.sqrt(np.einsum("...d,...d->...", w, w))[..., None]
        w = np.divide(w, norm, out=np.zeros_like(w),
                      where=~(norm <= pivot_tol))
        basis = np.concatenate(
            [np.broadcast_to(basis, w.shape[:-2] + basis.shape[-2:]), w], -2)
    return basis[..., np.shape(against)[-2]:, :]


def orthonormal_completion(against, dim: int, count: int) -> np.ndarray:
    """The first ``count`` standard-basis vectors that Gram-Schmidt against
    ``against`` leaves longer than ``_COMPLETION_PIVOT_TOL``, normalized."""
    rows = gram_schmidt(np.eye(dim), np.reshape(against, (-1, dim)),
                        _COMPLETION_PIVOT_TOL)
    survivors = rows[(rows != 0.0).any(axis=-1)]
    if len(survivors) < count:
        raise ValueError("could not complete an orthonormal frame")
    return survivors[:count]

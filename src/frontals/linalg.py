"""Small numerical linear-algebra helpers: tolerance-based ranks,
Gram-Schmidt with pivoting, principal angles, singular-box search."""

from __future__ import annotations

import numpy as np

DEFAULT_RANK_TOL = 1e-9


def batched_rank(mats: np.ndarray, tol: float = DEFAULT_RANK_TOL,
                 smax=None) -> np.ndarray:
    """Ranks of a stack of matrices with shape (..., m, n): the number of
    singular values above ``tol * smax``, or above ``tol`` itself where
    ``smax < tol`` (a numerically zero matrix).

    ``smax`` is the scale per matrix, broadcastable to the stack shape;
    by default each matrix's own largest singular value.
    """
    sv = np.linalg.svd(np.asarray(mats, dtype=float), compute_uv=False)
    if smax is None:
        smax = sv.max(axis=-1)
    thresh = np.where(smax < tol, tol, tol * smax)
    return (sv > thresh[..., None]).sum(axis=-1)


def gram_schmidt(vectors, against=(), pivot_tol: float = 1e-6):
    """Orthonormalize ``vectors`` against ``against`` and each other.

    Vectors whose residual after projection falls below pivot_tol are
    skipped; the survivors are returned in input order.
    """
    basis = [np.asarray(a, dtype=float) for a in against]
    out = []
    for v in vectors:
        w = np.asarray(v, dtype=float).copy()
        for b in basis:
            w -= np.dot(w, b) * b
        norm = np.linalg.norm(w)
        if norm > pivot_tol:
            w /= norm
            basis.append(w)
            out.append(w)
    return out


def orthonormal_completion(against, dim: int, count: int, pivot_tol: float = 1e-6):
    """First ``count`` standard-basis vectors orthonormalized against
    ``against`` (deterministic canonical completion)."""
    survivors = gram_schmidt(np.eye(dim), against=against, pivot_tol=pivot_tol)
    if len(survivors) < count:
        raise ValueError("could not complete an orthonormal frame")
    return survivors[:count]


def orthonormal_column_basis(columns: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column space (via reduced QR)."""
    q, r = np.linalg.qr(np.asarray(columns, dtype=float))
    keep = np.abs(np.diag(r)) > 1e-12 * max(1.0, np.abs(r).max())
    return q[:, keep]


def principal_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Principal angles between the column spaces of a and b."""
    qa = orthonormal_column_basis(a)
    qb = orthonormal_column_basis(b)
    sv = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return np.arccos(np.clip(sv, -1.0, 1.0))


def largest_true_box_2d(mask: np.ndarray):
    """Largest axis-aligned all-True rectangle of a 2-d boolean mask.

    Returns ``(area, (i0, i1, j0, j1))`` with half-open index bounds, or
    ``(0, None)`` when the mask has no True entry. Standard
    largest-rectangle-in-histogram sweep, O(rows * cols).
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValueError("mask must be 2-d")
    rows, cols = mask.shape
    heights = np.zeros(cols, dtype=int)
    best_area, best_box = 0, None
    for i in range(rows):
        heights = np.where(mask[i], heights + 1, 0)
        stack = []  # (start_col, height)
        for j in range(cols + 1):
            h = heights[j] if j < cols else 0
            start = j
            while stack and stack[-1][1] >= h:
                s, sh = stack.pop()
                area = sh * (j - s)
                if area > best_area:
                    best_area = area
                    best_box = (i - sh + 1, i + 1, s, j)
                start = s
            if not stack or h > 0:
                stack.append((start, h))
    return best_area, best_box

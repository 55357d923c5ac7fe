"""Numeric frontality analysis of parametric curves.

Decides (numerically) whether a curve admits a smooth tangent line field
across its singular points, via the rank growth of the matrix of
derivative columns, and produces that tangent field. At points where the
velocity vanishes the tangent direction is recovered structurally from
the jet of the velocity: the leading nonzero coefficient vector of
``f'(t0 + h)`` spans the limiting tangent line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import Curve
from .errors import (
    InflectionError,
    MathPreconditionError,
    TangentUndeterminedError,
)
from .jets import Jet, JetDomainError, derivative, jet_div, jet_mul, jet_sqrt
from .linalg import (
    DEFAULT_RANK_TOL,
    batched_rank,
    largest_true_box_2d,
    matrix_rank,
    rank_from_singular_values,
)

#: velocity norm below which the structural jet extension is used
SINGULAR_SPEED = 1e-6

#: relative threshold for treating a jet coefficient vector as zero
_COEFF_DROP = 1e-9

DEFAULT_K_MAX = 8


def derivative_jets(jets: list) -> list:
    """Formal derivative of each component jet, lowering the order."""
    return [
        Jet(j.base, tuple((k + 1) * j.coeffs[k + 1] for k in range(j.order))
            or (0.0,))
        for j in jets
    ]


def _normalize_jet_vector(jets: list):
    """(unit jets, norm jet) of a jet vector; MathPreconditionError when
    the jets or their squares overflow double precision."""
    s2 = None
    for j in jets:
        q = jet_mul(j, j)
        s2 = q if s2 is None else s2 + q
    norm = jet_sqrt(s2)
    unit = [jet_div(j, norm) for j in jets]
    if not all(math.isfinite(c) for j in unit + [norm] for c in j.coeffs):
        raise MathPreconditionError(
            f"jets at t={norm.base} overflow double precision"
        )
    return unit, norm


def leading_unit_jets(jets: list, order: int):
    """Unit jets, to the given order, of a jet vector with the leading
    power of ``t - base`` divided out: the first coefficient vector above
    ``_COEFF_DROP`` times the largest one becomes the value. Returns None
    when every coefficient vanishes."""
    coeffs = np.array([j.coeffs for j in jets]).T
    norms = np.linalg.norm(coeffs, axis=1)
    scale = norms.max()
    if scale == 0.0:
        return None
    m = int(np.argmax(norms > _COEFF_DROP * scale))
    shifted = [Jet(j.base, j.coeffs[m:m + order + 1]) for j in jets]
    return _normalize_jet_vector(shifted)[0]


@dataclass(frozen=True)
class TangentData:
    """Derivative data of a curve at one parameter value.

    ``tau`` is the unit tangent representative and ``tau_p`` its
    t-derivative; ``kappa = |tau'|`` and ``mu = tau'/kappa``, with
    derivative ``mu_p``. Taking kappa nonnegative resolves the
    (mu, kappa, ells) -> (-mu, -kappa, -ells) ambiguity throughout the
    package. Where tau' vanishes exactly, ``kappa`` is 0.0 and
    ``mu``/``mu_p`` are None; read them through :meth:`normal`, which
    raises :class:`InflectionError` there.
    """

    t: float
    fprime: np.ndarray
    fsecond: np.ndarray
    tau: np.ndarray
    tau_p: np.ndarray
    kappa: float
    mu: np.ndarray | None
    mu_p: np.ndarray | None

    def normal(self):
        """(mu, mu') at t; InflectionError where tau' vanishes."""
        if self.mu is None:
            raise InflectionError(
                f"inflection point in range: |tau'| = 0 at t={self.t}"
            )
        return self.mu, self.mu_p


def _values(jets: list) -> np.ndarray:
    return np.array([j.value for j in jets])


class TangentEvaluator:
    """Pointwise jets of a curve's unit tangent line field.

    The representative returned at each query is normalized from the
    leading jet coefficient of the velocity; pass ``ref`` to align its
    sign with a neighbouring sample.
    """

    def __init__(self, curve: Curve, k_max: int = DEFAULT_K_MAX):
        self.curve = curve
        self.k_max = k_max

    def tau_jet_vec(self, t: float, order: int, ref=None, vel=None) -> list:
        """Jets of the unit tangent representative, to the given order.

        ``vel`` may pass the velocity jets at t, of the same order, when
        the caller has already evaluated them.
        """
        if vel is None:
            vel = derivative_jets(self.curve.jets(t, order + 1))
        if math.hypot(*(j.value for j in vel)) >= SINGULAR_SPEED:
            tau, _ = _normalize_jet_vector(vel)
        else:
            deep = order + self.k_max
            tau = leading_unit_jets(
                derivative_jets(self.curve.jets(t, deep + 1)), order
            )
            if tau is None:
                raise TangentUndeterminedError(
                    f"tangent line undetermined at t={t}: all velocity jets "
                    f"vanish up to order {deep}"
                )
        if ref is not None and np.dot(_values(tau), np.asarray(ref)) < 0.0:
            tau = [-j for j in tau]
        return tau

    def at(self, t: float, ref=None) -> TangentData:
        """All derivative data at t from one order-3 evaluation of the
        curve's jets (plus the deeper one at a singular-speed node)."""
        vel = derivative_jets(self.curve.jets(t, 3))
        tau = self.tau_jet_vec(t, 2, ref, vel)
        tau_p = derivative_jets(tau)
        try:
            mu_jets, norm = _normalize_jet_vector(tau_p)
        except JetDomainError:  # tau' = 0 exactly
            kappa, mu, mu_p = 0.0, None, None
        else:
            kappa, mu = norm.value, _values(mu_jets)
            mu_p = _values(derivative_jets(mu_jets))
        return TangentData(t, _values(vel), _values(derivative_jets(vel)),
                           _values(tau), _values(tau_p), kappa, mu, mu_p)


# ---------------------------------------------------------------------------
# Wronskian-style rank analysis


@dataclass(frozen=True)
class WronskianReport:
    """Rank growth of the derivative-column matrix at one parameter value."""

    t0: float
    ranks: tuple
    a1: int | None
    a2: int | None
    frontal_sufficient: bool


def wronskian_matrix(curve: Curve, t0: float, k: int) -> np.ndarray:
    """(dim x k) matrix whose j-th column is the (j+1)-th derivative."""
    jets = curve.jets(t0, k)
    cols = [
        [derivative(j, order) for j in jets] for order in range(1, k + 1)
    ]
    matrix = np.array(cols).T
    if not np.isfinite(matrix).all():
        raise MathPreconditionError(
            f"derivatives at t={t0} overflow double precision"
        )
    return matrix


def wronskian_rank(curve: Curve, t0: float, k: int,
                   tol: float = DEFAULT_RANK_TOL) -> int:
    if k < 1:
        raise ValueError("k must be >= 1")
    return matrix_rank(wronskian_matrix(curve, t0, k), tol)


def contact_orders(curve: Curve, t0: float, k_max: int = DEFAULT_K_MAX,
                   tol: float = DEFAULT_RANK_TOL) -> WronskianReport:
    """Rank profile and the first orders at which rank 1 and 2 are attained.

    When the ranks never reach 2 up to ``k_max`` the report is
    inconclusive (``frontal_sufficient`` is False); there is no universal
    recipe for how large ``k_max`` must be.
    """
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    full = wronskian_matrix(curve, t0, k_max)
    sv_full = np.linalg.svd(full, compute_uv=False)
    scale = sv_full.max() if sv_full.size else 0.0
    ranks = []
    for k in range(1, k_max + 1):
        sub = full[:, :k]
        sv = np.linalg.svd(sub, compute_uv=False)
        # rank thresholds are taken relative to the full matrix so a tiny
        # leading column does not count as rank 1 on its own
        if scale < tol:
            ranks.append(rank_from_singular_values(sv, tol))
        else:
            ranks.append(int(np.count_nonzero(sv > tol * scale)))
    a1 = next((k for k, r in zip(range(1, k_max + 1), ranks) if r >= 1), None)
    a2 = next((k for k, r in zip(range(1, k_max + 1), ranks) if r >= 2), None)
    return WronskianReport(
        t0=float(t0),
        ranks=tuple(int(r) for r in ranks),
        a1=a1,
        a2=a2,
        frontal_sufficient=a2 is not None,
    )


# ---------------------------------------------------------------------------
# Unit tangent line field


@dataclass(frozen=True)
class TangentField:
    """Sampled continuous representative of the tangent line field.

    ``sign_flips`` lists grid indices where the raw (leading-coefficient)
    representative had to be negated to keep the sampled field
    continuous; a nonempty list on a curve with singular points means no
    globally raw-oriented representative exists there.
    """

    curve: Curve
    grid: np.ndarray
    tau: np.ndarray
    sign_flips: tuple
    sign_convention: str

    def __post_init__(self):
        if self.tau.shape != (len(self.grid), self.curve.dim):
            raise ValueError("tangent field shape mismatch")


def unit_tangent(curve: Curve, grid, k_max: int = DEFAULT_K_MAX) -> TangentField:
    """Sample the unit tangent, chaining signs from the leftmost point."""
    grid = np.asarray(grid, dtype=float)
    ev = TangentEvaluator(curve, k_max=k_max)
    taus = np.empty((len(grid), curve.dim))
    flips = []
    prev_raw = None
    sign = 1.0
    for i, t in enumerate(grid):
        raw = _values(ev.tau_jet_vec(t, 0))
        if prev_raw is not None and float(np.dot(raw, prev_raw)) < 0.0:
            sign = -sign
            flips.append(i)
        prev_raw = raw
        taus[i] = sign * raw
    return TangentField(
        curve=curve,
        grid=grid,
        tau=taus,
        sign_flips=tuple(flips),
        sign_convention=(
            "leading jet coefficient at the leftmost grid point, then "
            "chained so consecutive samples have positive inner product"
        ),
    )


# ---------------------------------------------------------------------------
# Properness sampling


@dataclass(frozen=True)
class PropernessReport:
    singular_count: int
    total_count: int
    singular_fraction: float
    largest_box: tuple | None
    largest_box_shape: tuple | None
    has_full_dim_singular_block: bool
    proper_estimate: bool


def _has_full_dim_block(mask: np.ndarray) -> bool:
    """True when some 2x...x2 window is entirely singular."""
    if mask.size == 0 or not mask.any():
        return False
    window = mask
    for axis in range(mask.ndim):
        if window.shape[axis] < 2:
            return False
        n = window.shape[axis]
        window = np.logical_and(
            np.take(window, range(0, n - 1), axis=axis),
            np.take(window, range(1, n), axis=axis),
        )
    return bool(window.any())


def properness_scan(surface_grid) -> PropernessReport:
    """Sampling surrogate for properness of a ruled map.

    The map is judged "proper" at this sampling resolution when the
    singular nodes have fraction < 1 and do not contain a full-dimensional
    block (interior points of the singular locus would produce one).
    """
    mask = np.asarray(surface_grid.singular_flag, dtype=bool)
    total = mask.size
    count = int(mask.sum())
    if count == 0:
        box, shape = None, None
    elif mask.ndim == 2:
        _, box = largest_true_box_2d(mask)
        shape = (box[1] - box[0], box[3] - box[2]) if box else None
    else:
        box, shape = None, None  # exact box search implemented for 2-d grids
    full_dim = _has_full_dim_block(mask)
    return PropernessReport(
        singular_count=count,
        total_count=total,
        singular_fraction=count / total if total else 0.0,
        largest_box=box,
        largest_box_shape=shape,
        has_full_dim_singular_block=full_dim,
        proper_estimate=(count < total) and not full_dim,
    )

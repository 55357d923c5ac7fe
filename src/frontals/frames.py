"""Moving frames along frontal curves.

Two distinct parallel transports live here and must not be confused:

* :func:`bishop_transport` integrates ``nu' = -(nu . tau') tau``, the
  rotation-minimizing (Bishop) transport of the *curve's* normal bundle.
  It takes p = dim - 1 initial vectors.
* :func:`adapted_frame` transports p - 1 vectors parallel along the
  *tangent surface*: their derivative is constrained to span{tau, mu},
  which reduces to ``nu_i' = -(nu_i . mu') mu`` because the tau-component
  vanishes identically (nu_i is orthogonal to mu and tau' is parallel to
  mu).

Both are the linear system ``y' = y M`` with ``M = -b a^T``, where
(a, b) is (tau, tau') or (mu, mu'), integrated by classical fourth-order
Runge-Kutta on the supplied grid.

A grid is evaluated once: :func:`grid_record` makes one
:meth:`TangentEvaluator.at` call over the grid nodes and the step
midpoints and chains their signs, and the :class:`GridRecord` it returns
is read by everything built on that grid: both transports (forward or
reverse), the adapted frame, the invariants, the structure residuals
and the surfaces. Batched matrix products turn its node and midpoint
rows into every step's matrix ``P_n`` (one step is ``y -> y P_n``). The
chained products give the raw fields, one stacked QR renormalizes them
against every node's basis, and one batched Gram check rejects a grid
whose step drift exceeds the limit. The same ``M`` gives the fields'
exact derivatives at the nodes, their off-grid values by short RK4
steps, and, as the coefficients ``nu_i . b``, the invariants ell_i and
kappa_i.

Tangent and frame derivatives come from jets of the curve (exact at the
evaluation points), not from grid differencing; only fields that exist
purely as ODE samples are ever differentiated by finite differences
(elsewhere in the package). Reductions over the dim axis run over the
whole grid at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import Curve
from .errors import GridTooCoarseError, InflectionError, MathPreconditionError
from .frontal import (
    TangentData,
    TangentEvaluator,
    chain_signs,
    derivative_jets,
    leading_unit_jets,
    unit_tangent,
)
from .jets import Jet, jet_mul
from .linalg import orthonormal_completion

# stays bound in this module, where the benchmark harness's tests look it up
unit_tangent = unit_tangent

_SEED_ORTHO_TOL = 1e-10
_DRIFT_LIMIT = 1e-3
DEFAULT_INFLECTION_REL_TOL = 1e-6


def _connection(mode: str, d: TangentData):
    """(M, b, basis) of a transport over an array record: the fields obey
    ``y' = y M`` with ``M = -b a^T``, that is ``y' = -(y . b) a``, and
    stay orthogonal to the basis rows, shape (N, r, dim)."""
    if mode == "curve_normal":
        a, b, basis = d.tau, d.tau_p, [d.tau]
    elif mode == "surface_normal":
        a, b = d.normal()
        basis = [d.tau, a]
    else:
        raise ValueError(f"unknown transport mode {mode!r}")
    return -b[:, :, None] * a[:, None, :], b, np.stack(basis, axis=1)


def _step_matrices(h, m0, mm, m1) -> np.ndarray:
    """RK4 step matrices ``P`` (one step is ``y -> y @ P``) of steps of
    length h from the connection matrices at their start, middle and
    end."""
    h = h[:, None, None]
    k2 = mm + 0.5 * h * (m0 @ mm)
    k3 = mm + 0.5 * h * (k2 @ mm)
    k4 = m1 + h * (k3 @ m1)
    return np.eye(m0.shape[-1]) + (h / 6.0) * (m0 + 2.0 * k2 + 2.0 * k3 + k4)


@dataclass(frozen=True)
class GridRecord:
    """Tangent data of a grid from one evaluation, read by everything
    built on it: the rows of the grid nodes and of the midpoint
    ``t_n + h_n/2`` of every RK4 step between them."""

    curve: Curve
    grid: np.ndarray
    nodes: TangentData  # N rows, signs chained as by unit_tangent
    mids: TangentData  # N - 1 rows, signs referred to the step's start


def grid_record(curve: Curve, grid) -> GridRecord:
    """The grid's record from one :meth:`TangentEvaluator.at` call over
    the nodes and step midpoints, its node signs chained as by
    :func:`unit_tangent` and each midpoint aligned with its step's start."""
    grid = np.asarray(grid, dtype=float)
    points = np.empty(2 * len(grid) - 1)
    points[0::2] = grid
    points[1::2] = grid[:-1] + 0.5 * np.diff(grid)
    data = TangentEvaluator(curve).at(points)
    refs = np.repeat(chain_signs(data.tau[0::2])[0], 2, axis=0)[:-1]
    data = data.aligned(refs)
    return GridRecord(curve, grid, data[0::2], data[1::2])


@dataclass
class ParallelFields:
    """Sampled parallel normal fields produced by a frame transport, with
    the record of the grid they were transported on."""

    vectors: np.ndarray  # (n_fields, n_samples, dim)
    record: GridRecord
    mode: str  # "curve_normal" | "surface_normal"
    gram_drift_max: float
    final_gram_dev: float

    curve = property(lambda self: self.record.curve)
    grid = property(lambda self: self.record.grid)

    @property
    def n_fields(self) -> int:
        return self.vectors.shape[0]

    def field_derivatives(self) -> np.ndarray:
        """Exact ODE right-hand side at the grid nodes for every field.
        Returns shape (n_fields, n_samples, dim)."""
        m = _connection(self.mode, self.record.nodes)[0]
        return np.einsum("fnk,nkj->fnj", self.vectors, m)

    def eval_at(self, ts) -> np.ndarray:
        """Evaluate the fields off-grid by a short RK4 step from the
        nearest node. Returns shape (n_fields, len(ts), dim)."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        nearest = np.argmin(np.abs(self.grid[None, :] - ts[:, None]), axis=1)
        t0 = self.grid[nearest]
        h = ts - t0
        off = np.flatnonzero(h != 0.0)
        # start, middle and end of every step, in the order the steps run
        points = np.stack([t0[off], t0[off] + 0.5 * h[off],
                           t0[off] + h[off]], axis=1).ravel()
        refs = np.repeat(self.record.nodes.tau[nearest[off]], 3, axis=0)
        data = TangentEvaluator(self.curve).at(points).aligned(refs)
        m = _connection(self.mode, data)[0]
        out = self.vectors[:, nearest, :]
        steps = _step_matrices(h[off], m[0::3], m[1::3], m[2::3])
        out[:, off, :] = np.einsum("fnk,nkj->fnj", out[:, off, :], steps)
        return out


def _gram_deviation(rows: np.ndarray) -> np.ndarray:
    """Largest |G - I| of each Gram matrix of a stack of rows (..., r, dim)."""
    g = rows @ np.swapaxes(rows, -1, -2)
    return np.abs(g - np.eye(rows.shape[-2])).max(axis=(-2, -1))


def _transport(record: GridRecord, seeds, mode, renormalize,
               reverse) -> ParallelFields:
    """RK4 transport of orthonormal seeds over the record's steps, run
    backwards if ``reverse``: the step products give the raw fields, one
    stacked QR projects them against each node's basis if ``renormalize``,
    and the grid is rejected at the first step that moves its start fields
    off orthonormal by more than the drift limit."""
    grid = record.grid
    m, _, basis = _connection(mode, record.nodes)
    m_mid = _connection(mode, record.mids)[0]
    h = np.diff(grid)
    order = np.arange(len(grid))
    if reverse:
        order = order[::-1]
        steps = _step_matrices(-h, m[1:], m_mid, m[:-1])[::-1]
    else:
        steps = _step_matrices(h, m[:-1], m_mid, m[1:])
    basis = basis[order]
    if _gram_deviation(basis[0]).max() > _SEED_ORTHO_TOL:
        nodes, start = record.nodes, order[0]
        raise MathPreconditionError(
            f"frame at the start point t={float(grid[start])} is not "
            f"orthonormal to {_SEED_ORTHO_TOL:g}: kappa = "
            f"{float(nodes.kappa[start]):.3e}, |tau . mu| = "
            f"{abs(float(nodes.tau[start] @ nodes.mu[start])):.3e}"
        )
    y = np.atleast_2d(np.asarray(seeds, dtype=float))
    if _gram_deviation(np.concatenate([basis[0], y])).max() > _SEED_ORTHO_TOL:
        raise ValueError(
            f"initial {mode.replace('_', '-')} vectors must be orthonormal "
            f"and orthogonal to the frame at the start point (tolerance "
            f"{_SEED_ORTHO_TOL:g})"
        )
    vectors = np.empty((len(grid),) + y.shape)  # in step order
    vectors[0] = y
    for n, step in enumerate(steps):
        vectors[n + 1] = vectors[n] @ step
    if renormalize:
        q, r = np.linalg.qr(np.concatenate([basis, vectors], 1).swapaxes(1, 2))
        # diag R signs the columns; a vanished one is zeroed and fails below
        q *= np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
        vectors = q[:, :, basis.shape[1]:].swapaxes(1, 2)
    drift = _gram_deviation(np.concatenate([basis[1:], vectors[:-1] @ steps],
                                           axis=1))
    if (drift > _DRIFT_LIMIT).any():
        k = int(np.argmax(drift > _DRIFT_LIMIT))  # the first step over it
        raise GridTooCoarseError(
            f"frame transport step rejected at t={grid[order[k + 1]]}: "
            f"orthonormality drift {drift[k]:.3e} exceeds {_DRIFT_LIMIT:.1e}"
        )
    return ParallelFields(
        vectors=np.ascontiguousarray(vectors[order].swapaxes(0, 1)),
        record=record, mode=mode, gram_drift_max=float(drift.max(initial=0.0)),
        final_gram_dev=float(_gram_deviation(
            np.concatenate([basis[-1], vectors[-1]]))),
    )


def bishop_transport(record: GridRecord, nu0, renormalize: bool = True,
                     reverse: bool = False) -> ParallelFields:
    """Parallel-transport normal vectors of the curve's normal bundle.

    Integrates ``nu' = -(nu . tau') tau`` with RK4 over the record's
    grid; the result is the unique parallel extension of the initial
    vectors. ``reverse=True`` starts from the last grid point.
    """
    return _transport(record, nu0, "curve_normal", renormalize, reverse)


def surface_normal_transport(record: GridRecord, seeds,
                             renormalize: bool = True,
                             reverse: bool = False) -> ParallelFields:
    """Transport vectors parallel for the tangent surface's normal bundle."""
    return _transport(record, seeds, "surface_normal", renormalize, reverse)


# ---------------------------------------------------------------------------
# Adapted frame of the tangent surface


@dataclass
class AdaptedFrame:
    """Orthonormal frame {tau, mu, nu_1..nu_{p-1}} sampled along a curve,
    with the record of the grid it was built from."""

    mu: np.ndarray  # (N, dim)
    nus: np.ndarray  # (p-1, N, dim)
    gram_drift_max: float
    record: GridRecord

    curve = property(lambda self: self.record.curve)
    grid = property(lambda self: self.record.grid)
    tau = property(lambda self: self.record.nodes.tau)  # (N, dim)
    kappa = property(lambda self: self.record.nodes.kappa)  # (N,)

    @property
    def n_normals(self) -> int:
        return self.nus.shape[0]

    def gram_deviation(self) -> float:
        return float(_gram_deviation(
            np.stack([self.tau, self.mu, *self.nus], axis=1)).max())


def adapted_frame(record: GridRecord, nu0=None,
                  inflection_rel_tol: float = DEFAULT_INFLECTION_REL_TOL
                  ) -> AdaptedFrame:
    """Build the adapted frame {tau, mu, nu_i} along a curve without
    inflection points from its grid record.

    tau and mu = tau'/|tau'| are the record's node rows, and the nu_i
    are the surface-normal parallel transport of ``nu0`` (default: a
    canonical Gram-Schmidt completion of the standard basis against
    {tau, mu} at the first grid point).
    """
    curve, grid, nodes = record.curve, record.grid, record.nodes
    mu = nodes.normal()[0]
    kappa = nodes.kappa
    if kappa.max() <= 0.0:
        raise InflectionError("inflection point in range: straight segment")
    if kappa.min() < inflection_rel_tol * kappa.max():
        worst = grid[int(np.argmin(kappa))]
        raise InflectionError(f"inflection point in range near t={worst}")

    n, d = len(grid), curve.dim
    q = curve.codim - 1
    if q == 0:
        nus = np.empty((0, n, d))
        drift = 0.0
    else:
        if nu0 is None:
            seeds = orthonormal_completion([nodes.tau[0], mu[0]], d, q)
        else:
            seeds = np.atleast_2d(np.asarray(nu0, dtype=float))
            if seeds.shape != (q, d):
                raise ValueError(
                    f"expected {q} initial normal vector(s) of dimension {d}"
                )
        fields = surface_normal_transport(record, seeds)
        nus = fields.vectors
        drift = fields.gram_drift_max
    return AdaptedFrame(mu=mu, nus=nus, gram_drift_max=drift, record=record)


# ---------------------------------------------------------------------------
# Invariants


def _projection(mode: str, record: TangentData, vectors: np.ndarray):
    """(a, c) over a record: the speed ``a = f' . tau`` and the
    coefficients ``c_i = nu_i . b`` of the fields ``vectors`` on the
    transport's connection vector b."""
    a = np.einsum("nk,nk->n", record.fprime, record.tau)
    return a, np.einsum("fnk,nk->fn", vectors, _connection(mode, record)[1])


@dataclass
class InvariantProfile:
    """Sampled structure-equation invariants: f' = a tau, tau' = kappa mu,
    mu' = -kappa tau + sum_i ell_i nu_i."""

    grid: np.ndarray
    a: np.ndarray
    kappa: np.ndarray
    ells: np.ndarray  # (p-1, N)


def invariants(frame: AdaptedFrame) -> InvariantProfile:
    a, ells = _projection("surface_normal", frame.record.nodes, frame.nus)
    return InvariantProfile(grid=frame.grid, a=a, kappa=frame.kappa.copy(),
                            ells=ells)


@dataclass
class BishopInvariants:
    """Invariants of the curve-normal-bundle system: f' = a tau,
    tau' = sum_i kappa_i nu_i, nu_i' = -kappa_i tau."""

    grid: np.ndarray
    a: np.ndarray
    kappas: np.ndarray  # (p, N)


def bishop_invariants(fields: ParallelFields) -> BishopInvariants:
    if fields.mode != "curve_normal":
        raise ValueError("bishop invariants need curve-normal parallel fields")
    a, kappas = _projection(fields.mode, fields.record.nodes, fields.vectors)
    return BishopInvariants(grid=fields.grid, a=a, kappas=kappas)


# ---------------------------------------------------------------------------
# Structure-equation residuals (central differences of the sampled frames)


def uniform_step(grid: np.ndarray) -> float | None:
    """The spacing of a uniform ``grid``, else None. Spacings may differ
    by a relative 1e-10 plus the few ulps of max|t| that ``linspace``
    rounding leaves in them."""
    h = np.diff(grid)
    atol = 4.0 * np.spacing(np.abs(grid).max())
    return float(h[0]) if np.allclose(h, h[0], rtol=1e-10, atol=atol) else None


def central_difference(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """d(values)/dt at the interior nodes of a uniform ``grid`` (axis 0)."""
    h = uniform_step(grid)
    if h is None:
        raise ValueError("central differences need a uniform grid")
    return (values[2:] - values[:-2]) / (2.0 * h)


def _scaled_max(residual_rows: np.ndarray, derivative_rows: np.ndarray) -> float:
    scale = np.maximum(1.0, np.linalg.norm(derivative_rows, axis=-1))
    return float((np.linalg.norm(residual_rows, axis=-1) / scale).max())


def _frame_residuals(grid, fp, a, rows: dict, omega: np.ndarray) -> dict:
    """Max scaled residuals of ``f' = a tau`` and ``E' = Omega E``.

    ``rows`` maps the name of each frame vector to its samples (N, dim),
    tau first; ``omega`` is the connection matrix at every sample, shape
    (r, r, N), whose entry (i, j) is the coefficient of row j in the
    derivative of row i. Frame derivatives are central differences at
    the interior samples.
    """
    frame = list(rows.values())
    out = {"f_prime": _scaled_max(fp - a[:, None] * frame[0], fp)}
    for name, e, coeffs in zip(rows, frame, omega):
        e_d = central_difference(e, grid)
        pred = sum(c[:, None] * e_j for c, e_j in zip(coeffs, frame))[1:-1]
        out[f"{name}_prime"] = _scaled_max(e_d - pred, e_d)
    return out


def structure_residuals_adapted(frame: AdaptedFrame,
                                profile: InvariantProfile) -> dict:
    """Max scaled residuals of the tangent-surface frame system
    tau' = kappa mu, mu' = -kappa tau + sum ell_i nu_i, nu_i' = -ell_i mu,
    f' = a tau, with frame derivatives by central differences at interior
    samples."""
    rows = {"tau": frame.tau, "mu": frame.mu}
    rows.update((f"nu{j + 1}", nu) for j, nu in enumerate(frame.nus))
    omega = np.zeros((len(rows), len(rows), len(frame.grid)))
    omega[0, 1], omega[1, 0] = profile.kappa, -profile.kappa
    omega[1, 2:], omega[2:, 1] = profile.ells, -profile.ells
    return _frame_residuals(frame.grid, frame.record.nodes.fprime, profile.a,
                            rows, omega)


def structure_residuals_bishop(fields: ParallelFields,
                               inv: BishopInvariants) -> dict:
    """Max scaled residuals of the curve-normal frame system
    tau' = sum kappa_i nu_i, nu_i' = -kappa_i tau, f' = a tau."""
    data = fields.record.nodes
    rows = {"tau": data.tau}
    rows.update((f"nu{j + 1}", nu) for j, nu in enumerate(fields.vectors))
    omega = np.zeros((len(rows), len(rows), len(fields.grid)))
    omega[0, 1:], omega[1:, 0] = inv.kappas, -inv.kappas
    return _frame_residuals(fields.grid, data.fprime, inv.a, rows, omega)


# ---------------------------------------------------------------------------
# Inflection points


def _bisect(fn, lo, hi, iterations: int = 80) -> float:
    flo = fn(lo)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if (flo <= 0.0) == (fmid <= 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _ternary_min(fn, lo, hi, iterations: int = 100):
    for _ in range(iterations):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if fn(m1) <= fn(m2):
            hi = m2
        else:
            lo = m1
    mid = 0.5 * (lo + hi)
    return mid, fn(mid)


def inflection_points(curve: Curve, grid, tol: float = 1e-7) -> list:
    """Parameter intervals where the unit tangent's derivative vanishes.

    Grid samples below ``tol`` seed intervals whose endpoints are refined
    by bisection on |tau'| - tol; interior local minima of |tau'| are
    additionally probed so a zero falling between samples is still found.
    """
    grid = np.asarray(grid, dtype=float)
    ev = TangentEvaluator(curve)

    def kappa(t):
        return ev.at(t).kappa

    kappas = ev.at(grid).kappa
    below = kappas < tol
    intervals = []

    def edge(i, k):
        """The crossing of tol between node i, below it, and node k."""
        if not kappas[k] >= tol:
            return grid[k]
        return _bisect(lambda t: kappa(t) - tol, grid[k], grid[i])

    i = 0
    while i < len(grid):
        if below[i]:
            j = i
            while j + 1 < len(grid) and below[j + 1]:
                j += 1
            lo = grid[0] if i == 0 else edge(i, i - 1)
            hi = grid[-1] if j == len(grid) - 1 else edge(j, j + 1)
            intervals.append((float(lo), float(hi)))
            i = j + 1
        else:
            i += 1

    # minima hiding between samples
    for i in range(1, len(grid) - 1):
        if below[i - 1] or below[i] or below[i + 1]:
            continue
        if kappas[i] <= kappas[i - 1] and kappas[i] <= kappas[i + 1]:
            t_min, k_min = _ternary_min(kappa, grid[i - 1], grid[i + 1])
            if k_min < tol:
                lo = _bisect(lambda t: kappa(t) - tol, grid[i - 1], t_min)
                hi = _bisect(lambda t: kappa(t) - tol, grid[i + 1], t_min)
                intervals.append((float(lo), float(hi)))

    intervals.sort()
    merged = []
    for lo, hi in intervals:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
        else:
            merged.append((lo, hi))
    return merged


# ---------------------------------------------------------------------------
# Unit normal of the tangent surface of a space curve


@np.errstate(all="ignore")
def tangent_surface_unit_normal(curve: Curve, t: float, order: int = 2):
    """Unit normal field of the tangent developable of a curve in R^3.

    Computed as normalize(f' x f'') with the leading parameter power
    factored out of the cross-product jet, so the field extends smoothly
    through inflection points (where f' x f'' vanishes). Returns the
    value and the component jets at t; derivatives of the field are
    ``derivative(jets[i], k)``.
    """
    if curve.dim != 3:
        raise ValueError("tangent-surface normal implemented for dim == 3")
    reserve = 6
    fj = curve.jets(t, order + reserve + 2)
    fp = derivative_jets(fj)
    fpp = derivative_jets(fp)
    fp = [Jet(j.base, j.coeffs[:-1]) for j in fp]
    cross = [
        jet_mul(fp[1], fpp[2]) - jet_mul(fp[2], fpp[1]),
        jet_mul(fp[2], fpp[0]) - jet_mul(fp[0], fpp[2]),
        jet_mul(fp[0], fpp[1]) - jet_mul(fp[1], fpp[0]),
    ]
    nu_jets, failure = leading_unit_jets(cross, order, lambda t, _: (
        InflectionError(f"tangent-surface normal undetermined at t={t}")))
    if failure is not None:
        raise failure[1]
    return np.array([j.value for j in nu_jets]), nu_jets

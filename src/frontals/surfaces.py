"""Ruled maps over a curve and their verification checks.

Builds sampled tangent developables, normal maps, canal (tube) surfaces,
parallels of the tangent developable and tangent maps of their
directrices, all through one sampler of ruled maps over a grid record
that annotates each grid node with its numeric Jacobian rank, and
derives the singular locus of a parallel and its edge of regression
(directrix) together with the right-equivalence between the two.

Ruling convention: the tangent-type maps accept ``ruling="unit"`` (the
chained unit tangent; default) or ``ruling="derivative"`` (the raw
velocity f'). The two parametrizations differ by the source
diffeomorphism (t, s) -> (t, s |f'|) wherever f' does not vanish, so
rank profiles agree there; across singular points of the curve only the
unit ruling extends smoothly, and all rank/locus semantics in this
module are stated for it. The derivative ruling exists because worked
closed forms for graph-like curves are usually written that way.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, InflectionError, MathPreconditionError
from .frames import (
    AdaptedFrame,
    GridRecord,
    ParallelFields,
    central_difference,
    invariants,
    surface_normal_transport,
    uniform_step,
)
from .linalg import (gram_deviation, gram_schmidt, project_off,
                     ruled_singular_values, singular_value_rank)

RULINGS = ("unit", "derivative")

#: least enforced directrix tangency residual, relative to max(1, |g'|)
_TANGENCY_TOL = 1e-5
#: smallest Jacobian singular value of a tangent-map node whose normal
#: flatness is checked
_FLATNESS_EXCLUSION = 1e-7
_CURVATURE_FD_STEP = 1e-4
_CURVATURE_FRAME_TOL = 1e-8
_CURVATURE_AREA_TOL = 1e-12


@dataclass
class SurfaceGrid:
    """A sampled ruled map with per-node Jacobian rank annotations.

    ``axes`` is a tuple of (name, samples) pairs; ``points`` has shape
    grid_shape + (ambient_dim,) and ``jac_rank`` has shape grid_shape. A
    node is singular when its rank drops below the domain dimension.
    """

    map_kind: str
    axes: tuple
    points: np.ndarray
    jac_rank: np.ndarray
    ruling: str = "n/a"

    def __post_init__(self):
        shape = tuple(len(samples) for _, samples in self.axes)
        if self.points.shape[:-1] != shape or self.jac_rank.shape != shape:
            raise ValueError("surface grid shape mismatch")

    @property
    def domain_dim(self) -> int:
        return len(self.axes)

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[-1]

    @property
    def singular_flag(self) -> np.ndarray:
        return self.jac_rank < self.domain_dim


def _ruled_map(map_kind, record, axes, terms, rulings, scale=1.0,
               ruling="n/a", base=None) -> SurfaceGrid:
    """Sample (t, *rulings) -> base(t) + sum_i c_i(rulings) v_i(t) over
    the grid record's nodes, with per-node Jacobian ranks.

    ``axes`` holds the (name, samples) pairs of the ruling axes. Each
    term (c_i, v_i, v_i') has coefficients c_i over the ruling grid and
    vectors (N, dim). The Jacobian's ruling columns are ``scale`` times
    the orthonormal columns ``rulings``, broadcastable to the grid shape
    + (dim, q) and the grid shape, so its singular values come in closed
    form (:func:`ruled_singular_values`). ``base`` holds the base points
    and their t-derivative, (N, dim) each; by default the curve's points
    and velocities. A node whose point, t-column or singular values
    overflow raises :class:`MathPreconditionError` naming the node.
    """
    f, fp = base or (record.nodes.f, record.nodes.fprime)
    n, d = f.shape
    axes = (("t", record.grid), *axes)
    shape = tuple(len(samples) for _, samples in axes)

    def along_t(v):  # rows of v spread over the ruling axes
        return v.reshape((n,) + (1,) * (len(shape) - 1) + (d,))

    points = np.broadcast_to(along_t(f), shape + (d,)).copy()
    jt = np.broadcast_to(along_t(fp), shape + (d,)).copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for c, v, vp in terms:
            c = np.asarray(c)[None, ..., None]
            points += c * along_t(v)
            jt += c * along_t(vp)
        sv = ruled_singular_values(jt, rulings, scale)
    # a non-finite t-column entry makes its node's singular values nan
    if not (np.isfinite(points).all() and np.isfinite(sv).all()):
        finite = np.isfinite(points).all(axis=-1) & np.isfinite(sv).all(axis=-1)
        node = np.unravel_index(np.argmin(finite), shape)
        at = ", ".join(f"{name} = {samples[i]:.6g}"
                       for (name, samples), i in zip(axes, node))
        raise MathPreconditionError(
            f"{map_kind} map is not finite at {at}: a point, t-derivative "
            f"or Jacobian singular value overflows")
    return SurfaceGrid(map_kind=map_kind, axes=axes, points=points,
                       jac_rank=singular_value_rank(sv), ruling=ruling)


def _ruling(nodes, ruling):
    """The ruling vector and its t-derivative at the record's nodes, and
    the ruling as an orthonormal column (N, 1, dim, 1) times a scale: the
    unit tangent times 1, or f'/|f'| times |f'| (tau where |f'| is 0 or
    subnormal, too small to divide by)."""
    if ruling not in RULINGS:
        raise ValueError(f"ruling must be one of {RULINGS}")
    if ruling == "unit":
        return nodes.tau, nodes.tau_p, nodes.tau[:, None, :, None], 1.0
    speed = np.hypot.reduce(nodes.fprime, axis=-1)
    moving = speed[:, None] >= np.finfo(float).tiny
    unit = np.divide(nodes.fprime, speed[:, None], out=nodes.tau.copy(),
                     where=moving)
    return (nodes.fprime, nodes.fsecond, unit[:, None, :, None],
            speed[:, None])


def tangent_map(record: GridRecord, s_grid,
                ruling: str = "unit") -> SurfaceGrid:
    """Sample (t, s) -> f(t) + s r(t) with per-node Jacobian ranks."""
    s_grid = np.asarray(s_grid, dtype=float)
    r, rp, unit, scale = _ruling(record.nodes, ruling)
    return _ruled_map("Tan", record, (("s", s_grid),), [(s_grid, r, rp)],
                      unit, scale, ruling)


def normal_map(fields: ParallelFields, u_grid) -> SurfaceGrid:
    """Sample the full normal map (t, u_1..u_p) -> f(t) + sum u_i nu_i(t).

    ``u_grid`` is either one sample array reused for every normal
    direction or a sequence of p arrays.
    """
    if fields.mode != "curve_normal":
        raise ValueError("normal map needs curve-normal parallel fields")
    p = fields.n_fields
    u_grid = list(u_grid) if isinstance(u_grid, (list, tuple)) else [u_grid] * p
    if len(u_grid) != p:
        raise ValueError(f"expected {p} offset sample arrays")
    axes = tuple((f"u{i + 1}", np.asarray(u, dtype=float))
                 for i, u in enumerate(u_grid))
    mesh = np.meshgrid(*(u for _, u in axes), indexing="ij")
    nu = fields.vectors  # (p, n, d)
    terms = zip(mesh, nu, fields.field_derivatives())
    columns = np.moveaxis(nu, 0, -1)  # (n, d, p)
    return _ruled_map("Nor", fields.record, axes, terms,
                      columns.reshape(columns.shape[:1] + (1,) * p
                                      + columns.shape[1:]))


def canal_surface(fields: ParallelFields, r: float,
                  angle_grid) -> SurfaceGrid:
    """Tube of radius r: the normal map restricted to |nu| = r (p = 2)."""
    if r <= 0:
        raise ValueError("canal radius must be positive")
    if fields.mode != "curve_normal" or fields.n_fields != 2:
        raise MathPreconditionError(
            "canal sampling is implemented for tubes: two curve-normal "
            "parallel fields (curve in R^3)"
        )
    angle_grid = np.asarray(angle_grid, dtype=float)
    nu1, nu2 = fields.vectors
    nu1p, nu2p = fields.field_derivatives()
    cos, sin = np.cos(angle_grid), np.sin(angle_grid)
    radial = (-sin[None, :, None] * nu1[:, None, :]
              + cos[None, :, None] * nu2[:, None, :])
    return _ruled_map("Can", fields.record, (("theta", angle_grid),),
                      [(r * cos, nu1, nu1p), (r * sin, nu2, nu2p)],
                      radial[..., None], r)


def _check_offsets(n_normals: int, offsets) -> np.ndarray:
    offsets = np.atleast_1d(np.asarray(offsets, dtype=float))
    if offsets.shape != (n_normals,):
        raise ValueError(
            f"expected {n_normals} offset value(s), got {offsets.shape}"
        )
    return offsets


def parallel_of_tangent(frame: AdaptedFrame, offsets, s_grid,
                        ruling: str = "unit") -> SurfaceGrid:
    """Offset the tangent map by a parallel normal field:
    (t, s) -> f(t) + s r(t) + sum_i u_i nu_i(t)."""
    s_grid = np.asarray(s_grid, dtype=float)
    offsets = _check_offsets(frame.n_normals, offsets)
    r, rp, unit, scale = _ruling(frame.record.nodes, ruling)
    nup = -invariants(frame).ells[:, :, None] * frame.mu  # -ell_i mu
    offset = (1.0, np.tensordot(offsets, frame.nus, axes=(0, 0)),
              np.tensordot(offsets, nup, axes=(0, 0)))
    return _ruled_map("Pal", frame.record, (("s", s_grid),),
                      [(s_grid, r, rp), offset], unit, scale, ruling)


# ---------------------------------------------------------------------------
# Singular locus and directrix


@dataclass
class Directrix:
    """Edge of regression of a parallel of the tangent developable.

    ``shift`` is the parallel's singular locus s(t) = sum_i u_i ell_i /
    kappa, the ruling offset of g from f along tau.
    ``tangency_residual`` is the five-point-stencil witness that g' is
    parallel to the shared tangent frame; ``tangency_floor`` estimates
    the stencil's own error, its truncation (from fifth differences of
    g) plus its rounding, which bounds how small the witness can be at
    the sampled resolution. Both are nan on a grid the stencil cannot
    run on (fewer than five nodes, or not uniform), and the residual is
    nan when g overflows: then nothing is witnessed.
    """

    offsets: np.ndarray
    grid: np.ndarray
    points: np.ndarray
    shift: np.ndarray
    tangency_residual: float
    tangency_floor: float

    def require_witness(self):
        """Raise :class:`MathPreconditionError` on a grid the stencil
        cannot witness tangency on."""
        if _stencil_step(self.grid) is None:
            raise MathPreconditionError(
                f"directrix tangency is witnessed only on a uniform grid "
                f"of at least 5 nodes; this one has {len(self.grid)}"
            )


def _stencil_step(grid: np.ndarray) -> float | None:
    """The spacing of a grid the five-point stencil runs on (uniform, at
    least five nodes), else None."""
    return uniform_step(grid) if len(grid) >= 5 else None


def _five_point_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """O(h^4) interior first derivative of uniformly sampled vectors."""
    v = values
    return (-v[4:] + 8.0 * v[3:-1] - 8.0 * v[1:-3] + v[:-4]) / (12.0 * h)


def _edge(frame: AdaptedFrame, offsets):
    """The shift sum_i u_i ell_i / kappa along tau, and the directrix
    g = f + shift tau + sum_i u_i nu_i of the frame's normals."""
    ells = invariants(frame).ells
    shift = np.tensordot(offsets, ells, axes=(0, 0)) / frame.kappa
    g = frame.record.nodes.f + shift[:, None] * frame.tau
    return shift, g + np.tensordot(offsets, frame.nus, axes=(0, 0))


def directrix(frame: AdaptedFrame, offsets) -> Directrix:
    """g(t) = f(t) + sum_i u_i (ell_i/kappa tau + nu_i).

    The defining property (g' parallel to tau) is verified with a
    five-point stencil on the interior samples. Enforcement threshold is
    ``max(_TANGENCY_TOL, 4 * stencil floor)`` relative to max(1, |g'|):
    the stencil cannot witness tangency below its own error, so a coarse
    grid on a wiggly curve, or a step so short that the stencil only
    differences rounding, loosens the gate instead of producing a false
    inconsistency alarm. The floor is the O(h^4) truncation, estimated
    from fifth differences of the sampled g, plus the rounding of the
    stencil's weighted sum, 1.5 eps max|g| / h.
    """
    offsets = _check_offsets(frame.n_normals, offsets)
    if (frame.kappa == 0.0).any():
        raise InflectionError("inflection in range: directrix undefined")
    shift, g = _edge(frame, offsets)

    residual = floor = np.nan
    h = _stencil_step(frame.grid)
    if h is not None:
        # an overflowing directrix leaves a nan residual: no witness
        with np.errstate(over="ignore", invalid="ignore"):
            gp = _five_point_derivative(g, h)
            ortho = project_off(gp[:, None], frame.tau[2:-2, None])[:, 0]
            scale = np.maximum(1.0, np.linalg.norm(gp, axis=1))
            residual = float((np.linalg.norm(ortho, axis=1) / scale).max())
            eps = np.finfo(float).eps
            floor = 1.5 * eps * float(np.linalg.norm(g, axis=1).max()) / h
            if len(frame.grid) >= 7:
                # h^4/30 |g5|/h^5, without h^5 underflowing
                g5 = np.linalg.norm(np.diff(g, 5, axis=0), axis=1)
                floor += float(g5.max()) / (30.0 * h)
        limit = max(_TANGENCY_TOL, 4.0 * floor)
        if residual > limit:
            raise MathPreconditionError(
                f"directrix tangency residual {residual:.3e} exceeds "
                f"{limit:.3e}; frame and profile are inconsistent"
            )
    return Directrix(
        offsets=offsets, grid=frame.grid, points=g, shift=shift,
        tangency_residual=residual, tangency_floor=floor,
    )


def directrix_tangent_map(frame: AdaptedFrame, offsets,
                          s_grid) -> SurfaceGrid:
    """Sample the tangent map (t, s) -> g(t) + s tau(t) of the directrix
    g of the parallel with these offsets, ruled by the shared frame.

    g' is parallel to tau, the s-column, so the t-column leaves it out.
    A directrix without a finite tangency witness is refused.
    """
    s_grid = np.asarray(s_grid, dtype=float)
    dirx = directrix(frame, offsets)
    dirx.require_witness()
    if not np.isfinite(dirx.tangency_residual):
        raise MathPreconditionError(
            f"directrix tangency residual {dirx.tangency_residual:.3e}: "
            f"the directrix overflows")
    tau, tau_p = frame.tau, frame.record.nodes.tau_p
    return _ruled_map("TanOfDirectrix", frame.record, (("s", s_grid),),
                      [(s_grid, tau, tau_p)], tau[:, None, :, None], 1.0,
                      "unit", (dirx.points, np.zeros_like(dirx.points)))


@dataclass
class RightEquivalenceReport:
    """Residuals of Pal(t,s) against Tan(g)(t, s - shift(t)).

    ``shared_residual`` reuses the frame fields that built the parallel
    (an arithmetic identity, near machine precision);
    ``independent_residual`` rebuilds the directrix from a reverse-seeded
    parallel transport so the number measures frame-transport error
    rather than shared rounding. ``residual`` is the max of the two.
    """

    residual: float
    shared_residual: float
    independent_residual: float


def verify_right_equivalence(frame: AdaptedFrame, offsets,
                             s_grid) -> RightEquivalenceReport:
    """The :class:`RightEquivalenceReport` of Theorem 2.2 for the
    unit-ruled parallel with these offsets, over ``s_grid``."""
    s_grid = np.asarray(s_grid, dtype=float)
    pal = parallel_of_tangent(frame, offsets, s_grid)
    dirx = directrix(frame, offsets)
    dirx.require_witness()

    def tan_of(shift, points_g):
        sigma = s_grid[None, :] - shift[:, None]
        return points_g[:, None, :] + sigma[..., None] * frame.tau[:, None, :]

    def distance(points):  # an overflowing norm is an inf residual
        with np.errstate(over="ignore"):
            return float(np.linalg.norm(pal.points - points, axis=-1).max())

    shared_residual = distance(tan_of(dirx.shift, dirx.points))

    # independent route: re-transport the normal frame backwards from the
    # far end and rebuild ell, g and the shift from it; renormalization is
    # off so the comparison carries the integrator's raw error instead of
    # collapsing to the forward fields
    if frame.n_normals:
        back = surface_normal_transport(
            frame.record, frame.nus[:, -1, :], reverse=True, renormalize=False,
        )
        bar = replace(frame, nus=back.vectors)
        independent_residual = distance(tan_of(*_edge(bar, dirx.offsets)))
    else:
        independent_residual = shared_residual
    return RightEquivalenceReport(
        residual=max(shared_residual, independent_residual),
        shared_residual=shared_residual,
        independent_residual=independent_residual,
    )


# ---------------------------------------------------------------------------
# Lagrangian-lift (symplectic pullback) check


@dataclass
class SymplecticReport:
    max_entry: float
    samples: int


def symplectic_pullback_check(fields: ParallelFields,
                              fd_step: float = 1e-4) -> SymplecticReport:
    """Max |entry| of the canonical two-form pulled back by the lift
    (t, u) -> (f(t) + sum u_i nu_i ; sum u_i nu_i) of the normal map.

    Sampled at the five interior points of a 7-point grid over the
    fields' range, at u = 0 and at one fixed nonzero u. Tangent and
    cotangent coordinates are identified by the Euclidean metric;
    partials are central differences of step ``fd_step`` in every
    parameter direction; a non-finite step, or one so small that some
    difference has identical end points, raises :class:`ConfigError`.
    """
    if fields.mode != "curve_normal":
        raise ValueError("symplectic check needs curve-normal parallel fields")
    curve, p = fields.curve, fields.n_fields
    sample_ts = np.linspace(fields.grid[0], fields.grid[-1], 7)[1:-1]
    alt = np.array([0.3 * (-1.0) ** i / (1 + i) for i in range(p)])
    u_points = [np.zeros(p), alt]

    coords = np.concatenate([sample_ts, *u_points])
    if not np.isfinite(fd_step):
        raise ConfigError(f"fd_step {fd_step:g} is not finite")
    if np.any(coords + fd_step == coords - fd_step):
        raise ConfigError(f"fd_step {fd_step:g} gives a central difference "
                          f"with identical end points")

    # the curve and the fields at every t the differences visit, in one
    # evaluation each: row m of ts holds t0 + fd_step, t0 - fd_step and t0
    ts = np.stack([sample_ts + fd_step, sample_ts - fd_step, sample_ts],
                  axis=1).ravel()
    nus = fields.eval_at(ts)  # (p, 3 len(sample_ts), d)
    points = np.stack([j.value for j in curve.jets(ts, 0)], axis=-1)

    def lift(m, side, u):
        offset = u @ nus[:, 3 * m + side, :]
        return points[3 * m + side] + offset, offset

    entries = []
    for m in range(len(sample_ts)):
        for u0 in u_points:
            # the (+, -) ends of the differences along t, then along each u_i
            ends = [(lift(m, 0, u0), lift(m, 1, u0))]
            ends += [(lift(m, 2, u0 + e), lift(m, 2, u0 - e))
                     for e in fd_step * np.eye(p)]
            dx, dp = (np.array([(plus[k] - minus[k]) / (2.0 * fd_step)
                                for plus, minus in ends]) for k in (0, 1))
            form = dp @ dx.T
            entries.append(np.abs(form - form.T).max())
    # np.max, unlike max(), keeps a NaN entry
    return SymplecticReport(max_entry=float(np.max(entries)),
                            samples=len(entries))


# ---------------------------------------------------------------------------
# Normal flatness of the tangent surface (spot check along rulings)


@dataclass
class NormalFlatnessReport:
    max_residual: float
    checked: int
    skipped: int
    vacuous: bool


def normal_flatness_residual(frame: AdaptedFrame,
                             s_grid) -> NormalFlatnessReport:
    """Witness that the frame normals, extended constant along rulings,
    stay parallel for the tangent surface's normal bundle.

    At each regular node the residual is the component of the
    finite-differenced d(nu_i)/dt orthogonal to the surface's tangent
    plane (tau and the t-column's part orthogonal to it) and to nu_i
    itself. Nodes whose Jacobian smallest singular value falls below
    ``_FLATNESS_EXCLUSION`` are skipped; if everything is skipped the
    check is vacuous (e.g. a straight segment).
    """
    nu = frame.nus.swapaxes(0, 1)  # (nodes, normals, dim)
    nu_dot = central_difference(nu, frame.grid)
    if frame.n_normals == 0:
        return NormalFlatnessReport(0.0, 0, 0, True)

    # Jacobian columns (f' + s tau', tau) at every (interior node, s)
    nodes = frame.record.nodes[1:-1]
    s_grid = np.asarray(s_grid, dtype=float)[:, None]
    jt = nodes.fprime[:, None, :] + s_grid * nodes.tau_p[:, None, :]
    tau = nodes.tau[:, None, :]
    kept = (ruled_singular_values(jt, tau[..., None])[..., -1]
            >= _FLATNESS_EXCLUSION)
    node = np.nonzero(kept)[0]
    tau = tau[node]  # kept: |c_perp| = sigma_min sigma_max >= 1e-7 sigma_max
    plane = np.concatenate([tau, gram_schmidt(jt[kept][:, None], tau, 0.0)],
                           axis=1)
    nd, nu_k = nu_dot[node], nu[1:-1][node]  # (pairs, normals, dim)
    res = project_off(nd, plane)
    res = project_off(res[..., None, :], nu_k[..., None, :])[..., 0, :]
    checked = int(kept.sum())
    return NormalFlatnessReport(
        max_residual=float(np.max(np.linalg.norm(res, axis=-1), initial=0.0)),
        checked=checked, skipped=kept.size - checked, vacuous=checked == 0,
    )


# ---------------------------------------------------------------------------
# Normal curvature of a two-parameter surface in R^4


@dataclass
class NormalCurvatureField:
    """Per-cell normal curvature of a framed surface in R^4."""

    s_centers: np.ndarray
    t_centers: np.ndarray
    values: np.ndarray  # nan where the tangent plane degenerates
    max_abs: float


def normal_curvature_r4(surface_fn, e3_fn, e4_fn, s_grid,
                        t_grid) -> NormalCurvatureField:
    """Normal curvature K from the connection form of the supplied normal
    frame: the curvature two-form d(w34) is measured by circulation of
    w34 around each grid cell and divided by the tangent area form on the
    same cell (with a sign so a flat normal bundle gives K = 0). A frame
    off orthonormal-normal by more than ``_CURVATURE_FRAME_TOL`` at a
    corner or middle sample raises :class:`MathPreconditionError`.
    """
    s_grid = np.asarray(s_grid, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)

    def partials(fn, s, t):
        h = _CURVATURE_FD_STEP
        fs = (np.asarray(fn(s + h, t)) - np.asarray(fn(s - h, t))) / (2 * h)
        ft = (np.asarray(fn(s, t + h)) - np.asarray(fn(s, t - h))) / (2 * h)
        return fs, ft

    # precondition: orthonormal normal frame, orthogonal to the surface
    for s in (s_grid[0], s_grid[-1], s_grid[len(s_grid) // 2]):
        for t in (t_grid[0], t_grid[-1], t_grid[len(t_grid) // 2]):
            normal = np.array([e3_fn(s, t), e4_fn(s, t)], dtype=float)
            tangent = np.stack(partials(surface_fn, s, t))
            off = np.max([gram_deviation(normal),
                          np.abs(normal @ tangent.T).max()])
            if not off <= _CURVATURE_FRAME_TOL:
                raise MathPreconditionError(
                    "supplied normal frame is not orthonormal-normal to the "
                    f"surface within {_CURVATURE_FRAME_TOL:g}"
                )

    def w34(s, t, direction):
        de3 = partials(e3_fn, s, t)[direction == "t"]
        return float(de3 @ np.asarray(e4_fn(s, t)))

    ns, nt = len(s_grid), len(t_grid)
    values = np.full((ns - 1, nt - 1), np.nan)
    s_centers = 0.5 * (s_grid[:-1] + s_grid[1:])
    t_centers = 0.5 * (t_grid[:-1] + t_grid[1:])
    for i in range(ns - 1):
        ds = s_grid[i + 1] - s_grid[i]
        sm = s_centers[i]
        for j in range(nt - 1):
            dt = t_grid[j + 1] - t_grid[j]
            tm = t_centers[j]
            circ = (
                w34(sm, t_grid[j], "s") * ds
                + w34(s_grid[i + 1], tm, "t") * dt
                - w34(sm, t_grid[j + 1], "s") * ds
                - w34(s_grid[i], tm, "t") * dt
            )
            fs, ft = partials(surface_fn, sm, tm)
            ns1 = np.linalg.norm(fs)
            if ns1 < _CURVATURE_AREA_TOL:
                continue
            area = ns1 * np.linalg.norm(project_off(ft[None], fs[None] / ns1))
            if area >= _CURVATURE_AREA_TOL:
                values[i, j] = -circ / (ds * dt) / area
    finite = values[np.isfinite(values)]
    return NormalCurvatureField(
        s_centers=s_centers, t_centers=t_centers, values=values,
        max_abs=float(np.abs(finite).max()) if finite.size else 0.0,
    )

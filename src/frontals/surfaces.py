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
    InvariantProfile,
    ParallelFields,
    central_difference,
    invariants,
    surface_normal_transport,
    uniform_step,
)
from .linalg import batched_rank

RULINGS = ("unit", "derivative")

#: |kappa| at or below which the singular locus and directrix diverge
_INFLECTION_KAPPA = 1e-8
#: least enforced directrix tangency residual, relative to max(1, |g'|)
_TANGENCY_TOL = 1e-5
#: smallest Jacobian singular value of a tangent-map node whose normal
#: flatness is checked
_FLATNESS_EXCLUSION = 1e-7


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


def _check_grid_match(grid_a, grid_b, what: str):
    if not np.array_equal(grid_a, grid_b):
        raise ValueError(f"{what} must share the frame's parameter grid")


def _ruled_map(map_kind, record, axes, terms, ruling_cols, ruling="n/a",
               base=None) -> SurfaceGrid:
    """Sample (t, *rulings) -> base(t) + sum_i c_i(rulings) v_i(t) over
    the grid record's nodes, with per-node Jacobian ranks.

    ``axes`` holds the (name, samples) pairs of the ruling axes. Each
    term (c_i, v_i, v_i') has coefficients c_i over the ruling grid and
    vectors (N, dim); ``ruling_cols`` are the Jacobian's ruling columns,
    each broadcastable to the grid shape + (dim,). ``base`` holds the
    base points and their t-derivative, (N, dim) each; by default the
    curve's points and velocities.
    """
    f, fp = base or (record.nodes.f, record.nodes.fprime)
    n, d = f.shape
    shape = (n, *(len(samples) for _, samples in axes))

    def along_t(v):  # rows of v spread over the ruling axes
        return v.reshape((n,) + (1,) * (len(shape) - 1) + (d,))

    points = np.broadcast_to(along_t(f), shape + (d,)).copy()
    jt = np.broadcast_to(along_t(fp), shape + (d,)).copy()
    for c, v, vp in terms:
        c = np.asarray(c)[None, ..., None]
        points += c * along_t(v)
        jt += c * along_t(vp)
    cols = [np.broadcast_to(col, shape + (d,)) for col in ruling_cols]
    return SurfaceGrid(
        map_kind=map_kind, axes=(("t", record.grid), *axes), points=points,
        jac_rank=batched_rank(np.stack([jt, *cols], axis=-1)), ruling=ruling,
    )


def _ruling(nodes, ruling):
    """The ruling vector and its t-derivative at the record's nodes."""
    if ruling not in RULINGS:
        raise ValueError(f"ruling must be one of {RULINGS}")
    return ((nodes.tau, nodes.tau_p) if ruling == "unit"
            else (nodes.fprime, nodes.fsecond))


def tangent_map(record: GridRecord, s_grid,
                ruling: str = "unit") -> SurfaceGrid:
    """Sample (t, s) -> f(t) + s r(t) with per-node Jacobian ranks."""
    s_grid = np.asarray(s_grid, dtype=float)
    r, rp = _ruling(record.nodes, ruling)
    return _ruled_map("Tan", record, (("s", s_grid),), [(s_grid, r, rp)],
                      [r[:, None, :]], ruling)


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
    return _ruled_map("Nor", fields.record, axes, terms,
                      [v.reshape(v.shape[:1] + (1,) * p + v.shape[1:])
                       for v in nu])


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
    c, s = r * np.cos(angle_grid), r * np.sin(angle_grid)
    jang = (-s[None, :, None] * nu1[:, None, :]
            + c[None, :, None] * nu2[:, None, :])
    return _ruled_map("Can", fields.record, (("theta", angle_grid),),
                      [(c, nu1, nu1p), (s, nu2, nu2p)], [jang])


def _check_offsets(frame_or_profile_normals: int, offsets) -> np.ndarray:
    offsets = np.atleast_1d(np.asarray(offsets, dtype=float))
    if offsets.shape != (frame_or_profile_normals,):
        raise ValueError(
            f"expected {frame_or_profile_normals} offset value(s), "
            f"got {offsets.shape}"
        )
    return offsets


def parallel_of_tangent(frame: AdaptedFrame, offsets, s_grid,
                        ruling: str = "unit") -> SurfaceGrid:
    """Offset the tangent map by a parallel normal field:
    (t, s) -> f(t) + s r(t) + sum_i u_i nu_i(t)."""
    s_grid = np.asarray(s_grid, dtype=float)
    offsets = _check_offsets(frame.n_normals, offsets)
    r, rp = _ruling(frame.record.nodes, ruling)
    nup = -invariants(frame).ells[:, :, None] * frame.mu  # -ell_i mu
    offset = (1.0, np.tensordot(offsets, frame.nus, axes=(0, 0)),
              np.tensordot(offsets, nup, axes=(0, 0)))
    return _ruled_map("Pal", frame.record, (("s", s_grid),),
                      [(s_grid, r, rp), offset], [r[:, None, :]], ruling)


# ---------------------------------------------------------------------------
# Singular locus and directrix


@dataclass
class SingularLocusCurve:
    """The ruling offset s(t) where a parallel's Jacobian degenerates."""

    grid: np.ndarray
    s: np.ndarray
    residuals: np.ndarray  # |s kappa - sum u_i ell_i| per sample


def singular_locus_parallel(profile: InvariantProfile,
                            offsets) -> SingularLocusCurve:
    """Closed-form singular locus s(t) = sum_i u_i ell_i(t) / kappa(t)."""
    offsets = _check_offsets(profile.ells.shape[0], offsets)
    if np.min(np.abs(profile.kappa)) <= _INFLECTION_KAPPA:
        raise InflectionError(
            "inflection in range: the singular locus may diverge"
        )
    weighted = np.tensordot(offsets, profile.ells, axes=(0, 0))
    s = weighted / profile.kappa
    residuals = np.abs(s * profile.kappa - weighted)
    return SingularLocusCurve(grid=profile.grid, s=s, residuals=residuals)


@dataclass
class Directrix:
    """Edge of regression of a parallel of the tangent developable.

    ``tangency_residual`` is the five-point-stencil witness that g' is
    parallel to the shared tangent frame; ``tangency_floor`` estimates
    the stencil's own truncation (from fifth differences of g), which
    bounds how small the witness can be at the sampled resolution. Both
    are nan on a grid the stencil cannot run on (fewer than five nodes,
    or not uniform), and the residual is nan when g overflows: then
    nothing is witnessed.
    """

    offsets: np.ndarray
    grid: np.ndarray
    points: np.ndarray
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


def _edge(frame: AdaptedFrame, ells, kappa, offsets):
    """The shift sum_i u_i ell_i / kappa along tau, and the directrix
    g = f + shift tau + sum_i u_i nu_i of the frame's normals."""
    shift = np.tensordot(offsets, ells, axes=(0, 0)) / kappa
    g = frame.record.nodes.f + shift[:, None] * frame.tau
    return shift, g + np.tensordot(offsets, frame.nus, axes=(0, 0))


def directrix(frame: AdaptedFrame, profile: InvariantProfile,
              offsets) -> Directrix:
    """g(t) = f(t) + sum_i u_i (ell_i/kappa tau + nu_i).

    The defining property (g' parallel to tau) is verified with a
    five-point stencil on the interior samples. Enforcement threshold is
    ``max(_TANGENCY_TOL, 4 * stencil floor)`` relative to max(1, |g'|):
    the stencil cannot witness tangency below its own O(h^4) truncation,
    which is estimated from fifth differences of the sampled g, so a
    coarse grid on a wiggly curve loosens the gate instead of producing
    a false inconsistency alarm.
    """
    offsets = _check_offsets(frame.n_normals, offsets)
    _check_grid_match(frame.grid, profile.grid, "directrix profile grid")
    if np.min(np.abs(profile.kappa)) <= _INFLECTION_KAPPA:
        raise InflectionError("inflection in range: directrix undefined")
    g = _edge(frame, profile.ells, profile.kappa, offsets)[1]

    residual = floor = np.nan
    h = _stencil_step(frame.grid)
    if h is not None:
        # an overflowing directrix leaves a nan residual: no witness
        with np.errstate(over="ignore", invalid="ignore"):
            gp = _five_point_derivative(g, h)
            tau_in = frame.tau[2:-2]
            ortho = gp - (np.sum(gp * tau_in, axis=1)[:, None]) * tau_in
            scale = np.maximum(1.0, np.linalg.norm(gp, axis=1))
            residual = float((np.linalg.norm(ortho, axis=1) / scale).max())
            floor = 0.0
            if len(frame.grid) >= 7:
                g5 = np.diff(g, 5, axis=0) / h ** 5
                floor = h ** 4 / 30.0 * float(np.linalg.norm(g5, axis=1).max())
        limit = max(_TANGENCY_TOL, 4.0 * floor)
        if residual > limit:
            raise MathPreconditionError(
                f"directrix tangency residual {residual:.3e} exceeds "
                f"{limit:.3e}; frame and profile are inconsistent"
            )
    return Directrix(
        offsets=offsets, grid=frame.grid, points=g,
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
    dirx = directrix(frame, invariants(frame), offsets)
    dirx.require_witness()
    if not np.isfinite(dirx.tangency_residual):
        raise MathPreconditionError(
            f"directrix tangency residual {dirx.tangency_residual:.3e}: "
            f"the directrix overflows")
    tau, tau_p = frame.tau, frame.record.nodes.tau_p
    return _ruled_map("TanOfDirectrix", frame.record, (("s", s_grid),),
                      [(s_grid, tau, tau_p)], [tau[:, None, :]], "unit",
                      (dirx.points, np.zeros_like(dirx.points)))


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


def verify_right_equivalence(pal: SurfaceGrid, directrix_curve: Directrix,
                             frame: AdaptedFrame,
                             profile: InvariantProfile) -> RightEquivalenceReport:
    if pal.map_kind != "Pal" or pal.ruling != "unit":
        raise MathPreconditionError(
            "right-equivalence check needs a unit-ruled parallel grid"
        )
    t_grid = pal.axes[0][1]
    s_grid = pal.axes[1][1]
    _check_grid_match(t_grid, frame.grid, "right-equivalence t-grid")
    offsets = directrix_curve.offsets

    def tan_of(shift, points_g):
        sigma = s_grid[None, :] - shift[:, None]
        return points_g[:, None, :] + sigma[..., None] * frame.tau[:, None, :]

    def distance(points):  # an overflowing norm is an inf residual
        with np.errstate(over="ignore"):
            return float(np.linalg.norm(pal.points - points, axis=-1).max())

    shift = np.tensordot(offsets, profile.ells, axes=(0, 0)) / profile.kappa
    shared_residual = distance(tan_of(shift, directrix_curve.points))

    # independent route: re-transport the normal frame backwards from the
    # far end and rebuild ell, g and the shift from it; renormalization is
    # off so the comparison carries the integrator's raw error instead of
    # collapsing to the forward fields
    if frame.n_normals:
        back = surface_normal_transport(
            frame.record, frame.nus[:, -1, :], reverse=True, renormalize=False,
        )
        bar = replace(frame, nus=back.vectors)
        independent_residual = distance(tan_of(*_edge(
            bar, invariants(bar).ells, profile.kappa, offsets)))
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

    # the fields at every t the differences visit, in one evaluation:
    # row m of ts holds t0 + fd_step, t0 - fd_step and t0 itself
    ts = np.stack([sample_ts + fd_step, sample_ts - fd_step, sample_ts],
                  axis=1)
    nus = fields.eval_at(ts.ravel())  # (p, 3 len(sample_ts), d)

    def lift(m, side, u):
        offset = u @ nus[:, 3 * m + side, :]
        return curve.point(ts[m, side]) + offset, offset

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
    plane and to nu_i itself. Nodes whose Jacobian smallest singular
    value falls below ``_FLATNESS_EXCLUSION`` are skipped; if everything
    is skipped the check is vacuous (e.g. a straight segment).
    """
    nu = frame.nus.swapaxes(0, 1)  # (nodes, normals, dim)
    nu_dot = central_difference(nu, frame.grid)
    if frame.n_normals == 0:
        return NormalFlatnessReport(0.0, 0, 0, True)

    # Jacobian columns (f' + s tau', tau) at every (interior node, s)
    d = frame.record.nodes[1:-1]
    s_grid = np.asarray(s_grid, dtype=float)[:, None]
    jt = d.fprime[:, None, :] + s_grid * d.tau_p[:, None, :]
    jac = np.stack([jt, np.broadcast_to(d.tau[:, None, :], jt.shape)], -1)
    kept = np.linalg.svd(jac, compute_uv=False)[..., -1] >= _FLATNESS_EXCLUSION
    q, r = np.linalg.qr(jac[kept])
    # orthonormal_column_basis's rule: zero the columns with a tiny |R_kk|
    tiny = 1e-12 * np.maximum(1.0, np.abs(r).max(axis=(-2, -1)))
    q *= (np.abs(np.diagonal(r, axis1=-2, axis2=-1)) > tiny[:, None])[:, None]

    node = np.nonzero(kept)[0]
    nd, nu_k = nu_dot[node], nu[1:-1][node]  # (pairs, normals, dim)
    res = nd - np.einsum("kdc,kec,kje->kjd", q, q, nd)
    res -= np.einsum("kjd,kjd->kj", res, nu_k)[..., None] * nu_k
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


def normal_curvature_r4(surface_fn, e3_fn, e4_fn, s_grid, t_grid,
                        fd_step: float = 1e-4,
                        frame_tol: float = 1e-8,
                        area_tol: float = 1e-12) -> NormalCurvatureField:
    """Normal curvature K from the connection form of the supplied normal
    frame: the curvature two-form d(w34) is measured by circulation of
    w34 around each grid cell and divided by the tangent area form on the
    same cell (with a sign so a flat normal bundle gives K = 0).
    """
    s_grid = np.asarray(s_grid, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)

    def partials(fn, s, t):
        fs = (np.asarray(fn(s + fd_step, t)) - np.asarray(fn(s - fd_step, t))) / (2 * fd_step)
        ft = (np.asarray(fn(s, t + fd_step)) - np.asarray(fn(s, t - fd_step))) / (2 * fd_step)
        return fs, ft

    # precondition: orthonormal normal frame, orthogonal to the surface
    for s in (s_grid[0], s_grid[-1], s_grid[len(s_grid) // 2]):
        for t in (t_grid[0], t_grid[-1], t_grid[len(t_grid) // 2]):
            e3 = np.asarray(e3_fn(s, t), dtype=float)
            e4 = np.asarray(e4_fn(s, t), dtype=float)
            fs, ft = partials(surface_fn, s, t)
            checks = [
                abs(e3 @ e3 - 1.0), abs(e4 @ e4 - 1.0), abs(e3 @ e4),
                abs(e3 @ fs), abs(e3 @ ft), abs(e4 @ fs), abs(e4 @ ft),
            ]
            if max(checks) > frame_tol:
                raise MathPreconditionError(
                    "supplied normal frame is not orthonormal-normal to the "
                    f"surface within {frame_tol:g}"
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
            omega = circ / (ds * dt)
            fs, ft = partials(surface_fn, sm, tm)
            ns1 = np.linalg.norm(fs)
            if ns1 < area_tol:
                continue
            e1 = fs / ns1
            w = ft - (ft @ e1) * e1
            nw = np.linalg.norm(w)
            area = ns1 * nw
            if area < area_tol:
                continue
            values[i, j] = -omega / area
    finite = values[np.isfinite(values)]
    return NormalCurvatureField(
        s_centers=s_centers, t_centers=t_centers, values=values,
        max_abs=float(np.abs(finite).max()) if finite.size else 0.0,
    )

"""Numeric frontality analysis of parametric curves.

Decides (numerically) whether a curve admits a smooth tangent line field
across its singular points, via the rank growth of the matrix of
derivative columns, and produces that tangent field. At points where the
velocity vanishes the tangent direction is recovered structurally from
the jet of the velocity: the leading nonzero coefficient vector of
``f'(t0 + h)`` spans the limiting tangent line.

:meth:`TangentEvaluator.at`, :meth:`TangentEvaluator.tau_jet_vec` and
:func:`contact_orders` take one parameter value or an array of them. An
array is evaluated as a whole grid: one :meth:`Curve.jets` call gives
jets about every node, and the normalizations run on all regular nodes
at once. The nodes whose speed is below ``SINGULAR_SPEED`` are
evaluated again together, through one deeper :meth:`Curve.jets` call.
Each node's result is bit for bit the one it gets when evaluated alone,
and an error names the first failing node in array order, as a loop
over the nodes would.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .curves import Curve
from .errors import (
    InflectionError,
    MathPreconditionError,
    TangentUndeterminedError,
)
from .jets import (
    Jet,
    derivative,
    jet_derivative,
    jet_div,
    jet_ldexp,
    jet_mul,
    jet_sqrt,
)
from .linalg import DEFAULT_RANK_TOL, batched_rank, largest_true_box_2d

#: velocity norm below which the structural jet extension is used
SINGULAR_SPEED = 1e-6

#: relative threshold for treating a jet coefficient vector as zero
_COEFF_DROP = 1e-9

DEFAULT_K_MAX = 8


@np.errstate(all="ignore")
def derivative_jets(jets: list) -> list:
    """Formal derivative of each component jet, lowering the order; a
    coefficient that overflows becomes inf."""
    return [jet_derivative(j) for j in jets]


def _overflow_error(t) -> MathPreconditionError:
    return MathPreconditionError(
        f"jets at t={float(t)} overflow double precision"
    )


@np.errstate(all="ignore")
def _normalize_jet_vector(jets: list):
    """(unit jets, norm jet, finite) of a vector of grid jets.

    The jets are scaled by a power of two taken from their largest value
    coefficient before squaring, so a tiny nonzero norm does not underflow
    to zero, and the norm is scaled back. ``finite`` is False at the nodes
    where the unit jets, the norm or the unscaled squares overflow double
    precision.
    """
    values = np.array([j.value for j in jets])
    exponent = np.frexp(np.abs(values).max(axis=0))[1]
    scaled = [jet_ldexp(j, -exponent) for j in jets]
    squares = [jet_mul(j, j) for j in scaled]
    s2 = sum(squares[1:], squares[0])
    norm = jet_sqrt(s2)
    unit = [jet_div(j, norm) for j in scaled]
    norm = jet_ldexp(norm, exponent)
    checked = np.array([j.coeffs for j in unit + [norm]]
                       + [jet_ldexp(s2, 2 * exponent).coeffs])
    finite = np.isfinite(checked).all(axis=(0, 1))
    return unit, norm, finite


@np.errstate(all="ignore")
def leading_unit_jets(jets: list, order: int, undetermined):
    """Unit jets, to the given order, of a jet vector with the leading
    power of ``t - base`` divided out at each node (the first coefficient
    vector above ``_COEFF_DROP`` times the largest one becomes the value),
    and the first failing (node index, error) or None. A node fails where
    its jets overflow, and with ``undetermined(t, lead)`` where fewer than
    ``order + 1`` coefficients follow its leading one, of index ``lead``
    (one past the last where all vanish); its unit jets are zero."""
    base = jets[0].base
    nodes = base.reshape(-1)
    coeffs = np.array([j.coeffs.reshape(-1, nodes.size) for j in jets])
    norms = np.linalg.norm(coeffs, axis=0)
    scale = norms.max(axis=0)
    live = norms > _COEFF_DROP * scale
    lead = np.where(live.any(axis=0), live.argmax(axis=0), len(norms))
    overflow = ~np.isfinite(scale)
    good = ~overflow & (lead < len(norms) - order)
    unit = np.zeros((len(jets), order + 1, nodes.size))
    rows = lead[good] + np.arange(order + 1)[:, None]
    shifted = np.take_along_axis(coeffs[:, :, good], rows[None], axis=1)
    normalized, _, finite = _normalize_jet_vector(
        [Jet(nodes[good], c) for c in shifted])
    unit[:, :, good] = [j.coeffs for j in normalized]
    overflow[good] = ~finite
    failure = None
    bad = np.flatnonzero(overflow | ~good)
    if bad.size:
        i, t = int(bad[0]), float(nodes[bad[0]])
        failure = i, (_overflow_error(t) if overflow[i]
                      else undetermined(t, int(lead[i])))
    shape = (order + 1,) + base.shape
    return [Jet(base, c.reshape(shape)) for c in unit], failure


@dataclass(frozen=True)
class TangentData:
    """Derivative data of a curve at one parameter value, or at each of
    an array of them.

    ``f`` is the curve's point and ``fprime``, ``fsecond`` its first two
    derivatives. ``tau`` is the unit tangent representative and ``tau_p``
    its t-derivative; ``kappa = |tau'|`` and ``mu = tau'/kappa``, with
    derivative ``mu_p``. Taking kappa nonnegative resolves the
    (mu, kappa, ells) -> (-mu, -kappa, -ells) ambiguity throughout the
    package. Where tau' vanishes exactly, ``kappa`` is 0.0 and
    ``mu``/``mu_p`` are None; read them through :meth:`normal`, which
    raises :class:`InflectionError` there.

    A record of N nodes carries the node axis first: ``t`` and ``kappa``
    have shape (N,), the vectors (N, dim), and ``mu``/``mu_p`` hold NaN
    rows where they are undefined. ``record[i]`` is the record of node i,
    ``record[index]`` that of a slice or an index array of nodes.
    """

    t: float
    f: np.ndarray
    fprime: np.ndarray
    fsecond: np.ndarray
    tau: np.ndarray
    tau_p: np.ndarray
    kappa: float
    mu: np.ndarray | None
    mu_p: np.ndarray | None

    def __getitem__(self, i) -> "TangentData":
        if not isinstance(i, (int, np.integer)):
            return TangentData(*(v[i] for v in vars(self).values()))
        defined = not np.isnan(self.mu[i, 0])
        return TangentData(
            float(self.t[i]), self.f[i], self.fprime[i], self.fsecond[i],
            self.tau[i], self.tau_p[i], float(self.kappa[i]),
            self.mu[i] if defined else None,
            self.mu_p[i] if defined else None,
        )

    def aligned(self, refs) -> "TangentData":
        """The record with tau, tau', mu and mu' negated at each node
        where ``tau . ref < 0``; ``refs`` has the shape of ``tau``."""
        flip = np.einsum("...j,...j->...", self.tau, refs) < 0.0
        sign = np.where(flip, -1.0, 1.0)[..., None]
        return replace(self, **{k: sign * getattr(self, k) for k in (
            "tau", "tau_p", "mu", "mu_p") if getattr(self, k) is not None})

    def normal(self):
        """(mu, mu') at t; InflectionError where tau' vanishes (at the
        first such node of an array record)."""
        if self.mu is None:
            raise InflectionError(
                f"inflection point in range: |tau'| = 0 at t={self.t}"
            )
        if np.ndim(self.t):
            undefined = np.isnan(self.mu[:, 0])
            if undefined.any():
                return self[int(np.argmax(undefined))].normal()
        return self.mu, self.mu_p


def _values(jets: list) -> np.ndarray:
    """Value coefficients of a jet vector: (dim,) at one point, (N, dim)
    on a grid."""
    return np.ascontiguousarray(np.array([j.value for j in jets]).T)


def _subset(jets: list, mask: np.ndarray) -> list:
    """The grid jets restricted to the masked nodes, sharing one base."""
    base = jets[0].base[mask]
    return [Jet(base, j.coeffs[:, mask]) for j in jets]


def _raise_first(failures: list, ts: np.ndarray) -> None:
    """Raise the error of the lowest failing (node index, error), an
    overflow error where the error is None."""
    if failures:
        i, error = min(failures, key=lambda f: f[0])
        raise error or _overflow_error(ts[i])


class TangentEvaluator:
    """Jets of a curve's unit tangent line field at parameter values.

    The representative returned at each query is normalized from the
    leading jet coefficient of the velocity; :meth:`TangentData.aligned`
    aligns its sign with neighbouring samples."""

    def __init__(self, curve: Curve, k_max: int = DEFAULT_K_MAX):
        self.curve = curve
        self.k_max = k_max

    @np.errstate(all="ignore")
    def _tau(self, ts: np.ndarray, order: int, vel: list,
             failures: list) -> list:
        """Unit tangent grid jets at the nodes ``ts`` from the velocity
        grid jets ``vel`` of the given order; node failures are appended
        to ``failures``."""
        regular = np.linalg.norm(_values(vel), axis=1) >= SINGULAR_SPEED
        coeffs = np.zeros((len(vel), order + 1, len(ts)))
        unit, _, finite = _normalize_jet_vector(_subset(vel, regular))
        coeffs[:, :, regular] = [j.coeffs for j in unit]
        failures += [(i, None) for i in np.flatnonzero(regular)[~finite]]
        slow = np.flatnonzero(~regular)
        if slow.size:
            deep = order + self.k_max

            def undetermined(t, lead):
                return TangentUndeterminedError(
                    f"tangent line undetermined at t={t}: " + (
                        f"all velocity jets vanish up to order {deep}"
                        if lead > deep else f"velocity jets evaluated to "
                        f"order {deep} lead at order {lead}, too deep for "
                        f"a tangent jet of order {order}"))

            vel = derivative_jets(self.curve.jets(ts[slow], deep + 1))
            unit, failure = leading_unit_jets(vel, order, undetermined)
            coeffs[:, :, slow] = [j.coeffs for j in unit]
            if failure is not None:
                failures.append((slow[failure[0]], failure[1]))
        return [Jet(ts, c) for c in coeffs]

    def tau_jet_vec(self, t, order: int) -> list:
        """Jets of the unit tangent representative, to the given order:
        about a parameter value or about each of an array of them."""
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        vel = derivative_jets(self.curve.jets(ts, order + 1))
        failures = []
        tau = self._tau(ts, order, vel, failures)
        _raise_first(failures, ts)
        return tau if np.ndim(t) else [j[0] for j in tau]

    def at(self, t) -> TangentData:
        """All derivative data at t from one order-3 evaluation of the
        curve's jets (plus one deeper one over the singular-speed nodes);
        for an array t, the record carries the node axis."""
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        n, dim = len(ts), self.curve.dim
        jets = self.curve.jets(ts, 3)
        vel = derivative_jets(jets)
        failures = []
        tau = self._tau(ts, 2, vel, failures)
        tau_p = derivative_jets(tau)
        kappa = np.zeros(n)
        mu, mu_p = np.full((2, n, dim), np.nan)
        # where tau' = 0 exactly, kappa stays 0 and mu is undefined
        defined = np.abs(_values(tau_p)).max(axis=1) != 0.0
        unit, norm, finite = _normalize_jet_vector(_subset(tau_p, defined))
        kappa[defined] = norm.value
        mu[defined] = _values(unit)
        mu_p[defined] = _values(derivative_jets(unit))
        failures += [(i, None) for i in np.flatnonzero(defined)[~finite]]
        _raise_first(failures, ts)
        data = TangentData(ts, _values(jets), _values(vel),
                           _values(derivative_jets(vel)),
                           _values(tau), _values(tau_p), kappa, mu, mu_p)
        return data if np.ndim(t) else data[0]


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


@np.errstate(all="ignore")
def wronskian_matrix(curve: Curve, t0, k: int) -> np.ndarray:
    """(dim x k) matrix whose j-th column is the (j+1)-th derivative; at
    an array of N parameter values, an (N, dim, k) stack from one jet
    evaluation, which raises at the first overflowing node."""
    jets = curve.jets(t0, k)
    cols = [
        [derivative(j, order) for j in jets] for order in range(1, k + 1)
    ]
    matrix = np.array(cols).T
    finite = np.isfinite(matrix).all(axis=(-2, -1))
    if not finite.all():
        bad = t0 if finite.ndim == 0 else t0[np.argmin(finite)]
        raise MathPreconditionError(
            f"derivatives at t={bad} overflow double precision"
        )
    return matrix


def wronskian_rank(curve: Curve, t0: float, k: int,
                   tol: float = DEFAULT_RANK_TOL) -> int:
    if k < 1:
        raise ValueError("k must be >= 1")
    return int(batched_rank(wronskian_matrix(curve, t0, k), tol))


def contact_orders(curve: Curve, t0, k_max: int = DEFAULT_K_MAX,
                   tol: float = DEFAULT_RANK_TOL):
    """Rank profile and the first orders at which rank 1 and 2 are
    attained: a :class:`WronskianReport` at a parameter value, a list of
    them at an array of values.

    The first k columns are ranked relative to the full matrix's scale,
    so a tiny leading column does not count as rank 1 on its own. When
    the ranks never reach 2 up to ``k_max`` the report is inconclusive
    (``frontal_sufficient`` is False); there is no universal recipe for
    how large ``k_max`` must be.
    """
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    full = wronskian_matrix(curve, t0, k_max)
    scale = np.linalg.svd(full, compute_uv=False).max(axis=-1)
    ranks = np.array([batched_rank(full[..., :k], tol, scale)
                      for k in range(1, k_max + 1)]).T
    reports = []
    for t, row in zip(np.atleast_1d(t0).tolist(),
                      np.atleast_2d(ranks).tolist()):
        a1 = next((k for k, r in enumerate(row, 1) if r >= 1), None)
        a2 = next((k for k, r in enumerate(row, 1) if r >= 2), None)
        reports.append(WronskianReport(float(t), tuple(row), a1, a2,
                                       frontal_sufficient=a2 is not None))
    return reports if np.ndim(t0) else reports[0]


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


def chain_signs(raw: np.ndarray):
    """Chain the signs of sampled representatives (N, dim) from the
    first: a row is negated relative to its predecessor where their raw
    inner product is negative. Returns (chained rows, those row indices)."""
    flip = np.einsum("ij,ij->i", raw[1:], raw[:-1]) < 0.0
    sign = np.cumprod(np.concatenate([[1.0], np.where(flip, -1.0, 1.0)]))
    return sign[:, None] * raw, tuple((np.flatnonzero(flip) + 1).tolist())


def unit_tangent(curve: Curve, grid, k_max: int = DEFAULT_K_MAX) -> TangentField:
    """Sample the unit tangent, chaining signs from the leftmost point:
    the leading jet coefficient there, then consecutive samples with
    positive inner product."""
    grid = np.asarray(grid, dtype=float)
    raw = _values(TangentEvaluator(curve, k_max=k_max).tau_jet_vec(grid, 0))
    tau, flips = chain_signs(raw)
    return TangentField(curve=curve, grid=grid, tau=tau, sign_flips=flips)


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

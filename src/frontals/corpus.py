"""Built-in demonstration curves and their expected-value bundles.

Each corpus entry bundles a curve with the closed-form frames,
invariants and surface parametrizations known for it. Every expected
value carries an ``origin`` tag:

* ``reference`` - a published closed form reproduced verbatim;
* ``identity``  - forced by a definition or an algebraic identity;
* ``derived``   - computed here with an independent oracle and frozen.

The flat piecewise curve ``example21`` cannot be written in the
expression grammar, so it is provided with closed-form branch evaluation
for points and for jets over a 1-d array of base points; at t = 0 the
exponentially flat components contribute identically zero jets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import CallableCurve, Curve, ExprCurve
from .errors import ConfigError
from .jets import Jet, constant, jet_div, jet_elem, variable

ORIGINS = ("reference", "identity", "derived")

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Expected:
    key: str
    origin: str
    value: object
    note: str = ""

    def __post_init__(self):
        if self.origin not in ORIGINS:
            raise ValueError(f"unknown origin tag {self.origin!r}")


@dataclass(frozen=True)
class CorpusEntry:
    id: str
    curve: Curve
    expected: tuple = ()
    frame_seed: object = None  # t0 -> (p-1, dim) adapted-frame seeds
    bishop_seed: object = None  # t0 -> (p, dim) curve-normal seeds

    def get(self, key: str) -> Expected:
        for e in self.expected:
            if e.key == key:
                return e
        raise KeyError(f"no expected value {key!r} for corpus entry {self.id}")


# ---------------------------------------------------------------------------
# example21: flat piecewise curve whose tangent surface fails to be frontal


def _flat_point(t: float) -> np.ndarray:
    flat = math.exp(-1.0 / (t * t)) if t * t else 0.0
    if t > 0:
        return np.array([flat, 0.0, -t * t])
    if t < 0:
        return np.array([0.0, flat, -t * t])
    return np.zeros(3)


@np.errstate(divide="ignore")
def _flat_jets(ts: np.ndarray, order: int) -> list:
    u = variable(ts, order)
    w = constant(0.0, ts, order)
    # where exp(-1/t^2) is 0.0 in double precision, so is every derivative
    off = np.exp(-1.0 / (ts * ts)) != 0.0
    v = variable(ts[off], order)
    w.coeffs[:, off] = jet_elem(
        "exp", -jet_div(constant(1.0, ts[off], order), v * v)).coeffs
    return [Jet(ts, np.where(ts > 0, w.coeffs, 0.0)),
            Jet(ts, np.where(ts < 0, w.coeffs, 0.0)), -(u * u)]


def _example21() -> CorpusEntry:
    curve = CallableCurve(
        "example21", 3, (-1.0, 1.0), _flat_point, _flat_jets
    )
    expected = (
        Expected("contact_orders@0", "derived", (2, None),
                 "only the -t^2 component has nonzero jets at 0"),
        Expected("tangent_line@0", "derived", (0.0, 0.0, 1.0),
                 "leading velocity jet coefficient, up to sign"),
        Expected("raw_sign_flip_through_0", "derived", True,
                 "the raw normalized velocity reverses across t = 0"),
    )
    return CorpusEntry("example21", curve, expected)


# ---------------------------------------------------------------------------
# example22: twisted cubic-type curve with fully known frames


def _example22() -> CorpusEntry:
    curve = ExprCurve.from_sources(
        "example22", ("t", "t^2/2", "t^3/6"), (-1.0, 1.0)
    )

    def tau(t):
        return np.array([1.0, t, t * t / 2.0]) * (2.0 / (2.0 + t * t))

    def mu(t):
        return np.array([-2.0 * t, 2.0 - t * t, 2.0 * t]) / (2.0 + t * t)

    def nu(t):
        return np.array([t * t, -2.0 * t, 2.0]) / (2.0 + t * t)

    def kappa(t):
        return 2.0 / (2.0 + t * t)

    def speed(t):
        return (2.0 + t * t) / 2.0

    def tan_derivative_ruling(t, s):
        return np.array([
            t + s,
            t * t / 2.0 + s * t,
            t ** 3 / 6.0 + s * t * t / 2.0,
        ])

    def pal_derivative_ruling(t, s, u):
        return tan_derivative_ruling(t, s) + u * nu(t)

    def directrix_points(t, u):
        return np.array([t + u, t * t / 2.0, t ** 3 / 6.0 + u])

    expected = (
        Expected("tau", "reference", tau),
        Expected("mu", "reference", mu),
        Expected("nu", "reference", nu),
        Expected("kappa", "reference", kappa),
        Expected("ell", "reference", kappa, "equal to kappa for this curve"),
        Expected("a", "derived", speed, "norm of (1, t, t^2/2) in closed form"),
        Expected("tan_derivative_ruling", "reference", tan_derivative_ruling),
        Expected("pal_derivative_ruling", "reference", pal_derivative_ruling),
        Expected("directrix", "reference", directrix_points),
        Expected("contact_orders@0", "derived", (1, 2)),
        Expected("parallel_curve_iff_u0", "reference", True,
                 "the directrix is a parallel curve only at offset 0"),
    )
    return CorpusEntry(
        "example22", curve, expected,
        frame_seed=lambda t0: np.array([nu(t0)]),
    )


# ---------------------------------------------------------------------------
# example23: curve with an inflection point at t = 0


def _example23() -> CorpusEntry:
    curve = ExprCurve.from_sources(
        "example23", ("t", "t^3/6", "t^4/24"), (-1.0, 1.0)
    )

    def nu(t):
        d = math.sqrt(t ** 6 + 36.0 * t * t + 144.0)
        return np.array([t ** 3, -6.0 * t, 12.0]) / d

    def tan_derivative_ruling(t, s):
        return np.array([
            t + s,
            t ** 3 / 6.0 + s * t * t / 2.0,
            t ** 4 / 24.0 + s * t ** 3 / 6.0,
        ])

    expected = (
        Expected("nu", "reference", nu, "unit normal of the tangent surface"),
        Expected("nu2_prime@0", "reference", -0.5),
        Expected("tan_derivative_ruling", "reference", tan_derivative_ruling),
        Expected("inflection@0", "reference", True),
        Expected("contact_orders@0", "derived", (1, 3)),
        # |s(t)/u| of the parallel's singular locus, frozen from the
        # closed-form torsion/curvature ratio 864 a^3 / (|t| D^3)
        Expected("locus_ratio@1e-3", "derived", 499.9998125002461),
        Expected("locus_ratio@1e-2", "derived", 49.998125246086566),
    )
    return CorpusEntry("example23", curve, expected)


# ---------------------------------------------------------------------------
# circle, line, cusp, helix, r4curve


def _circle() -> CorpusEntry:
    curve = ExprCurve.from_sources(
        "circle", ("cos(t)", "sin(t)", "0"), (0.0, TWO_PI)
    )

    def tau(t):
        return np.array([-math.sin(t), math.cos(t), 0.0])

    def mu(t):
        return np.array([-math.cos(t), -math.sin(t), 0.0])

    def nu_surface(t):
        return np.array([0.0, 0.0, 1.0])

    def bishop_radial(t):
        return np.array([math.cos(t), math.sin(t), 0.0])

    expected = (
        Expected("tau", "derived", tau),
        Expected("mu", "derived", mu, "normalized tangent derivative"),
        Expected("nu", "derived", nu_surface),
        Expected("kappa", "derived", lambda t: 1.0),
        Expected("a", "identity", lambda t: 1.0),
        Expected("ell", "derived", lambda t: 0.0, "planar curve"),
        Expected("bishop_field_1", "derived", bishop_radial,
                 "solves nu' = -(nu.tau') tau from seed (1,0,0)"),
        Expected("bishop_field_2", "derived", nu_surface),
        Expected("canal_point@0,0,r=0.3", "derived", (1.3, 0.0, 0.0)),
    )
    return CorpusEntry(
        "circle", curve, expected,
        frame_seed=lambda t0: np.array([nu_surface(t0)]),
        bishop_seed=lambda t0: np.array([bishop_radial(t0), nu_surface(t0)]),
    )


def _line() -> CorpusEntry:
    curve = ExprCurve.from_sources("line", ("t", "0", "0"), (-1.0, 1.0))
    expected = (
        Expected("tau", "identity", lambda t: np.array([1.0, 0.0, 0.0])),
        Expected("kappa", "identity", lambda t: 0.0),
        Expected("nor_is_identity", "identity", True,
                 "normal map with constant frame is (t, u1, u2)"),
        Expected("tan_singular_fraction", "identity", 1.0),
    )
    return CorpusEntry(
        "line", curve, expected,
        bishop_seed=lambda t0: np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    )


def _cusp() -> CorpusEntry:
    curve = ExprCurve.from_sources("cusp", ("t^2/2", "t^3/3"), (-1.0, 1.0))

    def tau(t):
        return np.array([1.0, t]) / math.sqrt(1.0 + t * t)

    expected = (
        Expected("tau_line", "derived", tau,
                 "smooth representative (1, t)/sqrt(1+t^2), up to sign"),
        Expected("contact_orders@0", "identity", (2, 3)),
        Expected("kappa", "derived", lambda t: 1.0 / (1.0 + t * t)),
        Expected("wronskian_rank@0,k=3", "derived", 2,
                 "columns (0,0), (1,0), (0,2)"),
    )
    return CorpusEntry("cusp", curve, expected)


def _helix() -> CorpusEntry:
    curve = ExprCurve.from_sources(
        "helix", ("cos(t)", "sin(t)", "t"), (0.0, TWO_PI)
    )
    s2 = math.sqrt(2.0)

    def nu(t):
        return np.array([math.sin(t), -math.cos(t), 1.0]) / s2

    expected = (
        Expected("a", "derived", lambda t: s2),
        Expected("kappa", "derived", lambda t: 1.0 / s2),
        Expected("ell", "derived", lambda t: 1.0 / s2,
                 "screw symmetry forces constant invariants"),
        Expected("nu", "derived", nu),
    )
    return CorpusEntry(
        "helix", curve, expected,
        frame_seed=lambda t0: np.array([nu(t0)]),
    )


def _r4curve() -> CorpusEntry:
    curve = ExprCurve.from_sources(
        "r4curve", ("t", "t^2/2", "t^3/6", "t^4/24"), (-1.0, 1.0)
    )

    def tan_derivative_ruling(t, s):
        return np.array([
            t + s,
            t * t / 2.0 + s * t,
            t ** 3 / 6.0 + s * t * t / 2.0,
            t ** 4 / 24.0 + s * t ** 3 / 6.0,
        ])

    expected = (
        Expected("tan_derivative_ruling", "identity", tan_derivative_ruling),
        Expected("no_inflection", "derived", True,
                 "f'' is never parallel to f' (first components 0 vs 1)"),
    )
    return CorpusEntry("r4curve", curve, expected)


_BUILDERS = (
    _example21, _example22, _example23, _circle, _line, _cusp, _helix,
    _r4curve,
)

CORPUS = {entry.id: entry for entry in (b() for b in _BUILDERS)}

CORPUS_IDS = tuple(CORPUS)


def get_entry(curve_id: str) -> CorpusEntry:
    try:
        return CORPUS[curve_id]
    except KeyError:
        raise ConfigError(
            f"unknown corpus curve {curve_id!r}; available: "
            + ", ".join(CORPUS_IDS)
        ) from None


def get_curve(curve_id: str) -> Curve:
    return get_entry(curve_id).curve

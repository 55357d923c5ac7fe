import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from frontals.curves import ExprCurve
from frontals.frontal import TangentEvaluator

settings.register_profile(
    "ci", deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def assert_close_upto_sign(actual, expected, tol):
    """Max-abs comparison allowing one global sign on the whole array."""
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    direct = np.abs(actual - expected).max()
    flipped = np.abs(actual + expected).max()
    assert min(direct, flipped) <= tol, (
        f"neither orientation matches: {direct:.3e} / {flipped:.3e} > {tol:g}"
    )


def curve_points(curve, ts):
    """The curve's points at ``ts``, shape (len(ts), dim): the value rows
    of one order-0 jet evaluation."""
    jets = curve.jets(np.asarray(ts, dtype=float), 0)
    return np.stack([j.value for j in jets], axis=-1)


def gauss_rank(matrix, tol=1e-9):
    """Row-reduction rank with partial pivoting and a relative pivot
    threshold; brute-force cross-check for the SVD-based rank."""
    a = np.array(matrix, dtype=float)
    if a.size == 0:
        return 0
    scale = np.abs(a).max()
    if scale == 0.0:
        return 0
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        piv = r + int(np.argmax(np.abs(a[r:, c])))
        if abs(a[piv, c]) <= tol * scale:
            continue
        a[[r, piv]] = a[[piv, r]]
        a[r] = a[r] / a[r, c]
        for i in range(rows):
            if i != r:
                a[i] = a[i] - a[i, c] * a[r]
        r += 1
    return r


def taylor_shift(coeffs, t0):
    """Taylor coefficients of p(t0 + h) in h, by direct binomial sums."""
    n = len(coeffs)
    return [
        sum(math.comb(j, k) * coeffs[j] * t0 ** (j - k) for j in range(k, n))
        for k in range(n)
    ]


def polynomial_source(coeffs):
    """Expression string for sum_k coeffs[k] t^k."""
    parts = []
    for k, c in enumerate(coeffs):
        c = float(c)
        if k == 0:
            parts.append(repr(c))
        elif k == 1:
            parts.append(f"{c!r}*t")
        else:
            parts.append(f"{c!r}*t^{k}")
    return " + ".join(parts)


def random_cubic_curve(seed=20260809, dim=3, min_kappa=0.02, min_speed=0.2):
    """Deterministic inflection-free curve with random cubic components."""
    attempt = 0
    while True:
        rng = np.random.default_rng(seed + attempt)
        coeffs = rng.uniform(-1.0, 1.0, (dim, 4))
        coeffs[0] = (0.0, 1.0, coeffs[0][2] * 0.3, coeffs[0][3] * 0.3)
        sources = tuple(polynomial_source(row) for row in coeffs)
        curve = ExprCurve.from_sources(f"cubic{seed + attempt}", sources,
                                       (-1.0, 1.0))
        ev = TangentEvaluator(curve)
        ts = np.linspace(-1.0, 1.0, 101)
        kappas = np.array([ev.at(t).kappa for t in ts])
        speeds = np.array([np.linalg.norm(ev.at(t).fprime) for t in ts])
        if kappas.min() >= min_kappa and speeds.min() >= min_speed:
            return curve
        attempt += 1
        if attempt > 50:
            raise RuntimeError("could not build an inflection-free curve")


@pytest.fixture(scope="session")
def cubic_curve():
    return random_cubic_curve()

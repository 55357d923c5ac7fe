"""Order-K truncated Taylor (jet) arithmetic, at one point or on a grid.

A jet stores the Taylor coefficients of a scalar function about a base
parameter value, so the k-th derivative there is ``k! * coeffs[k]``.
Sums, products, quotients and compositions with elementary functions are
computed by the classical coefficient recurrences, truncated silently at
the jet order. Jets are immutable values and every operation is a pure
function.

One type, :class:`Jet`, holds the jet at one base point or at N of them:
``base`` has shape ``()`` or ``(N,)`` and ``coeffs`` has shape
``(K+1,) + base.shape``, so row k holds the k-th Taylor coefficient at
every node and one pass over an expression evaluates it on a whole grid.
Indexing a grid jet gives the jet at one node.

Each recurrence is written once over rows. Elementwise ``+ - * /`` and
``sqrt`` are correctly rounded and every sum keeps its order, so node i
of a grid jet equals the jet about ``base[i]`` alone bit for bit. The
constant terms of exp, sin, cos and rational powers are computed with
``math`` and ``**`` element by element for the same reason (numpy's
versions differ from them in the last bit on some inputs). A product
skips a coefficient at the nodes where it is zero, so ``0 * inf`` never
turns into nan. Overflow gives inf; run jet code under ``np.errstate``
where warnings matter (:func:`frontals.expressions.eval_jet` does).

This is the derivative engine behind the curve derivative-matrix rank
tests and all moving-frame computations: those modules never use symbolic
differentiation, only jets evaluated at the query points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


class JetDomainError(ArithmeticError):
    """A jet operation left its numeric domain (singular division, sqrt of
    a non-positive constant term, ...)."""


@dataclass(frozen=True, eq=False)
class Jet:
    """Truncated Taylor expansions ``sum_k coeffs[k] * (t - base)^k``.

    Parameters
    ----------
    base : float or array of shape (N,)
        Expansion point(s), stored as an array of shape () or (N,).
    coeffs : array of shape (K+1,) + base.shape
        Taylor coefficients c0..cK, one row per order.
    """

    base: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        base = np.asarray(self.base, dtype=float)
        coeffs = np.asarray(self.coeffs, dtype=float)
        if base.ndim > 1 or coeffs.shape[1:] != base.shape:
            raise ValueError(
                "jet needs base of shape () or (N,) and coeffs of shape "
                "(K+1,) + base.shape"
            )
        if coeffs.ndim == base.ndim or len(coeffs) == 0:
            raise ValueError("jet needs at least the constant coefficient")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def value(self):
        """Function value at the base point(s) (coefficient c0)."""
        return self.coeffs[0]

    def __getitem__(self, i: int) -> "Jet":
        """The jet at node i of a grid jet."""
        return _jet(self.base[i, ...], self.coeffs[:, i])

    def _new(self, coeffs) -> "Jet":
        return _jet(self.base, coeffs)

    def _coerce(self, other) -> "Jet":
        if isinstance(other, Jet):
            _check_pair(self, other)
            return other
        return constant(float(other), self.base, self.order)

    def __add__(self, other):
        return self._new(self.coeffs + self._coerce(other).coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        return self._new(self.coeffs - self._coerce(other).coeffs)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        return jet_mul(self, self._coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return jet_div(self, self._coerce(other))

    def __rtruediv__(self, other):
        return jet_div(self._coerce(other), self)

    def __neg__(self):
        return self._new(-self.coeffs)


def _jet(base: np.ndarray, coeffs: np.ndarray) -> Jet:
    """A :class:`Jet` from arrays already of the right dtype and shapes."""
    out = object.__new__(Jet)
    object.__setattr__(out, "base", base)
    object.__setattr__(out, "coeffs", coeffs)
    return out


def constant(value: float, base, order: int) -> Jet:
    """Jet of the constant function ``value`` about the base point(s)."""
    base = np.asarray(base, dtype=float)
    if base.ndim > 1:
        raise ValueError("jet base must be a point or a 1-d grid")
    coeffs = np.zeros((order + 1,) + base.shape)
    coeffs[0] = value
    return _jet(base, coeffs)


def variable(base, order: int) -> Jet:
    """Jet of the identity function t about the base point(s)."""
    jet = constant(base, base, order)
    if order:
        jet.coeffs[1] = 1.0
    return jet


def _check_pair(a: Jet, b: Jet) -> None:
    if a.base is not b.base and (a.base.shape != b.base.shape
                                 or not (a.base == b.base).all()):
        raise ValueError("jet base mismatch")
    if len(a.coeffs) != len(b.coeffs):
        raise ValueError("jet order mismatch")


def _pointwise(fn, row):
    """``fn`` (a ``math`` function) applied to each entry of a row."""
    values = [fn(x) for x in np.ravel(row).tolist()]
    return np.array(values).reshape(np.shape(row))


# ---------------------------------------------------------------------------
# Coefficient recurrences over rows: row k of a coefficient array holds the
# k-th coefficient at every node


def _mul_rows(a, b):
    n = len(a)
    live = a != 0.0
    if n == 1 and live.all():
        # the one product of the loop below, which adds it to 0.0
        return 0.0 + a * b
    out = np.zeros(a.shape)
    size = live[0].size
    for i, count in enumerate(live.reshape(n, -1).sum(axis=1).tolist()):
        if count == size:
            out[i:] += a[i] * b[:n - i]
        elif count:
            out[i:] = np.where(live[i], out[i:] + a[i] * b[:n - i], out[i:])
    return out


def _div_rows(a, b):
    b0 = b[0]
    if (b0 == 0.0).any():
        raise JetDomainError("jet division singular")
    b = list(b)
    out = []
    for k, acc in enumerate(a):
        for j in range(k):
            acc = acc - out[j] * b[k - j]
        out.append(acc / b0)
    return np.array(out)


def _exp_rows(g):
    jg = [j * gj for j, gj in enumerate(g)]
    h = [_pointwise(math.exp, g[0])]
    for k in range(1, len(g)):
        acc = 0.0
        for j in range(1, k + 1):
            acc = acc + jg[j] * h[k - j]
        h.append(acc / k)
    return np.array(h)


def _sin_cos_rows(g):
    # sin and cos share the coupled recurrence s' = g'c, c' = -g's
    jg = [j * gj for j, gj in enumerate(g)]
    s = [_pointwise(math.sin, g[0])]
    c = [_pointwise(math.cos, g[0])]
    for k in range(1, len(g)):
        sa = ca = 0.0
        for j in range(1, k + 1):
            sa = sa + jg[j] * c[k - j]
            ca = ca - jg[j] * s[k - j]
        s.append(sa / k)
        c.append(ca / k)
    return np.array(s), np.array(c)


def _sqrt_rows(g):
    if (g[0] <= 0.0).any():
        raise JetDomainError("sqrt of jet with non-positive constant term")
    g = list(g)
    h = [np.sqrt(g[0])]
    for k in range(1, len(g)):
        acc = g[k]
        for j in range(1, k):
            acc = acc - h[j] * h[k - j]
        h.append(acc / (2.0 * h[0]))
    return np.array(h)


def _rational_pow_rows(g, alpha: float):
    if (g[0] <= 0.0).any():
        raise JetDomainError(
            "rational power of jet requires a positive constant term"
        )
    g = list(g)
    ajg = [alpha * j * gj for j, gj in enumerate(g)]
    h = [_pointwise(lambda x: x ** alpha, g[0])]
    jh = [0.0]
    for k in range(1, len(g)):
        acc = 0.0
        for j in range(1, k + 1):
            acc = acc + ajg[j] * h[k - j]
        for j in range(1, k):
            acc = acc - jh[j] * g[k - j]
        h.append(acc / (k * g[0]))
        jh.append(k * h[k])
    return np.array(h)


# ---------------------------------------------------------------------------
# Public operations


def jet_mul(a: Jet, b: Jet) -> Jet:
    """Cauchy product truncated at the common order."""
    _check_pair(a, b)
    return a._new(_mul_rows(a.coeffs, b.coeffs))


def jet_div(a: Jet, b: Jet) -> Jet:
    """Quotient a/b by forward recurrence; b must have nonzero constant term
    (at every node)."""
    _check_pair(a, b)
    return a._new(_div_rows(a.coeffs, b.coeffs))


def jet_elem(fn: str, a: Jet) -> Jet:
    """Compose an elementary function with a jet.

    ``fn`` is one of ``sin``, ``cos``, ``exp``, ``sqrt``. Rational powers
    go through :func:`jet_pow`.
    """
    try:
        if fn == "exp":
            return a._new(_exp_rows(a.coeffs))
        if fn == "sin":
            return a._new(_sin_cos_rows(a.coeffs)[0])
        if fn == "cos":
            return a._new(_sin_cos_rows(a.coeffs)[1])
        if fn == "sqrt":
            return a._new(_sqrt_rows(a.coeffs))
    except OverflowError as exc:
        raise JetDomainError(f"{fn} overflow in jet composition") from exc
    except ValueError as exc:
        # math.sin and math.cos of an infinite argument
        raise JetDomainError(f"{fn} of a non-finite value in jet "
                             f"composition") from exc
    raise ValueError(f"unknown elementary function {fn!r}")


def jet_sqrt(a: Jet) -> Jet:
    return jet_elem("sqrt", a)


def jet_pow(a: Jet, exponent) -> Jet:
    """Raise a jet to an integer or rational power.

    Integer exponents use binary powering and work for any constant term
    (negative exponents need a nonzero one). Non-integer rational
    exponents require a positive constant term and use the standard
    power-series recurrence.
    """
    exponent = Fraction(exponent)
    if exponent.denominator == 1:
        n = exponent.numerator
        if n == 0:
            return constant(1.0, a.base, a.order)
        if n < 0:
            return jet_div(constant(1.0, a.base, a.order), jet_pow(a, -n))
        result = None
        square = a
        while n:
            if n & 1:
                # the first factor is the product 1 * square would give:
                # its -0.0 coefficients turn 0.0
                result = (a._new(square.coeffs + 0.0) if result is None
                          else jet_mul(result, square))
            n >>= 1
            if n:
                square = jet_mul(square, square)
        return result
    try:
        return a._new(_rational_pow_rows(a.coeffs, float(exponent)))
    except OverflowError as exc:
        raise JetDomainError("power overflow in jet composition") from exc


def jet_derivative(a: Jet) -> Jet:
    """Jet of the derivative, one order lower; the derivative of an order-0
    jet is the order-0 zero jet."""
    if a.order == 0:
        return a._new(np.zeros_like(a.coeffs))
    k = np.arange(1.0, len(a.coeffs)).reshape((-1,) + (1,) * a.base.ndim)
    return a._new(k * a.coeffs[1:])


def jet_ldexp(a: Jet, exponent) -> Jet:
    """``a * 2**exponent`` coefficient by coefficient; exact unless a
    coefficient leaves the normal range. For a grid jet ``exponent`` may
    hold one integer per node."""
    return a._new(np.ldexp(a.coeffs, exponent))


def derivative(a: Jet, k: int):
    """k-th derivative of the expanded function at the base point(s)."""
    if k < 0:
        raise ValueError("derivative order must be nonnegative")
    if k > a.order:
        raise ValueError(f"insufficient jet order: need {k}, have {a.order}")
    return math.factorial(k) * a.coeffs[k]

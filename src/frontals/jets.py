"""Order-K truncated Taylor (jet) arithmetic, at one point or on a grid.

A jet stores the Taylor coefficients of a scalar function about a base
parameter value, so the k-th derivative there is ``k! * coeffs[k]``.
Sums, products, quotients and compositions with elementary functions are
computed by the classical coefficient recurrences, truncated silently at
the jet order. Jets are immutable values and every operation is a pure
function.

Two value types share those recurrences:

* :class:`Jet` is the jet at one base point; ``coeffs`` is a tuple of
  floats.
* :class:`JetArray` is the jet at N base points at once; ``coeffs`` is an
  array of shape ``(K+1, N)`` whose row k holds the k-th Taylor
  coefficient at every node, so one pass over an expression evaluates it
  on a whole grid.

Each recurrence is written once over "rows": a row is a float for a
``Jet`` and an (N,) array for a ``JetArray``. Elementwise ``+ - * /`` and
``sqrt`` are correctly rounded and every sum keeps its order, so column i
of a ``JetArray`` equals the ``Jet`` about ``base[i]`` bit for bit. The
constant terms of exp, sin, cos and rational powers are computed with
``math`` and ``**`` element by element for the same reason (numpy's
versions differ from them in the last bit on some inputs). A product skips
a coefficient that is zero at every node and masks one that is zero at
some, as the scalar loop skips it. Array code can overflow to inf where
the scalar code does; run it under ``np.errstate`` where warnings matter.

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


class _JetOps:
    """Operators shared by :class:`Jet` and :class:`JetArray`; a subclass
    supplies ``_new(rows)`` and ``_same_base(other)``."""

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def value(self):
        """Function value at the base point (coefficient c0)."""
        return self.coeffs[0]

    def _coerce(self, other):
        if isinstance(other, _JetOps):
            _check_pair(self, other)
            return other
        return constant(float(other), self.base, self.order)

    def __add__(self, other):
        other = self._coerce(other)
        return self._new([x + y for x, y in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return self._new([x - y for x, y in zip(self.coeffs, other.coeffs)])

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
        return self._new([-c for c in self.coeffs])


@dataclass(frozen=True)
class Jet(_JetOps):
    """Truncated Taylor expansion ``sum_k coeffs[k] * (t - base)^k``.

    Parameters
    ----------
    base : float
        Expansion point t0.
    coeffs : tuple of float
        Taylor coefficients c0..cK; the order is ``len(coeffs) - 1``.
    """

    base: float
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise ValueError("jet needs at least the constant coefficient")
        object.__setattr__(self, "base", float(self.base))
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    def _new(self, rows) -> "Jet":
        return Jet(self.base, tuple(rows))

    def _same_base(self, other) -> bool:
        return self.base == other.base


@dataclass(frozen=True, eq=False)
class JetArray(_JetOps):
    """Jets about N base points: ``coeffs[k, i]`` is the k-th Taylor
    coefficient about ``base[i]``.

    Parameters
    ----------
    base : array of shape (N,)
        Expansion points.
    coeffs : array of shape (K+1, N)
        Taylor coefficients, one row per order.
    """

    base: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        base = np.asarray(self.base, dtype=float)
        coeffs = np.asarray(self.coeffs, dtype=float)
        if base.ndim != 1 or coeffs.ndim != 2 or coeffs.shape[1] != len(base):
            raise ValueError("jet array needs base (N,) and coeffs (K+1, N)")
        if coeffs.shape[0] == 0:
            raise ValueError("jet needs at least the constant coefficient")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "coeffs", coeffs)

    def __getitem__(self, i: int) -> Jet:
        """The :class:`Jet` at node i."""
        return Jet(self.base[i], tuple(self.coeffs[:, i].tolist()))

    def _new(self, rows) -> "JetArray":
        out = np.empty((len(rows), len(self.base)))
        for k, row in enumerate(rows):
            out[k] = row
        return JetArray(self.base, out)

    def _same_base(self, other) -> bool:
        return self.base is other.base or np.array_equal(self.base, other.base)


def constant(value: float, base, order: int):
    """Jet of the constant function ``value``; a :class:`JetArray` when
    ``base`` is an array of base points."""
    if isinstance(base, np.ndarray):
        coeffs = np.zeros((order + 1, len(base)))
        coeffs[0] = value
        return JetArray(base, coeffs)
    return Jet(base, (float(value),) + (0.0,) * order)


def variable(base, order: int):
    """Jet of the identity function t at t0 = base (scalar or array)."""
    if isinstance(base, np.ndarray):
        coeffs = np.zeros((order + 1, len(base)))
        coeffs[0] = base
        if order:
            coeffs[1] = 1.0
        return JetArray(base, coeffs)
    if order == 0:
        return Jet(base, (float(base),))
    return Jet(base, (float(base), 1.0) + (0.0,) * (order - 1))


def _check_pair(a, b) -> None:
    if type(a) is not type(b) or not a._same_base(b):
        raise ValueError("jet base mismatch")
    if a.order != b.order:
        raise ValueError("jet order mismatch")


# ---------------------------------------------------------------------------
# Row helpers: a row is a float (Jet) or an (N,) array (JetArray)


def _any(condition) -> bool:
    if isinstance(condition, np.ndarray):
        return bool(condition.any())
    return bool(condition)


def _live(row):
    """Whether a product term with this coefficient row counts: True,
    False, or the mask of the nodes where the row is nonzero."""
    if not isinstance(row, np.ndarray):
        return row != 0.0
    count = np.count_nonzero(row)
    if count == row.size:
        return True
    return False if count == 0 else row != 0.0


def _pointwise(fn, row):
    """``fn`` (a ``math`` function) applied to each entry of a row."""
    if isinstance(row, np.ndarray):
        return np.array([fn(x) for x in row.tolist()])
    return fn(row)


def _sqrt(row):
    return np.sqrt(row) if isinstance(row, np.ndarray) else math.sqrt(row)


# ---------------------------------------------------------------------------
# Coefficient recurrences


def _mul_rows(a, b) -> list:
    n = len(a) - 1
    out = [0.0] * (n + 1)
    for i, ai in enumerate(a):
        live = _live(ai)
        if live is False:
            continue
        for j in range(n + 1 - i):
            acc = out[i + j] + ai * b[j]
            if live is not True:
                acc = np.where(live, acc, out[i + j])
            out[i + j] = acc
    return out


def _div_rows(a, b) -> list:
    b0 = b[0]
    if _any(b0 == 0.0):
        raise JetDomainError("jet division singular")
    out = []
    for k in range(len(a)):
        acc = a[k]
        for j in range(k):
            acc = acc - out[j] * b[k - j]
        out.append(acc / b0)
    return out


def _exp_rows(g) -> list:
    n = len(g) - 1
    h = [_pointwise(math.exp, g[0])] + [0.0] * n
    for k in range(1, n + 1):
        acc = 0.0
        for j in range(1, k + 1):
            acc = acc + j * g[j] * h[k - j]
        h[k] = acc / k
    return h


def _sin_cos_rows(g) -> tuple:
    # sin and cos share the coupled recurrence s' = g'c, c' = -g's
    n = len(g) - 1
    s = [_pointwise(math.sin, g[0])] + [0.0] * n
    c = [_pointwise(math.cos, g[0])] + [0.0] * n
    for k in range(1, n + 1):
        sa = ca = 0.0
        for j in range(1, k + 1):
            sa = sa + j * g[j] * c[k - j]
            ca = ca - j * g[j] * s[k - j]
        s[k] = sa / k
        c[k] = ca / k
    return s, c


def _sqrt_rows(g) -> list:
    if _any(g[0] <= 0.0):
        raise JetDomainError("sqrt of jet with non-positive constant term")
    n = len(g) - 1
    h = [_sqrt(g[0])] + [0.0] * n
    for k in range(1, n + 1):
        acc = g[k]
        for j in range(1, k):
            acc = acc - h[j] * h[k - j]
        h[k] = acc / (2.0 * h[0])
    return h


def _rational_pow_rows(g, alpha: float) -> list:
    if _any(g[0] <= 0.0):
        raise JetDomainError(
            "rational power of jet requires a positive constant term"
        )
    n = len(g) - 1
    h = [_pointwise(lambda x: x ** alpha, g[0])] + [0.0] * n
    for k in range(1, n + 1):
        acc = 0.0
        for j in range(1, k + 1):
            acc = acc + alpha * j * g[j] * h[k - j]
        for j in range(1, k):
            acc = acc - j * h[j] * g[k - j]
        h[k] = acc / (k * g[0])
    return h


# ---------------------------------------------------------------------------
# Public operations (Jet or JetArray in, same type out)


def jet_mul(a, b):
    """Cauchy product truncated at the common order."""
    _check_pair(a, b)
    return a._new(_mul_rows(a.coeffs, b.coeffs))


def jet_div(a, b):
    """Quotient a/b by forward recurrence; b must have nonzero constant term
    (at every node)."""
    _check_pair(a, b)
    return a._new(_div_rows(a.coeffs, b.coeffs))


def jet_elem(fn: str, a):
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
    raise ValueError(f"unknown elementary function {fn!r}")


def jet_sqrt(a):
    return jet_elem("sqrt", a)


def jet_pow(a, exponent):
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
        result = constant(1.0, a.base, a.order)
        square = a
        while n:
            if n & 1:
                result = jet_mul(result, square)
            n >>= 1
            if n:
                square = jet_mul(square, square)
        return result
    return a._new(_rational_pow_rows(a.coeffs, float(exponent)))


def jet_derivative(a):
    """Jet of the derivative, one order lower; the derivative of an order-0
    jet is the order-0 zero jet."""
    return a._new([(k + 1) * c for k, c in enumerate(a.coeffs[1:])] or [0.0])


def jet_ldexp(a, exponent):
    """``a * 2**exponent`` coefficient by coefficient; exact unless a
    coefficient leaves the normal range. For a JetArray ``exponent`` may
    hold one integer per node."""
    return a._new([np.ldexp(c, exponent) for c in a.coeffs])


def derivative(a, k: int):
    """k-th derivative of the expanded function at the base point(s)."""
    if k < 0:
        raise ValueError("derivative order must be nonnegative")
    if k > a.order:
        raise ValueError(f"insufficient jet order: need {k}, have {a.order}")
    return math.factorial(k) * a.coeffs[k]

"""Order-K truncated Taylor (jet) arithmetic.

A jet stores the Taylor coefficients of a scalar function about a base
parameter value, so the k-th derivative there is ``k! * coeffs[k]``.
Sums, products, quotients and compositions with elementary functions are
computed by the classical coefficient recurrences, truncated silently at
the jet order. Jets are immutable values and every operation is a pure
function, so they are safe to evaluate in parallel across sample points.

This is the derivative engine behind the curve derivative-matrix rank
tests and all moving-frame computations: those modules never use symbolic
differentiation, only jets evaluated at the query point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


class JetDomainError(ArithmeticError):
    """A jet operation left its numeric domain (singular division, sqrt of
    a non-positive constant term, ...)."""


@dataclass(frozen=True)
class Jet:
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

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def value(self) -> float:
        """Function value at the base point (coefficient c0)."""
        return self.coeffs[0]

    def _coerce(self, other) -> "Jet":
        if isinstance(other, Jet):
            _check_pair(self, other)
            return other
        return constant(float(other), self.base, self.order)

    def __add__(self, other):
        other = self._coerce(other)
        return Jet(self.base,
                   tuple(x + y for x, y in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return Jet(self.base,
                   tuple(x - y for x, y in zip(self.coeffs, other.coeffs)))

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
        return Jet(self.base, tuple(-c for c in self.coeffs))


def constant(value: float, base: float, order: int) -> Jet:
    """Jet of the constant function ``value``."""
    return Jet(base, (float(value),) + (0.0,) * order)


def variable(base: float, order: int) -> Jet:
    """Jet of the identity function t at t0 = base."""
    if order == 0:
        return Jet(base, (float(base),))
    return Jet(base, (float(base), 1.0) + (0.0,) * (order - 1))


def _check_pair(a: Jet, b: Jet) -> None:
    if a.base != b.base:
        raise ValueError("jet base mismatch")
    if a.order != b.order:
        raise ValueError("jet order mismatch")


def jet_mul(a: Jet, b: Jet) -> Jet:
    """Cauchy product truncated at the common order."""
    _check_pair(a, b)
    n = a.order
    out = [0.0] * (n + 1)
    for i, ai in enumerate(a.coeffs):
        if ai == 0.0:
            continue
        for j in range(n + 1 - i):
            out[i + j] += ai * b.coeffs[j]
    return Jet(a.base, tuple(out))


def jet_div(a: Jet, b: Jet) -> Jet:
    """Quotient a/b by forward recurrence; b must have nonzero constant term."""
    _check_pair(a, b)
    if b.coeffs[0] == 0.0:
        raise JetDomainError("jet division singular")
    n = a.order
    out = [0.0] * (n + 1)
    for k in range(n + 1):
        acc = a.coeffs[k]
        for j in range(k):
            acc -= out[j] * b.coeffs[k - j]
        out[k] = acc / b.coeffs[0]
    return Jet(a.base, tuple(out))


def _exp_coeffs(g: Jet) -> tuple:
    n = g.order
    h = [math.exp(g.coeffs[0])] + [0.0] * n
    for k in range(1, n + 1):
        acc = 0.0
        for j in range(1, k + 1):
            acc += j * g.coeffs[j] * h[k - j]
        h[k] = acc / k
    return tuple(h)


def _sin_cos_coeffs(g: Jet) -> tuple:
    # sin and cos share the coupled recurrence s' = g'c, c' = -g's
    n = g.order
    s = [math.sin(g.coeffs[0])] + [0.0] * n
    c = [math.cos(g.coeffs[0])] + [0.0] * n
    for k in range(1, n + 1):
        sa = ca = 0.0
        for j in range(1, k + 1):
            sa += j * g.coeffs[j] * c[k - j]
            ca -= j * g.coeffs[j] * s[k - j]
        s[k] = sa / k
        c[k] = ca / k
    return tuple(s), tuple(c)


def _sqrt_coeffs(g: Jet) -> tuple:
    if g.coeffs[0] <= 0.0:
        raise JetDomainError("sqrt of jet with non-positive constant term")
    n = g.order
    h = [math.sqrt(g.coeffs[0])] + [0.0] * n
    for k in range(1, n + 1):
        acc = g.coeffs[k]
        for j in range(1, k):
            acc -= h[j] * h[k - j]
        h[k] = acc / (2.0 * h[0])
    return tuple(h)


def jet_elem(fn: str, a: Jet) -> Jet:
    """Compose an elementary function with a jet.

    ``fn`` is one of ``sin``, ``cos``, ``exp``, ``sqrt``. Rational powers
    go through :func:`jet_pow`.
    """
    try:
        if fn == "exp":
            return Jet(a.base, _exp_coeffs(a))
        if fn == "sin":
            return Jet(a.base, _sin_cos_coeffs(a)[0])
        if fn == "cos":
            return Jet(a.base, _sin_cos_coeffs(a)[1])
        if fn == "sqrt":
            return Jet(a.base, _sqrt_coeffs(a))
    except OverflowError as exc:
        raise JetDomainError(f"{fn} overflow in jet composition") from exc
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
        result = constant(1.0, a.base, a.order)
        square = a
        while n:
            if n & 1:
                result = jet_mul(result, square)
            n >>= 1
            if n:
                square = jet_mul(square, square)
        return result
    if a.coeffs[0] <= 0.0:
        raise JetDomainError(
            "rational power of jet requires a positive constant term"
        )
    alpha = float(exponent)
    n = a.order
    g = a.coeffs
    h = [g[0] ** alpha] + [0.0] * n
    for k in range(1, n + 1):
        acc = 0.0
        for j in range(1, k + 1):
            acc += alpha * j * g[j] * h[k - j]
        for j in range(1, k):
            acc -= j * h[j] * g[k - j]
        h[k] = acc / (k * g[0])
    return Jet(a.base, tuple(h))


def derivative(a: Jet, k: int) -> float:
    """k-th derivative of the expanded function at the base point."""
    if k < 0:
        raise ValueError("derivative order must be nonnegative")
    if k > a.order:
        raise ValueError(f"insufficient jet order: need {k}, have {a.order}")
    return math.factorial(k) * a.coeffs[k]

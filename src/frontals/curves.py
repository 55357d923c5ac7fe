"""Parametric curves, evaluated only as jets.

A curve is a map from a closed interval into R^dim with dim = 1 + p >= 2.
Its one evaluator is :meth:`Curve.jets`; a point is the value row of an
order-0 jet. Most curves come from parsed component expressions; built-in
demo curves may supply a jet callable over a 1-d array of base points
instead (the flat piecewise curve cannot be expressed in the expression
grammar).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, MathPreconditionError
from .expressions import EvalDomainError, eval_jet, parse, to_source
from .jets import Jet


class CurveDefinitionError(ConfigError):
    pass


class Curve:
    """Base class: a named map [t_lo, t_hi] -> R^dim."""

    def __init__(self, name: str, dim: int, domain: tuple):
        if dim < 2:
            raise CurveDefinitionError(f"curve dimension must be >= 2, got {dim}")
        lo, hi = float(domain[0]), float(domain[1])
        if not lo < hi:
            raise CurveDefinitionError(f"empty domain [{lo}, {hi}]")
        self.name = name
        self.dim = dim
        self.domain = (lo, hi)

    @property
    def codim(self) -> int:
        """Normal-bundle rank p = dim - 1."""
        return self.dim - 1

    def jets(self, t0, order: int) -> list:
        """Component jets of the given order about t0, one :class:`Jet`
        per component: about one point for a scalar t0, about every
        point of an array t0 (base of shape (N,))."""
        raise NotImplementedError

    def grid(self, steps: int) -> np.ndarray:
        return np.linspace(self.domain[0], self.domain[1], steps)

    def __repr__(self):
        return f"<{type(self).__name__} {self.name!r} dim={self.dim}>"


class ExprCurve(Curve):
    """Curve whose components are parsed expressions in t."""

    def __init__(self, name, components, domain, sources=None):
        super().__init__(name, len(components), domain)
        self.components = tuple(components)
        self.sources = (
            tuple(sources)
            if sources is not None
            else tuple(to_source(c) for c in components)
        )
        self._validate()

    @classmethod
    def from_sources(cls, name: str, sources, domain) -> "ExprCurve":
        components = tuple(parse(s) for s in sources)
        return cls(name, components, domain, sources=tuple(sources))

    def _validate(self):
        # one order-0 pass over three interior points; only when it fails
        # are they evaluated one at a time, to name the first bad one
        lo, hi = self.domain
        ts = lo + np.array([0.5, 0.25, 0.75]) * (hi - lo)
        try:
            if np.isfinite([eval_jet(c, ts, 0).value
                            for c in self.components]).all():
                return
        except MathPreconditionError:
            pass
        for t in ts.tolist():
            for source, c in zip(self.sources, self.components):
                try:
                    value = eval_jet(c, t, 0).value
                except MathPreconditionError as exc:
                    raise CurveDefinitionError(
                        f"component not evaluable at interior point t={t}: "
                        f"{exc}") from exc
                # constants are finite, so only an overflow makes inf or nan
                if not np.isfinite(value):
                    raise CurveDefinitionError(
                        f"component {source!r} overflows at interior point "
                        f"t={t}")

    def jets(self, t0, order: int) -> list:
        t0 = np.asarray(t0, dtype=float)
        try:
            return [eval_jet(c, t0, order) for c in self.components]
        except EvalDomainError:
            if t0.ndim:
                # raise the first failing node's own error, not that of the
                # first component failing at any node
                for t in t0.tolist():
                    self.jets(t, order)
            raise


class CallableCurve(Curve):
    """Curve defined by an explicit jet callable (built-in corpus use):
    the component jets about every value of a 1-d array,
    ``jets_fn(ts, order)``."""

    def __init__(self, name, dim, domain, jets_fn):
        super().__init__(name, dim, domain)
        self._jets_fn = jets_fn

    @np.errstate(all="ignore")
    def jets(self, t0, order: int) -> list:
        t0 = np.asarray(t0, dtype=float)
        js = self._jets_fn(t0.reshape(-1), int(order))
        if len(js) != self.dim or any(not isinstance(j, Jet) or
                                      j.coeffs.shape != (order + 1, t0.size)
                                      for j in js):
            raise RuntimeError("jet callable returned malformed jets")
        return js if t0.ndim else [j[0] for j in js]

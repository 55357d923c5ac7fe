"""Seeded inputs and job lists of the benchmark workloads.

Every generated curve carries its first two derivatives in closed form,
so the oracles in :mod:`oracles` check the CLI's outputs against
formulas that share no code with the program. The program itself only
ever sees the generated config files and the CLI arguments.

Node counts (the stated input size behind ``nodes_per_s``) are fixed by
the domain widths and grid sizes below and do not depend on the seed;
the seed only moves coefficients, domain offsets, offsets ``u``, radii
and query points.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("frames-grid", "surface-export", "pointwise-checks")

# `verify --check structure|theorem21` refine the t-grid to this spacing
STRUCTURE_SPACING = 1e-3
# `verify --check theorem21` samples at most this many ruling offsets
THEOREM21_S_VALUES = 9


@dataclass(frozen=True)
class CurveSpec:
    """A generated curve: CLI expression sources plus closed forms."""

    name: str
    sources: tuple
    domain: tuple
    f: Callable
    fp: Callable
    fpp: Callable
    # known values the oracles use where a closed form exists
    cusp_at: float | None = None
    ell_abs: float | None = None

    @property
    def dim(self) -> int:
        return len(self.sources)

    def config_text(self) -> str:
        lo, hi = self.domain
        return (
            f"name = {self.name}\n"
            f"dim = {self.dim}\n"
            f"components = [{', '.join(self.sources)}]\n"
            f"domain = [{lo!r}, {hi!r}]\n"
            # verify checks then refine purely by STRUCTURE_SPACING
            "grid.t_steps = 3\n"
            f"grid.s_steps = {THEOREM21_S_VALUES}\n"
        )

    def grid(self, steps: int) -> np.ndarray:
        return np.linspace(self.domain[0], self.domain[1], steps)

    def structure_steps(self) -> int:
        span = self.domain[1] - self.domain[0]
        return max(3, int(math.ceil(span / STRUCTURE_SPACING)) + 1)


@dataclass
class Job:
    """One CLI invocation with its expected exit code and oracle."""

    argv: list
    out: str
    expect_rc: int
    nodes: int
    oracle: str
    curve: CurveSpec | None = None
    params: dict = field(default_factory=dict)
    # smoke-tail jobs count in wall_s but not in the per-job latencies
    tail: bool = False


# ---------------------------------------------------------------------------
# seeded curve families


def _coef(rng: random.Random, lo: float, hi: float) -> float:
    # six decimals, so the config text and the closed form use one value
    return float(f"{rng.uniform(lo, hi):.6f}")


def _plus(c: float, body: str) -> str:
    return f" + {c:.6f}*{body}" if c >= 0 else f" - {-c:.6f}*{body}"


def _cols(*cols):
    return np.stack([np.broadcast_to(c, np.shape(cols[0])) for c in cols],
                    axis=-1)


def _offset_domain(rng, lo_min, lo_max, width):
    lo = round(rng.uniform(lo_min, lo_max), 2)
    return (lo, round(lo + width, 6))


def regular_r3(rng, name, width) -> CurveSpec:
    """(t, t^2/2 + c1 t^3, t^3/6 + c2 t^4 + c3 sin t) on |t| <= 0.7.

    f'' = (0, 1 + 6 c1 t, ...) and f' = (1, ...), so with |c1| < 0.2 the
    two are never parallel: no inflection in range.
    """
    c1 = _coef(rng, -0.08, 0.08)
    c2 = _coef(rng, -0.05, 0.05)
    c3 = _coef(rng, -0.15, 0.15)
    sources = ("t", "t^2/2" + _plus(c1, "t^3"),
               "t^3/6" + _plus(c2, "t^4") + _plus(c3, "sin(t)"))
    return CurveSpec(
        name, sources, _offset_domain(rng, -0.7, 0.7 - width, width),
        f=lambda t: _cols(t, t**2 / 2 + c1 * t**3,
                          t**3 / 6 + c2 * t**4 + c3 * np.sin(t)),
        fp=lambda t: _cols(np.ones_like(t), t + 3 * c1 * t**2,
                           t**2 / 2 + 4 * c2 * t**3 + c3 * np.cos(t)),
        fpp=lambda t: _cols(np.zeros_like(t), 1 + 6 * c1 * t,
                            t + 12 * c2 * t**2 - c3 * np.sin(t)),
    )


def helix(rng, name, width) -> CurveSpec:
    """(cos t, sin t, c t): constant kappa and |ell| = c / sqrt(1 + c^2)."""
    c = _coef(rng, 0.5, 1.5)
    return CurveSpec(
        name, ("cos(t)", "sin(t)", f"{c:.6f}*t"),
        _offset_domain(rng, 0.0, 5.5, width),
        f=lambda t: _cols(np.cos(t), np.sin(t), c * t),
        fp=lambda t: _cols(-np.sin(t), np.cos(t), np.full_like(t, c)),
        fpp=lambda t: _cols(-np.cos(t), -np.sin(t), np.zeros_like(t)),
        ell_abs=c / math.sqrt(1.0 + c * c),
    )


def poly_trig_r4(rng, name, width) -> CurveSpec:
    """(t, t^2/2 + a1 t^3, t^3/6 + a2 sin t, t^4/24 + a3 cos t)."""
    a1 = _coef(rng, -0.08, 0.08)
    a2 = _coef(rng, -0.15, 0.15)
    a3 = _coef(rng, -0.15, 0.15)
    sources = ("t", "t^2/2" + _plus(a1, "t^3"),
               "t^3/6" + _plus(a2, "sin(t)"),
               "t^4/24" + _plus(a3, "cos(t)"))
    return CurveSpec(
        name, sources, _offset_domain(rng, -0.7, 0.7 - width, width),
        f=lambda t: _cols(t, t**2 / 2 + a1 * t**3, t**3 / 6 + a2 * np.sin(t),
                          t**4 / 24 + a3 * np.cos(t)),
        fp=lambda t: _cols(np.ones_like(t), t + 3 * a1 * t**2,
                           t**2 / 2 + a2 * np.cos(t),
                           t**3 / 6 - a3 * np.sin(t)),
        fpp=lambda t: _cols(np.zeros_like(t), 1 + 6 * a1 * t,
                            t - a2 * np.sin(t), t**2 / 2 - a3 * np.cos(t)),
    )


def cusp(rng, name) -> CurveSpec:
    """(t^2/2, t^3/3 + c t^4, d t^4) on [-1, 1]: contact orders (2, 3) at 0
    and (1, 2) elsewhere (f' and f'' are parallel only at t = 0 when
    d != 0)."""
    c = _coef(rng, -0.1, 0.1)
    d = _coef(rng, 0.05, 0.3) * rng.choice((-1.0, 1.0))
    return CurveSpec(
        name, ("t^2/2", "t^3/3" + _plus(c, "t^4"), f"{d:.6f}*t^4"),
        (-1.0, 1.0),
        f=lambda t: _cols(t**2 / 2, t**3 / 3 + c * t**4, d * t**4),
        fp=lambda t: _cols(t, t**2 + 4 * c * t**3, 4 * d * t**3),
        fpp=lambda t: _cols(np.ones_like(t), 2 * t + 12 * c * t**2,
                            12 * d * t**2),
        cusp_at=0.0,
    )


# ---------------------------------------------------------------------------
# job builders


class _Builder:
    """Collects jobs; writes each curve's config once into ``workdir``."""

    def __init__(self, workdir: Path):
        self.workdir = Path(workdir)
        self.jobs: list = []
        self.configs: list = []
        self.tail = False

    def config(self, curve: CurveSpec) -> str:
        path = self.workdir / f"{curve.name}.cfg"
        if str(path) not in self.configs:
            path.write_text(curve.config_text(), encoding="utf-8")
            self.configs.append(str(path))
        return str(path)

    def add(self, curve, argv, nodes, oracle, expect_rc=0, suffix="txt",
            **params):
        out = str(self.workdir / f"job{len(self.jobs):03d}.{suffix}")
        if curve is not None:
            argv = [argv[0], "--config", self.config(curve)] + argv[1:]
        self.jobs.append(Job(list(argv) + ["--out", out], out, expect_rc,
                             nodes, oracle, curve, params, self.tail))

    # one method per CLI command shape

    def invariants(self, curve, t_steps):
        self.add(curve, ["invariants", "--t-steps", str(t_steps)], t_steps,
                 "invariants", suffix="csv", t_steps=t_steps)

    def verify(self, curve, check, t_steps=None, s_steps=None, u=()):
        argv = ["verify", "--check", check]
        if t_steps:
            argv += ["--t-steps", str(t_steps)]
        if s_steps:
            argv += ["--s-steps", str(s_steps)]
        for value in u:
            argv += ["--u", repr(value)]
        if check == "structure":
            nodes = curve.structure_steps()
        elif check == "theorem21":
            nodes = curve.structure_steps() * THEOREM21_S_VALUES
        elif check == "theorem22":
            nodes = t_steps * s_steps
        else:
            nodes = t_steps
        self.add(curve, argv, nodes, "verify", suffix="jsonl", check=check)

    def surface(self, curve, kind, t_steps, s_steps, export="obj", **extra):
        argv = ["surface", "--kind", kind, "--export", export,
                "--t-steps", str(t_steps), "--s-steps", str(s_steps)]
        if "u" in extra:
            argv += ["--u", repr(extra["u"])]
        if "r" in extra:
            argv += ["--r", repr(extra["r"])]
        nodes = t_steps * s_steps ** (curve.dim - 1 if kind == "nor" else 1)
        self.add(curve, argv, nodes, f"{kind}_{export}", suffix=export,
                 t_steps=t_steps, s_steps=s_steps, **extra)

    def frontality(self, curve, t_steps, t0=None, corpus_id=None,
                   expect=None, expect_rc=0):
        argv = ["frontality"]
        if corpus_id:
            argv += ["--curve", corpus_id]
        if t_steps:
            argv += ["--t-steps", str(t_steps)]
        if t0 is not None:
            argv += ["--t0", repr(t0)]
        grid = t_steps or 201  # corpus default grid
        nodes = grid + (1 if t0 is not None else 0)
        self.add(curve, argv, nodes, "frontality", expect_rc=expect_rc,
                 t_steps=grid, t0=t0, expect=expect)


def _pick(tiny, full, small):
    return small if tiny else full


def _smoke_tail(b: _Builder, rng):
    """Every subcommand once on a short curve, so each layer the trace
    names runs in every workload and none reads as a constant zero."""
    b.tail = True
    short = regular_r3(rng, "short", 0.01)
    short4 = poly_trig_r4(rng, "short4", 0.01)
    b.invariants(short, 7)
    b.verify(short, "structure")
    b.verify(short, "theorem21")
    b.verify(short4, "theorem22", t_steps=7, s_steps=3, u=(0.3, -0.2))
    b.verify(short, "symplectic", t_steps=11)
    b.surface(short, "tan", 7, 3)
    b.surface(short, "pal", 7, 3, u=0.3)
    b.surface(short, "can", 7, 3, r=0.2)
    b.surface(short4, "nor", 7, 3, export="csv")
    b.frontality(short, 7, t0=round(sum(short.domain) / 2, 4),
                 expect=(1, 2))


def frames_grid(b: _Builder, rng, tiny):
    # the R4 structure check is the slowest job by a clear margin, so
    # job_max_s always reads the same job
    r3 = regular_r3(rng, "r3", _pick(tiny, 0.15, 0.02))
    hx = helix(rng, "helix", _pick(tiny, 0.4, 0.02))
    r4 = poly_trig_r4(rng, "r4", _pick(tiny, 0.2, 0.02))
    for curve, inv_steps in ((r3, 201), (hx, 201), (r4, 151)):
        b.invariants(curve, _pick(tiny, inv_steps, 11))
    for curve in (r3, hx, r4):
        b.verify(curve, "structure")
    t22 = dict(t_steps=_pick(tiny, 81, 11), s_steps=_pick(tiny, 21, 5))
    b.verify(r3, "theorem22", u=(round(rng.uniform(0.2, 0.6), 3),), **t22)
    b.verify(hx, "theorem22", u=(round(rng.uniform(0.2, 0.6), 3),), **t22)
    b.verify(r4, "theorem22", u=(round(rng.uniform(0.2, 0.5), 3),
                                 round(rng.uniform(-0.5, -0.2), 3)), **t22)


def surface_export(b: _Builder, rng, tiny):
    r4 = poly_trig_r4(rng, "r4", 0.5)
    r3 = regular_r3(rng, "r3", 0.8)
    # few t-nodes, many rulings: export grows, the jets along t do not
    t_steps = _pick(tiny, 51, 11)
    s_steps = _pick(tiny, 801, 5)
    b.surface(r4, "nor", _pick(tiny, 151, 11), _pick(tiny, 11, 3),
              export="csv")
    b.surface(r3, "tan", t_steps, s_steps)
    b.surface(r3, "pal", t_steps, s_steps,
              u=round(rng.uniform(0.2, 0.6), 3))
    b.surface(r3, "can", t_steps, s_steps,
              r=round(rng.uniform(0.1, 0.4), 3))


def pointwise_checks(b: _Builder, rng, tiny):
    queries = _pick(tiny, 8, 2)
    for k in range(_pick(tiny, 3, 1)):
        cu = cusp(rng, f"cusp{k}")
        b.frontality(cu, _pick(tiny, 201, 21))
        b.frontality(cu, 21, t0=0.0, expect=(2, 3))
        for _ in range(queries - 1):
            t0 = round(rng.uniform(0.05, 0.95), 4) * rng.choice((-1, 1))
            b.frontality(cu, 21, t0=t0, expect=(1, 2))
    # exp-flat corpus curve: no config can express it. Off zero the
    # query stays at |t0| >= 0.4: closer in, the rank threshold relative
    # to the order-8 derivatives reports a2 = 3 or 4 instead of 2
    b.frontality(None, None, t0=0.0, corpus_id="example21",
                 expect=(2, None), expect_rc=2)
    b.frontality(None, None, t0=round(rng.uniform(0.4, 0.9), 4),
                 corpus_id="example21", expect=(1, 2))
    # unequal widths keep the slowest job (job_max_s) the same one
    for k, width in enumerate(_pick(tiny, (0.3, 0.15), (0.02, 0.02))):
        b.verify(regular_r3(rng, f"flat{k}", width), "theorem21")
    b.verify(regular_r3(rng, "sym", 0.6), "symplectic",
             t_steps=_pick(tiny, 201, 21))
    b.verify(helix(rng, "symhelix", 1.0), "symplectic",
             t_steps=_pick(tiny, 201, 21))


_BUILDERS = {
    "frames-grid": frames_grid,
    "surface-export": surface_export,
    "pointwise-checks": pointwise_checks,
}


def build(workload: str, seed: int, workdir, tiny: bool = False):
    """Write the workload's configs into ``workdir``; return
    ``(jobs, config_paths)``."""
    rng = random.Random(f"{workload}:{seed}")
    b = _Builder(workdir)
    _BUILDERS[workload](b, rng, tiny)
    _smoke_tail(b, rng)
    return b.jobs, b.configs

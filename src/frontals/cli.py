"""Command-line front end.

Subcommands: ``invariants``, ``surface``, ``verify``, ``frontality``,
``bishop``. A curve comes either from the built-in corpus (``--curve``)
or from a config file (``--config``). Exit codes: 0 success/pass,
1 configuration or usage error, 2 violated math precondition or failed
check, 3 I/O error. All output is deterministic: identical inputs
produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from typing import NamedTuple

import numpy as np

from . import corpus
from .config import load_config
from .errors import ConfigError, MathPreconditionError
from .exports import (
    csv_lines,
    jsonl_line,
    surface_csv_lines,
    surface_obj_lines,
    write_lines,
)
from .frames import (
    adapted_frame,
    bishop_invariants,
    bishop_transport,
    grid_record,
    invariants,
    structure_residuals_adapted,
    structure_residuals_bishop,
)
from .frontal import contact_orders, unit_tangent
from .linalg import orthonormal_completion
from .surfaces import (
    SurfaceGrid,
    canal_surface,
    directrix,
    directrix_tangent_map,
    normal_flatness_residual,
    normal_map,
    parallel_of_tangent,
    symplectic_pullback_check,
    tangent_map,
    verify_right_equivalence,
)

SURFACE_KINDS = ("tan", "nor", "pal", "can", "directrix-tan")

_STRUCTURE_SPACING = 1e-3

#: |tau'| below which every node counts as lying on a straight segment
_STRAIGHT_KAPPA = 1e-12

#: most nodes one sampled grid may have
_MAX_GRID_NODES = 500_000


def _add_curve_args(p):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--curve", help="built-in curve id: "
                       + ", ".join(corpus.CORPUS_IDS))
    group.add_argument("--config", help="path to a curve config file")


def _add_grid_args(p):
    p.add_argument("--t-steps", type=int, default=None)
    p.add_argument("--s-steps", type=int, default=None)
    p.add_argument("--s-range", type=float, nargs=2, default=None,
                   metavar=("LO", "HI"))


class _CurveContext:
    def __init__(self, args):
        self.entry = None
        if args.curve:
            self.entry = corpus.get_entry(args.curve)
            self.curve = self.entry.curve
            t_steps, s_steps, s_range = 201, 101, (-1.0, 1.0)
        else:
            cfg = load_config(args.config)
            self.curve = cfg.build_curve()
            t_steps, s_steps = cfg.grid.t_steps, cfg.grid.s_steps
            s_range = cfg.grid.s_range
        if getattr(args, "t_steps", None) is not None:
            t_steps = args.t_steps
        if getattr(args, "s_steps", None) is not None:
            s_steps = args.s_steps
        if getattr(args, "s_range", None):
            s_range = tuple(args.s_range)
        if t_steps < 2 or s_steps < 2:
            raise ConfigError("step counts must be >= 2")
        for name in ("t0", "u", "s_range", "fd_step", "r", "tol"):
            value = getattr(args, name, None)
            if value is None:
                continue
            flag = "--" + name.replace("_", "-")
            if not np.isfinite(value).all():
                raise ConfigError(f"{flag} must be finite")
            if name in ("fd_step", "r", "tol") and not value > 0.0:
                raise ConfigError(f"{flag} must be > 0")
        if getattr(args, "k_max", 2) < 2:
            raise ConfigError("--k-max must be >= 2")
        self.t_steps = t_steps
        self.s_steps = s_steps
        self.s_range = s_range

    def grid(self, steps, *rulings):
        """The curve's grid of ``steps`` nodes; a ConfigError, before it
        is built, when it and ``rulings`` per node pass _MAX_GRID_NODES."""
        nodes = math.prod((steps, *rulings))
        if nodes > _MAX_GRID_NODES:
            raise ConfigError(f"a grid of {nodes} nodes exceeds the limit of "
                              f"{_MAX_GRID_NODES}; lower --t-steps/--s-steps")
        return self.curve.grid(steps)

    @property
    def t_grid(self):
        return self.grid(self.t_steps)

    @property
    def s_grid(self):
        return np.linspace(self.s_range[0], self.s_range[1], self.s_steps)

    def frame(self, record):
        """The adapted frame on a grid record, seeded by the corpus
        entry's frame seed where it has one."""
        seed = None if self.entry is None else self.entry.frame_seed
        return adapted_frame(record, nu0=seed and seed(record.grid[0]))

    def bishop_fields(self, record):
        if self.entry is not None and self.entry.bishop_seed is not None:
            seeds = self.entry.bishop_seed(record.grid[0])
        else:
            seeds = orthonormal_completion(
                [record.nodes.tau[0]], self.curve.dim, self.curve.codim
            )
        return bishop_transport(record, seeds)

    def offsets(self, args):
        wanted = self.curve.codim - 1
        if wanted == 0:
            return np.zeros(0)
        if args.u is None:
            if wanted == 1:
                return np.array([0.5])
            raise ConfigError(
                f"this curve needs {wanted} offsets: pass --u once per offset"
            )
        offs = np.asarray(args.u, dtype=float)
        if offs.shape != (wanted,):
            raise ConfigError(
                f"expected {wanted} offset value(s), got {len(offs)}"
            )
        return offs


def _frame_unless_straight(ctx, record):
    """The adapted frame on the record's grid, or None when |tau'| is
    below ``_STRAIGHT_KAPPA`` on every node: such a curve has no adapted
    frame, and any constant normal frame is parallel along it."""
    if (record.nodes.kappa < _STRAIGHT_KAPPA).all():
        return None
    return ctx.frame(record)


# ---------------------------------------------------------------------------
# invariants


def cmd_invariants(args) -> int:
    ctx = _CurveContext(args)
    curve = ctx.curve
    t_grid = ctx.t_grid
    q = curve.codim - 1
    n = len(t_grid)
    header = ["t", "a", "kappa"] + [f"ell_{i + 1}" for i in range(q)]
    record = grid_record(curve, t_grid)
    frame = _frame_unless_straight(ctx, record)
    if frame is None:
        a = np.einsum("nk,nk->n", record.nodes.fprime, record.nodes.tau)
        kappa, ells = np.zeros(n), np.zeros((q, n))
    else:
        prof = invariants(frame)
        a, kappa, ells = prof.a, prof.kappa, prof.ells
    values = np.column_stack([t_grid, a, kappa, *ells])
    write_lines(csv_lines(header, values), args.out or sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# surface


def _build_surface(ctx, args) -> SurfaceGrid:
    curve = ctx.curve
    if args.kind == "nor":
        # the normal map is sampled over all 1+p parameters; keep the
        # default per-axis resolution tame for higher codimension
        p = curve.codim
        steps = ctx.s_steps if p == 1 else min(ctx.s_steps, 11)
        t_grid = ctx.grid(ctx.t_steps, *[steps] * p)
        fields = ctx.bishop_fields(grid_record(curve, t_grid))
        u_axis = np.linspace(ctx.s_range[0], ctx.s_range[1], steps)
        return normal_map(fields, u_axis)
    record = grid_record(curve, ctx.grid(ctx.t_steps, ctx.s_steps))
    if args.kind == "tan":
        return tangent_map(record, ctx.s_grid, ruling=args.ruling)
    if args.kind == "can":
        theta = np.linspace(0.0, 2.0 * math.pi, ctx.s_steps)
        return canal_surface(ctx.bishop_fields(record), args.r, theta)
    offsets = ctx.offsets(args)
    frame = ctx.frame(record)
    if args.kind == "pal":
        return parallel_of_tangent(frame, offsets, ctx.s_grid,
                                   ruling=args.ruling)
    return directrix_tangent_map(frame, offsets, ctx.s_grid)


def cmd_surface(args) -> int:
    ctx = _CurveContext(args)
    grid = _build_surface(ctx, args)
    export = surface_obj_lines if args.export == "obj" else surface_csv_lines
    write_lines(export(grid), args.out or sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# verify


class _Report(NamedTuple):
    """What one check found: the residual its tolerance bounds, the
    detail lines under its PASS/FAIL line and the fields its JSON-lines
    record adds to check, curve, residual, tolerance and pass."""

    residual: float
    lines: list
    fields: dict
    vacuous: bool = False


def _fine_grid(ctx, *rulings):
    """The parameter grid refined to ``_STRUCTURE_SPACING``, for checks
    that difference sampled frames, with ``rulings`` samples per node."""
    span = ctx.curve.domain[1] - ctx.curve.domain[0]
    steps = max(ctx.t_steps, int(math.ceil(span / _STRUCTURE_SPACING)) + 1)
    return ctx.grid(steps, *rulings)


def _verify_theorem22(ctx, args, tol):
    curve = ctx.curve
    if curve.codim < 2:
        raise MathPreconditionError(
            "parallel-equivalence check needs codimension >= 2"
        )
    offsets = ctx.offsets(args)
    frame = ctx.frame(grid_record(curve, ctx.grid(ctx.t_steps, ctx.s_steps)))
    prof = invariants(frame)
    pal = parallel_of_tangent(frame, offsets, ctx.s_grid)
    dirx = directrix(frame, prof, offsets)
    dirx.require_witness()
    report = verify_right_equivalence(pal, dirx, frame, prof)
    return _Report(report.residual, [
        f"  max |parallel - reparametrized tangent map of directrix| = "
        f"{report.residual:.6e} (tolerance {tol:.1e})",
        f"  shared-frame identity residual = {report.shared_residual:.6e}",
        f"  independent-transport residual = {report.independent_residual:.6e}",
    ], {
        "offsets": [float(u) for u in offsets],
        "shared_residual": report.shared_residual,
        "independent_residual": report.independent_residual,
    })


def _verify_theorem21(ctx, args, tol):
    # the parallelism witness differentiates the transported fields by
    # central differences, so it needs a fine parameter grid; a handful
    # of ruling offsets is plenty because the normal spaces are constant
    # along each ruling
    s_grid = np.linspace(ctx.s_range[0], ctx.s_range[1], min(ctx.s_steps, 9))
    t_grid = _fine_grid(ctx, len(s_grid))
    frame = _frame_unless_straight(ctx, grid_record(ctx.curve, t_grid))
    if frame is None:
        return _Report(
            0.0, ["  every sampled node of the tangent map is singular"],
            {"vacuous": True}, vacuous=True,
        )
    report = normal_flatness_residual(frame, s_grid)
    return _Report(report.max_residual, [
        f"  max normal-parallelism residual on the tangent surface = "
        f"{report.max_residual:.6e} (tolerance {tol:.1e})",
        f"  nodes checked {report.checked}, skipped near the singular set "
        f"{report.skipped}",
    ], {
        "vacuous": report.vacuous, "checked_nodes": report.checked,
        "skipped_nodes": report.skipped,
    }, report.vacuous)


def _verify_symplectic(ctx, args, tol):
    fields = ctx.bishop_fields(grid_record(ctx.curve, ctx.t_grid))
    report = symplectic_pullback_check(fields, fd_step=args.fd_step)
    return _Report(report.max_entry, [
        f"  max pullback entry of the canonical two-form = "
        f"{report.max_entry:.6e} (tolerance {tol:.1e})",
    ], {"fd_step": args.fd_step})


def _verify_structure(ctx, args, tol):
    record = grid_record(ctx.curve, _fine_grid(ctx))
    residuals = {}

    fields = ctx.bishop_fields(record)
    binv = bishop_invariants(fields)
    for key, val in structure_residuals_bishop(fields, binv).items():
        residuals[f"curve_normal.{key}"] = val

    frame = _frame_unless_straight(ctx, record)
    if frame is not None:
        prof = invariants(frame)
        for key, val in structure_residuals_adapted(frame, prof).items():
            residuals[f"surface_normal.{key}"] = val
    worst = max(residuals.values())
    lines = [f"  {key}: {residuals[key]:.6e}" for key in sorted(residuals)]
    lines.append(f"  worst residual {worst:.6e} (tolerance {tol:.1e})")
    return _Report(worst, lines,
                   {"residuals": residuals, "t_steps": len(record.grid)})


#: check name -> (check function, default tolerance)
_CHECKS = {
    "theorem22": (_verify_theorem22, 1e-5),
    "theorem21": (_verify_theorem21, 1e-5),
    "symplectic": (_verify_symplectic, 1e-6),
    "structure": (_verify_structure, 1e-5),
}


def cmd_verify(args) -> int:
    ctx = _CurveContext(args)
    check, default_tol = _CHECKS[args.check]
    tol = default_tol if args.tol is None else args.tol
    report = check(ctx, args, tol)
    passed = report.vacuous or report.residual <= tol
    header = (f"check {args.check} on {ctx.curve.name}: "
              f"{'PASS' if passed else 'FAIL'}"
              + (" (vacuous)" if report.vacuous else ""))
    write_lines([header] + report.lines, sys.stdout)
    record = jsonl_line({
        "check": args.check, "curve": ctx.curve.name,
        "residual": report.residual, "tolerance": tol, "pass": passed,
        **report.fields,
    })
    write_lines([record], args.out or sys.stdout)
    return 0 if passed else 2


# ---------------------------------------------------------------------------
# frontality


def cmd_frontality(args) -> int:
    ctx = _CurveContext(args)
    curve = ctx.curve
    t0 = ctx.t_grid if args.t0 is None else args.t0
    reports = contact_orders(curve, t0, k_max=args.k_max, tol=args.tol)
    reports = reports if args.t0 is None else [reports]
    lines = [
        f"t0={rep.t0!r} ranks={','.join(str(r) for r in rep.ranks)} "
        f"a1={rep.a1} a2={rep.a2} "
        f"sufficient={'yes' if rep.frontal_sufficient else 'no'}"
        for rep in reports
    ]
    all_sufficient = all(rep.frontal_sufficient for rep in reports)
    tf = unit_tangent(curve, ctx.t_grid, k_max=args.k_max)
    if tf.sign_flips:
        flips = ", ".join(map(repr, tf.grid[list(tf.sign_flips)].tolist()))
        lines.append(f"tangent-line representative sign flips near t = {flips}")
    else:
        lines.append("tangent-line representative has no sign flips")
    lines.append(
        "summary: rank 2 attained at "
        f"{'all' if all_sufficient else 'NOT all'} sampled points"
    )
    write_lines(lines, args.out or sys.stdout)
    return 0 if all_sufficient else 2


# ---------------------------------------------------------------------------
# bishop


def cmd_bishop(args) -> int:
    ctx = _CurveContext(args)
    t_grid = ctx.t_grid
    fields = ctx.bishop_fields(grid_record(ctx.curve, t_grid))
    header = ["t"] + [f"nu{i + 1}_x{j + 1}" for i in range(fields.n_fields)
                      for j in range(ctx.curve.dim)]
    values = np.column_stack([t_grid, *fields.vectors])
    write_lines(csv_lines(header, values), args.out or sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# argument wiring


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, the code of every
    other configuration error, instead of argparse's 2, and which reads a
    negative number in exponent form (``-1e-3``) or a negative non-finite
    one (``-inf``, ``-nan``) as a value: argparse's own pattern (Python
    3.10-3.13) matches only ``-1`` and ``-.5`` forms."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[+-]?\d+)?|inf|infinity|nan)$", re.I)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="frontals",
        description="Frame fields, invariants and ruled surfaces of "
        "frontal curves, with numeric verification checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="CSV of t, a, kappa, ell_i")
    _add_curve_args(p)
    _add_grid_args(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("surface", help="sample a ruled map to OBJ or CSV")
    _add_curve_args(p)
    _add_grid_args(p)
    p.add_argument("--kind", choices=SURFACE_KINDS, required=True)
    p.add_argument("--export", choices=("obj", "csv"), default="obj")
    p.add_argument("--ruling", choices=("unit", "derivative"), default="unit")
    p.add_argument("--u", type=float, action="append",
                   help="normal offset (repeat for several)")
    p.add_argument("--r", type=float, default=0.3, help="tube radius")
    p.add_argument("--out")
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("verify", help="run a named verification check")
    _add_curve_args(p)
    _add_grid_args(p)
    p.add_argument("--check", choices=tuple(_CHECKS), required=True)
    p.add_argument("--u", type=float, action="append")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--fd-step", type=float, default=1e-4)
    p.add_argument("--out", help="JSON-lines residual log path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("frontality", help="rank profile of the derivative "
                       "matrix across the parameter grid")
    _add_curve_args(p)
    _add_grid_args(p)
    p.add_argument("--t0", type=float, default=None)
    p.add_argument("--k-max", type=int, default=8)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out")
    p.set_defaults(func=cmd_frontality)

    p = sub.add_parser("bishop", help="CSV of parallel-transported normal "
                       "fields of the curve")
    _add_curve_args(p)
    _add_grid_args(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bishop)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MathPreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())

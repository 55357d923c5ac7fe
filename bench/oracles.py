"""Correctness oracles for benchmark job outputs.

Each oracle reads one job's output file (and the captured stdout) and
compares it with the generator's closed forms in :mod:`workloads`. None
of them imports the program under test. An oracle raises
:class:`OracleError` on the first mismatch.
"""

from __future__ import annotations

import json
import re

import numpy as np

# values computed exactly from jets (a, kappa, grid points)
JET_RTOL = 1e-8
# values that pass through an RK4 transport of orthonormal fields
TRANSPORT_TOL = 1e-6


class OracleError(Exception):
    pass


def _require(ok, message):
    if not ok:
        raise OracleError(message)


def _close(name, got, want, rtol, atol=1e-12):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    _require(got.shape == want.shape,
             f"{name}: shape {got.shape} != expected {want.shape}")
    _require(np.all(np.isfinite(got)), f"{name}: non-finite values")
    err = np.abs(got - want)
    bound = atol + rtol * np.abs(want)
    worst = int(np.argmax(err - bound))
    _require(np.all(err <= bound),
             f"{name}: |{got.flat[worst]!r} - {want.flat[worst]!r}| exceeds "
             f"rtol {rtol:g}")


def _load_csv(path, header_prefix):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        _require(header[:len(header_prefix)] == header_prefix,
                 f"unexpected CSV header {header}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    _require(data.shape[1] == len(header), "CSV row width != header width")
    return header, data


def _speed_kappa(curve, t):
    fp, fpp = curve.fp(t), curve.fpp(t)
    a2 = np.einsum("ij,ij->i", fp, fp)
    b2 = np.einsum("ij,ij->i", fpp, fpp)
    ab = np.einsum("ij,ij->i", fp, fpp)
    return np.sqrt(a2), np.sqrt(np.maximum(a2 * b2 - ab * ab, 0.0)) / a2


def _unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def check_invariants(job, stdout):
    curve = job.curve
    header, data = _load_csv(job.out, ["t", "a", "kappa"])
    _require(len(header) == 3 + curve.dim - 2, "wrong number of ell columns")
    t = curve.grid(job.params["t_steps"])
    _close("t", data[:, 0], t, 1e-15, 1e-15)
    a, kappa = _speed_kappa(curve, t)
    _close("a = |f'|", data[:, 1], a, JET_RTOL)
    _close("kappa", data[:, 2], kappa, JET_RTOL)
    ells = data[:, 3:]
    _require(np.all(np.isfinite(ells)), "non-finite ell")
    if curve.ell_abs is not None:
        _close("|ell|", np.abs(ells[:, 0]), np.full(len(t), curve.ell_abs),
               0.0, TRANSPORT_TOL)


def check_verify(job, stdout):
    with open(job.out, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    _require(records, "empty verify log")
    for rec in records:
        _require(rec.get("check") == job.params["check"],
                 f"record for check {rec.get('check')!r}")
        _require(rec.get("pass") is True,
                 f"{rec.get('check')} failed: residual {rec.get('residual')}")
        _require(np.isfinite(rec.get("residual", np.nan)),
                 "non-finite residual")
    _require(": PASS" in stdout.splitlines()[0], "summary line is not PASS")


_FRONTALITY_LINE = re.compile(
    r"t0=(\S+) ranks=\S+ a1=(\w+) a2=(\w+) sufficient=(yes|no)$")


def _parse_order(text):
    return None if text == "None" else int(text)


def check_frontality(job, stdout):
    with open(job.out, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows = [m for m in map(_FRONTALITY_LINE.match, lines) if m]
    p = job.params
    want_rows = 1 if p["t0"] is not None else p["t_steps"]
    _require(len(rows) == want_rows, f"{len(rows)} rank lines, "
             f"expected {want_rows}")
    for m in rows:
        t0 = float(m.group(1))
        got = (_parse_order(m.group(2)), _parse_order(m.group(3)))
        if p["expect"] is not None:
            want = p["expect"]
        else:
            want = (2, 3) if t0 == job.curve.cusp_at else (1, 2)
        _require(got == want, f"contact orders {got} at t0={t0}, "
                 f"expected {want}")
        _require((m.group(4) == "yes") == (got[1] is not None),
                 f"sufficient flag inconsistent at t0={t0}")
    cusp_on_grid = job.curve is None or job.curve.cusp_at is not None
    flips = [ln for ln in lines if ln.startswith("tangent-line")]
    _require(len(flips) == 1, "missing sign-flip line")
    if cusp_on_grid:
        # the raw velocity direction reverses through the singular point
        _require(flips[0].endswith("near t = 0.0"),
                 f"sign flips: {flips[0]!r}")
    else:
        _require(flips[0].endswith("no sign flips"),
                 f"sign flips: {flips[0]!r}")
    summary = "all" if job.expect_rc == 0 else "NOT all"
    _require(lines[-1] == f"summary: rank 2 attained at {summary} sampled "
             "points", f"summary {lines[-1]!r}")


def _read_obj(path):
    verts, faces, singular = [], 0, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("v "):
                verts.append(line[2:])
            elif line.startswith("f "):
                faces += 1
            elif line.startswith("# singular "):
                singular.append(tuple(int(x) for x in line.split()[2:4]))
    return np.loadtxt(verts, ndmin=2), faces, singular


def _surface_axes(job):
    p = job.params
    t = job.curve.grid(p["t_steps"])
    s = np.linspace(-1.0, 1.0, p["s_steps"])
    return t, s


def _obj_points(job):
    t, s = _surface_axes(job)
    verts, faces, singular = _read_obj(job.out)
    n0, n1 = len(t), len(s)
    _require(verts.shape == (n0 * n1, 3),
             f"{verts.shape[0]} vertices, expected {n0 * n1}")
    _require(faces == 2 * (n0 - 1) * (n1 - 1),
             f"{faces} faces, expected {2 * (n0 - 1) * (n1 - 1)}")
    _require(all(0 <= i < n0 and 0 <= j < n1 for i, j in singular),
             "singular flag outside the grid")
    return t, s, verts.reshape(n0, n1, 3), singular


def check_tan_obj(job, stdout):
    """f + s tau, singular exactly on the s = 0 column."""
    curve = job.curve
    t, s, pts, singular = _obj_points(job)
    tau = _unit(curve.fp(t))
    want = curve.f(t)[:, None, :] + s[None, :, None] * tau[:, None, :]
    _close("tangent map points", pts, want, JET_RTOL, 1e-12)
    zero_col = int(np.flatnonzero(s == 0.0)[0])
    want_sing = {(i, zero_col) for i in range(len(t))}
    _require(set(singular) == want_sing,
             "singular nodes are not exactly the s = 0 column")


def _check_normal_offsets(name, offset, fp, fpp, radius):
    """``offset`` (n, ..., d) is a combination of unit normals of length
    ``radius`` (n, ...), orthogonal to f' (and to f'' when given)."""
    _close(f"{name} offset length", np.linalg.norm(offset, axis=-1), radius,
           0.0, TRANSPORT_TOL)
    for label, vec in (("f'", fp), ("f''", fpp)):
        if vec is None:
            continue
        direction = _unit(vec).reshape(
            (len(vec),) + (1,) * (offset.ndim - 2) + (vec.shape[-1],))
        dots = np.abs(np.sum(offset * direction, axis=-1)).max()
        _require(dots <= TRANSPORT_TOL, f"{name} offset not orthogonal to "
                 f"{label}: {dots:.3e}")


def check_pal_obj(job, stdout):
    """Points minus the tangent map are u times the unit binormal."""
    curve = job.curve
    t, s, pts, _ = _obj_points(job)
    tau = _unit(curve.fp(t))
    base = curve.f(t)[:, None, :] + s[None, :, None] * tau[:, None, :]
    radius = np.full(pts.shape[:2], abs(job.params["u"]))
    _check_normal_offsets("parallel", pts - base, curve.fp(t),
                          curve.fpp(t), radius)


def check_can_obj(job, stdout):
    """Every node lies at distance r from f(t) in the normal plane."""
    curve = job.curve
    t, _, pts, _ = _obj_points(job)
    radius = np.full(pts.shape[:2], job.params["r"])
    _check_normal_offsets("canal", pts - curve.f(t)[:, None, :],
                          curve.fp(t), None, radius)


def check_nor_csv(job, stdout):
    """x - f(t) is a normal vector of length |u|; u = 0 reproduces f."""
    curve = job.curve
    p = job.params
    d = curve.dim
    codim = d - 1
    header, data = _load_csv(job.out, ["t"])
    want_header = (["t"] + [f"u{i + 1}" for i in range(codim)]
                   + [f"x{i + 1}" for i in range(d)] + ["jac_rank"])
    _require(header == want_header, f"unexpected header {header}")
    rows = p["t_steps"] * p["s_steps"] ** codim
    _require(data.shape[0] == rows, f"{data.shape[0]} rows, expected {rows}")
    t_col = data[:, 0]
    u = data[:, 1:1 + codim]
    x = data[:, 1 + codim:1 + codim + d]
    ranks = data[:, -1]
    _close("t column", np.unique(t_col), curve.grid(p["t_steps"]),
           1e-15, 1e-15)
    _require(np.all((ranks == np.round(ranks)) & (ranks >= 0)
                    & (ranks <= d)), "jac_rank outside [0, dim]")
    offset = x - curve.f(t_col)
    _check_normal_offsets("normal map", offset[:, None, :],
                          curve.fp(t_col), None,
                          np.linalg.norm(u, axis=1)[:, None])
    at_zero = np.all(u == 0.0, axis=1)
    _require(np.count_nonzero(at_zero) == p["t_steps"],
             "u = 0 rows missing")
    _close("normal map at u = 0", x[at_zero], curve.f(t_col[at_zero]),
           JET_RTOL, 1e-12)


ORACLES = {
    "invariants": check_invariants,
    "verify": check_verify,
    "frontality": check_frontality,
    "tan_obj": check_tan_obj,
    "pal_obj": check_pal_obj,
    "can_obj": check_can_obj,
    "nor_csv": check_nor_csv,
}


def check(job, rc, stdout):
    """Raise OracleError unless the job's exit code and output are right."""
    _require(rc == job.expect_rc, f"exit code {rc}, expected {job.expect_rc}")
    ORACLES[job.oracle](job, stdout)

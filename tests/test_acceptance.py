"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see every line.
"""

import contextlib
import io
import math
import time

import numpy as np
import pytest

from conftest import random_cubic_curve
from frontals.cli import main as cli_main
from frontals.corpus import CORPUS_IDS, get_curve, get_entry
from frontals.errors import InflectionError
from frontals.frames import (
    adapted_frame,
    bishop_transport,
    grid_record,
    invariants,
    structure_residuals_adapted,
    structure_residuals_bishop,
    tangent_surface_unit_normal,
)
from frontals.frontal import contact_orders
from frontals.jets import derivative
from frontals.linalg import orthonormal_completion
from frontals.surfaces import (
    directrix,
    normal_curvature_r4,
    normal_flatness_residual,
    symplectic_pullback_check,
    tangent_map,
    verify_right_equivalence,
)

SPACING = 1e-3


def report(num, name, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")


def fine_grid(curve, spacing=SPACING):
    lo, hi = curve.domain
    steps = int(math.ceil((hi - lo) / spacing)) + 1
    return np.linspace(lo, hi, steps)


def frame_and_profile(entry, grid, **kw):
    seed = entry.frame_seed(grid[0]) if entry.frame_seed else None
    frame = adapted_frame(grid_record(entry.curve, grid), nu0=seed, **kw)
    return frame, invariants(frame)


def bishop_fields(entry, grid, **kw):
    record = grid_record(entry.curve, grid)
    if entry.bishop_seed is not None:
        seeds = entry.bishop_seed(grid[0])
    else:
        seeds = orthonormal_completion(
            [record.nodes.tau[0]], entry.curve.dim, entry.curve.codim
        )
    return bishop_transport(record, seeds, **kw), record


def test_criterion_01_invariant_profile():
    entry = get_entry("example22")
    start = time.perf_counter()
    grid = np.linspace(-1.0, 1.0, 201)
    frame, prof = frame_and_profile(entry, grid)
    elapsed = time.perf_counter() - start
    expected = 2.0 / (2.0 + grid * grid)
    err = max(
        np.abs(prof.kappa - expected).max(),
        np.abs(prof.ells[0] - expected).max(),
    )
    ok = err <= 1e-6 and elapsed <= 1.0
    report(1, "invariant profile of the cubic-type curve", ok,
           f"max abs error {err:.3e} (<= 1e-06), runtime {elapsed:.3f}s (<= 1s)")
    assert err <= 1e-6
    assert elapsed <= 1.0


def test_criterion_02_directrix_closed_form():
    entry = get_entry("example22")
    grid = np.linspace(-1.0, 1.0, 201)
    frame, _ = frame_and_profile(entry, grid)
    fn = entry.get("directrix").value
    worst = 0.0
    for u in (0.1, 0.5, -0.7):
        d = directrix(frame, [u])
        expected = np.array([fn(t, u) for t in grid])
        worst = max(worst, float(np.abs(d.points - expected).max()))
    ok = worst <= 1e-6
    report(2, "edge-of-regression closed form", ok,
           f"max abs error {worst:.3e} (<= 1e-06) over offsets 0.1, 0.5, -0.7")
    assert ok


def _equivalence_residual(entry_or_curve, offsets, n_t=201, n_s=101, seed=None):
    curve = getattr(entry_or_curve, "curve", entry_or_curve)
    grid = np.linspace(curve.domain[0], curve.domain[1], n_t)
    frame = adapted_frame(grid_record(curve, grid), nu0=seed)
    s_grid = np.linspace(-1.0, 1.0, n_s)
    return verify_right_equivalence(frame, offsets, s_grid).residual


def test_criterion_03_parallel_right_equivalence():
    entry = get_entry("example22")
    seed = entry.frame_seed(-1.0)
    res22 = _equivalence_residual(entry, [0.5], seed=seed)
    cubic = random_cubic_curve()
    res_cubic = _equivalence_residual(cubic, [0.5])
    # the directrix tangency invariant for the random curve, witnessed at
    # a resolution where the five-point stencil resolves 1e-5
    fine = fine_grid(cubic)
    frame_f = adapted_frame(grid_record(cubic, fine))
    d_fine = directrix(frame_f, [0.5])
    assert d_fine.tangency_residual <= 1e-5
    res_r4 = _equivalence_residual(get_curve("r4curve"), [0.3, -0.2])
    coarse = _equivalence_residual(entry, [0.5], n_t=101, seed=seed)
    halved = res22 <= coarse / 2.0
    ok = res22 <= 1e-6 and res_cubic <= 1e-5 and res_r4 <= 1e-5 and halved
    report(3, "parallels are tangent maps of the directrix", ok,
           f"residuals: cubic-type {res22:.3e} (<= 1e-06), random cubic "
           f"{res_cubic:.3e} (<= 1e-05), 4-space {res_r4:.3e} (<= 1e-05); "
           f"halving spacing: {coarse:.3e} -> {res22:.3e}")
    assert res22 <= 1e-6
    assert res_cubic <= 1e-5
    assert res_r4 <= 1e-5
    assert halved


def test_criterion_04_frame_closed_forms():
    entry = get_entry("example22")
    grid = np.linspace(-1.0, 1.0, 401)
    frame, _ = frame_and_profile(entry, grid)
    errs = [
        np.abs(frame.tau - np.array([entry.get("tau").value(t) for t in grid])).max(),
        np.abs(frame.mu - np.array([entry.get("mu").value(t) for t in grid])).max(),
        np.abs(frame.nus[0] - np.array([entry.get("nu").value(t) for t in grid])).max(),
    ]
    worst = float(max(errs))
    ok = worst <= 1e-8
    report(4, "frame fields match the published closed forms", ok,
           f"max abs error {worst:.3e} (<= 1e-08) for tau/mu/nu")
    assert ok


def test_criterion_05_inflection_behaviour():
    entry = get_entry("example23")
    # (a) derivative of the tangent-surface normal's second component at 0
    _, jets = tangent_surface_unit_normal(entry.curve, 0.0)
    nu2p = derivative(jets[1], 1)
    ok_a = abs(nu2p - (-0.5)) <= 1e-6

    # (b) the adapted frame must refuse a grid containing the inflection
    try:
        adapted_frame(grid_record(entry.curve, np.linspace(-1.0, 1.0, 201)))
        ok_b = False
    except InflectionError:
        ok_b = True

    # (c) the parallel's singular locus against its closed form
    # |s| = |u| |tau_F|/kappa_F = |u|/(2|t|) (1 - 3t^2/16 + O(t^4)): it
    # diverges like 1/|t| on both sides of the inflection.
    u = 0.5
    nodes = np.array([1e-3, 1e-2, 0.1, 0.5, 1.0])
    ok_c = True
    rows = []
    for grid in (nodes, -nodes[::-1]):
        frame = adapted_frame(grid_record(entry.curve, grid))
        measured = np.abs(directrix(frame, [u]).shift) / abs(u)
        oracle = _example23_torsion_over_curvature(grid)
        rel = np.abs(measured - oracle) / oracle
        scaled = measured * np.abs(grid)
        near = np.abs(grid) <= 1e-2
        ok_c &= bool(np.all(rel <= 1e-9))
        ok_c &= bool(np.all(np.abs(scaled[near] - 0.5) <= grid[near] ** 2))
        rows += [f"t={t:+.0e} {m:.6f} vs {o:.6f} (rel {r:.1e}, "
                 f"|s||t|/|u| {x:.7f})"
                 for t, m, o, r, x in zip(grid, measured, oracle, rel, scaled)]
    # the oracle also reproduces the corpus's frozen ratios
    frozen = _example23_torsion_over_curvature(np.array([1e-3, 1e-2]))
    ok_c &= frozen[0] == pytest.approx(
        entry.get("locus_ratio@1e-3").value, rel=1e-9)
    ok_c &= frozen[1] == pytest.approx(
        entry.get("locus_ratio@1e-2").value, rel=1e-9)

    ok = ok_a and ok_b and ok_c
    report(5, "inflection-point behaviour", ok,
           f"nu2'(0) = {nu2p:.8f} (want -0.5 +- 1e-06: "
           f"{'ok' if ok_a else 'off'}); frame precondition "
           f"{'raised' if ok_b else 'MISSED'}; |s|/|u| measured vs "
           f"|tau_F|/kappa_F (rel <= 1e-09; |s||t|/|u| within t^2 of 0.5 "
           f"at |t| <= 1e-2): " + "; ".join(rows))
    assert ok_a
    assert ok_b
    assert ok_c  # closed-form check; see the criterion 05 entry in CHANGES.md


def _example23_torsion_over_curvature(t):
    """|tau_F|/kappa_F of example23 = (t, t^3/6, t^4/24) at each node,
    from its hand-written first three derivatives, not ``frontals`` jets."""
    t = np.asarray(t, dtype=float)
    zero, one = np.zeros_like(t), np.ones_like(t)
    d1 = np.stack([one, t ** 2 / 2.0, t ** 3 / 6.0], axis=-1)
    d2 = np.stack([zero, t, t ** 2 / 2.0], axis=-1)
    d3 = np.stack([zero, one, t], axis=-1)
    cross = np.cross(d1, d2)
    cross_sq = np.einsum("ij,ij->i", cross, cross)
    speed = np.sqrt(np.einsum("ij,ij->i", d1, d1))
    torsion = np.abs(np.einsum("ij,ij->i", cross, d3)) / cross_sq
    curvature = np.sqrt(cross_sq) / speed ** 3
    return torsion / curvature


def test_criterion_06_transport_quality():
    worst_drift = worst_dev = worst_round = worst_raw = 0.0
    for cid in ("circle", "helix", "example22"):
        entry = get_entry(cid)
        grid = fine_grid(entry.curve)
        fwd, record = bishop_fields(entry, grid)
        worst_drift = max(worst_drift, fwd.gram_drift_max)
        worst_dev = max(worst_dev, fwd.final_gram_dev)
        back = bishop_transport(record, fwd.vectors[:, -1, :], reverse=True)
        worst_round = max(worst_round, float(np.linalg.norm(
            back.vectors[:, 0, :] - fwd.vectors[:, 0, :], axis=-1).max()))
        raw, _ = bishop_fields(entry, grid, renormalize=False)
        worst_raw = max(worst_raw, raw.final_gram_dev)
    ok = worst_drift <= 1e-8 and worst_dev <= 1e-8 and worst_round <= 1e-7 \
        and worst_raw <= 1e-5
    report(6, "parallel-transport quality", ok,
           f"per-step drift {worst_drift:.3e} (<= 1e-08), frame deviation "
           f"{worst_dev:.3e} (<= 1e-08), roundtrip {worst_round:.3e} "
           f"(<= 1e-07), no-renormalization deviation {worst_raw:.3e} "
           f"(<= 1e-05)")
    assert ok


def test_criterion_07_structure_equations():
    tol = 1e-5
    details = []
    ok = True

    # curve-normal system on the full corpus (flat curve at finer spacing:
    # its third derivatives push the O(h^2) stencil past tol at 1e-3)
    for cid in CORPUS_IDS:
        entry = get_entry(cid)
        spacing = 2.5e-4 if cid == "example21" else SPACING
        grid = fine_grid(entry.curve, spacing)
        fields, _ = bishop_fields(entry, grid)
        worst = max(structure_residuals_bishop(fields).values())
        ok &= worst <= tol
        details.append(f"{cid} curve-normal {worst:.2e}")

    # tangent-surface system wherever the curve has no inflection; the
    # two inflected corpus curves are checked on sub-domains
    domains = {
        "example22": None, "circle": None, "helix": None, "cusp": None,
        "r4curve": None, "example23": (0.15, 1.0),
        # the flat curve has true inflections at +-1/sqrt(2) and a flat
        # stretch around 0; this window avoids them
        "example21": (-0.98, -0.75),
    }
    for cid, sub in domains.items():
        entry = get_entry(cid)
        spacing = 2.5e-4 if cid == "example21" else SPACING
        if sub is None:
            grid = fine_grid(entry.curve, spacing)
        else:
            steps = int(math.ceil((sub[1] - sub[0]) / spacing)) + 1
            grid = np.linspace(sub[0], sub[1], steps)
        seed = entry.frame_seed(grid[0]) if entry.frame_seed else None
        frame = adapted_frame(grid_record(entry.curve, grid), nu0=seed)
        worst = max(structure_residuals_adapted(frame).values())
        ok &= worst <= tol
        details.append(f"{cid} surface-normal {worst:.2e}")

    report(7, "structure-equation residuals", ok,
           "; ".join(details) + f" (all <= {tol:g}; straight line has no "
           "tangent-surface system)")
    assert ok


def test_criterion_08_contact_orders_and_singular_sets():
    ok_orders = True
    for a1 in range(1, 6):
        for a2 in range(a1 + 1, 7):
            from frontals.curves import ExprCurve

            c = ExprCurve.from_sources(
                f"m{a1}{a2}", (f"t^{a1}", f"t^{a2}"), (-1.0, 1.0)
            )
            rep = contact_orders(c, 0.0)
            ok_orders &= (rep.a1, rep.a2) == (a1, a2)

    ok_sets = True
    for a1, a2 in ((1, 2), (1, 3), (2, 3)):
        from frontals.curves import ExprCurve

        c = ExprCurve.from_sources(
            f"s{a1}{a2}", (f"t^{a1}", f"t^{a2}"), (-1.0, 1.0)
        )
        t = np.linspace(-1, 1, 101)
        s = np.linspace(-1, 1, 101)
        grid = tangent_map(grid_record(c, t), s)
        expected = np.zeros((101, 101), dtype=bool)
        expected[:, s == 0.0] = True
        if a2 - a1 - 1 >= 1:
            expected[t == 0.0, :] = True
        ok_sets &= bool((grid.singular_flag == expected).all())

    ok = ok_orders and ok_sets
    report(8, "derivative-matrix rank criterion", ok,
           f"contact orders exact for all monomial pairs up to 6 "
           f"({'ok' if ok_orders else 'MISMATCH'}); sampled singular sets "
           f"match the offset-times-power law ({'ok' if ok_sets else 'MISMATCH'})")
    assert ok


def test_criterion_09_lagrangian_lift():
    worst = 0.0
    details = []
    for cid in CORPUS_IDS:
        entry = get_entry(cid)
        grid = entry.curve.grid(201)
        fields, _ = bishop_fields(entry, grid)
        rep = symplectic_pullback_check(fields, fd_step=1e-4)
        worst = max(worst, rep.max_entry)
        details.append(f"{cid} {rep.max_entry:.2e}")
    ok = worst <= 1e-6
    report(9, "normal-map lift annihilates the canonical two-form", ok,
           "; ".join(details) + " (all <= 1e-06)")
    assert ok


def test_criterion_10_tangent_surface_normal_flatness():
    entry = get_entry("r4curve")
    grid = fine_grid(entry.curve)
    frame, _ = frame_and_profile(entry, grid)
    s_grid = np.array([-1.0, -0.6, -0.2, 0.3, 0.7, 1.0])
    rep = normal_flatness_residual(frame, s_grid)
    ok = (not rep.vacuous) and rep.max_residual <= 1e-5
    report(10, "tangent surface of the 4-space curve stays normally flat",
           ok, f"max residual {rep.max_residual:.3e} (<= 1e-05), "
           f"{rep.checked} nodes checked, {rep.skipped} skipped")
    assert ok


def test_criterion_11_normal_curvature():
    def plane(s, t):
        return np.array([s, t, 0.0, 0.0])

    f_plane = normal_curvature_r4(
        plane,
        lambda s, t: np.array([0.0, 0.0, 1.0, 0.0]),
        lambda s, t: np.array([0.0, 0.0, 0.0, 1.0]),
        np.linspace(-0.5, 0.5, 9), np.linspace(-0.5, 0.5, 9),
    )

    big, small = 2.0, 0.5

    def torus(u, v):
        return np.array([
            (big + small * math.cos(v)) * math.cos(u),
            (big + small * math.cos(v)) * math.sin(u),
            small * math.sin(v), 0.0,
        ])

    f_torus = normal_curvature_r4(
        torus,
        lambda u, v: np.array([
            math.cos(v) * math.cos(u), math.cos(v) * math.sin(u),
            math.sin(v), 0.0,
        ]),
        lambda u, v: np.array([0.0, 0.0, 0.0, 1.0]),
        np.linspace(0.0, 2 * math.pi, 17), np.linspace(0.0, 2 * math.pi, 17),
    )

    def graph(s, t):
        return np.array([s, t, s * s - t * t, 2 * s * t])

    def tangent_q(s, t):
        fs = np.array([1.0, 0.0, 2 * s, 2 * t])
        ft = np.array([0.0, 1.0, -2 * t, 2 * s])
        return np.linalg.qr(np.stack([fs, ft], axis=1))[0]

    def e3(s, t):
        q = tangent_q(s, t)
        v = np.array([0.0, 0.0, 1.0, 0.0])
        v = v - q @ (q.T @ v)
        return v / np.linalg.norm(v)

    def e4(s, t):
        q = tangent_q(s, t)
        v = np.array([0.0, 0.0, 0.0, 1.0])
        v = v - q @ (q.T @ v)
        w = e3(s, t)
        v = v - (v @ w) * w
        return v / np.linalg.norm(v)

    gridg = np.linspace(-0.02, 0.02, 5)
    f_graph = normal_curvature_r4(graph, e3, e4, gridg, gridg)
    k_origin = float(np.abs(f_graph.values[1:3, 1:3]).max())
    oracle = 8.0  # frozen brute-force connection-form value at the origin

    ok = (f_plane.max_abs <= 1e-5 and f_torus.max_abs <= 1e-5
          and abs(k_origin - oracle) <= 0.05 * oracle and k_origin >= 0.1)
    report(11, "normal curvature of framed surfaces in 4-space", ok,
           f"plane {f_plane.max_abs:.2e} (<= 1e-05), torus "
           f"{f_torus.max_abs:.2e} (<= 1e-05), graph |K(0,0)| = "
           f"{k_origin:.4f} vs oracle {oracle} (within 5%)")
    assert ok


def test_criterion_12_cli_determinism(tmp_path):
    commands = [
        ["invariants", "--curve", "example22", "--t-steps", "41"],
        ["invariants", "--curve", "helix", "--t-steps", "41"],
        ["surface", "--curve", "example22", "--kind", "tan",
         "--t-steps", "11", "--s-steps", "7"],
        ["surface", "--curve", "example21", "--kind", "tan",
         "--t-steps", "11", "--s-steps", "5", "--export", "csv"],
        ["surface", "--curve", "circle", "--kind", "can", "--r", "0.3",
         "--t-steps", "21", "--s-steps", "9", "--export", "csv"],
        ["surface", "--curve", "example22", "--kind", "pal", "--u", "0.5",
         "--t-steps", "11", "--s-steps", "7", "--export", "csv"],
        ["surface", "--curve", "example22", "--kind", "directrix-tan",
         "--u", "0.5", "--t-steps", "11", "--s-steps", "5",
         "--export", "csv"],
        ["verify", "--curve", "example22", "--check", "theorem22",
         "--u", "0.5", "--t-steps", "51", "--s-steps", "11"],
        ["verify", "--curve", "circle", "--check", "symplectic",
         "--t-steps", "51"],
        ["frontality", "--curve", "example21", "--t-steps", "21"],
        ["bishop", "--curve", "helix", "--t-steps", "41"],
    ]

    def run(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            rc = cli_main(argv)
        return rc, buf.getvalue().encode()

    all_ok = True
    for argv in commands:
        (rc1, out1), (rc2, out2) = run(argv), run(argv)
        all_ok &= rc1 == rc2 and out1 == out2

    # file outputs too
    f1, f2 = tmp_path / "a.obj", tmp_path / "b.obj"
    base = ["surface", "--curve", "example22", "--kind", "tan",
            "--t-steps", "11", "--s-steps", "7"]
    run(base + ["--out", str(f1)])
    run(base + ["--out", str(f2)])
    all_ok &= f1.read_bytes() == f2.read_bytes()

    report(12, "deterministic command-line output", all_ok,
           f"{len(commands)} commands run twice byte-identically, plus "
           f"obj file outputs")
    assert all_ok

import math

import numpy as np
import pytest

from frontals import surfaces
from frontals.corpus import CORPUS_IDS, get_curve, get_entry
from frontals.curves import ExprCurve
from frontals.errors import (
    ConfigError,
    InflectionError,
    MathPreconditionError,
)
from frontals.frames import (
    AdaptedFrame,
    adapted_frame,
    bishop_transport,
    grid_record,
    invariants,
)
from frontals.frontal import TangentEvaluator, unit_tangent
from frontals.linalg import (
    batched_rank,
    orthonormal_column_basis,
    principal_angles,
    ruled_singular_values,
)
from frontals.surfaces import (
    canal_surface,
    directrix,
    directrix_tangent_map,
    normal_curvature_r4,
    normal_flatness_residual,
    normal_map,
    parallel_of_tangent,
    singular_locus_parallel,
    symplectic_pullback_check,
    tangent_map,
    verify_right_equivalence,
)


def build_frame(entry, grid, **kw):
    seed = entry.frame_seed(grid[0]) if entry.frame_seed else None
    return adapted_frame(grid_record(entry.curve, grid), nu0=seed, **kw)


def build_bishop(entry, grid):
    from frontals.linalg import orthonormal_completion

    record = grid_record(entry.curve, grid)
    if entry.bishop_seed is not None:
        seeds = entry.bishop_seed(grid[0])
    else:
        seeds = orthonormal_completion(
            [record.nodes.tau[0]], entry.curve.dim, entry.curve.codim
        )
    return bishop_transport(record, seeds)


class TestTangentMap:
    def test_matches_closed_form_with_derivative_ruling(self):
        entry = get_entry("example22")
        t = np.linspace(-1, 1, 21)
        s = np.linspace(-1, 1, 11)
        grid = tangent_map(grid_record(entry.curve, t), s,
                           ruling="derivative")
        fn = entry.get("tan_derivative_ruling").value
        expected = np.array([[fn(ti, sj) for sj in s] for ti in t])
        assert np.abs(grid.points - expected).max() <= 1e-10

    def test_zero_offset_recovers_curve(self):
        for cid in ("example22", "helix", "cusp"):
            c = get_curve(cid)
            t = c.grid(11)
            grid = tangent_map(grid_record(c, t), np.array([0.0]))
            assert np.abs(grid.points[:, 0, :] - c.points(t)).max() <= 1e-14

    def test_inflection_curve_closed_form(self):
        entry = get_entry("example23")
        t = np.linspace(-1, 1, 21)
        s = np.linspace(-1, 1, 11)
        grid = tangent_map(grid_record(entry.curve, t), s,
                           ruling="derivative")
        fn = entry.get("tan_derivative_ruling").value
        expected = np.array([[fn(ti, sj) for sj in s] for ti in t])
        assert np.abs(grid.points - expected).max() <= 1e-10


class TestNormalMap:
    def test_line_identity(self):
        entry = get_entry("line")
        t = np.linspace(-1, 1, 9)
        fields = build_bishop(entry, t)
        u = np.linspace(-1, 1, 5)
        grid = normal_map(fields, u)
        for i in range(9):
            for j in range(5):
                for k in range(5):
                    assert grid.points[i, j, k] == pytest.approx(
                        (t[i], u[j], u[k])
                    )
        assert (grid.jac_rank == 3).all()

    def test_circle_point_query(self):
        entry = get_entry("circle")
        t = np.linspace(0.0, 2.0 * math.pi, 33)
        fields = build_bishop(entry, t)
        grid = normal_map(fields, [np.array([0.0, 0.3]), np.array([0.0])])
        assert grid.points[0, 1, 0] == pytest.approx((1.3, 0.0, 0.0))

    def test_zero_offset_recovers_curve(self):
        entry = get_entry("example22")
        t = np.linspace(-1, 1, 9)
        fields = build_bishop(entry, t)
        grid = normal_map(fields, np.array([0.0]))
        assert np.abs(
            grid.points[:, 0, 0, :] - entry.curve.points(t)
        ).max() <= 1e-14


class TestCanalSurface:
    def test_torus_point(self):
        entry = get_entry("circle")
        t = np.linspace(0.0, 2.0 * math.pi, 65)
        fields = build_bishop(entry, t)
        theta = np.linspace(0.0, 2.0 * math.pi, 33)
        grid = canal_surface(fields, 0.3, theta)
        assert grid.points[0, 0] == pytest.approx((1.3, 0.0, 0.0))

    def test_cylinder_distance(self):
        entry = get_entry("line")
        t = np.linspace(-1, 1, 21)
        fields = build_bishop(entry, t)
        theta = np.linspace(0.0, 2.0 * math.pi, 17)
        grid = canal_surface(fields, 1.0, theta)
        axis_dist = np.linalg.norm(grid.points[..., 1:], axis=-1)
        assert np.abs(axis_dist - 1.0).max() <= 1e-12

    def test_distance_to_curve_is_radius(self):
        entry = get_entry("helix")
        t = np.linspace(0.0, 2.0 * math.pi, 41)
        fields = build_bishop(entry, t)
        theta = np.linspace(0.0, 2.0 * math.pi, 17)
        grid = canal_surface(fields, 0.25, theta)
        dist = np.linalg.norm(
            grid.points - entry.curve.points(t)[:, None, :], axis=-1
        )
        assert np.abs(dist - 0.25).max() <= 1e-12

    def test_rejects_plane_curves(self):
        entry = get_entry("cusp")
        t = np.linspace(0.1, 1, 11)
        record = grid_record(entry.curve, t)
        tau0 = record.nodes.tau[0]
        fields = bishop_transport(record, np.array([[-tau0[1], tau0[0]]]))
        with pytest.raises(MathPreconditionError):
            canal_surface(fields, 0.1, np.linspace(0, 2 * math.pi, 9))


class TestParallelOfTangent:
    def test_closed_form_with_derivative_ruling(self):
        entry = get_entry("example22")
        t = np.linspace(-1, 1, 41)
        s = np.linspace(-1, 1, 11)
        frame = build_frame(entry, t)
        grid = parallel_of_tangent(frame, [0.5], s, ruling="derivative")
        fn = entry.get("pal_derivative_ruling").value
        expected = np.array([[fn(ti, sj, 0.5) for sj in s] for ti in t])
        assert np.abs(grid.points - expected).max() <= 1e-9

    def test_zero_offset_equals_tangent_map(self):
        entry = get_entry("example22")
        t = np.linspace(-1, 1, 21)
        s = np.linspace(-1, 1, 11)
        frame = build_frame(entry, t)
        pal = parallel_of_tangent(frame, [0.0], s)
        tan = tangent_map(grid_record(entry.curve, t), s)
        assert np.abs(pal.points - tan.points).max() <= 1e-14
        assert (pal.jac_rank == tan.jac_rank).all()

    def test_singular_nodes_cluster_on_offset_line(self):
        # kappa = ell here, so s kappa - u ell = 0 exactly at s = u
        entry = get_entry("example22")
        t = np.linspace(-1, 1, 41)
        s = np.linspace(-1, 1, 41)  # contains 0.5 exactly
        frame = build_frame(entry, t)
        pal = parallel_of_tangent(frame, [0.5], s)
        sing = np.argwhere(pal.singular_flag)
        assert len(sing) == 41
        assert all(s[j] == pytest.approx(0.5, abs=1e-12) for _, j in sing)


class TestSingularLocus:
    def test_constant_locus_when_kappa_equals_ell(self):
        entry = get_entry("example22")
        t = np.linspace(-1, 1, 101)
        frame = build_frame(entry, t)
        prof = invariants(frame)
        locus = singular_locus_parallel(prof, [0.5])
        assert np.abs(locus.s - 0.5).max() <= 1e-9
        assert locus.residuals.max() <= 1e-8

    def test_zero_offset_gives_cuspidal_edge(self):
        entry = get_entry("example22")
        t = np.linspace(-1, 1, 51)
        frame = build_frame(entry, t)
        prof = invariants(frame)
        locus = singular_locus_parallel(prof, [0.0])
        assert np.abs(locus.s).max() == 0.0

    def test_divergence_near_inflection(self):
        # |s(t)/u| frozen from the torsion/curvature ratio 864 a^3/(|t| D^3)
        entry = get_entry("example23")
        grid = np.array([1e-3, 1e-2, 0.1, 0.5, 1.0])
        frame = adapted_frame(grid_record(entry.curve, grid),
                              inflection_rel_tol=1e-9)
        prof = invariants(frame)
        locus = singular_locus_parallel(prof, [0.5])
        ratio = np.abs(locus.s) / 0.5
        assert ratio[0] == pytest.approx(
            entry.get("locus_ratio@1e-3").value, rel=1e-6
        )
        assert ratio[1] == pytest.approx(
            entry.get("locus_ratio@1e-2").value, rel=1e-6
        )

    def test_inflection_in_range_rejected(self):
        entry = get_entry("example22")
        t = np.linspace(-1, 1, 21)
        frame = build_frame(entry, t)
        prof = invariants(frame)
        prof.kappa[3] = 0.0
        with pytest.raises(InflectionError):
            singular_locus_parallel(prof, [0.5])

    def test_matches_bisection_on_sampled_jacobian(self):
        # independent route: bisect the signed degeneracy indicator of the
        # sampled parallel's Jacobian along s for a few fixed t
        entry = get_entry("example22")
        t_grid = np.linspace(-1, 1, 41)
        frame = build_frame(entry, t_grid)
        prof = invariants(frame)
        locus = singular_locus_parallel(prof, [0.3])
        curve = entry.curve
        from frontals.frames import TangentEvaluator

        ev = TangentEvaluator(curve)

        def indicator(i, s):
            t = t_grid[i]
            d = ev.at(t).aligned(frame.tau[i])
            tau, tau_p = d.tau, d.tau_p
            mu, mu_p = d.normal()
            nu = frame.nus[0, i]
            nup = -float(np.dot(nu, mu_p)) * mu
            jt = d.fprime + s * tau_p + 0.3 * nup
            return float(np.dot(np.cross(jt, tau), np.cross(mu, tau)))

        spacing = t_grid[1] - t_grid[0]
        for i in (0, 10, 25, 40):
            lo, hi = -1.0, 1.0
            flo = indicator(i, lo)
            assert flo * indicator(i, hi) < 0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if flo * indicator(i, mid) <= 0:
                    hi = mid
                else:
                    lo, flo = mid, indicator(i, mid)
            assert abs(0.5 * (lo + hi) - locus.s[i]) <= 2 * spacing


class TestDirectrix:
    def test_closed_form(self):
        entry = get_entry("example22")
        t = np.linspace(-1, 1, 201)
        frame = build_frame(entry, t)
        prof = invariants(frame)
        for u in (0.1, 0.5, -0.7):
            d = directrix(frame, prof, [u])
            fn = entry.get("directrix").value
            expected = np.array([fn(ti, u) for ti in t])
            assert np.abs(d.points - expected).max() <= 1e-6

    def test_tangency_witnessed_on_linspace_grid_far_from_zero(self):
        # this grid's spacings differ by a relative 2e-10 after rounding
        c = ExprCurve.from_sources("far", ("cos(t)", "sin(t)", "t"),
                                   (1000.0, 1001.0))
        frame = adapted_frame(grid_record(c, np.linspace(1000, 1001, 2001)))
        d = directrix(frame, invariants(frame), [0.5])
        assert 0.0 < d.tangency_residual <= 1e-9

    def test_nothing_witnessed_on_nonuniform_grid(self):
        # one added node leaves the grid non-uniform: the five-point
        # stencil cannot run, so neither field reads as a passed witness
        entry = get_entry("example22")
        t = np.sort(np.append(np.linspace(-1, 1, 201), 0.0051))
        frame = build_frame(entry, t)
        d = directrix(frame, invariants(frame), [0.5])
        assert np.isnan(d.tangency_residual) and np.isnan(d.tangency_floor)
        with pytest.raises(MathPreconditionError, match="uniform grid"):
            d.require_witness()

    def test_zero_offset_is_curve(self):
        entry = get_entry("example22")
        t = np.linspace(-1, 1, 51)
        frame = build_frame(entry, t)
        prof = invariants(frame)
        d = directrix(frame, prof, [0.0])
        assert np.abs(d.points - entry.curve.points(t)).max() <= 1e-14

    def test_inconsistent_profile_rejected(self):
        # corrupting the torsion profile breaks g' parallel tau by O(1),
        # far above the stencil's truncation floor
        entry = get_entry("example22")
        t = np.linspace(-1, 1, 101)
        frame = build_frame(entry, t)
        prof = invariants(frame)
        prof.ells[0] = prof.ells[0] + 0.3 * np.sin(5.0 * t)
        with pytest.raises(MathPreconditionError, match="tangency"):
            directrix(frame, prof, [0.5])

    def test_not_a_parallel_curve_for_nonzero_offset(self):
        # a parallel curve differs from f by a constant combination of
        # curve-normal parallel fields; the directrix does not
        entry = get_entry("example22")
        t = np.linspace(-1, 1, 101)
        frame = build_frame(entry, t)
        prof = invariants(frame)
        fields = build_bishop(entry, t)

        def best_constant_offset_residual(u):
            d = directrix(frame, prof, [u])
            disp = d.points - entry.curve.points(t)
            coeffs = [np.mean(np.sum(disp * fields.vectors[i], axis=1))
                      for i in range(2)]
            model = sum(c * fields.vectors[i] for i, c in enumerate(coeffs))
            return np.linalg.norm(disp - model, axis=1)

        assert best_constant_offset_residual(0.0).max() <= 1e-9
        assert best_constant_offset_residual(0.5).min() > 1e-3


class TestRightEquivalence:
    def test_example22(self):
        entry = get_entry("example22")
        t = np.linspace(-1, 1, 201)
        s = np.linspace(-1, 1, 101)
        frame = build_frame(entry, t)
        prof = invariants(frame)
        pal = parallel_of_tangent(frame, [0.5], s)
        d = directrix(frame, prof, [0.5])
        report = verify_right_equivalence(pal, d, frame, prof)
        assert report.residual <= 1e-6

    def test_zero_offset_identical_maps(self):
        entry = get_entry("example22")
        t = np.linspace(-1, 1, 51)
        s = np.linspace(-1, 1, 21)
        frame = build_frame(entry, t)
        prof = invariants(frame)
        pal = parallel_of_tangent(frame, [0.0], s)
        d = directrix(frame, prof, [0.0])
        report = verify_right_equivalence(pal, d, frame, prof)
        assert report.residual <= 1e-12

    def test_generic_space_curve(self):
        entry = get_entry("helix")
        t = np.linspace(0.0, 2.0 * math.pi, 201)
        s = np.linspace(-1, 1, 31)
        frame = build_frame(entry, t)
        prof = invariants(frame)
        pal = parallel_of_tangent(frame, [0.3], s)
        d = directrix(frame, prof, [0.3])
        report = verify_right_equivalence(pal, d, frame, prof)
        assert report.residual <= 1e-5

    def test_residual_at_least_halves_with_spacing(self):
        entry = get_entry("example22")
        s = np.linspace(-1, 1, 21)

        def residual(n):
            t = np.linspace(-1, 1, n)
            frame = build_frame(entry, t)
            prof = invariants(frame)
            pal = parallel_of_tangent(frame, [0.5], s)
            d = directrix(frame, prof, [0.5])
            return verify_right_equivalence(pal, d, frame, prof).residual

        coarse, fine = residual(101), residual(201)
        assert fine <= coarse / 2.0

    def test_rejects_derivative_ruling(self):
        entry = get_entry("example22")
        t = np.linspace(-1, 1, 21)
        s = np.linspace(-1, 1, 11)
        frame = build_frame(entry, t)
        prof = invariants(frame)
        pal = parallel_of_tangent(frame, [0.5], s,
                                  ruling="derivative")
        d = directrix(frame, prof, [0.5])
        with pytest.raises(MathPreconditionError):
            verify_right_equivalence(pal, d, frame, prof)


class TestSymplecticPullback:
    def test_example22(self):
        entry = get_entry("example22")
        fields = build_bishop(entry, np.linspace(-1, 1, 201))
        report = symplectic_pullback_check(fields)
        assert report.max_entry <= 1e-6

    def test_line_near_machine_precision(self):
        entry = get_entry("line")
        fields = build_bishop(entry, np.linspace(-1, 1, 51))
        report = symplectic_pullback_check(fields)
        assert report.max_entry <= 1e-12

    def test_circle(self):
        entry = get_entry("circle")
        fields = build_bishop(entry, np.linspace(0, 2 * math.pi, 201))
        report = symplectic_pullback_check(fields)
        assert report.max_entry <= 1e-6

    def test_zero_step_is_not_a_pass(self):
        # a step that leaves the end points of a difference equal (0, or
        # 1e-300 beside t and u of order 1) would make every difference
        # 0/0 or exactly 0, and a non-finite one no difference at all;
        # each is refused instead of reported
        entry = get_entry("circle")
        fields = build_bishop(entry, np.linspace(0, 2 * math.pi, 21))
        for step, message in ((0.0, "identical end points"),
                              (1e-300, "identical end points"),
                              (math.nan, "not finite"),
                              (math.inf, "not finite"),
                              (-math.inf, "not finite")):
            with pytest.raises(ConfigError, match=message):
                symplectic_pullback_check(fields, step)


def flatness_oracle(frame, s_grid, exclusion=1e-7):
    """The normal-flatness residual by a loop over (node, s) with plain
    numpy.linalg; ``exclusion`` is the library's skip threshold on the
    smallest singular value of the Jacobian."""
    t, nu, d = frame.grid, frame.nus, frame.record.nodes
    h = t[1] - t[0]
    worst, checked, skipped = 0.0, 0, 0
    for i in range(1, len(t) - 1):
        for s in s_grid:
            jac = np.column_stack([d.fprime[i] + s * d.tau_p[i], d.tau[i]])
            if np.linalg.svd(jac, compute_uv=False)[-1] < exclusion:
                skipped += 1
                continue
            checked += 1
            q, r = np.linalg.qr(jac)
            q = q[:, np.abs(np.diag(r)) > 1e-12 * max(1.0, np.abs(r).max())]
            for j in range(len(nu)):
                res = (nu[j, i + 1] - nu[j, i - 1]) / (2.0 * h)
                res = res - q @ (q.T @ res)
                res = res - (res @ nu[j, i]) * nu[j, i]
                worst = max(worst, np.linalg.norm(res))
    return worst, checked, skipped


class TestNormalFlatnessOfTangentSurface:
    @pytest.mark.parametrize("name", ["example22", "r4curve"])
    def test_matches_per_node_oracle(self, name):
        entry = get_entry(name)
        frame = build_frame(entry, np.linspace(-1.0, 1.0, 801))
        s = np.linspace(-1.0, 1.0, 9)
        report = normal_flatness_residual(frame, s)
        worst, checked, skipped = flatness_oracle(frame, s)
        assert (report.checked, report.skipped) == (checked, skipped)
        assert skipped > 0 and not report.vacuous
        assert abs(report.max_residual - worst) <= 1e-14

    def test_r4_curve(self):
        entry = get_entry("r4curve")
        t = np.arange(-1.0, 1.0 + 1e-12, 1e-3)
        frame = build_frame(entry, t)
        s = np.array([-1.0, -0.5, 0.25, 0.75, 1.0])
        report = normal_flatness_residual(frame, s)
        assert not report.vacuous
        assert report.max_residual <= 1e-5

    def test_hypersurface_case(self):
        entry = get_entry("example22")
        t = np.arange(-1.0, 1.0 + 1e-12, 1e-3)
        frame = build_frame(entry, t)
        s = np.array([-0.75, 0.4, 1.0])
        report = normal_flatness_residual(frame, s)
        assert report.max_residual <= 1e-6

    def test_straight_line_vacuous(self):
        c = get_curve("line")
        t = np.linspace(-1, 1, 101)
        frame = AdaptedFrame(
            mu=np.tile([0.0, 1.0, 0.0], (101, 1)),
            nus=np.tile([0.0, 0.0, 1.0], (1, 101, 1)).reshape(1, 101, 3),
            gram_drift_max=0.0, record=grid_record(c, t),
        )
        report = normal_flatness_residual(frame, np.linspace(-1, 1, 5))
        assert report.vacuous


class TestTangentPlaneGeometry:
    def test_plane_constant_along_rulings(self):
        entry = get_entry("example22")
        t = np.linspace(-1, 1, 21)
        frame_t = unit_tangent(entry.curve, t)
        from frontals.frames import TangentEvaluator

        ev = TangentEvaluator(entry.curve)
        for i in (3, 10, 17):
            ti = t[i]
            d = ev.at(ti).aligned(frame_t.tau[i])
            tau, tau_p = d.tau, d.tau_p
            fp = d.fprime

            def plane(s):
                return np.stack([fp + s * tau_p, tau], axis=1)

            base = plane(0.4)
            for lam in (0.5, 2.0, -1.0):
                angles = principal_angles(base, plane(0.4 * lam))
                assert angles.max() <= 1e-5

    def test_curve_tangent_inside_surface_tangent(self):
        entry = get_entry("example22")
        t = np.linspace(-1, 1, 21)
        s = np.linspace(-1, 1, 21)
        tf = unit_tangent(entry.curve, t)
        from frontals.frames import TangentEvaluator

        ev = TangentEvaluator(entry.curve)
        s_adj = s[np.argsort(np.abs(s))[1]]  # smallest nonzero offset
        for i in (0, 7, 14, 20):
            ti = t[i]
            d = ev.at(ti).aligned(tf.tau[i])
            tau, tau_p = d.tau, d.tau_p
            jac = np.stack([d.fprime + s_adj * tau_p, tau], axis=1)
            q = orthonormal_column_basis(jac)
            resid = tau - q @ (q.T @ tau)
            assert np.linalg.norm(resid) <= 1e-6

    @pytest.mark.parametrize("a1,a2", [(1, 2), (1, 3), (2, 3)])
    def test_monomial_singular_sets(self, a1, a2):
        c = ExprCurve.from_sources(
            f"mono{a1}{a2}", (f"t^{a1}", f"t^{a2}"), (-1.0, 1.0)
        )
        t = np.linspace(-1, 1, 41)
        s = np.linspace(-1, 1, 41)
        grid = tangent_map(grid_record(c, t), s)
        expected = np.zeros((41, 41), dtype=bool)
        expected[:, s == 0.0] = True
        if a2 - a1 - 1 >= 1:
            expected[t == 0.0, :] = True
        assert (grid.singular_flag == expected).all()


class TestRankOracle:
    """The sampler's Jacobian ranks against central differences of each
    map's own sampled points on a fine uniform grid, which share no code
    with the sampler."""

    @staticmethod
    def sample(kind, entry, t, s):
        if kind == "tan":
            return tangent_map(grid_record(entry.curve, t), s)
        if kind == "can":
            return canal_surface(build_bishop(entry, t), 0.3, s)
        frame = build_frame(entry, t)
        if kind == "pal":
            return parallel_of_tangent(frame, [0.5], s)
        return directrix_tangent_map(frame, [0.5], s)

    @staticmethod
    def differenced_sv_min(grid):
        """Smallest singular value of the central-difference Jacobian of
        the sampled points at every interior node, along every axis."""
        p = grid.points
        inner = (slice(1, -1),) * grid.domain_dim
        columns = []
        for k, (_, samples) in enumerate(grid.axes):
            ahead, behind = list(inner), list(inner)
            ahead[k], behind[k] = slice(2, None), slice(None, -2)
            columns.append((p[tuple(ahead)] - p[tuple(behind)])
                           / (2.0 * (samples[1] - samples[0])))
        jac = np.stack(columns, axis=-1)
        return np.linalg.svd(jac, compute_uv=False)[..., -1]

    @pytest.mark.parametrize("name", ["helix", "example22"])
    @pytest.mark.parametrize("kind", ["tan", "pal", "can", "directrix-tan"])
    def test_ranks_match_differenced_points(self, kind, name):
        entry = get_entry(name)
        t = np.linspace(*entry.curve.domain, 401)
        s = (np.linspace(0.0, 2.0 * math.pi, 41) if kind == "can"
             else np.linspace(-1.0, 1.0, 41))  # s = 0 is on the grid
        grid = self.sample(kind, entry, t, s)
        sv_min, ht = self.differenced_sv_min(grid), t[1] - t[0]
        rank = grid.jac_rank[1:-1, 1:-1]
        assert set(np.unique(grid.jac_rank)) <= {1, 2}
        # the t-differences err by |third derivative| h^2 / 6, and the
        # third derivatives of both curves are at most a few units
        assert (sv_min[rank == 1] <= ht ** 2).all()
        assert (rank[sv_min >= 1e-3] == 2).all()
        if kind in ("tan", "directrix-tan"):
            assert (rank[:, s[1:-1] == 0.0] == 1).all()

    def test_normal_map_of_helix(self):
        # a three-parameter map differenced along t, u1 and u2; offsets
        # up to 3 cross the focal set at distance 1/kappa = 2
        entry = get_entry("helix")
        t = np.linspace(*entry.curve.domain, 201)
        grid = normal_map(build_bishop(entry, t), np.linspace(-3.0, 3.0, 31))
        sv_min, ht = self.differenced_sv_min(grid), t[1] - t[0]
        rank = grid.jac_rank[1:-1, 1:-1, 1:-1]
        assert set(np.unique(grid.jac_rank)) <= {2, 3}
        assert (sv_min[rank == 2] <= ht ** 2).all()
        assert (rank[sv_min >= 1e-2] == 3).all()
        assert sv_min.min() < 1e-2  # the grid passes near the focal set

    def test_derivative_ruling_on_cusp(self):
        # the ruling column f' vanishes at the cusp t = 0: rank at most 1
        # on that row, and 0 where s = 0 makes the t-column vanish too
        entry = get_entry("cusp")
        t = np.linspace(*entry.curve.domain, 401)
        s = np.linspace(-1.0, 1.0, 41)
        grid = tangent_map(grid_record(entry.curve, t), s,
                           ruling="derivative")
        sv_min, ht = self.differenced_sv_min(grid), t[1] - t[0]
        rank = grid.jac_rank[1:-1, 1:-1]
        assert (sv_min[rank < 2] <= ht ** 2).all()
        assert (rank[sv_min >= 1e-3] == 2).all()
        cusp = np.argmin(np.abs(t))
        assert (grid.jac_rank[cusp] <= 1).all()
        assert grid.jac_rank[cusp, s == 0.0].tolist() == [0]
        assert (grid.jac_rank[:, s == 0.0] <= 1).all()


def structured_rank_cases():
    """Every corpus curve with every map kind it admits: tubes need a
    space curve, and parallels and directrices a curve that does not
    inflect."""
    for name in CORPUS_IDS:
        for kind in ("tan", "tan-derivative", "pal", "pal-derivative", "can",
                     "nor", "directrix-tan"):
            if kind == "can" and get_curve(name).dim != 3:
                continue
            if (kind.startswith(("pal", "directrix"))
                    and name in ("example21", "example23", "line")):
                continue
            yield name, kind


class TestStructuredRanks:
    """The sampler's closed-form ranks against LAPACK ranks of the same
    Jacobians [c, d V], assembled from the sampler's own columns, under
    the same threshold."""

    @staticmethod
    def sample(kind, entry, t, s):
        ruling = "derivative" if kind.endswith("-derivative") else "unit"
        if kind.startswith("tan"):
            return tangent_map(grid_record(entry.curve, t), s, ruling)
        if kind == "can":
            return canal_surface(build_bishop(entry, t), 0.3, s)
        if kind == "nor":
            fields = build_bishop(entry, t)
            return normal_map(fields, s if fields.n_fields < 3 else s[::2])
        frame = build_frame(entry, t)
        offsets = [0.5, -0.3][:frame.n_normals]
        if kind.startswith("pal"):
            return parallel_of_tangent(frame, offsets, s, ruling)
        return directrix_tangent_map(frame, offsets, s)

    @pytest.mark.parametrize("name, kind", list(structured_rank_cases()))
    def test_ranks_match_lapack(self, monkeypatch, name, kind):
        entry = get_entry(name)
        calls = []

        def spy(c, v, d=1.0):
            calls.append((c, v, d))
            return ruled_singular_values(c, v, d)

        monkeypatch.setattr(surfaces, "ruled_singular_values", spy)
        t = np.linspace(*entry.curve.domain, 101)
        grid = self.sample(kind, entry, t, np.linspace(-1.0, 1.0, 21))
        [(c, v, d)] = calls
        rulings = np.broadcast_to(np.asarray(d)[..., None, None] * v,
                                  c.shape + v.shape[-1:])
        jac = np.concatenate([c[..., None], rulings], axis=-1)
        assert (grid.jac_rank == batched_rank(jac)).all()


class TestNormalCurvature:
    def test_flat_plane(self):
        def surf(s, t):
            return np.array([s, t, 0.0, 0.0])

        field = normal_curvature_r4(
            surf,
            lambda s, t: np.array([0.0, 0.0, 1.0, 0.0]),
            lambda s, t: np.array([0.0, 0.0, 0.0, 1.0]),
            np.linspace(-0.5, 0.5, 9), np.linspace(-0.5, 0.5, 9),
        )
        assert field.max_abs <= 1e-12

    def test_torus_embedded_in_hyperplane(self):
        big, small = 2.0, 0.5

        def surf(u, v):
            return np.array([
                (big + small * math.cos(v)) * math.cos(u),
                (big + small * math.cos(v)) * math.sin(u),
                small * math.sin(v),
                0.0,
            ])

        def e3(u, v):
            return np.array([
                math.cos(v) * math.cos(u), math.cos(v) * math.sin(u),
                math.sin(v), 0.0,
            ])

        def e4(u, v):
            return np.array([0.0, 0.0, 0.0, 1.0])

        field = normal_curvature_r4(
            surf, e3, e4,
            np.linspace(0.0, 2.0 * math.pi, 17),
            np.linspace(0.0, 2.0 * math.pi, 17),
        )
        assert field.max_abs <= 1e-5

    def test_graph_surface_regression_value(self):
        # |K(0,0)| = 8.0, frozen from an independent partial-derivative
        # discretization of the connection form on a 1e-3 grid
        def surf(s, t):
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

        grid = np.linspace(-0.02, 0.02, 5)
        field = normal_curvature_r4(surf, e3, e4, grid, grid)
        center = field.values[1:3, 1:3]
        assert np.isfinite(center).all()
        value = float(np.abs(center).max())
        assert value >= 0.1
        assert value == pytest.approx(8.0, rel=0.05)

    def test_rejects_non_normal_frame(self):
        def surf(s, t):
            return np.array([s, t, 0.0, 0.0])

        with pytest.raises(MathPreconditionError):
            normal_curvature_r4(
                surf,
                lambda s, t: np.array([1.0, 0.0, 0.0, 0.0]),
                lambda s, t: np.array([0.0, 0.0, 0.0, 1.0]),
                np.linspace(-0.5, 0.5, 5), np.linspace(-0.5, 0.5, 5),
            )

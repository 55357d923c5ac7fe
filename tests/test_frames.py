import math

import numpy as np
import pytest

from conftest import assert_close_upto_sign, curve_points
from frontals.corpus import get_curve, get_entry
from frontals.curves import ExprCurve
from frontals.errors import GridTooCoarseError, InflectionError
from frontals.frames import (
    TangentEvaluator,
    adapted_frame,
    bishop_invariants,
    bishop_transport,
    central_difference,
    grid_record,
    invariants,
    structure_residuals_adapted,
    structure_residuals_bishop,
    surface_normal_transport,
    tangent_surface_unit_normal,
)
from frontals.jets import derivative
from frontals.linalg import gram_deviation, orthonormal_completion


def sample(fn, grid):
    return np.array([fn(t) for t in grid])


class TestBishopTransport:
    def test_circle_closed_form(self):
        entry = get_entry("circle")
        grid = np.linspace(0.0, 2.0 * math.pi, 2001)
        record = grid_record(entry.curve, grid)
        fields = bishop_transport(record, entry.bishop_seed(grid[0]))
        exp1 = sample(entry.get("bishop_field_1").value, grid)
        exp2 = sample(entry.get("bishop_field_2").value, grid)
        assert np.abs(fields.vectors[0] - exp1).max() <= 1e-6
        assert np.abs(fields.vectors[1] - exp2).max() <= 1e-6

    def test_line_constant_fields(self):
        entry = get_entry("line")
        grid = np.linspace(-1, 1, 51)
        record = grid_record(entry.curve, grid)
        fields = bishop_transport(record, entry.bishop_seed(grid[0]))
        assert np.abs(fields.vectors[0] - np.array([0.0, 1.0, 0.0])).max() == 0.0
        assert np.abs(fields.vectors[1] - np.array([0.0, 0.0, 1.0])).max() == 0.0

    def test_surface_normal_transport_matches_published_field(self):
        # the published unit normal of the tangent developable solves the
        # surface-normal system nu' = -(nu.mu') mu, not the curve-normal one
        entry = get_entry("example22")
        grid = np.linspace(0.0, 1.0, 501)
        frame = adapted_frame(grid_record(entry.curve, grid),
                              nu0=entry.frame_seed(grid[0]))
        expected = sample(entry.get("nu").value, grid)
        assert np.abs(frame.nus[0] - expected).max() <= 1e-6

    def test_forward_backward_roundtrip(self):
        entry = get_entry("circle")
        grid = np.linspace(0.0, 2.0 * math.pi, 1001)
        record = grid_record(entry.curve, grid)
        fwd = bishop_transport(record, entry.bishop_seed(grid[0]))
        back = bishop_transport(record, fwd.vectors[:, -1, :], reverse=True)
        err = np.linalg.norm(back.vectors[:, 0, :] - fwd.vectors[:, 0, :],
                             axis=-1).max()
        assert err <= 1e-7

    def test_seed_validation(self):
        entry = get_entry("circle")
        grid = np.linspace(0.0, 1.0, 11)
        record = grid_record(entry.curve, grid)
        with pytest.raises(ValueError, match="orthonormal"):
            bishop_transport(record, np.array([[1.0, 0.0, 0.0],
                                           [1.0, 0.0, 0.0]]))

    def test_too_coarse_grid_rejected(self):
        # (curve, nodes, reverse, renormalize, t of the first step over
        # the drift limit); on the helix at 6 nodes the first step already
        # drifts too far, while backwards at 8 nodes the raw drift builds
        # up until the third step
        cases = [("circle", 3, False, True, "3.141592653589793"),
                 ("helix", 6, False, True, "1.2566370614359172"),
                 ("helix", 8, True, False, "3.5903916041026207")]
        for cid, nodes, reverse, renormalize, t in cases:
            grid = np.linspace(0.0, 2.0 * math.pi, nodes)
            record = grid_record(get_entry(cid).curve, grid)
            start = record.nodes.tau[-1 if reverse else 0]
            seeds = orthonormal_completion([start], 3, 2)
            with pytest.raises(GridTooCoarseError, match=rf"rejected at "
                               rf"t={t}: orthonormality drift"):
                bishop_transport(record, seeds, renormalize=renormalize,
                                 reverse=reverse)

    def test_eval_at_one_call_matches_one_point_calls(self):
        entry = get_entry("helix")
        grid = np.linspace(0.0, 2.0 * math.pi, 41)
        record = grid_record(entry.curve, grid)
        fields = bishop_transport(
            record, orthonormal_completion([record.nodes.tau[0]], 3, 2))
        # off-grid points on both sides of a node, a node itself, and
        # points past both ends of the grid
        ts = np.array([0.3, grid[5], grid[5] + 1e-4, grid[5] - 1e-4, -0.01,
                       2.0 * math.pi + 0.01])
        batch = fields.eval_at(ts)
        assert batch.shape == (2, len(ts), 3)
        for j, t in enumerate(ts):
            assert fields.eval_at([t])[:, 0, :].tobytes() == \
                np.ascontiguousarray(batch[:, j, :]).tobytes()
        assert np.array_equal(batch[:, 1, :], fields.vectors[:, 5, :])


def double_reflection(points, taus, seeds):
    """Rotation-minimizing transport of the seeds by the double-reflection
    method (Wang, Juttler, Zheng & Liu, ACM TOG 27(1), 2008): each step
    reflects in the chord x_{n+1} - x_n, then in the difference of the
    next tangent and the reflected tangent. Shares no code with the RK4
    transport; a zero reflection vector skips its reflection."""
    out = np.empty((len(seeds), len(points), points.shape[1]))
    out[:, 0] = r = np.asarray(seeds, dtype=float)
    for n in range(len(points) - 1):
        t = taus[n]
        for v in (points[n + 1] - points[n], None):
            if v is None:
                v = taus[n + 1] - t
            c = v @ v
            if c > 0.0:
                r = r - (2.0 / c) * np.outer(r @ v, v)
                t = t - (2.0 / c) * (t @ v) * v
        out[:, n + 1] = r
    return out


class TestDoubleReflectionOracle:
    @pytest.mark.parametrize("cid", ["helix", "r4curve"])
    def test_bishop_transport_converges_to_double_reflection(self, cid):
        curve = get_curve(cid)
        distances = []
        for n in (101, 201, 401, 801):
            grid = curve.grid(n)
            record = grid_record(curve, grid)
            seeds = orthonormal_completion([record.nodes.tau[0]], curve.dim,
                                           curve.codim)
            fields = bishop_transport(record, seeds)
            oracle = double_reflection(curve_points(curve, grid),
                                       record.nodes.tau, seeds)
            distances.append(np.abs(fields.vectors - oracle).max())
        assert distances[0] <= 1e-7
        orders = np.log2(np.array(distances[:-1]) / distances[1:])
        assert ((orders >= 3.5) & (orders <= 4.5)).all(), orders


class TestClosedFormBishopFrame:
    """The helix (cos t, sin t, t) has speed sqrt(2), curvature and torsion
    1/2, and Frenet normals N = -(cos t, sin t, 0) and
    B = (sin t, -cos t, 1)/sqrt(2), with N' = sqrt(2)(-T/2 + B/2) and
    B' = -sqrt(2) N/2. The field cos(th) N + sin(th) B has no N or B
    component in its derivative iff th' = -sqrt(2)/2, so the Bishop frame
    is N and B turned by th(t) = -t/sqrt(2)."""

    @staticmethod
    def bishop_frame(t):
        s2 = math.sqrt(2.0)
        n = np.stack([-np.cos(t), -np.sin(t), np.zeros_like(t)], axis=-1)
        b = np.stack([np.sin(t), -np.cos(t), np.ones_like(t)], axis=-1) / s2
        c, s = np.cos(t / s2)[:, None], np.sin(t / s2)[:, None]
        return np.stack([c * n - s * b, s * n + c * b])

    def test_helix_error_and_order(self):
        curve = get_curve("helix")
        errors = []
        for n in (101, 201, 401):
            grid = np.linspace(0.0, 2.0 * math.pi, n)
            exact = self.bishop_frame(grid)
            fields = bishop_transport(grid_record(curve, grid), exact[:, 0])
            errors.append(np.abs(fields.vectors - exact).max())
        assert errors[0] <= 1e-8, errors
        orders = np.log2(np.array(errors[:-1]) / errors[1:])
        assert ((orders >= 3.5) & (orders <= 4.5)).all(), orders


class TestAdaptedFrame:
    def test_example22_mu(self):
        entry = get_entry("example22")
        grid = np.linspace(-1, 1, 101)
        frame = adapted_frame(grid_record(entry.curve, grid), nu0=entry.frame_seed(grid[0]))
        assert np.abs(frame.mu - sample(entry.get("mu").value, grid)).max() <= 1e-8
        rows = np.stack([frame.tau, frame.mu, *frame.nus], axis=1)
        assert gram_deviation(rows).max() <= 1e-8

    def test_circle_frame(self):
        entry = get_entry("circle")
        grid = np.linspace(0.0, 2.0 * math.pi, 201)
        frame = adapted_frame(grid_record(entry.curve, grid), nu0=entry.frame_seed(grid[0]))
        assert np.abs(frame.mu - sample(entry.get("mu").value, grid)).max() <= 1e-9
        assert np.abs(frame.nus[0] - np.array([0.0, 0.0, 1.0])).max() <= 1e-9

    def test_inflection_raises(self):
        c = get_curve("example23")
        with pytest.raises(InflectionError, match="inflection"):
            adapted_frame(grid_record(c, np.linspace(-1, 1, 101)))

    def test_normal_derivative_stays_in_ruling_plane(self):
        # finite-differenced nu' lies in span{tau, mu}
        entry = get_entry("example22")
        grid = np.linspace(-1, 1, 401)
        h = grid[1] - grid[0]
        frame = adapted_frame(grid_record(entry.curve, grid), nu0=entry.frame_seed(grid[0]))
        nu_dot = (frame.nus[0][2:] - frame.nus[0][:-2]) / (2 * h)
        for i, nd in enumerate(nu_dot, start=1):
            inplane = (np.dot(nd, frame.tau[i]) * frame.tau[i]
                       + np.dot(nd, frame.mu[i]) * frame.mu[i])
            assert np.linalg.norm(nd - inplane) <= 1e-5 * max(
                1.0, np.linalg.norm(nd)
            )


class TestInvariants:
    def test_example22_closed_forms(self):
        entry = get_entry("example22")
        grid = np.linspace(-1, 1, 201)
        frame = adapted_frame(grid_record(entry.curve, grid), nu0=entry.frame_seed(grid[0]))
        prof = invariants(frame)
        kexp = sample(entry.get("kappa").value, grid)
        assert np.abs(prof.kappa - kexp).max() <= 1e-6
        assert np.abs(prof.ells[0] - kexp).max() <= 1e-6
        assert np.abs(prof.a - sample(entry.get("a").value, grid)).max() <= 1e-8
        assert (prof.kappa >= 0).all()

    def test_helix_constants(self):
        entry = get_entry("helix")
        grid = np.linspace(0.0, 2.0 * math.pi, 301)
        frame = adapted_frame(grid_record(entry.curve, grid), nu0=entry.frame_seed(grid[0]))
        prof = invariants(frame)
        for values in (prof.a, prof.kappa, prof.ells[0]):
            assert np.std(values) <= 1e-8 * abs(np.mean(values))
        assert np.mean(prof.a) == pytest.approx(math.sqrt(2.0), abs=1e-9)
        assert np.mean(prof.kappa) == pytest.approx(1 / math.sqrt(2), abs=1e-9)
        assert abs(np.mean(prof.ells[0])) == pytest.approx(
            1 / math.sqrt(2), abs=1e-8
        )

    def test_tangential_flatness(self):
        # tau'.tau vanishes: tau is a parallel unit frame of the tangent bundle
        for cid in ("example22", "cusp", "helix", "r4curve"):
            c = get_curve(cid)
            ev = TangentEvaluator(c)
            for t in c.grid(41):
                d = ev.at(t)
                tau, tau_p = d.tau, d.tau_p
                assert abs(np.dot(tau, tau_p)) <= 1e-9

    def test_plane_curve_normal_is_parallel(self):
        # for a curve in R^2 any unit normal has tangential derivative
        c = ExprCurve.from_sources("parabola", ("t", "t^2/2"), (-1.0, 1.0))
        ev = TangentEvaluator(c)
        for t in np.linspace(-1, 1, 21):
            jets = ev.tau_jet_vec(t, 1)
            # rotate tau by 90 degrees: nu = (-tau_y, tau_x)
            nu = np.array([-jets[1].value, jets[0].value])
            nu_p = np.array([-derivative(jets[1], 1), derivative(jets[0], 1)])
            tau = np.array([jets[0].value, jets[1].value])
            resid = nu_p - np.dot(nu_p, tau) * tau
            assert np.linalg.norm(resid) <= 1e-6

    def test_bishop_invariants_circle(self):
        entry = get_entry("circle")
        grid = np.linspace(0.0, 2.0 * math.pi, 501)
        record = grid_record(entry.curve, grid)
        fields = bishop_transport(record, entry.bishop_seed(grid[0]))
        inv = bishop_invariants(fields)
        assert np.abs(inv.a - 1.0).max() <= 1e-9
        assert np.abs(inv.kappas[0] + 1.0).max() <= 1e-9  # tau'.nu1 = -1
        assert np.abs(inv.kappas[1]).max() <= 1e-9


class TestStructureResiduals:
    def test_circle_both_systems(self):
        entry = get_entry("circle")
        grid = np.linspace(0.0, 2.0 * math.pi, 6284)
        frame = adapted_frame(grid_record(entry.curve, grid), nu0=entry.frame_seed(grid[0]))
        res = structure_residuals_adapted(frame)
        assert max(res.values()) <= 1e-5
        record = grid_record(entry.curve, grid)
        fields = bishop_transport(record, entry.bishop_seed(grid[0]))
        res2 = structure_residuals_bishop(fields)
        assert max(res2.values()) <= 1e-5

    def test_gram_drift_without_renormalization(self):
        entry = get_entry("circle")
        grid = np.linspace(0.0, 2.0 * math.pi, 6284)
        record = grid_record(entry.curve, grid)
        raw = bishop_transport(record, entry.bishop_seed(grid[0]),
                               renormalize=False)
        assert raw.final_gram_dev <= 1e-5


class TestCentralDifference:
    def test_linspace_rounding_far_from_zero(self):
        # the spacings of this grid differ by one ulp of 101, a relative
        # 7e-10 of the spacing
        grid = np.linspace(100.0, 101.0, 50000)
        d = central_difference(grid ** 2, grid)
        assert np.abs(d - 2.0 * grid[1:-1]).max() <= 1e-6

    def test_non_uniform_grid_rejected(self):
        grid = np.linspace(100.0, 101.0, 50000)
        grid[7] += 1e-9
        with pytest.raises(ValueError, match="uniform grid"):
            central_difference(grid, grid)


class TestTangentSurfaceNormal:
    def test_smooth_through_inflection(self):
        entry = get_entry("example23")
        for t in (-0.5, -0.01, 0.0, 0.01, 0.5):
            value, jets = tangent_surface_unit_normal(entry.curve, t)
            assert_close_upto_sign(value, entry.get("nu").value(t), 1e-9)
        value, jets = tangent_surface_unit_normal(entry.curve, 0.0)
        assert derivative(jets[1], 1) == pytest.approx(-0.5, abs=1e-9)

    def test_matches_adapted_normal_for_regular_curve(self):
        entry = get_entry("example22")
        for t in (-1.0, 0.0, 0.7):
            value, _ = tangent_surface_unit_normal(entry.curve, t)
            assert_close_upto_sign(value, entry.get("nu").value(t), 1e-9)

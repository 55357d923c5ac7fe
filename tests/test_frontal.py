import numpy as np
import pytest

from conftest import assert_close_upto_sign, gauss_rank
from frontals.corpus import CORPUS_IDS, get_curve, get_entry
from frontals.curves import ExprCurve
from frontals.errors import (
    InflectionError,
    MathPreconditionError,
    TangentUndeterminedError,
)
from frontals.frontal import (
    TangentEvaluator,
    contact_orders,
    unit_tangent,
    wronskian_matrix,
)
from frontals.linalg import batched_rank
from frontals.frames import grid_record


def curve_2d(name, sources):
    return ExprCurve.from_sources(name, sources, (-1.0, 1.0))


class TestWronskianRank:
    def test_full_rank_columns(self):
        c = get_curve("example22")
        assert batched_rank(wronskian_matrix(c, 0.0, 3), 1e-9) == 3

    def test_vanishing_second_column(self):
        c = get_curve("example23")
        assert batched_rank(wronskian_matrix(c, 0.0, 2), 1e-9) == 1

    def test_cusp_rank_two(self):
        c = curve_2d("cusp23", ("t^2/2", "t^3/3"))
        # columns (0,0), (1,0), (0,2): rank by inspection
        w = wronskian_matrix(c, 0.0, 3)
        assert w == pytest.approx(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 2.0]]))
        assert batched_rank(wronskian_matrix(c, 0.0, 3), 1e-9) == 2

    def test_rank_matches_elimination_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            rows = int(rng.integers(1, 7))
            cols = int(rng.integers(1, 9))
            m = rng.integers(-3, 4, size=(rows, cols)).astype(float)
            assert batched_rank(m, 1e-9) == gauss_rank(m, 1e-9)


class TestContactOrders:
    def test_regular_curve(self):
        rep = contact_orders(get_curve("example22"), 0.0)
        assert (rep.a1, rep.a2, rep.frontal_sufficient) == (1, 2, True)
        assert rep.ranks[:3] == (1, 2, 3)

    def test_inflection_curve(self):
        rep = contact_orders(get_curve("example23"), 0.0)
        assert (rep.a1, rep.a2) == (1, 3)

    def test_constant_curve_inconclusive(self):
        c = ExprCurve.from_sources("const", ("1", "2", "3"), (-1.0, 1.0))
        rep = contact_orders(c, 0.0)
        assert rep.a1 is None and rep.a2 is None
        assert not rep.frontal_sufficient
        assert all(r == 0 for r in rep.ranks)

    def test_monomial_pairs(self):
        for a1 in range(1, 6):
            for a2 in range(a1 + 1, 7):
                c = curve_2d(f"m{a1}{a2}", (f"t^{a1}", f"t^{a2}"))
                rep = contact_orders(c, 0.0)
                assert (rep.a1, rep.a2) == (a1, a2), (a1, a2, rep.ranks)

    @pytest.mark.parametrize("cid", CORPUS_IDS + ("const",))
    def test_grid_matches_per_node(self, cid):
        # the 41-node grids hit t = 0, where cusp, example21 and example23
        # are singular or inflected
        if cid == "const":
            curve = ExprCurve.from_sources("const", ("1", "2", "3"),
                                           (-1.0, 1.0))
        else:
            curve = get_curve(cid)
        grid = curve.grid(41)
        assert 0.0 in grid
        for k_max in (2, 8):
            assert contact_orders(curve, grid, k_max) == [
                contact_orders(curve, t, k_max) for t in grid]

    @pytest.mark.parametrize("reverse", [False, True])
    def test_grid_names_first_overflowing_node(self, reverse):
        # the order-8 derivatives of t^400 overflow from t = 6.25 on
        curve = ExprCurve.from_sources("power-400", ("t", "t^2", "t^400"),
                                       (-10.0, 10.0))
        grid = np.linspace(0.0, 10.0, 9)
        if reverse:
            grid = grid[::-1]
        per_node = _first_error([lambda t=t: contact_orders(curve, t)
                                 for t in grid])
        assert f"t={10.0 if reverse else 6.25} " in per_node[1]
        assert _first_error([lambda: contact_orders(curve, grid)]) == per_node

    def test_ranks_nondecreasing(self):
        for cid in ("example22", "example23", "cusp", "example21"):
            rep = contact_orders(get_curve(cid), 0.0)
            assert all(x <= y for x, y in zip(rep.ranks, rep.ranks[1:]))
            if rep.a1 is not None and rep.a2 is not None:
                assert 1 <= rep.a1 < rep.a2


class TestUnitTangent:
    def test_closed_form(self):
        entry = get_entry("example22")
        grid = np.linspace(-1, 1, 41)
        tf = unit_tangent(entry.curve, grid)
        expected = np.array([entry.get("tau").value(t) for t in grid])
        assert_close_upto_sign(tf.tau, expected, 1e-9)
        assert tf.sign_flips == ()

    def test_cusp_limit_direction(self):
        c = get_curve("cusp")
        tf = unit_tangent(c, np.linspace(0.0, 1.0, 11))
        assert tf.tau[0] == pytest.approx((1.0, 0.0))

    def test_straight_line(self):
        tf = unit_tangent(get_curve("line"), np.linspace(-1, 1, 11))
        assert np.abs(tf.tau - np.array([1.0, 0.0, 0.0])).max() == 0.0

    def test_undetermined_at_constant(self):
        c = ExprCurve.from_sources("const", ("1", "2", "3"), (-1.0, 1.0))
        with pytest.raises(TangentUndeterminedError):
            unit_tangent(c, np.array([0.0, 0.5]))

    def test_unit_norm_and_projection_residual(self):
        for cid in ("example22", "cusp", "helix", "r4curve"):
            c = get_curve(cid)
            grid = c.grid(41)
            tf = unit_tangent(c, grid)
            ev = TangentEvaluator(c)
            norms = np.linalg.norm(tf.tau, axis=1)
            assert np.abs(norms - 1.0).max() <= 1e-12
            for i, t in enumerate(grid):
                fp = ev.at(t).fprime
                resid = fp - np.dot(fp, tf.tau[i]) * tf.tau[i]
                bound = 1e-8 * max(1.0, np.linalg.norm(fp))
                assert np.linalg.norm(resid) <= bound

    def test_matches_normalized_velocity_at_regular_points(self):
        for cid in ("example22", "helix"):
            c = get_curve(cid)
            grid = c.grid(41)
            tf = unit_tangent(c, grid)
            ev = TangentEvaluator(c)
            for i, t in enumerate(grid):
                fp = ev.at(t).fprime
                if np.linalg.norm(fp) > 1e-6:
                    raw = fp / np.linalg.norm(fp)
                    assert_close_upto_sign(tf.tau[i], raw, 1e-10)

    def test_flat_curve_reports_single_flip(self):
        c = get_curve("example21")
        grid = np.linspace(-1, 1, 41)
        tf = unit_tangent(c, grid)
        assert len(tf.sign_flips) == 1
        assert abs(grid[tf.sign_flips[0]]) <= 0.05


class TestTangentData:
    def test_helix_closed_forms(self):
        c = 0.5
        w = np.sqrt(1.0 + c * c)
        helix = ExprCurve.from_sources(
            "helix05", ("cos(t)", "sin(t)", "0.5*t"), (-1.0, 1.0)
        )
        ev = TangentEvaluator(helix)
        for t in (-0.7, 0.0, 0.3, 1.0):
            d = ev.at(t)
            fp = np.array([-np.sin(t), np.cos(t), c])
            assert d.fprime == pytest.approx(fp, abs=1e-14)
            assert d.tau == pytest.approx(fp / w, abs=1e-14)
            assert d.kappa == pytest.approx(1.0 / w, abs=1e-14)
            mu, mu_p = d.normal()
            assert mu == pytest.approx([-np.cos(t), -np.sin(t), 0.0],
                                       abs=1e-14)
            assert mu_p == pytest.approx([np.sin(t), -np.cos(t), 0.0],
                                         abs=1e-13)

    def test_singular_node_of_cusp(self):
        ev = TangentEvaluator(curve_2d("cusp23", ("t^2", "t^3")))
        d = ev.at(0.0)
        assert d.fprime == pytest.approx([0.0, 0.0])
        assert d.tau == pytest.approx([1.0, 0.0], abs=1e-14)
        assert d.tau_p == pytest.approx([0.0, 1.5], abs=1e-14)
        assert d.kappa == pytest.approx(1.5, abs=1e-14)
        mu, mu_p = d.normal()
        assert mu == pytest.approx([0.0, 1.0], abs=1e-14)
        assert mu_p == pytest.approx(-d.kappa * d.tau, abs=1e-13)

    def test_reference_sign(self):
        for c, t in ((get_curve("helix"), 0.4),
                     (curve_2d("cusp23", ("t^2", "t^3")), 0.0)):
            ev = TangentEvaluator(c)
            d = ev.at(t)
            flipped = d.aligned(-d.tau)
            for name in ("tau", "tau_p", "mu", "mu_p"):
                assert np.array_equal(getattr(flipped, name),
                                      -getattr(d, name)), name
            assert flipped.kappa == d.kappa
            assert np.array_equal(flipped.fprime, d.fprime)
            assert np.array_equal(flipped.fsecond, d.fsecond)

    def test_inflection_has_no_normal(self):
        d = TangentEvaluator(curve_2d("cubic", ("t", "t^3"))).at(0.0)
        assert d.kappa == 0.0
        assert d.mu is None and d.mu_p is None
        with pytest.raises(InflectionError, match=r"\|tau'\| = 0 at t=0.0"):
            d.normal()


def _record_bytes(d):
    return [None if v is None else np.asarray(v, dtype=float).tobytes()
            for v in (d.t, d.f, d.fprime, d.fsecond, d.tau, d.tau_p, d.kappa,
                      d.mu, d.mu_p, d.speed_rate)]


def _first_error(calls):
    """(type, message) of the first failing call, else None."""
    for call in calls:
        try:
            call()
        except Exception as exc:
            return type(exc), str(exc)
    return None


class TestBatchedTangentData:
    CURVES = [(cid, get_curve(cid)) for cid in CORPUS_IDS] + [
        ("cusp23", curve_2d("cusp23", ("t^2", "t^3"))),
        ("cubic", curve_2d("cubic", ("t", "t^3"))),
        # every node's speed is below SINGULAR_SPEED
        ("slow", ExprCurve.from_sources(
            "slow", ("1e-7*t", "1e-7*t^2", "1e-7*t^3"), (0.1, 1.0))),
    ]

    @pytest.mark.parametrize("cid,curve", CURVES, ids=[c for c, _ in CURVES])
    def test_matches_per_node_bit_for_bit(self, cid, curve):
        # 41-node grids hit t = 0: the singular node of cusp, cusp23 and
        # example21 (a CallableCurve) and the exact tau' = 0 of cubic and
        # example23; aligning with -tau flips every representative
        grid = curve.grid(41)
        ev = TangentEvaluator(curve)
        taus = unit_tangent(curve, grid).tau
        for refs in (None, taus, -taus):
            batch = ev.at(grid)
            if refs is not None:
                batch = batch.aligned(refs)
            assert batch.t.tobytes() == grid.tobytes()
            for i, t in enumerate(grid):
                single = ev.at(t)
                if refs is not None:
                    single = single.aligned(refs[i])
                assert _record_bytes(batch[i]) == _record_bytes(single)

    @pytest.mark.parametrize("cid,curve", CURVES, ids=[c for c, _ in CURVES])
    def test_grid_record_is_one_evaluation(self, monkeypatch, cid, curve):
        # the record's own node rows give the sign chain of unit_tangent
        grid = curve.grid(41)
        expected = unit_tangent(curve, grid).tau
        calls = []
        original = TangentEvaluator.at

        def counting(self, t):
            calls.append(np.size(t))
            return original(self, t)

        def forbidden(*args):
            raise AssertionError("a second pass over the grid")

        monkeypatch.setattr(TangentEvaluator, "at", counting)
        monkeypatch.setattr(TangentEvaluator, "tau_jet_vec", forbidden)
        record = grid_record(curve, grid)
        assert calls == [2 * len(grid) - 1]
        assert record.nodes.tau.tobytes() == expected.tobytes()
        starts = np.einsum("ij,ij->i", record.mids.tau, record.nodes.tau[:-1])
        assert (starts >= 0.0).all()

    def test_record_rows_mark_undefined_normals(self):
        ev = TangentEvaluator(curve_2d("cubic", ("t", "t^3")))
        d = ev.at(np.array([-0.5, 0.0, 0.5]))
        assert d.kappa[1] == 0.0 and np.isnan(d.mu[1]).all()
        assert d[1].mu is None and d[1].mu_p is None
        assert d[0].normal()[0] == pytest.approx(d.mu[0])
        with pytest.raises(InflectionError, match=r"at t=0.0$"):
            d.normal()

    def test_tiny_curvature_does_not_underflow(self):
        # |tau'| of example21 at t = -0.05 is about 5e-165; squaring the
        # unscaled jets used to underflow it to an exact zero
        d = TangentEvaluator(get_curve("example21")).at(-0.05)
        assert 0.0 < d.kappa < 1e-160
        mu, _ = d.normal()
        assert np.linalg.norm(mu) == pytest.approx(1.0, abs=1e-15)


class TestErrorParity:
    """A grid evaluation raises what a loop over its nodes raises first."""

    # sources, domain, grid, first failing node forwards and backwards;
    # the squared order-3 jets of t^400 overflow from |t| = 2.5 on
    CASES = {
        "undetermined": (("(t*(t-1))^14", "(t*(t-1))^15"), (-1.0, 2.0),
                         np.linspace(-1.0, 2.0, 13), 0.0, 1.0),
        "overflow": (("t", "t^2", "t^400"), (-10.0, 10.0),
                     np.linspace(0.0, 10.0, 9), 2.5, 10.0),
        # two singular-speed nodes: at t = 0 the leading velocity
        # coefficient (order 9) is too deep for the 10 orders evaluated,
        # at t = 1 the velocity jets overflow
        "singular": (("t^10*(t-1)^12", "t^12*(1e308*(t-1)^3)"), (0.0, 1.0),
                     np.linspace(0.0, 1.0, 3), 0.0, 1.0),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("reverse", [False, True])
    def test_at_names_first_failing_node(self, case, reverse):
        sources, domain, grid, first, last = self.CASES[case]
        curve = ExprCurve.from_sources(case, sources, domain)
        if reverse:
            grid = grid[::-1]
        ev = TangentEvaluator(curve)
        per_node = _first_error([lambda t=t: ev.at(t) for t in grid])
        assert f"t={last if reverse else first}" in per_node[1]
        assert _first_error([lambda: ev.at(grid)]) == per_node

    @pytest.mark.parametrize("reverse", [False, True])
    def test_normal_names_first_inflection(self, reverse):
        # g'' = t^2 - t vanishes exactly at the nodes 0 and 1
        curve = curve_2d("two-inflections", ("t", "t^4/12 - t^3/6"))
        grid = np.linspace(-1.0, 1.0, 9)
        if reverse:
            grid = grid[::-1]
        ev = TangentEvaluator(curve)
        per_node = _first_error([lambda t=t: ev.at(t).normal()
                                 for t in grid])
        assert per_node == (InflectionError, "inflection point in range: "
                            f"|tau'| = 0 at t={1.0 if reverse else 0.0}")
        assert _first_error([lambda: ev.at(grid).normal()]) == per_node

    def test_singular_failures_differ(self):
        curve = ExprCurve.from_sources(
            "singular", self.CASES["singular"][0], (0.0, 1.0))
        ev = TangentEvaluator(curve)
        with pytest.raises(TangentUndeterminedError, match=(
                r"at t=0.0: velocity jets evaluated to order 10 lead at "
                r"order 9, too deep for a tangent jet of order 2$")):
            ev.at(0.0)
        with pytest.raises(MathPreconditionError,
                           match=r"^jets at t=1.0 overflow"):
            ev.at(1.0)

    def test_unit_tangent_names_first_undetermined_node(self):
        curve = curve_2d("flat", ("t^14", "t^15"))
        with pytest.raises(TangentUndeterminedError, match=r"at t=0.0:"):
            unit_tangent(curve, np.linspace(-1.0, 1.0, 5))

import numpy as np
import pytest

from frontals.config import (
    CurveConfig,
    load_config,
    parse_config,
    substitute_params,
)
from frontals.corpus import CORPUS, CORPUS_IDS, ORIGINS, get_curve
from frontals.errors import ConfigError

EXAMPLE_CONFIG = """\
# twisted cubic-type demo curve
name = sample22
dim = 3
components = [t, t^2/2, t^3/6]
domain = [-1, 1]
grid.t_steps = 51
grid.s_steps = 11
grid.s_range = [-2, 2]
"""


class TestCorpus:
    def test_fixed_id_set(self):
        assert set(CORPUS_IDS) == {
            "example21", "example22", "example23", "circle", "line", "cusp",
            "helix", "r4curve",
        }

    def test_every_expected_value_is_tagged(self):
        for entry in CORPUS.values():
            for item in entry.expected:
                assert item.origin in ORIGINS
                assert item.key

    def test_unknown_id(self):
        with pytest.raises(ConfigError, match="unknown corpus curve"):
            get_curve("nope")

    def test_flat_curve_branches(self):
        c = get_curve("example21")
        assert c.point(0.0) == pytest.approx((0.0, 0.0, 0.0))
        p = c.point(0.5)
        assert p[1] == 0.0 and p[2] == -0.25
        m = c.point(-0.5)
        assert m[0] == 0.0 and m[2] == -0.25

    def test_flat_curve_jets_at_origin(self):
        jets = get_curve("example21").jets(0.0, 4)
        assert all(c == 0.0 for c in jets[0].coeffs)
        assert all(c == 0.0 for c in jets[1].coeffs)
        assert jets[2].coeffs.tolist() == [0.0, 0.0, -1.0, 0.0, 0.0]

    @pytest.mark.parametrize("steps", [1, 2, 41, 401])
    def test_flat_curve_jets_in_one_call(self, monkeypatch, steps):
        # the jet callable takes the whole grid, and node i of its jets is
        # bit for bit the jet about t_i alone
        curve = get_curve("example21")
        jets_fn, calls = curve._jets_fn, []

        def counting(ts, order):
            calls.append(len(ts))
            return jets_fn(ts, order)

        monkeypatch.setattr(curve, "_jets_fn", counting)
        grid = np.linspace(-1.0, 1.0, steps)
        jets = curve.jets(grid, 5)
        assert calls == [steps]
        for i, t in enumerate(grid.tolist()):
            alone = curve.jets(t, 5)
            assert [j.coeffs[:, i].tobytes() for j in jets] == [
                j.coeffs.tobytes() for j in alone]
        assert calls == [steps] + [1] * steps

    def test_flat_curve_below_underflow(self):
        # exp(-1/t^2) is 0.0 in double precision from |t| ~ 0.0366 down;
        # its jets are then exactly zero, as at t = 0, also where 1/t^2
        # overflows (1e-170) or its jet recurrence would (1e-120)
        curve = get_curve("example21")
        grid = np.array([-1e-170, 0.0, 1e-170, 1e-120, 0.03])
        jets = curve.jets(grid, 8)
        for j in jets[:2]:
            assert (j.coeffs == 0.0).all()
        assert np.array_equal(jets[2].value, -(grid * grid))
        for t in grid.tolist():
            assert np.array_equal(curve.point(t), [0.0, 0.0, -t * t])


class TestConfig:
    def test_parse_matches_builtin_curve(self):
        cfg = parse_config(EXAMPLE_CONFIG)
        curve = cfg.build_curve()
        builtin = get_curve("example22")
        for t in np.linspace(-1, 1, 7):
            assert curve.point(t) == pytest.approx(builtin.point(t))
        assert (cfg.grid.t_steps, cfg.grid.s_steps) == (51, 11)
        assert cfg.grid.s_range == (-2.0, 2.0)

    def test_defaults(self):
        cfg = parse_config(
            "name = c\ndim = 2\ncomponents = [t, t^2]\ndomain = [0, 1]\n"
        )
        assert (cfg.grid.t_steps, cfg.grid.s_steps) == (201, 101)
        assert cfg.grid.s_range == (-1.0, 1.0)

    def test_component_count_mismatch(self):
        bad = EXAMPLE_CONFIG.replace("[t, t^2/2, t^3/6]", "[t, t^2/2]")
        with pytest.raises(ConfigError, match="components length"):
            parse_config(bad)

    def test_param_substitution(self):
        assert substitute_params("u*t", {"u": 0.5}) == "0.5*t"
        assert substitute_params("t^u", {"u": 2.0}) == "t^2"
        assert substitute_params("u + uu", {"u": 1.0, "uu": 2.0}) == "1 + 2"

    def test_param_in_config(self):
        cfg = parse_config(
            "name = scaled\ndim = 2\ncomponents = [t, u*t^2]\n"
            "domain = [0, 1]\nparams.u = 0.5\n"
        )
        assert cfg.substituted_components == ("t", "0.5*t^2")
        curve = cfg.build_curve()
        assert curve.point(2.0)[1] == pytest.approx(2.0)

    def test_reserved_param_name(self):
        with pytest.raises(ConfigError, match="illegal parameter name"):
            substitute_params("t", {"t": 1.0})

    def test_error_reports_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("name = x\ndim = many\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("name = x\nwhatever = 3\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config("name = x\nname = y\n")

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="missing required key"):
            parse_config("name = x\ndim = 2\ncomponents = [t, t]\n")

    def test_empty_domain(self):
        with pytest.raises(ConfigError, match="t_lo < t_hi"):
            parse_config(
                "name = x\ndim = 2\ncomponents = [t, t]\ndomain = [1, 1]\n"
            )

    def test_bad_expression_surfaces_as_config_error(self):
        cfg = parse_config(
            "name = x\ndim = 2\ncomponents = [t, q*t]\ndomain = [0, 1]\n"
        )
        with pytest.raises(ConfigError, match="bad component expression"):
            cfg.build_curve()

    def test_load_config_roundtrip(self, tmp_path):
        path = tmp_path / "curve.cfg"
        path.write_text(EXAMPLE_CONFIG, encoding="utf-8")
        cfg = load_config(path)
        assert cfg.name == "sample22"
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(tmp_path / "missing.cfg")

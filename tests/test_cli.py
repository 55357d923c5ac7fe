import contextlib
import dataclasses
import io
import json
import subprocess
import sys

import numpy as np
import pytest

from frontals import cli
from frontals.cli import main
from frontals.curves import Curve, ExprCurve
from frontals.frames import adapted_frame
from frontals.frontal import TangentEvaluator


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def parse_csv(text):
    lines = [l for l in text.strip().splitlines() if l]
    header = lines[0].split(",")
    rows = np.array([[float(x) for x in l.split(",")] for l in lines[1:]])
    return header, rows


class TestInvariantsCommand:
    def test_example22_kappa_column(self):
        rc, out, _ = run_cli(["invariants", "--curve", "example22"])
        assert rc == 0
        header, rows = parse_csv(out)
        assert header == ["t", "a", "kappa", "ell_1"]
        t = rows[:, 0]
        expected = 2.0 / (2.0 + t * t)
        assert np.abs(rows[:, 2] - expected).max() <= 1e-6
        assert np.abs(rows[:, 3] - expected).max() <= 1e-6

    def test_line_zero_curvature(self):
        rc, out, _ = run_cli(["invariants", "--curve", "line",
                              "--t-steps", "51"])
        assert rc == 0
        _, rows = parse_csv(out)
        assert np.abs(rows[:, 2]).max() <= 1e-9

    def test_helix_constant_columns(self):
        rc, out, _ = run_cli(["invariants", "--curve", "helix",
                              "--t-steps", "101"])
        assert rc == 0
        _, rows = parse_csv(out)
        for col in range(1, rows.shape[1]):
            assert np.std(rows[:, col]) <= 1e-8

    def test_flat_curve_reports_first_underflowing_node(self):
        # |tau'| is about 5e-165 at t = -0.05 and nonzero; the first node
        # where it is exactly zero is where exp(-1/t^2) itself underflows
        rc, _, err = run_cli(["invariants", "--curve", "example21"])
        assert rc == 2
        assert err.strip().endswith("|tau'| = 0 at t=-0.030000000000000027")


class TestSurfaceCommand:
    def test_tangent_obj_marks_cuspidal_edge(self, tmp_path):
        path = tmp_path / "tan.obj"
        rc, _, _ = run_cli([
            "surface", "--curve", "example22", "--kind", "tan",
            "--t-steps", "21", "--s-steps", "11", "--out", str(path),
        ])
        assert rc == 0
        lines = path.read_text().splitlines()
        vs = [l for l in lines if l.startswith("v ")]
        fs = [l for l in lines if l.startswith("f ")]
        singular = [l for l in lines if l.startswith("# singular")]
        assert len(vs) == 21 * 11
        assert len(fs) == 2 * 20 * 10
        # s = 0 is column index 5 of the 11-point s-grid
        assert singular == [f"# singular {i} 5" for i in range(21)]

    def test_flat_curve_mesh_exports(self, tmp_path):
        path = tmp_path / "flat.obj"
        rc, _, _ = run_cli([
            "surface", "--curve", "example21", "--kind", "tan",
            "--t-steps", "41", "--s-steps", "11", "--out", str(path),
        ])
        assert rc == 0
        assert len([l for l in path.read_text().splitlines()
                    if l.startswith("v ")]) == 41 * 11

    def test_canal_keeps_distance(self):
        rc, out, _ = run_cli([
            "surface", "--curve", "circle", "--kind", "can", "--r", "0.3",
            "--t-steps", "41", "--s-steps", "17", "--export", "csv",
        ])
        assert rc == 0
        _, rows = parse_csv(out)
        t = rows[:, 0]
        center = np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=1)
        dist = np.linalg.norm(rows[:, 2:5] - center, axis=1)
        assert np.abs(dist - 0.3).max() <= 1e-9

    def test_directrix_tangent_surface(self):
        rc, out, _ = run_cli([
            "surface", "--curve", "example22", "--kind", "directrix-tan",
            "--u", "0.5", "--t-steps", "21", "--s-steps", "5",
            "--export", "csv",
        ])
        assert rc == 0
        _, rows = parse_csv(out)
        # at s = 0 the surface passes through the directrix (t+u, t^2/2, t^3/6+u)
        at_zero = rows[np.abs(rows[:, 1]) < 1e-14]
        t = at_zero[:, 0]
        expected = np.stack([t + 0.5, t * t / 2, t ** 3 / 6 + 0.5], axis=1)
        assert np.abs(at_zero[:, 2:5] - expected).max() <= 1e-6

    def test_normal_map_csv_full_grid(self):
        rc, out, _ = run_cli([
            "surface", "--curve", "line", "--kind", "nor", "--export", "csv",
            "--t-steps", "5", "--s-steps", "3",
        ])
        assert rc == 0
        header, rows = parse_csv(out)
        assert header[:3] == ["t", "u1", "u2"]
        assert rows.shape[0] == 5 * 3 * 3
        assert (rows[:, -1] == 3).all()

    def test_overflowing_directrix_refused(self):
        rc, out, err = run_cli([
            "surface", "--curve", "helix", "--kind", "directrix-tan",
            "--u", "1e300", "--t-steps", "41", "--s-steps", "3",
        ])
        assert rc == 2 and out == ""
        assert err == ("precondition violated: directrix tangency residual "
                       "nan: the directrix overflows\n")

    @pytest.mark.parametrize("argv, node", [
        (["--curve", "example22", "--kind", "nor"],
         "Nor map is not finite at t = -0.9, u1 = 1.7e+308, u2 = 1.7e+308"),
        (["--curve", "example21", "--kind", "tan"],
         "Tan map is not finite at t = -0.55, s = 1.7e+308"),
        (["--curve", "helix", "--kind", "pal", "--u", "1e308"],
         "Pal map is not finite at t = 0, s = 1.7e+308"),
    ], ids=["nor", "tan", "pal"])
    def test_overflowing_ruled_map_refused(self, argv, node):
        # offsets near the largest double overflow a point or a t-column
        # entry: the first such node is named instead of writing inf
        rc, out, err = run_cli([
            "surface", *argv, "--export", "csv", "--s-range", "1e307",
            "1.7e308", "--t-steps", "41", "--s-steps", "3",
        ])
        assert rc == 2 and out == ""
        assert err == (f"precondition violated: {node}: a point, t-derivative "
                       f"or Jacobian singular value overflows\n")

    def test_obj_rejected_for_r4(self):
        rc, _, err = run_cli([
            "surface", "--curve", "r4curve", "--kind", "tan",
            "--t-steps", "5", "--s-steps", "3",
        ])
        assert rc == 1
        assert "R^3" in err


class TestVerifyCommand:
    def test_theorem22_passes(self, tmp_path):
        log = tmp_path / "log.jsonl"
        rc, out, _ = run_cli([
            "verify", "--curve", "example22", "--check", "theorem22",
            "--u", "0.5", "--out", str(log),
        ])
        assert rc == 0
        assert "PASS" in out
        import json

        record = json.loads(log.read_text().splitlines()[0])
        assert record["pass"] is True
        assert record["residual"] <= 1e-6

    def test_overflowing_residual_is_valid_json(self, tmp_path):
        # the residuals overflow to inf; the record says so in strings
        def no_constant(name):
            raise AssertionError(f"{name} is not JSON")

        log = tmp_path / "log.jsonl"
        rc, out, _ = run_cli([
            "verify", "--curve", "helix", "--check", "theorem22",
            "--u", "1e300", "--out", str(log),
        ])
        assert rc == 2 and "FAIL" in out
        record = json.loads(log.read_text(), parse_constant=no_constant)
        assert record["residual"] == "inf" and record["pass"] is False
        assert record["offsets"] == [1e300]

    def test_overflow_warns_nothing_on_stderr(self):
        argv = [sys.executable, "-m", "frontals", "verify", "--curve",
                "helix", "--check", "theorem22", "--u", "1e300"]
        proc = subprocess.run(argv, capture_output=True, text=True)
        assert proc.returncode == 2 and "FAIL" in proc.stdout
        assert "RuntimeWarning" not in proc.stderr

    @pytest.mark.parametrize("command", [
        ["verify", "--check", "theorem22"],
        ["surface", "--kind", "directrix-tan"],
    ], ids="-".join)
    def test_theorem22_grid_too_short_to_witness(self, tmp_path, command):
        # four nodes are too few for the directrix's five-point tangency
        # witness, which must not pass unapplied
        cfg = tmp_path / "cubic.cfg"
        cfg.write_text("name = cubic\ndim = 3\n"
                       "components = [t, t^2/2, t^3/6]\n"
                       "domain = [0, 0.1]\n", encoding="utf-8")
        rc, out, err = run_cli(command + ["--config", str(cfg),
                                          "--t-steps", "4", "--s-steps", "3"])
        assert rc == 2 and out == ""
        assert err.startswith("precondition violated: directrix tangency")

    @pytest.mark.parametrize("check", ["structure", "theorem21"])
    def test_uniform_grid_far_from_zero(self, tmp_path, check):
        # linspace leaves spacings one ulp of 101 apart on this grid
        cfg = tmp_path / "far.cfg"
        cfg.write_text("name = far-helix\ndim = 3\n"
                       "components = [cos(t), sin(t), t]\n"
                       "domain = [100, 101]\n", encoding="utf-8")
        rc, out, err = run_cli(["verify", "--config", str(cfg), "--check",
                                check, "--t-steps", "50000"])
        assert rc == 0, err
        assert json.loads(out.splitlines()[-1])["pass"] is True

    def test_theorem22_inflection_precondition(self):
        rc, _, err = run_cli([
            "verify", "--curve", "example23", "--check", "theorem22",
            "--u", "0.5",
        ])
        assert rc == 2
        assert "inflection" in err

    def test_theorem21_r4(self):
        rc, out, _ = run_cli([
            "verify", "--curve", "r4curve", "--check", "theorem21",
        ])
        assert rc == 0
        assert "PASS" in out

    def test_theorem21_fails_on_rotated_normals(self, monkeypatch):
        # turning r4curve's two parallel normals by theta(t) inside their
        # plane gives each d(nu)/dt a normal part |theta'|, which the
        # check must find
        def rotated_frame(record, nu0=None):
            frame = adapted_frame(record, nu0=nu0)
            theta = 0.1 * np.sin(3.0 * frame.grid)[:, None]
            nu1, nu2 = frame.nus
            nus = np.stack([np.cos(theta) * nu1 + np.sin(theta) * nu2,
                            np.cos(theta) * nu2 - np.sin(theta) * nu1])
            return dataclasses.replace(frame, nus=nus)

        monkeypatch.setattr(cli, "adapted_frame", rotated_frame)
        rc, out, _ = run_cli(["verify", "--curve", "r4curve",
                              "--check", "theorem21"])
        lines = out.splitlines()
        assert rc == 2 and lines[0] == "check theorem21 on r4curve: FAIL"
        # max |theta'| = 0.3, at the node t = 0
        assert json.loads(lines[-1])["residual"] == pytest.approx(0.3,
                                                                  rel=1e-5)

    def test_theorem21_line_vacuous(self):
        rc, out, _ = run_cli([
            "verify", "--curve", "line", "--check", "theorem21",
            "--t-steps", "51",
        ])
        assert rc == 0
        assert "vacuous" in out

    def test_symplectic(self):
        rc, out, _ = run_cli([
            "verify", "--curve", "circle", "--check", "symplectic",
            "--t-steps", "101",
        ])
        assert rc == 0
        assert "PASS" in out

    def test_structure(self):
        rc, out, _ = run_cli([
            "verify", "--curve", "cusp", "--check", "structure",
        ])
        assert rc == 0
        assert "PASS" in out and "worst residual" in out

    COMMON_KEYS = {"check", "curve", "residual", "tolerance", "pass"}
    STRUCTURE_KEYS = COMMON_KEYS | {"residuals", "t_steps"}

    @pytest.mark.parametrize("check, curve, first_line, keys", [
        ("theorem22", "example22", "check theorem22 on example22: PASS",
         COMMON_KEYS | {"offsets", "shared_residual",
                        "independent_residual"}),
        ("theorem21", "helix", "check theorem21 on helix: PASS",
         COMMON_KEYS | {"vacuous", "checked_nodes", "skipped_nodes"}),
        ("theorem21", "line", "check theorem21 on line: PASS (vacuous)",
         COMMON_KEYS | {"vacuous"}),
        ("symplectic", "circle", "check symplectic on circle: PASS",
         COMMON_KEYS | {"fd_step"}),
        ("structure", "helix", "check structure on helix: PASS",
         STRUCTURE_KEYS),
        ("structure", "line", "check structure on line: PASS",
         STRUCTURE_KEYS),
    ])
    def test_report_shape(self, check, curve, first_line, keys):
        # the JSON-lines record follows the report on stdout
        rc, out, err = run_cli(["verify", "--curve", curve, "--check", check,
                                "--t-steps", "41"])
        assert rc == 0, err
        lines = out.splitlines()
        assert lines[0] == first_line
        record = json.loads(lines[-1])
        assert set(record) == keys
        assert (record["check"], record["curve"], record["pass"]) == (
            check, curve, True)
        assert record["tolerance"] == (1e-6 if check == "symplectic" else 1e-5)


class TestFrontalityCommand:
    def test_regular_curve(self):
        rc, out, _ = run_cli(["frontality", "--curve", "example22",
                              "--t-steps", "21"])
        assert rc == 0
        assert "rank 2 attained at all sampled points" in out

    def test_single_point(self):
        rc, out, _ = run_cli(["frontality", "--curve", "example23",
                              "--t0", "0"])
        assert rc == 0
        assert "a1=1 a2=3" in out

    def test_flat_curve_reports_flip(self):
        rc, out, _ = run_cli(["frontality", "--curve", "example21",
                              "--t-steps", "41"])
        assert rc == 2
        assert "sign flips near t = 0" in out

    @pytest.mark.parametrize("t0", ["1e-170", "-1e-170", "1e-120"])
    def test_flat_curve_below_underflow(self, t0):
        # exp(-1/t^2) and all its derivatives are 0.0 in double precision
        # here, as at t = 1e-20; 1/t^2 underflows or overflows on the way
        argv = ["frontality", "--curve", "example21", "--t-steps", "5"]
        rc, out, err = run_cli(argv + ["--t0", t0])
        reference = run_cli(argv + ["--t0", "1e-20"])
        assert (rc, err) == (2, "")
        assert out.split(" ", 1)[1] == reference[1].split(" ", 1)[1]
        assert out.startswith(f"t0={float(t0)} ranks=0,1,1,1,1,1,1,1 a1=2 "
                              "a2=None ")


class TestBishopCommand:
    def test_circle_fields_orthonormal(self):
        rc, out, _ = run_cli(["bishop", "--curve", "circle",
                              "--t-steps", "101"])
        assert rc == 0
        header, rows = parse_csv(out)
        assert header[0] == "t" and len(header) == 7
        nu1 = rows[:, 1:4]
        nu2 = rows[:, 4:7]
        assert np.abs(np.linalg.norm(nu1, axis=1) - 1).max() <= 1e-12
        assert np.abs(np.sum(nu1 * nu2, axis=1)).max() <= 1e-12


class TestExitCodes:
    def test_unknown_curve(self):
        rc, _, err = run_cli(["invariants", "--curve", "nope"])
        assert rc == 1 and "unknown corpus curve" in err

    def test_missing_config(self):
        rc, _, err = run_cli(["invariants", "--config", "/no/such/file.cfg"])
        assert rc == 1 and "cannot read config" in err

    def test_offset_count_mismatch(self):
        rc, _, err = run_cli([
            "verify", "--curve", "r4curve", "--check", "theorem22",
            "--u", "0.5",
        ])
        assert rc == 1 and "expected 2 offset" in err

    def test_io_error(self, tmp_path):
        rc, _, err = run_cli([
            "invariants", "--curve", "line", "--t-steps", "5",
            "--out", str(tmp_path / "missing" / "file.csv"),
        ])
        assert rc == 3

    @pytest.mark.parametrize("option", ["--t-steps", "--s-steps"])
    def test_zero_step_count(self, option):
        rc, out, err = run_cli(["invariants", "--curve", "helix", option, "0"])
        assert rc == 1 and out == ""
        assert "step counts must be >= 2" in err

    @pytest.mark.parametrize("argv", [
        ["verify", "--check", "symplectic", "--fd-step", "0"],
        ["verify", "--check", "symplectic", "--fd-step", "-0.0001"],
        ["verify", "--check", "symplectic", "--fd-step", "nan"],
        ["verify", "--check", "symplectic", "--fd-step", "inf"],
        ["surface", "--kind", "can", "--r", "0"],
        ["surface", "--kind", "can", "--r", "-0.3"],
        ["surface", "--kind", "can", "--r", "nan"],
        ["frontality", "--k-max", "1"],
        ["verify", "--check", "symplectic", "--fd-step", "1e-300"],
        ["frontality", "--t0", "inf"],
        ["verify", "--check", "theorem22", "--u", "nan"],
        ["surface", "--kind", "pal", "--u", "inf"],
        ["surface", "--kind", "tan", "--s-range", "nan", "1"],
        ["verify", "--check", "symplectic", "--tol", "nan"],
        ["frontality", "--tol", "nan"],
        ["frontality", "--tol", "0"],
        ["frontality", "--t0", "-inf"],
        ["surface", "--kind", "tan", "--s-range", "-inf", "1"],
        ["surface", "--kind", "pal", "--u", "-nan"],
    ], ids=lambda a: "-".join(a[-2:]))
    def test_out_of_range_option(self, argv):
        rc, out, err = run_cli(argv + ["--curve", "helix"])
        assert rc == 1 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("argv, value, decimal", [
        (["surface", "--curve", "helix", "--kind", "tan", "--export", "csv",
          "--t-steps", "5", "--s-steps", "3", "--s-range"], ["-1e-3", "1e-3"],
         ["-0.001", "0.001"]),
        (["verify", "--curve", "helix", "--check", "theorem22", "--t-steps",
          "41", "--s-steps", "3", "--u"], ["-1e-3"], ["-0.001"]),
        (["frontality", "--curve", "cusp", "--t-steps", "5", "--t0"],
         ["-1e-3"], ["-0.001"]),
        (["frontality", "--curve", "cusp", "--t-steps", "5", "--t0"],
         ["-5E-1"], ["-.5"]),
    ], ids=["s-range", "u", "t0", "t0-upper"])
    def test_negative_exponent_form_argument(self, argv, value, decimal):
        # argparse's own pattern takes only the -1 and -.5 forms for
        # negative numbers and -1e-3 for an option string
        result = run_cli(argv + value)
        assert result[0] == 0, result[2]
        assert result == run_cli(argv + decimal)
        option = argv[-1]
        if len(value) == 1:
            assert result == run_cli(argv[:-1] + [f"{option}={value[0]}"])

    @pytest.mark.parametrize("argv", [
        ["invariants", "--t-steps", "100000000"],
        ["verify", "--check", "structure", "--t-steps", "100000000"],
        ["verify", "--check", "theorem21", "--t-steps", "60000"],
        ["verify", "--check", "theorem22", "--t-steps", "1001",
         "--s-steps", "500"],
        ["surface", "--kind", "tan", "--t-steps", "1001", "--s-steps", "500"],
        ["surface", "--kind", "nor", "--t-steps", "5000"],
    ], ids=["invariants", "structure", "theorem21", "theorem22", "tan", "nor"])
    def test_grid_over_the_limit(self, monkeypatch, argv):
        # refused before any grid is built: a parameter grid would be the
        # first allocation of every command
        def no_grid(curve, steps):
            raise AssertionError(f"a grid of {steps} nodes was built")

        monkeypatch.setattr(Curve, "grid", no_grid)
        rc, out, err = run_cli(argv + ["--curve", "helix"])
        assert rc == 1 and out == ""
        assert err.startswith("error: a grid of ")
        assert "exceeds the limit of 500000" in err

    @pytest.mark.parametrize("argv, message", [
        (["invariants", "--curve", "helix", "--t-steps", "abc"],
         "argument --t-steps: invalid int value: 'abc'"),
        (["verify", "--curve", "helix", "--check", "nope"],
         "argument --check: invalid choice: 'nope'"),
        (["surface", "--curve", "helix"],
         "the following arguments are required: --kind"),
    ], ids=["type", "choice", "required"])
    def test_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err.splitlines()
        assert exc.value.code == 1
        assert err[0].startswith(f"usage: frontals {argv[0]} ")
        assert err[-1].startswith(f"frontals {argv[0]}: error: {message}")

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["surface", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: frontals surface ")

    def test_config_curve_pipeline(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "name = scaled\ndim = 3\ncomponents = [t, u*t^2, t^3/6]\n"
            "domain = [-1, 1]\nparams.u = 0.5\ngrid.t_steps = 31\n",
            encoding="utf-8",
        )
        rc, out, _ = run_cli(["invariants", "--config", str(cfg)])
        assert rc == 0
        _, rows = parse_csv(out)
        assert rows.shape == (31, 4)


class TestOverflowInputs:
    # each curve overflows double precision somewhere in its domain; the
    # (1e200*t)^2 domain keeps the three load-time validation points
    # finite, so the overflow is met while the command runs
    CONFIGS = {
        "scaled-square": ("[t, 1e200*t^2, t^3]", "[-1, 1]"),
        "power-400": ("[t, t^2, t^400]", "[-10, 10]"),
        "squared-scale": ("[t, (1e200*t)^2, t^3]", "[-2e-46, 2e-46]"),
    }
    COMMANDS = [
        ["invariants"],
        ["bishop"],
        ["frontality", "--t0", "0.5"],
        ["verify", "--check", "structure"],
        ["surface", "--kind", "tan"],
    ]

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("command", COMMANDS, ids=lambda a: "-".join(a))
    def test_finite_output_or_precondition_exit(self, tmp_path, config,
                                                command):
        components, domain = self.CONFIGS[config]
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            f"name = {config}\ndim = 3\ncomponents = {components}\n"
            f"domain = {domain}\ngrid.t_steps = 21\ngrid.s_steps = 5\n",
            encoding="utf-8",
        )
        rc, out, err = run_cli(command + ["--config", str(cfg)])
        assert rc in (0, 2), err
        if rc == 0:
            assert "nan" not in out.lower() and "inf" not in out.lower()
        else:
            assert "precondition violated" in err

    def test_undetermined_tangent_named_by_grid_record(self, tmp_path):
        # the undetermined tangent at t = 0 is reported by the grid
        # record's order-2 tangent data, whose singular-speed nodes are
        # evaluated to order 2 + k_max
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "name = flat\ndim = 3\ncomponents = [t^14, t^15, t^16]\n"
            "domain = [-1, 1]\ngrid.t_steps = 21\n",
            encoding="utf-8",
        )
        rc, _, err = run_cli(["invariants", "--config", str(cfg)])
        assert rc == 2
        assert err.strip().endswith("tangent line undetermined at t=0.0: "
                                    "all velocity jets vanish up to order 10")

    def test_leading_velocity_too_deep_is_undetermined(self, tmp_path):
        # the middle step's midpoint is t = 0 (up to rounding), where the
        # leading velocity coefficient, of t^9, leaves fewer than the 3
        # coefficients order-2 tangent jets need within the 10 evaluated
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "name = deep\ndim = 3\ncomponents = [t^10, t^11, t^12]\n"
            "domain = [-1, 1]\n",
            encoding="utf-8",
        )
        rc, out, err = run_cli(["verify", "--config", str(cfg), "--check",
                                "symplectic", "--t-steps", "4"])
        assert rc == 2 and out == ""
        assert err.startswith("precondition violated: tangent line "
                              "undetermined at t=-5.551115123125783e-17: ")
        assert err.endswith("velocity jets evaluated to order 10 lead at "
                            "order 9, too deep for a tangent jet of order 2\n")

    @pytest.mark.parametrize("components, domain, command, message", [
        # a rational power whose value overflows at t = 2
        ("[t, (1+t^2)^(1001/2), t^2]", "[0, 2]", "invariants",
         "power overflow in jet composition in '(1.0 + t^2)^(1001/2)'"),
        # the order-2 tangent jets of the first node overflow
        ("[t^2, 1e308*t^3, t^4]", "[-1e-110, 1e-110]", "invariants",
         "jets at t=-1e-110 overflow double precision"),
        ("[t^2, 1e308*t^3, t^4]", "[-1e-110, 1e-110]", "bishop",
         "jets at t=-1e-110 overflow double precision"),
    ], ids=["rational-power", "singular-speed", "singular-speed-bishop"])
    def test_overflow_mid_run_is_a_precondition(self, tmp_path, components,
                                                domain, command, message):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            f"name = big\ndim = 3\ncomponents = {components}\n"
            f"domain = {domain}\n",
            encoding="utf-8",
        )
        rc, _, err = run_cli([command, "--config", str(cfg)])
        assert rc == 2
        assert err == f"precondition violated: {message}\n"

    def test_overflow_at_load_is_a_config_error(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "name = big\ndim = 3\ncomponents = [t, (1e200*t)^2, t^3]\n"
            "domain = [-1, 1]\n",
            encoding="utf-8",
        )
        rc, _, err = run_cli(["invariants", "--config", str(cfg)])
        assert rc == 1 and "overflow" in err


class TestPreconditionMessages:
    @staticmethod
    def _config(tmp_path, components, domain):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            f"name = c\ndim = 3\ncomponents = {components}\n"
            f"domain = {domain}\n",
            encoding="utf-8",
        )
        return str(cfg)

    @pytest.mark.parametrize("command", [
        ["invariants"],
        ["surface", "--kind", "pal"],
        ["surface", "--kind", "directrix-tan"],
        ["verify", "--check", "theorem21"],
    ], ids=lambda a: "-".join(a))
    def test_unsound_start_frame(self, tmp_path, command):
        # kappa is about 2e-8 at t = 0.1, where rounding leaves the
        # computed mu off orthogonal to tau by about 3e-9
        cfg = self._config(tmp_path, "[sqrt(1+t^2), 1e8*t^2, t^2*t^(2/3)]",
                           "[0.1, 0.6]")
        rc, _, err = run_cli(command + ["--config", cfg, "--t-steps", "5"])
        assert rc == 2
        assert err.startswith("precondition violated: frame at the start "
                              "point t=0.1 is not orthonormal")
        assert "kappa = 1.9" in err and "|tau . mu| = " in err

    @pytest.mark.parametrize("command", ["frontality", "invariants"])
    def test_domain_error_names_the_first_failing_node(self, tmp_path,
                                                       command):
        # the first node, t = -1, fails in sqrt(t + 0.6); the first
        # component fails only at nodes after it
        cfg = self._config(tmp_path, "[sqrt(0.6-t), sqrt(t+0.6), t]",
                           "[-1, 1]")
        rc, _, err = run_cli([command, "--config", cfg])
        assert rc == 2
        assert err == ("precondition violated: sqrt of jet with "
                       "non-positive constant term in 'sqrt(t + 0.6)'\n")


class TestStraightSegment:
    """A straight curve whose |tau'| is rounding noise, not exact zeros:
    it has no adapted frame, so the invariants are zero, the normal
    flatness check is vacuous and only the curve-normal frame system is
    checked."""

    @pytest.fixture
    def config(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "name = exp-line\ndim = 3\n"
            "components = [exp(t), 2*exp(t), 3*exp(t)]\n"
            "domain = [-1, 1]\ngrid.t_steps = 21\n",
            encoding="utf-8",
        )
        return str(cfg)

    def test_invariants_are_zero(self, config):
        rc, out, err = run_cli(["invariants", "--config", config])
        assert rc == 0, err
        header, rows = parse_csv(out)
        assert header == ["t", "a", "kappa", "ell_1"]
        assert rows.shape == (21, 4)
        assert (rows[:, 2:] == 0.0).all()
        # |f'| = sqrt(14) exp(t)
        assert np.abs(rows[:, 1] - np.sqrt(14.0) * np.exp(rows[:, 0])).max() \
            <= 1e-12

    def test_theorem21_is_vacuous(self, config):
        rc, out, _ = run_cli(["verify", "--check", "theorem21",
                              "--config", config])
        assert rc == 0
        assert out.splitlines()[0] == "check theorem21 on exp-line: " \
            "PASS (vacuous)"

    def test_structure_checks_curve_normal_frame_only(self, config):
        rc, out, _ = run_cli(["verify", "--check", "structure",
                              "--config", config])
        assert rc == 0
        record = json.loads(out.splitlines()[-1])
        assert record["pass"] is True
        assert sorted(record["residuals"]) == [
            "curve_normal.f_prime", "curve_normal.nu1_prime",
            "curve_normal.nu2_prime", "curve_normal.tau_prime",
        ]


class TestDeterminism:
    COMMANDS = [
        ["invariants", "--curve", "example22", "--t-steps", "31"],
        ["surface", "--curve", "example22", "--kind", "tan",
         "--t-steps", "11", "--s-steps", "7"],
        ["surface", "--curve", "circle", "--kind", "can", "--r", "0.3",
         "--t-steps", "21", "--s-steps", "9", "--export", "csv"],
        ["verify", "--curve", "example22", "--check", "theorem22",
         "--u", "0.5", "--t-steps", "51", "--s-steps", "11"],
        ["frontality", "--curve", "cusp", "--t-steps", "11"],
        ["bishop", "--curve", "helix", "--t-steps", "51"],
        ["verify", "--curve", "cusp", "--check", "structure"],
        ["surface", "--curve", "r4curve", "--kind", "nor", "--export", "csv",
         "--t-steps", "21", "--s-steps", "5"],
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0] + "-" + a[2])
    def test_repeated_runs_byte_identical(self, argv):
        rc1, out1, _ = run_cli(argv)
        rc2, out2, _ = run_cli(argv)
        assert rc1 == rc2
        assert out1.encode() == out2.encode()

    def test_subprocess_runs_byte_identical(self):
        argv = [sys.executable, "-m", "frontals", "invariants", "--curve",
                "cusp", "--t-steps", "21"]
        a = subprocess.run(argv, capture_output=True, check=True)
        b = subprocess.run(argv, capture_output=True, check=True)
        assert a.stdout == b.stdout


class TestJetCallsPerCommand:
    """Each command evaluates curve jets a fixed number of times, however
    many nodes its grid has: jets are taken over whole grids, never once
    per node."""

    @staticmethod
    def count_jet_calls(monkeypatch, argv):
        calls = []
        original = ExprCurve.jets

        def counting(self, t0, order):
            calls.append(order)
            return original(self, t0, order)

        monkeypatch.setattr(ExprCurve, "jets", counting)
        rc, _, err = run_cli(argv)
        assert rc == 0, err
        return len(calls)

    # one order-3 evaluation per grid record, whose node rows also give
    # the sign chain, also on a straight line, where no adapted frame
    # exists
    @pytest.mark.parametrize("argv", [
        ["invariants", "--curve", "line"],
        ["verify", "--curve", "helix", "--check", "structure"],
    ], ids="-".join)
    def test_jets_per_grid_record(self, monkeypatch, argv):
        assert self.count_jet_calls(monkeypatch, argv) == 1

    def test_invariants(self, monkeypatch):
        counts = [self.count_jet_calls(monkeypatch, [
            "invariants", "--curve", "helix", "--t-steps", steps])
            for steps in ("41", "401")]
        assert counts[0] == counts[1]

    def test_frontality(self, monkeypatch):
        counts = [self.count_jet_calls(monkeypatch, [
            "frontality", "--curve", "helix", "--t-steps", steps])
            for steps in ("41", "401")]
        assert counts[0] == counts[1]

    def test_singular_speed_nodes(self, monkeypatch, tmp_path):
        # every node's speed is below SINGULAR_SPEED, so every node takes
        # the deeper evaluation of the leading velocity jet: one whole-grid
        # call and one deeper call in the grid record
        cfg = tmp_path / "slow.cfg"
        cfg.write_text("name = slow\ndim = 3\n"
                       "components = [1e-7*t, 1e-7*t^2, 1e-7*t^3]\n"
                       "domain = [0.1, 1]\n", encoding="utf-8")
        counts = [self.count_jet_calls(monkeypatch, [
            "invariants", "--config", str(cfg), "--t-steps", steps])
            for steps in ("41", "401")]
        assert counts[0] == counts[1] == 2

    def test_structure_check(self, monkeypatch, tmp_path):
        # the check refines its grid to a spacing of 1e-3, so only a
        # domain shorter than 0.04 leaves 41 and 401 steps apart
        cfg = tmp_path / "helix.cfg"
        cfg.write_text("name = short-helix\ndim = 3\n"
                       "components = [cos(t), sin(t), t]\n"
                       "domain = [0, 0.03]\n", encoding="utf-8")
        argvs = [["verify", "--check", "structure", "--config", str(cfg),
                  "--t-steps", steps] for steps in ("41", "401")]
        argvs += [["verify", "--check", "structure", "--curve", "helix",
                   "--t-steps", steps] for steps in ("41", "401")]
        counts = [self.count_jet_calls(monkeypatch, argv) for argv in argvs]
        assert counts[0] == counts[1]
        assert counts[2] == counts[3]

    # a command evaluates its grid's nodes and step midpoints in one
    # record, and both transports, the adapted frame, the straight-segment
    # test and everything built on them read that record
    @pytest.mark.parametrize("argv, expected", [
        (["verify", "--curve", "helix", "--check", "structure"], 1),
        (["invariants", "--curve", "helix"], 1),
        (["verify", "--curve", "example22", "--check", "theorem22"], 1),
    ], ids=lambda v: "-".join(v) if isinstance(v, list) else str(v))
    def test_grid_records_per_command(self, monkeypatch, argv, expected):
        calls = []
        original = TangentEvaluator.at

        def counting(self, t):
            if np.ndim(t):
                calls.append(np.size(t))
            return original(self, t)

        monkeypatch.setattr(TangentEvaluator, "at", counting)
        rc, _, err = run_cli(argv)
        assert rc == 0, err
        assert len(calls) == expected, calls

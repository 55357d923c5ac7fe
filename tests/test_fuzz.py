"""Fuzzing of the command-line front end.

Generated curve configs, in dimensions 2 to 4, are run through every
subcommand in-process. Each run must end in a documented exit code
(0, 1, 2 or 3) without an uncaught exception, and a run that exits 0
must print no nan or inf. The examples are derandomized and no example
database is kept, so every run checks the same inputs.
"""

import contextlib
import io
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from frontals.cli import main

# the expression grammar's functions, powers and operators, a flat
# function and scales near both ends of the float range
ATOMS = ("t", "t^2", "t^3", "t^(1/3)", "t^(5/2)", "sin(t)", "cos(t)",
         "exp(t)", "sqrt(1+t^2)", "1/(1+t^2)", "1e-8*t", "exp(-1/t^2)",
         "1e300*t", "1e-300*t", "sin(1e300*t*1e300)")
DOMAINS = ("[-1, 1]", "[0.1, 1.1]", "[-0.3, 0.7]", "[1, 2]", "[-1e-8, 1e-8]",
           "[1e-200, 1e-199]")

# every subcommand, every surface kind and export, every check; OFFSETS
# is replaced by one --u per normal offset the curve needs
COMMANDS = (
    ["invariants"],
    ["bishop"],
    ["frontality"],
    ["frontality", "--t0", "0.5"],
    *(["surface", "--kind", kind, "--export", export, "OFFSETS"]
      for kind in ("tan", "nor", "pal", "can", "directrix-tan")
      for export in ("csv", "obj")),
    ["surface", "--kind", "tan", "--ruling", "derivative"],
    *(["verify", "--check", check, "OFFSETS"]
      for check in ("theorem21", "theorem22", "structure", "symplectic")),
)

NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.I)

component = st.one_of(
    st.sampled_from(ATOMS),
    st.builds(lambda a, op, b: f"{a} {op} {b}", st.sampled_from(ATOMS),
              st.sampled_from(("+", "-", "*")), st.sampled_from(ATOMS)),
)


@st.composite
def runs(draw):
    dim = draw(st.integers(2, 4))
    components = draw(st.lists(component, min_size=dim, max_size=dim))
    config = (f"name = fuzz\ndim = {dim}\n"
              f"components = [{', '.join(components)}]\n"
              f"domain = {draw(st.sampled_from(DOMAINS))}\n"
              f"grid.t_steps = {draw(st.integers(2, 21))}\n"
              f"grid.s_steps = {draw(st.integers(2, 5))}\n")
    argv = []
    for arg in draw(st.sampled_from(COMMANDS)):
        argv += ["--u", "0.5"] * max(dim - 2, 0) if arg == "OFFSETS" else [arg]
    return config, argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(run=runs())
def test_cli_exits_cleanly(workdir, run):
    config, argv = run
    cfg, out_path = workdir / "fuzz.cfg", workdir / "out.txt"
    cfg.write_text(config, encoding="utf-8")
    out_path.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = main(argv + ["--config", str(cfg), "--out", str(out_path)])
    assert rc in (0, 1, 2, 3), stderr.getvalue()
    assert "Traceback" not in stderr.getvalue()
    if rc == 0:
        written = out_path.read_text(encoding="utf-8")
        assert NON_FINITE.search(stdout.getvalue() + written) is None

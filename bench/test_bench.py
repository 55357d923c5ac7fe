"""Self-tests of the benchmark: tiny workloads, metric names, oracles.

Run from the repository root with ``python3 -m pytest bench/test_bench.py``.
"""

import argparse
import io
import json
import shutil
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from frontals import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _measure(tmp_path, workload, trace):
    args = argparse.Namespace(workload=workload, seed=3, seconds=0.0,
                              trace=trace)
    work = tmp_path / "work"
    work.mkdir()
    out = io.StringIO()
    with redirect_stdout(out):
        rc = run.measure(args, tmp_path, SRC, work, tiny=True)
    return rc, json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_workload_emits_every_metric(tmp_path, workload, trace):
    sys.modules.pop("tracing", None)
    rc, result = _measure(tmp_path, workload, trace)
    assert rc == 0
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if trace:
        assert (tmp_path / ".bench_out").is_dir()
    else:
        assert "tracing" not in sys.modules
        assert all(result["metrics"][m["name"]]["value"] > 0
                   for m in wanted)


def test_benchmark_json_names_three_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in SPEC["end_to_end"])


def test_inputs_depend_only_on_seed(tmp_path):
    a, b, c = (tmp_path / n for n in "abc")
    for d in (a, b, c):
        d.mkdir()
    jobs_a, cfg_a = workloads.build("frames-grid", 5, a)
    jobs_b, cfg_b = workloads.build("frames-grid", 5, b)
    _, cfg_c = workloads.build("frames-grid", 6, c)
    text = [[Path(p).read_text() for p in cfgs]
            for cfgs in (cfg_a, cfg_b, cfg_c)]
    assert text[0] == text[1] != text[2]
    assert [j.nodes for j in jobs_a] == [j.nodes for j in jobs_b]


def _run_one(tmp_path, workload, oracle):
    jobs, _ = workloads.build(workload, 4, tmp_path, tiny=True)
    job = next(j for j in jobs if j.oracle == oracle)
    _, rc, stdout, error = run.run_job(cli, job)
    assert error is None
    oracles.check(job, rc, stdout)
    return job, rc, stdout


def test_oracle_rejects_perturbed_csv_value(tmp_path):
    job, rc, stdout = _run_one(tmp_path, "surface-export", "nor_csv")
    lines = Path(job.out).read_text().splitlines()
    cells = lines[5].split(",")
    cells[-2] = repr(float(cells[-2]) + 1e-3)  # one coordinate of one node
    lines[5] = ",".join(cells)
    Path(job.out).write_text("\n".join(lines) + "\n")
    with pytest.raises(oracles.OracleError):
        oracles.check(job, rc, stdout)


def test_oracle_rejects_wrong_exit_code(tmp_path):
    job, rc, stdout = _run_one(tmp_path, "frames-grid", "invariants")
    with pytest.raises(oracles.OracleError, match="exit code"):
        oracles.check(job, 2, stdout)


def test_oracle_rejects_wrong_contact_orders(tmp_path):
    job, rc, stdout = _run_one(tmp_path, "pointwise-checks", "frontality")
    text = Path(job.out).read_text().replace("a2=3", "a2=4")
    text = text.replace("a1=1 a2=2", "a1=1 a2=3")
    Path(job.out).write_text(text)
    with pytest.raises(oracles.OracleError, match="contact orders"):
        oracles.check(job, rc, stdout)


def test_checker_rejects_changed_repeat(tmp_path):
    jobs, _ = workloads.build("surface-export", 4, tmp_path, tiny=True)
    job = next(j for j in jobs if j.oracle == "tan_obj")
    checker = run.Checker()
    _, rc, stdout, error = run.run_job(cli, job)
    assert checker(0, job, rc, stdout, error) is None
    with open(job.out, "a", encoding="utf-8") as fh:
        fh.write("# extra\n")
    assert "differs" in checker(0, job, rc, stdout, error)


def test_tracer_restores_every_binding():
    import frontals.cli
    import frontals.frames
    from tracing import Tracer

    before = (frontals.cli.adapted_frame, frontals.frames.unit_tangent,
              frontals.frames.ParallelFields.eval_at)
    with Tracer():
        assert frontals.cli.adapted_frame is not before[0]
        assert frontals.frames.unit_tangent is not before[1]
        assert frontals.frames.ParallelFields.eval_at is not before[2]
    assert (frontals.cli.adapted_frame, frontals.frames.unit_tangent,
            frontals.frames.ParallelFields.eval_at) == before


def test_refuses_checkout_without_sources(tmp_path, monkeypatch, capsys):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    monkeypatch.chdir(tmp_path)
    rc = run.main(["--workload", "frames-grid", "--seed", "1",
                   "--seconds", "1", "--trace", "0"])
    assert rc != 0
    assert capsys.readouterr().out == ""

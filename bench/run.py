"""Benchmark of the frontals command line, one workload per run.

Usage, from the repository root::

    python3 bench/run.py --workload frames-grid --seed 1 --seconds 25 --trace 0

The run generates the workload's inputs from ``--seed`` (see
``workloads.py``), imports ``frontals`` from ``./src`` and drives
``frontals.cli.main`` in-process as a closed loop with one client: the
job list runs back to back, once as a warm-up and then pass after pass
until ``--seconds`` have elapsed (at least one full pass). Outputs go to
files in a scratch directory under ``./.bench_work``; every job's exit
code and first output are checked by ``oracles.py`` and every repeat
must be byte-identical to the first, all outside the timed region.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics: per-pass calls and self/total seconds of the spans in
``tracing.py``, the tracing overhead and the span coverage of the wall
time; the spans of the last traced pass go to ``./.bench_out``.

A ``# meta`` line records versions, thread settings and a host-speed
probe; the last line of stdout is the JSON result. The exit code is 0
when every job passed its oracle, 1 when one failed and 2 on a usage
error or a checkout without ``src/frontals``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import oracles
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SPEC_PATH = BENCH_DIR.parent / "BENCHMARK.json"
# set-up samples before the first pass; one more follows every pass
SETUP_FIRST = 3
PROBE_REPEATS = 15

# a fresh interpreter's `import frontals` (which builds the corpus) plus
# loading the workload's configs; argv = [src, config paths...]
_SETUP_CODE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import frontals
for path in sys.argv[2:]:
    frontals.load_config(path).build_curve()
print(repr(time.perf_counter() - start))
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# run metadata


def _commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _blas():
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # older numpy without mode="dicts"
        return "unknown"


def host_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: a host-speed reference
    reported next to the metrics, not used to correct them."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        sum(i * i for i in range(100_000))
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def metadata(root: Path) -> dict:
    import numpy as np

    return {
        "commit": _commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "threads_env": {k: os.environ[k] for k in sorted(os.environ)
                        if k.endswith("_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# measurement


def measure_setup(src: Path, configs) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_CODE, str(src), *configs],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def run_job(cli, job):
    """Time one in-process CLI call; returns (seconds, rc, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(job.argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        rc, error = None, traceback.format_exc()
    elapsed = time.perf_counter() - start
    return elapsed, rc, out.getvalue(), error


class Checker:
    """Oracle on a job's first output; byte-identity on every repeat."""

    def __init__(self):
        self.digests = {}

    def __call__(self, index, job, rc, stdout, error):
        if error is not None:
            return error
        try:
            with open(job.out, "rb") as fh:
                digest = hashlib.sha256(fh.read() + stdout.encode()).digest()
        except OSError as exc:
            return f"no output: {exc}"
        if index in self.digests:
            if rc != job.expect_rc:
                return f"exit code {rc}, expected {job.expect_rc}"
            if digest != self.digests[index]:
                return "output differs from the job's first run"
            return None
        try:
            oracles.check(job, rc, stdout)
        except (oracles.OracleError, OSError, ValueError) as exc:
            return f"{type(exc).__name__}: {exc}"
        self.digests[index] = digest
        return None


def run_pass(cli, jobs, checker, tracer=None):
    """Run the job list once; returns (per-job seconds, failed count)."""
    times, failed = [], 0
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        elapsed, rc, stdout, error = run_job(cli, job)
        times.append(elapsed)
        problem = checker(i, job, rc, stdout, error)
        if problem:
            failed += 1
            print(f"FAIL job {i} ({' '.join(job.argv)}): {problem}",
                  file=sys.stderr)
    return times, failed


def end_to_end(passes, jobs, setup_times) -> dict:
    # means over passes: the host's speed drifts between states on a
    # scale of seconds, and a mean over the whole run averages that out
    # where a median of a few passes would pick one state
    per_job = [statistics.fmean(col)
               for job, col in zip(jobs, zip(*passes)) if not job.tail]
    total = sum(map(sum, passes))
    return {
        "wall_s": total / len(passes),
        "nodes_per_s": sum(job.nodes for job in jobs) * len(passes) / total,
        "job_p50_s": statistics.median(per_job),
        "job_max_s": max(per_job),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def per_layer(untraced, traced, stats, jobs, failed) -> dict:
    """Per-pass means of the traced passes' span statistics."""
    n = len(traced)
    values = {}
    for name, entry in stats.items():
        if name is None:
            continue
        for key, total in entry.items():
            values[f"{name}.{key}"] = total / n
    values["curves.jets.per_node"] = (
        values["curves.jets.calls"] / sum(job.nodes for job in jobs))
    values["cli.main.failed"] = failed
    values["exports.bytes"] = sum(os.path.getsize(job.out) for job in jobs)
    traced_wall = sum(map(sum, traced))
    values["trace.coverage"] = stats[None] / traced_wall
    values["trace.overhead_frac"] = (
        traced_wall / sum(map(sum, untraced)) - 1.0)
    return values


def measure(args, root: Path, src: Path, work: Path, tiny=False) -> int:
    """Run one workload; ``tiny`` shrinks every grid (self-tests only)."""
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    jobs, configs = workloads.build(args.workload, args.seed, work, tiny)
    meta = metadata(root)
    meta["probe_ms_before"] = host_probe_ms()
    setup_times = []
    if not args.trace:
        setup_times += [measure_setup(src, configs)
                        for _ in range(SETUP_FIRST)]

    sys.path.insert(0, str(src))
    from frontals import cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: imported frontals from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 2

    checker = Checker()
    _, failed = run_pass(cli, jobs[:1], checker)
    attempted = 1
    untraced, traced = [], []
    tracer = stats = None
    traced_failed = 0
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    # --seconds counts timed job seconds; oracle checks and set-up
    # samples run between the timed calls
    while not untraced or sum(map(sum, untraced + traced)) < args.seconds:
        times, bad = run_pass(cli, jobs, checker)
        untraced.append(times)
        failed += bad
        attempted += len(jobs)
        if tracer is None:
            setup_times.append(measure_setup(src, configs))
            continue
        tracer.clear()
        with tracer:
            times, bad = run_pass(cli, jobs, checker, tracer)
        traced.append(times)
        traced_failed += bad
        attempted += len(jobs)
        stats = _merge(stats, tracer.aggregate())

    if tracer is not None:
        failed += traced_failed
        out_dir = root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.csv")
        values = per_layer(untraced, traced, stats, jobs, traced_failed)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(untraced, jobs, setup_times)
        wanted = spec["end_to_end"]

    meta.update({
        "workload": args.workload, "seed": args.seed, "jobs": len(jobs),
        "passes": len(untraced) + len(traced),
        "probe_ms_after": host_probe_ms(),
        "setup_runs_s": setup_times,
        "pass_s": [round(sum(times), 4) for times in untraced + traced],
        "job_mean_s": [round(statistics.fmean(col), 4)
                       for col in zip(*untraced)],
    })
    print("# meta " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def _merge(acc, stats):
    if acc is None:
        return stats
    for name, entry in stats.items():
        if name is None:
            acc[None] += entry
        else:
            for key, value in entry.items():
                acc[name][key] += value
    return acc


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "frontals" / "__init__.py").is_file():
        print("error: no src/frontals here; run from the repository root",
              file=sys.stderr)
        return 2
    scratch = root / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        return measure(args, root, src, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run still uses it
            pass


if __name__ == "__main__":
    sys.exit(main())

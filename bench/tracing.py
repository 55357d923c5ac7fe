"""Outside-in span recorder for the traced benchmark run.

:class:`Tracer` wraps public functions and methods of the ``frontals``
package from the outside: it rebinds every module-level name that refers
to a traced function (so ``frontals.cli.adapted_frame`` and
``frontals.frames.unit_tangent`` are wrapped too, not only the defining
module's name) and replaces traced methods on their classes. Each call
records one span ``(name, start, end, parent, job)`` in memory; the
spans are aggregated, and optionally written out, after the run.

A span's self time is its duration minus the durations of its direct
children. Nothing in the untraced run imports this module.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# span name -> "<module>.<attribute path>" of every function it wraps.
# Which end-to-end metric each layer should move, and on which workload:
# - curves.jets, frontal.tau_jet_vec, frontal.unit_tangent: wall_s and
#   job_max_s on frames-grid, job_p50_s on pointwise-checks, barely
#   anything on surface-export
# - frontal.contact_orders: wall_s and job_p50_s on pointwise-checks
# - frames.*, linalg.gram_schmidt (once per RK4 step): wall_s on
#   frames-grid
# - linalg.batched_rank, surfaces.{tangent_map,normal_map,
#   parallel_of_tangent,canal_surface}, exports.*: wall_s, job_max_s and
#   peak_rss_mb on surface-export; exports.* stay near 0 on frames-grid
# - surfaces.{directrix,verify_right_equivalence}: wall_s on frames-grid
# - surfaces.{normal_flatness_residual,symplectic_pullback_check},
#   frames.eval_at: wall_s and job_max_s on pointwise-checks
# - cli.main: its self time is argument parsing and config loading
SPANS = {
    "cli.main": ("cli.main",),
    "curves.jets": ("curves.ExprCurve.jets", "curves.CallableCurve.jets"),
    "frontal.tau_jet_vec": ("frontal.TangentEvaluator.tau_jet_vec",),
    "frontal.unit_tangent": ("frontal.unit_tangent",),
    "frontal.contact_orders": ("frontal.contact_orders",),
    "frames.adapted_frame": ("frames.adapted_frame",),
    "frames.bishop_transport": ("frames.bishop_transport",),
    "frames.surface_normal_transport": ("frames.surface_normal_transport",),
    "frames.invariants": ("frames.invariants",),
    "frames.bishop_invariants": ("frames.bishop_invariants",),
    "frames.structure_residuals_adapted": (
        "frames.structure_residuals_adapted",),
    "frames.structure_residuals_bishop": ("frames.structure_residuals_bishop",),
    "frames.field_derivatives": ("frames.ParallelFields.field_derivatives",),
    "frames.eval_at": ("frames.ParallelFields.eval_at",),
    "linalg.batched_rank": ("linalg.batched_rank",),
    "linalg.gram_schmidt": ("linalg.gram_schmidt",),
    "surfaces.tangent_map": ("surfaces.tangent_map",),
    "surfaces.normal_map": ("surfaces.normal_map",),
    "surfaces.parallel_of_tangent": ("surfaces.parallel_of_tangent",),
    "surfaces.canal_surface": ("surfaces.canal_surface",),
    "surfaces.directrix": ("surfaces.directrix",),
    "surfaces.verify_right_equivalence": ("surfaces.verify_right_equivalence",),
    "surfaces.normal_flatness_residual": ("surfaces.normal_flatness_residual",),
    "surfaces.symplectic_pullback_check": (
        "surfaces.symplectic_pullback_check",),
    "exports.surface_csv_lines": ("exports.surface_csv_lines",),
    "exports.surface_obj_lines": ("exports.surface_obj_lines",),
    "exports.csv_lines": ("exports.csv_lines",),
    "exports.write_lines": ("exports.write_lines",),
}

PACKAGE = "frontals"
ROOT = -1


class Tracer:
    """Records spans around the functions named in :data:`SPANS`."""

    def __init__(self):
        self.spans: list = []
        self.job = -1
        self._stack = [ROOT]
        self._undo: list = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job)

        return traced

    def install(self):
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for name, targets in SPANS.items():
            for target in targets:
                module_name, *path = target.split(".")
                owner = sys.modules[f"{PACKAGE}.{module_name}"]
                for attr in path[:-1]:
                    owner = getattr(owner, attr)
                orig = vars(owner)[path[-1]]
                wrapper = self._wrap(name, orig)
                if isinstance(owner, type):
                    self._rebind(owner, path[-1], wrapper)
                    continue
                # every importer's binding of a module-level function
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._rebind(mod, key, wrapper)

    def _rebind(self, owner, key, wrapper):
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def uninstall(self):
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def clear(self):
        self.spans.clear()

    def aggregate(self) -> dict:
        """Per span name: calls, total and self seconds; plus the summed
        duration of top-level spans under the key ``None``."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent != ROOT:
                child[parent] += end - start
        stats = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                 for n in SPANS}
        top = 0.0
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            dur = end - start
            entry = stats[name]
            entry["calls"] += 1
            entry["total_s"] += dur
            entry["self_s"] += dur - child[idx]
            if parent == ROOT:
                top += dur
        stats[None] = top
        return stats

    def write(self, path):
        """Write the recorded spans as CSV: name,start,end,parent,job."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,job\n")
            for name, start, end, parent, job in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{job}\n")

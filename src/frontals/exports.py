"""Deterministic CSV, OBJ and JSON-lines writers.

All floats are formatted with ``repr`` (shortest round-trip), so
identical inputs always produce byte-identical files.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

from .errors import ConfigError
from .surfaces import SurfaceGrid


def write_lines(lines, out) -> None:
    text = "\n".join(lines) + "\n"
    if hasattr(out, "write"):
        out.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _format_rows(pattern, array, *columns) -> list:
    """``pattern.format`` of each row of a 2-d array followed by the row's
    item of each of ``columns``; a ``{!r}`` field writes a float by repr."""
    array = np.asarray(array)
    cells = iter(array.ravel().tolist())
    # one iterator in all of a row's slots hands out its cells in order
    return list(map(pattern.format, *[cells] * array.shape[1], *columns))


def csv_lines(header, values, ranks=None) -> list:
    """The header, then one line per row of the 2-d float array
    ``values``, ending in the integer column ``ranks`` when it is given."""
    values = np.asarray(values, dtype=float)
    columns = [] if ranks is None else [np.ravel(ranks).tolist()]
    pattern = ",".join(["{!r}"] * (values.shape[1] + len(columns)))
    return [",".join(header), *_format_rows(pattern, values, *columns)]


def surface_csv_lines(grid: SurfaceGrid) -> list:
    dim = grid.ambient_dim
    header = ([name for name, _ in grid.axes]
              + [f"x{i + 1}" for i in range(dim)] + ["jac_rank"])
    lines = csv_lines(header, grid.points.reshape(-1, dim), grid.jac_rank)
    # each axis's samples are formatted once; their product runs over the
    # grid in the points' row-major order
    samples = [map(repr, np.asarray(s, dtype=float).tolist())
               for _, s in grid.axes]
    prefixes = map(",".join, itertools.product(*samples))
    return [lines[0], *map(",".join, zip(prefixes, lines[1:]))]


def surface_obj_lines(grid: SurfaceGrid) -> list:
    """Triangulated mesh: vertices in grid-major order, each quad split
    into two triangles, singular nodes listed as '# singular i j' lines."""
    if grid.domain_dim != 2:
        raise ConfigError("obj export needs a two-parameter surface grid")
    if grid.ambient_dim != 3:
        raise ConfigError("obj export needs a surface in R^3")
    n0, n1 = grid.jac_rank.shape
    idx = np.arange(1, n0 * n1 + 1).reshape(n0, n1)
    a, b, c, d = idx[:-1, :-1], idx[1:, :-1], idx[1:, 1:], idx[:-1, 1:]
    faces = np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)
    return [
        f"# {grid.map_kind} surface, {n0} x {n1} grid",
        f"# axes {grid.axes[0][0]} {grid.axes[1][0]}",
        *_format_rows("v {!r} {!r} {!r}",
                      np.asarray(grid.points, dtype=float).reshape(-1, 3)),
        *_format_rows("f {} {} {}", faces),
        *_format_rows("# singular {} {}", np.argwhere(grid.singular_flag)),
    ]


def _json_safe(value):
    """``value`` with each non-finite float, also inside dicts and lists,
    written as the string "inf", "-inf" or "nan"."""
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    finite = not isinstance(value, float) or math.isfinite(value)
    return value if finite else repr(float(value))


def jsonl_line(record: dict) -> str:
    return json.dumps(_json_safe(record), sort_keys=True, allow_nan=False)

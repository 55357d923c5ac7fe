"""The array-level writers against per-cell reference formatters."""

import json

import numpy as np
import pytest

from frontals.exports import (
    csv_lines,
    jsonl_line,
    surface_csv_lines,
    surface_obj_lines,
)
from frontals.surfaces import SurfaceGrid

# values whose text is easy to get wrong: a signed zero, a tiny value, a
# sum that is not 0.3, a large and a negative whole number, a small value
AWKWARD = [-0.0, 1e-300, 0.1 + 0.2, 1e22, -3.0, 2.5e-8, 7.0]


def fmt(x):
    return repr(float(x))


def reference_csv(grid):
    names = [name for name, _ in grid.axes]
    lines = [",".join(names + [f"x{i + 1}" for i in range(grid.ambient_dim)]
                      + ["jac_rank"])]
    for idx in np.ndindex(*grid.jac_rank.shape):
        cells = [fmt(samples[k]) for k, (_, samples) in
                 zip(idx, grid.axes)]
        cells += [fmt(x) for x in grid.points[idx]]
        cells.append(str(int(grid.jac_rank[idx])))
        lines.append(",".join(cells))
    return lines


def reference_obj(grid):
    n0, n1 = grid.jac_rank.shape
    lines = [f"# {grid.map_kind} surface, {n0} x {n1} grid",
             f"# axes {grid.axes[0][0]} {grid.axes[1][0]}"]
    for i in range(n0):
        for j in range(n1):
            lines.append("v " + " ".join(fmt(x) for x in grid.points[i, j]))
    for i in range(n0 - 1):
        for j in range(n1 - 1):
            a, b = i * n1 + j + 1, (i + 1) * n1 + j + 1
            lines.append(f"f {a} {b} {b + 1}")
            lines.append(f"f {a} {b + 1} {a + 1}")
    for i in range(n0):
        for j in range(n1):
            if grid.jac_rank[i, j] < 2:
                lines.append(f"# singular {i} {j}")
    return lines


def awkward_grid(shape, dim, seed):
    rng = np.random.default_rng(seed)
    axes = tuple((f"p{k}", rng.choice(AWKWARD, n) * rng.uniform(0.5, 2.0, n)
                  if k else rng.choice(AWKWARD, n))
                 for k, n in enumerate(shape))
    points = rng.choice(AWKWARD, shape + (dim,)) * rng.choice(
        [1.0, 1.0 / 3.0, -7.1], shape + (dim,))
    ranks = rng.integers(0, len(shape) + 1, shape)
    return SurfaceGrid(map_kind="Test", axes=axes, points=points,
                       jac_rank=ranks)


@pytest.mark.parametrize("shape, dim", [((4, 5), 3), ((3, 2, 4, 3), 4)],
                         ids=["2-axis", "4-axis"])
def test_surface_csv_matches_per_cell_formatter(shape, dim):
    grid = awkward_grid(shape, dim, seed=len(shape))
    assert surface_csv_lines(grid) == reference_csv(grid)


def test_surface_obj_matches_per_cell_formatter():
    grid = awkward_grid((4, 5), 3, seed=7)
    lines = surface_obj_lines(grid)
    assert lines == reference_obj(grid)
    assert any(line.startswith("# singular") for line in lines)


def test_obj_of_a_single_row_has_no_faces():
    grid = awkward_grid((1, 4), 3, seed=3)
    lines = surface_obj_lines(grid)
    assert lines == reference_obj(grid)
    assert not any(line.startswith("f ") for line in lines)


def test_csv_lines_appends_integer_column():
    values = np.array([[-0.0, 0.1 + 0.2], [1e-300, 2.0]])
    assert csv_lines(["a", "b", "r"], values, np.array([2, 1])) == [
        "a,b,r", "-0.0,0.30000000000000004,2", "1e-300,2.0,1"]
    assert csv_lines(["a", "b"], values) == [
        "a,b", "-0.0,0.30000000000000004", "1e-300,2.0"]


def test_jsonl_non_finite_values_are_strings():
    def no_constant(name):
        raise AssertionError(f"{name} is not JSON")

    record = {"residual": np.float64("inf"), "offsets": [0.5, -np.inf],
              "residuals": {"a": float("nan"), "b": 1e-3}, "pass": False}
    line = jsonl_line(record)
    assert json.loads(line, parse_constant=no_constant) == {
        "offsets": [0.5, "-inf"], "pass": False,
        "residual": "inf", "residuals": {"a": "nan", "b": 1e-3}}


def test_jsonl_finite_record_unchanged():
    record = {"check": "x", "residual": np.float64(1.5e-7), "pass": True,
              "offsets": [0.5, -0.25], "residuals": {"b": 0.0, "a": 2.0},
              "t_steps": 7}
    assert jsonl_line(record) == json.dumps(record, sort_keys=True)

"""The array-level writers against per-cell reference formatters."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontals import exports
from frontals.cli import main
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


@pytest.mark.parametrize("shape, dim",
                         [((4, 5), 3), ((3, 2, 4, 3), 4), ((20, 30), 3)],
                         ids=["2-axis", "4-axis", "2-axis-large"])
def test_surface_csv_matches_per_cell_formatter(shape, dim):
    grid = awkward_grid(shape, dim, seed=len(shape))
    assert "\n".join(surface_csv_lines(grid)) == "\n".join(reference_csv(grid))


def test_surface_obj_matches_per_cell_formatter():
    # the small grid goes through repr alone, the large one the kernel
    for shape in [(4, 5), (30, 40)]:
        grid = awkward_grid(shape, 3, seed=7)
        text = "\n".join(surface_obj_lines(grid))
        assert text == "\n".join(reference_obj(grid))
        assert "\n# singular" in text


def test_obj_of_a_single_row_has_no_faces():
    grid = awkward_grid((1, 4), 3, seed=3)
    text = "\n".join(surface_obj_lines(grid))
    assert text == "\n".join(reference_obj(grid))
    assert "\nf " not in text


def test_csv_lines_appends_integer_column():
    values = np.array([[-0.0, 0.1 + 0.2], [1e-300, 2.0]])
    assert "\n".join(csv_lines(["a", "b", "r"], values, np.array([2, 1]))) == (
        "a,b,r\n-0.0,0.30000000000000004,2\n1e-300,2.0,1")
    assert "\n".join(csv_lines(["a", "b"], values)) == (
        "a,b\n-0.0,0.30000000000000004\n1e-300,2.0")


def column_text(values):
    """The cells of a one-column CSV of ``values``, one per line."""
    values = np.asarray(values, dtype=float)
    return "\n".join(csv_lines(["x"], values[:, None])).split("\n")[1:]


def fast_range_bits():
    # every exponent from below 1e-4 to above 1e15, either sign
    return st.builds(lambda sign, exponent, mantissa:
                     sign << 63 | exponent << 52 | mantissa,
                     st.integers(0, 1), st.integers(1007, 1074),
                     st.integers(0, (1 << 52) - 1))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.lists(st.one_of(st.integers(0, (1 << 64) - 1), fast_range_bits()),
                min_size=1, max_size=40))
def test_float_cells_are_repr_of_any_bit_pattern(bits):
    # repeated up to the size the kernel takes
    values = np.resize(np.array(bits, dtype=np.uint64).view(np.float64),
                       max(len(bits), exports._KERNEL_MIN))
    assert column_text(values) == list(map(float.__repr__, values.tolist()))


def edge_values():
    def around(x):
        return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]

    tens = [v for e in range(-6, 18) for v in around(float(f"1e{e}"))]
    # every power of two in the kernel's range, and just outside it
    twos = [v for k in range(-15, 51) for v in around(2.0 ** k)]
    # exact 15-, 16- and 17-digit rounding ties; repr rounds the last two
    # 16-digit ones to an even digit
    ties = [100000000000000.5, 123456789012345.25, 100000000000000.125,
            600000000000000.25, 600000000000000.75, 0.5, 2.5, 1.5e-4]
    special = [0.0, np.nan, np.inf, 5e-324, 1.7976931348623157e308]
    return np.array(tens + twos + ties + special
                    + [v for x in (1e-4, 1e15, 2.0 ** 53) for v in around(x)])


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_float_cells_are_repr_at_the_edges(sign):
    values = sign * edge_values()
    assert len(values) >= exports._KERNEL_MIN
    assert column_text(values) == list(map(float.__repr__, values.tolist()))


@pytest.mark.parametrize("columns", [1, 3])
def test_rows_straddling_a_block_are_unchanged(columns):
    # a block holds this many rows of the columns and the ranks
    rows = exports._BLOCK_CELLS // (columns + 1) + 1
    values = np.random.default_rng(5).normal(0.0, 0.3, (rows, columns))
    values[::7] = np.round(values[::7], 3)
    ranks = np.arange(rows) % 4
    blocks = csv_lines(["a"] * columns + ["r"], values, ranks)
    assert len(blocks) == 3
    assert not any(block.endswith("\n") for block in blocks)
    assert "\n".join(blocks).split("\n")[1:] == [
        ",".join([*map(repr, row.tolist()), str(rank)])
        for row, rank in zip(values, ranks)]


@pytest.mark.parametrize("argv, digest", [
    (["--curve", "r4curve", "--kind", "nor", "--export", "csv"],
     "f867a80d265afc7d6449da1cf2325d469aba6cc5cf9466638ce6d54db967aa5d"),
    (["--curve", "example22", "--kind", "tan", "--export", "obj"],
     "2215fcc14b72e6021fd006d0919ed41318ea9bf2bfb5bbbaa24308fcb9ef10b6"),
], ids=["r4curve-nor-csv", "example22-tan-obj"])
def test_surface_export_digest_is_pinned(tmp_path, argv, digest):
    # tan: recorded from the per-cell repr writer that the kernel replaced;
    # nor: recorded after the transport's QR gave way to Gram-Schmidt, the
    # same on the SkylakeX, Haswell and Zen OpenBLAS kernels
    out = tmp_path / "surface.out"
    assert main(["surface", *argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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

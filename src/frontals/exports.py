"""Deterministic CSV, OBJ and JSON-lines writers.

Every float cell is Python's ``repr`` of it: the shortest decimal string
that reads back to the same float. So identical inputs always produce
byte-identical files, the same bytes a per-cell ``repr`` would write.

The CSV and OBJ writers do not call ``repr`` once per cell. A vectorised
kernel computes the same digits for whole arrays. For ``1e-4 <= |x| <
1e15``, where ``repr`` is positional, it takes ``E = floor(log10|x|)``
and ``d17 = round(|x| 10^(16-E))`` exactly, from Dekker's two-product of
|x| and an exact power of ten (Dekker, Numer. Math. 18, 1971). The 16-
and 15-digit roundings follow from d17 and the sign of its residual.
The digits are the first of d15 (trailing zeros stripped), d16 and d17
that reads back to x. The read-back is Clinger's exact fast path
``d / 10^k == |x|``, valid where float(d) is exact: d <= 2^53, or d even
below 2^54 (Clinger, PLDI 1990). Of the decimals that read back to x,
repr takes the shortest, and the nearest to x among those (Adams, "Ryu",
PLDI 2018): at most one 15-digit decimal reads back, and the nearest 16-
or 17-digit one does whenever any does.

``float.__repr__`` itself writes the other cells, in one batched
``map``: cells outside that range (zeros, non-finite values and |x| <
1e-4 among them), exact 15-, 16- or 17-digit rounding ties, powers of
two (whose rounding interval is asymmetric, so the nearest 16-digit
decimal may miss it where another one reads back), and 16-digit checks
of an odd d16 > 2^53. It also writes every cell of an array smaller than
``_KERNEL_MIN``, about where the kernel's fixed cost and the per-cell
cost of ``repr`` break even.

Digits become ASCII through a table of the 10,000 four-digit groups,
viewed as ``uint32``. Each cell is written into a fixed-width slot, a
mask per cell picks its text out of the slot, and one boolean index per
block of rows compacts the rows. Writers return text blocks of at most
``_BLOCK_CELLS`` cells each, whose ``"\\n".join`` is the file, and
:func:`write_lines` writes them one at a time.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import ConfigError
from .surfaces import SurfaceGrid

#: cells per text block: the rows of a block are built in one buffer
_BLOCK_CELLS = 1 << 13
#: arrays with fewer float cells go through float.__repr__ entirely
_KERNEL_MIN = 128

#: decimal exponents of the fast range, 1e-4 <= |x| < 1e15
_E_MIN, _E_MAX = -4, 14
_E_COUNT = _E_MAX - _E_MIN + 1
#: the longest float repr, "-2.2250738585072014e-308"
_REPR_MAX = 24

#: 10^0 .. 10^22, every one exact
_POW10 = np.concatenate(([1.0], np.cumprod(np.full(22, 10.0))))
_INT_POW10 = 10 ** np.arange(19, dtype=np.int64)
_MANTISSA = np.uint64((1 << 52) - 1)

_QUADS = np.arange(10_000, dtype=np.int16)
_PLACES = np.array([1000, 100, 10, 1], dtype=np.int16)
#: ASCII of the four-digit groups 0000 .. 9999, one uint32 each
_DIGITS4 = (48 + _QUADS[:, None] // _PLACES % 10).astype(np.uint8).view(
    np.uint32)[:, 0]
#: trailing zeros of each four-digit group, 4 for 0000
_ZEROS4 = (_QUADS[:, None] % (10 * _PLACES[::-1]) == 0).sum(1)

# A cell is a row of uint32 words looked up in a writer's table: the
# _DIGITS4 words, then at _SEP the separator before the cell and "-0.",
# and at _SEP + 1 ".000". A mask over its bytes cuts the cell's text out
# of it. Byte 0 is the separator, kept always; byte 1 is "-".
_SEP = _QUADS.size
# A float cell: "s-0.", the 17 digits as "000" and digits 0-16 (copy A,
# digit i at byte 7 + i), ".000", digits 1-16 again (copy B, digit i at
# byte 27 + i). A fallback repr is written over bytes 1-24.
_FLOAT_WORDS = 11
# An int cell: "s-0.", then 20 digits at bytes 4-23.
_INT_WORDS = 6


def _float_keep_table():
    """Masks of fast-path float cells, indexed by
    ``(negative * _E_COUNT + E - _E_MIN) * 18 + n`` for n digits."""
    pos = np.arange(4 * _FLOAT_WORDS)
    neg = np.arange(2)[:, None, None, None]
    e = np.arange(_E_MIN, _E_MAX + 1)[:, None, None]
    n = np.arange(18)[:, None]
    whole = e >= 0
    a, b = pos - 7, pos - 27
    keep = (pos == 0) | ((pos == 1) & (neg == 1))
    # |x| < 1: "0.", -E-1 of the zeros before copy A, then its n digits
    keep = keep | (~whole & ((pos == 2) | (pos == 3) | ((a > e) & (a < n))))
    # |x| >= 1: digits 0..E of A, ".", then B up to max(n, E + 2), so
    # that 100.0 keeps one zero after the point
    return (keep | (whole & (((a >= 0) & (a <= e)) | (pos == 24)
                             | ((b > e) & (b < np.maximum(n, e + 2)))))
            ).reshape(-1, pos.size)


def _int_keep_table():
    """Masks of int cells, indexed by ``negative * 21 + digits``."""
    pos = np.arange(4 * _INT_WORDS)
    neg = np.arange(2)[:, None, None]
    size = np.arange(21)[:, None]
    return ((pos == 0) | ((pos == 1) & (neg == 1))
            | (pos >= pos.size - size)).reshape(-1, pos.size)


_FLOAT_KEEP = _float_keep_table()
_INT_KEEP = _int_keep_table()


def _split(a):
    """Veltkamp's split: hi + lo == a, each with at most 26 bits."""
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _round17(ax, e):
    """``d = round(ax 10^(16-e))`` as int64, and the residual ``ax
    10^(16-e) - d``, exact: Dekker's two-product hi + lo is the product.
    Where d has 17 digits, hi >= 2^53 is an integer."""
    k = 16 - e
    hi = ax * _POW10[k]
    ah, al = _split(ax)
    ph, pl = _POW10_HI[k], _POW10_LO[k]
    lo = ((ah * ph - hi) + ah * pl + al * ph) + al * pl
    r = np.rint(lo)
    return hi.astype(np.int64) + r.astype(np.int64), lo - r


def _quads(d):
    """The base-10,000 digits of non-negative int64 ``d`` below 10^20,
    least significant first: five arrays."""
    quads = []
    for _ in range(4):
        q = d // 10_000
        quads.append(d - 10_000 * q)
        d = q
    return quads + [d]


def _fast_cells(x, table):
    """Words and masks of the float cells of 1-d ``x``, and the mask of
    the cells the fast path leaves to :func:`_reprs`."""
    ax = np.abs(x)
    fast = (ax >= 1e-4) & (ax < 1e15)
    ax = np.where(fast, ax, 1.0)
    e = np.floor(np.log10(ax)).astype(np.int64)
    d, res = _round17(ax, e)
    # log10 can miss E by one next to a power of ten
    off = (d >= 10**17).astype(np.int64) - (d < 10**16)
    moved = np.flatnonzero(off)
    if moved.size:
        e[moved] += off[moved]
        d[moved], res[moved] = _round17(ax[moved], e[moved])
        fast &= (d >= 10**16) & (d < 10**17)
    e = np.clip(e, _E_MIN, _E_MAX)
    q = d // 10
    r1 = d - 10 * q
    d16 = q + ((r1 > 5) | ((r1 == 5) & (res > 0)))
    q = d // 100
    r2 = d - 100 * q
    d15 = q + ((r2 > 50) | ((r2 == 50) & (res > 0)))
    tie = (np.abs(res) == 0.5) | ((res == 0) & ((r1 == 5) | (r2 == 50)))
    ok15 = d15 / _POW10[14 - e] == ax
    ok16 = d16 / _POW10[15 - e] == ax
    # the check is exact where float(d16) is: d16 <= 2^53, or even
    rest = (~fast | tie | (x.view(np.uint64) & _MANTISSA == 0)
            | (~ok15 & (d16 > 2**53) & (d16 & 1 == 1)))
    g = _quads(np.where(ok15, d15 * 100, np.where(ok16, d16 * 10, d)))
    words = np.empty((x.size, _FLOAT_WORDS), np.uint32)
    words[:, 0], words[:, 1] = table[_SEP], table[g[4]]
    words[:, 6] = table[_SEP + 1]
    # 17 digits less the trailing zeros of quads 0-3; quad 4 is the one
    # nonzero leading digit
    trailing, run = 0, True
    for j in range(4):
        words[:, 5 - j] = words[:, 10 - j] = table[g[j]]
        zeros = _ZEROS4[g[j]]
        trailing = trailing + run * zeros
        run = run & (zeros == 4)
    key = (np.signbit(x) * _E_COUNT + e - _E_MIN) * 18 + 17 - trailing
    return words, np.take(_FLOAT_KEEP, key, axis=0), rest


def _reprs(x):
    """``float.__repr__`` of each float of 1-d ``x``: the text as rows of
    ``_REPR_MAX`` bytes, and its length."""
    text = list(map(float.__repr__, x.tolist()))
    return (np.array(text, f"S{_REPR_MAX}").view(np.uint8).reshape(
        -1, _REPR_MAX), np.fromiter(map(len, text), np.intp, len(text)))


def _float_cells(x, table):
    """Words and masks of the cells of the float array ``x``, flattened."""
    x = np.asarray(x, dtype=float).ravel()
    if x.size < _KERNEL_MIN:
        words = np.empty((x.size, _FLOAT_WORDS), np.uint32)
        words[:, 0] = table[_SEP]
        keep = np.empty((x.size, 4 * _FLOAT_WORDS), dtype=bool)
        rest = np.ones(x.size, dtype=bool)
    else:
        words, keep, rest = _fast_cells(x, table)
    if rest.any():
        text, size = _reprs(x[rest])
        words.view(np.uint8)[rest, 1:1 + _REPR_MAX] = text
        keep[rest] = np.arange(keep.shape[1]) <= size[:, None]
    return words, keep


def _int_cells(v, table):
    """Words and masks of the cells of the int array ``v``, flattened."""
    v = np.asarray(v, dtype=np.int64).ravel()
    av = np.abs(v)
    words = np.empty((v.size, _INT_WORDS), np.uint32)
    words[:, 0] = table[_SEP]
    for j, quad in enumerate(_quads(av)):
        words[:, 5 - j] = table[quad]
    size = np.maximum(np.searchsorted(_INT_POW10, av, "right"), 1)
    return words, np.take(_INT_KEEP, (v < 0) * 21 + size, axis=0)


def _rows(sep, lead="", axes=(), floats=None, ints=None) -> list:
    """Text blocks of rows whose ``"\\n".join`` is the table. A row is
    ``lead``, then its cells, each after ``sep`` except a first one with
    no lead: one per 1-d float array of ``axes``, whose product runs
    over the rows in row-major order, then the row of the 2-d float
    array ``floats`` and of the int array ``ints`` (taken as one row per
    row of ``floats``)."""
    if floats is None:
        floats = np.empty((len(ints), 0))
    floats = np.asarray(floats, dtype=float)
    nrows, nfloats = floats.shape
    if not nrows:
        return []
    ints = np.empty((nrows, 0), np.int64) if ints is None else (
        np.asarray(ints).reshape(nrows, -1))
    table = np.append(_DIGITS4, np.frombuffer(
        f"{sep}-0..000".encode("ascii"), np.uint32))
    heads = [_float_cells(samples, table) for samples in axes]
    # the sample of axis k changes every periods[k] rows
    periods = [math.prod(map(len, axes[k + 1:])) for k in range(len(axes))]
    # a row starts with the newline that ends the row before it
    text = ("\n" + lead).encode("ascii") if lead else b""
    lead_words = np.frombuffer(text.ljust(-(-len(text) // 4) * 4, b"\0"),
                               np.uint32)
    width = (lead_words.size + (len(axes) + nfloats) * _FLOAT_WORDS
             + ints.shape[1] * _INT_WORDS)
    step = max(1, _BLOCK_CELLS // (len(axes) + nfloats + ints.shape[1]))
    # one buffer for every block, so its pages are touched once
    words = np.empty((min(step, nrows), width), np.uint32)
    keep = np.empty((len(words), 4 * width), dtype=bool)
    words[:, :lead_words.size] = lead_words
    keep[:, :4 * lead_words.size] = np.arange(4 * lead_words.size) < len(text)
    blocks = []
    for lo in range(0, nrows, step):
        m = min(step, nrows - lo)
        row = np.arange(lo, lo + m)
        cells = []
        for (head_words, head_keep), period in zip(heads, periods):
            at = row // period % len(head_words)
            cells.append((np.take(head_words, at, axis=0),
                          np.take(head_keep, at, axis=0)))
        cells += [_float_cells(floats[lo:lo + m], table),
                  _int_cells(ints[lo:lo + m], table)]
        at = lead_words.size
        for cell_words, cell_keep in cells:
            size = cell_words.size // m
            words[:m, at:at + size] = cell_words.reshape(m, size)
            keep[:m, 4 * at:4 * (at + size)] = cell_keep.reshape(m, -1)
            at += size
        data = words[:m].view(np.uint8)
        data[:, 0] = ord("\n")
        keep[0, 0] = False
        blocks.append(data[keep[:m]].tobytes().decode("ascii"))
    return blocks


def write_lines(lines, out) -> None:
    """Write each of ``lines``, a line or a block of lines, followed by
    a newline: the blocks are never joined into one string."""
    if hasattr(out, "write"):
        out.writelines(block + "\n" for block in lines)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(block + "\n" for block in lines)


def csv_lines(header, values, ranks=None, *, axes=()) -> list:
    """The header, then one row per row of the 2-d float array
    ``values``, as text blocks whose ``"\\n".join`` is the table. Each
    row starts with its item of the row-major product of the 1-d float
    arrays ``axes`` and ends in the integer column ``ranks`` when it is
    given."""
    return [",".join(header),
            *_rows(",", axes=axes, floats=values, ints=ranks)]


def surface_csv_lines(grid: SurfaceGrid) -> list:
    dim = grid.ambient_dim
    header = ([name for name, _ in grid.axes]
              + [f"x{i + 1}" for i in range(dim)] + ["jac_rank"])
    return csv_lines(header, grid.points.reshape(-1, dim), grid.jac_rank,
                     axes=[samples for _, samples in grid.axes])


def surface_obj_lines(grid: SurfaceGrid) -> list:
    """Triangulated mesh: vertices in grid-major order, each quad split
    into two triangles, singular nodes listed as '# singular i j' lines.
    Returns text blocks whose ``"\\n".join`` is the file."""
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
        *_rows(" ", "v", floats=grid.points.reshape(-1, 3)),
        *_rows(" ", "f", ints=faces),
        *_rows(" ", "# singular", ints=np.argwhere(grid.singular_flag)),
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

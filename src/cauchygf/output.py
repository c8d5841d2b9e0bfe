"""Deterministic CSV/JSON artifact writing.

Floats are printed as ``"%.12e" % value`` would print them (13 significant
digits in scientific notation), line endings are LF, and JSON keys are
sorted, so identical inputs always produce byte-identical files.

A CSV table is one 2-D float array, plus at most one text column.  The
writer formats each block of rows, about 2**15 cells, with numpy rather
than one Python ``%`` per cell.  A cell's mantissa
m = |x| * 10**(12 - e) is computed with a single rounding by an exact power
of ten (|12 - e| <= 22), so it lies within 2**-10 of the true value, and
floor(m + 1/2) is the correctly rounded 13-digit mantissa unless m is within
2**-9 of a half-integer.  Every cell that test cannot settle is printed by
``%`` itself: zeros, NaN and infinities, magnitudes outside [1e-10, 1e35),
and near-ties.  The digits go in four at a time, from a table of the ASCII
text of 0000-9999.
"""

from __future__ import annotations

import json
import math

import numpy as np


# Cells formatted and written per block, in whole rows (at least one): the
# text of a large table never has to exist in memory all at once, and narrow
# tables take as few numpy calls per cell as wide ones.
_CSV_BLOCK_CELLS = 2 ** 15

# Byte slots of one float cell, "[-]d.dddddddddddde+[h]tu", NUL where unused;
# the widest "%.12e" text is "-1.000000000000e-308".  One more slot holds the
# separator.
_SLOTS = 20
_POW10 = np.array([float(10 ** k) for k in range(23)])  # exact in binary64
# Rounding is monotone and half-integers below 1e13 are doubles, so only an m
# that lands exactly on one is ambiguous; the 2**-9 band is margin beyond that.
_GUARD = 0.5 - 2.0 ** -9


def _digit_groups():
    """The four ASCII digits of every group value 0000-9999, each read as one
    native uint32, and the last two digits of 00-99 as one uint16."""
    digits = np.empty((10,) * 4 + (4,), dtype=np.uint8)
    for k in range(4):
        digits[..., k] = np.arange(48, 58, dtype=np.uint8).reshape((10,) + (1,) * (3 - k))
    digits = digits.reshape(10_000, 4)
    return digits.view(np.uint32).ravel(), digits[:100, 2:].copy().view(np.uint16).ravel()


_GROUPS, _PAIRS = _digit_groups()


def _scaled(a, e, out):
    """|x| * 10**(12 - e) into ``out``, rounded once: multiply or divide by an
    exact power of ten."""
    k = np.subtract(12, e)
    divide = k < 0
    np.abs(k, out=k)
    np.minimum(k, 22, out=k)
    p = _POW10[k]
    np.multiply(a, p, out=out)
    np.divide(a, p, out=out, where=divide)
    return out


def _mantissas(x):
    """Per cell of the flat float array ``x``: whether the fast path settles
    it (ok), its decimal exponent e and its 13-digit mantissa split as
    hi * 10**8 + lo, all as int32 or bool.  The float64 buffers die here, so
    they are gone before the caller allocates the text."""
    a = np.abs(x)
    ok = a >= 1e-11
    ok &= a < 1e36  # False for zeros, NaN and infinities
    np.copyto(a, 1.0, where=~ok)
    m = np.log10(a)
    e = np.floor(m, out=m).astype(np.int32)
    _scaled(a, e, m)
    fix = np.flatnonzero((m < 1e12) | (m >= 1e13))  # log10 missed by one
    if fix.size:
        e[fix] += np.where(m[fix] >= 1e13, 1, -1)
        m[fix] = _scaled(a[fix], e[fix], np.empty(fix.size))
    d = np.add(m, 0.5)
    np.floor(d, out=d)
    ok &= np.abs(np.subtract(d, m, out=a), out=a) < _GUARD
    ok &= e >= -10
    ok &= e <= 34
    carry = d == 1e13
    d[carry] = 1e12
    e += carry
    hi = np.floor(np.divide(d, 1e8, out=m), out=m)
    lo = np.subtract(d, np.multiply(hi, 1e8, out=a), out=d)
    return ok, e, hi.astype(np.int32), lo.astype(np.int32)


def _column(cells, offset, dtype):
    """The bytes at ``offset`` of every row of ``cells`` as one ``dtype``
    column: a strided, possibly unaligned view."""
    return np.ndarray((cells.shape[0],), dtype, cells, offset, (cells.strides[0],))


def _float_cells(x):
    """The "%.12e" text of every float in the contiguous array ``x`` as an
    (x.size, _SLOTS + 1) array of bytes, NUL-padded, with a comma in the
    separator slot."""
    x = x.reshape(-1)
    out = np.empty((x.size, _SLOTS + 1), dtype=np.uint8)
    if not x.size:  # no row to view a column of
        return out
    ok, e, hi, lo = _mantissas(x)
    # The leading digit to slot 1, then three groups of four digits to slots
    # 3-6, 7-10 and 11-14, each stored as one uint32 through a strided view.
    q, r = np.empty((2, x.size), dtype=np.int32)
    np.floor_divide(hi, 10_000, out=q)
    np.subtract(hi, np.multiply(q, 10_000, out=r), out=r)
    q += 48
    out[:, 1] = q
    _column(out, 3, np.uint32)[...] = _GROUPS.take(r)
    np.floor_divide(lo, 10_000, out=q)
    np.subtract(lo, np.multiply(q, 10_000, out=r), out=r)
    _column(out, 7, np.uint32)[...] = _GROUPS.take(q)
    _column(out, 11, np.uint32)[...] = _GROUPS.take(r)
    np.less(x, 0, out=out[:, 0])
    out[:, 0] *= ord("-")
    out[:, 2] = ord(".")
    out[:, 15] = ord("e")
    np.less(e, 0, out=out[:, 16])  # "+" and "-" are two apart
    out[:, 16] *= ord("-") - ord("+")
    out[:, 16] += ord("+")
    out[:, 17] = 0  # |e| <= 35 here; three-digit exponents fall back
    np.abs(e, out=e)
    _column(out, 18, np.uint16)[...] = _PAIRS.take(e)
    out[:, _SLOTS] = ord(",")

    rest = np.flatnonzero(~ok)
    if rest.size:
        text = np.array([b"%.12e" % v for v in x[rest].tolist()], dtype=f"S{_SLOTS}")
        out[rest, :_SLOTS] = text.view(np.uint8).reshape(rest.size, _SLOTS)
    return out


def _text_cells(column):
    """A string column's cells as NUL-padded UTF-8 bytes, comma appended."""
    text = np.array([str(v).encode() for v in column.tolist()], dtype=bytes)
    cells = text.view(np.uint8).reshape(column.size, text.itemsize)
    return np.concatenate([cells, np.full((column.size, 1), ord(","), np.uint8)], axis=1)


def _csv_blocks(header, table, text):
    """Yield the CSV bytes: the header line, then one bytes object per block of rows.

    ``table`` is a 2-D float array with one row per line, ``header`` names
    its columns in order and, with ``text = (position, strings)``, one text
    column more, printed as it is at ``position`` among them.  Every float is
    printed as "%.12e" prints it.
    """
    table = np.ascontiguousarray(table, dtype=np.float64)
    if table.ndim != 2:
        raise ValueError(f"a table has two dimensions, not {table.ndim}")
    n_rows, n_floats = table.shape
    if text is not None:
        position, strings = text[0], np.asarray(text[1])
        if not 0 <= position <= n_floats:
            raise ValueError(f"text column {position} outside {n_floats + 1} columns")
        if strings.shape != (n_rows,):
            raise ValueError(f"{strings.size} strings for {n_rows} rows")
    n_columns = n_floats + (text is not None)
    if len(header) != n_columns:
        raise ValueError(f"{len(header)} names for {n_columns} columns")
    yield (",".join(header) + "\n").encode()
    if not n_columns:
        return
    block_rows = max(1, _CSV_BLOCK_CELLS // n_columns)
    for start in range(0, n_rows, block_rows):
        block = table[start:start + block_rows]  # contiguous: whole rows
        rows = block.shape[0]
        buf = _float_cells(block).reshape(rows, n_floats * (_SLOTS + 1))
        if text is not None:
            cut = position * (_SLOTS + 1)
            buf = np.concatenate([buf[:, :cut], _text_cells(strings[start:start + rows]),
                                  buf[:, cut:]], axis=1)
        buf[:, -1] = ord("\n")
        yield buf.tobytes().translate(None, b"\0")  # drop the NUL padding


def write_csv(path, header, table, text=None) -> None:
    """Write the float ``table`` (rows by columns) as CSV under ``header``,
    with at most one text column ``text = (position, strings)``."""
    blocks = _csv_blocks(header, table, text)
    # The header line comes after the shape checks: a rejected table raises
    # before the target is opened, so an existing file keeps its contents.
    head = next(blocks)
    with open(path, "wb") as fh:
        fh.write(head)
        for block in blocks:
            fh.write(block)


def _plain(value):
    """Recursively convert numpy scalars/arrays so json can serialize them.

    Non-finite floats become None (JSON null): JSON has no NaN or infinity.
    """
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, (complex, np.complexfloating)):
        return {"im": _plain(value.imag), "re": _plain(value.real)}
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def json_text(payload) -> str:
    return json.dumps(_plain(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json(path, payload) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(json_text(payload))

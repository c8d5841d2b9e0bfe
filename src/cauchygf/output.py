"""Deterministic CSV/JSON artifact writing.

Floats are printed as ``"%.12e" % value`` would print them (13 significant
digits in scientific notation), line endings are LF, and JSON keys are
sorted, so identical inputs always produce byte-identical files.

The CSV writer formats each block of rows, about 2**15 cells, with numpy
rather than one Python ``%`` per cell.  A cell's mantissa
m = |x| * 10**(12 - e) is computed with a single rounding by an exact power
of ten (|12 - e| <= 22), so it lies within 2**-10 of the true value, and
floor(m + 1/2) is the correctly rounded 13-digit mantissa unless m is within
2**-9 of a half-integer.  Every cell that test cannot settle is printed by
``%`` itself: zeros, NaN and infinities, magnitudes outside [1e-10, 1e35),
and near-ties.
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
    hi * 10**7 + lo, all as int32 or bool.  The float64 buffers die here, so
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
    hi = np.floor(np.divide(d, 1e7, out=m), out=m)
    lo = np.subtract(d, np.multiply(hi, 1e7, out=a), out=d)
    return ok, e, hi.astype(np.int32), lo.astype(np.int32)


def _float_cells(x):
    """The "%.12e" text of every float in ``x`` as a (x.size, _SLOTS + 1)
    array of bytes, NUL-padded, with a comma in the separator slot."""
    x = x.ravel()
    ok, e, hi, lo = _mantissas(x)
    # Six digits of the mantissa to slots 1 and 3-7, seven to 8-14.
    out = np.empty((x.size, _SLOTS + 1), dtype=np.uint8)
    q, digit = np.empty((2, x.size), dtype=np.int32)
    for part, slots in ((hi, (7, 6, 5, 4, 3, 1)), (lo, range(14, 7, -1))):
        for slot in slots:
            # Three in-place passes; one np.divmod took more than twice as long.
            np.floor_divide(part, 10, out=q)
            np.subtract(part, np.multiply(q, 10, out=digit), out=digit)
            digit += 48
            out[:, slot] = digit
            part, q = q, part
    np.less(x, 0, out=out[:, 0])
    out[:, 0] *= ord("-")
    out[:, 2] = ord(".")
    out[:, 15] = ord("e")
    np.less(e, 0, out=out[:, 16])  # "+" and "-" are two apart
    out[:, 16] *= ord("-") - ord("+")
    out[:, 16] += ord("+")
    out[:, 17] = 0  # |e| <= 35 here; three-digit exponents fall back
    np.abs(e, out=e)
    np.floor_divide(e, 10, out=q)
    np.subtract(e, np.multiply(q, 10, out=digit), out=digit)
    q += 48
    digit += 48
    out[:, 18] = q
    out[:, 19] = digit
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


def _csv_blocks(header, columns):
    """Yield the CSV bytes: the header line, then one bytes object per block of rows.

    ``header`` is a list of column names; ``columns`` the matching list of
    equal-length sequences.  A column of strings passes through untouched;
    every other column is read as floats and printed as "%.12e" prints them.
    """
    if len(header) != len(columns):
        raise ValueError(f"{len(header)} names for {len(columns)} columns")
    lengths = {len(c) for c in columns}
    if len(lengths) > 1:
        raise ValueError(f"column lengths differ: {sorted(lengths)}")
    arrays = [np.asarray(c) for c in columns]
    arrays = [a if a.dtype.kind in "US" else np.asarray(a, dtype=float) for a in arrays]
    is_text = [a.dtype.kind in "US" for a in arrays]
    yield (",".join(header) + "\n").encode()
    n_rows = lengths.pop() if lengths else 0
    block_rows = max(1, _CSV_BLOCK_CELLS // max(1, len(arrays)))
    for start in range(0, n_rows, block_rows):
        block = [a[start:start + block_rows] for a in arrays]
        rows = block[0].size
        floats = [b for b, text in zip(block, is_text) if not text]
        buf = _float_cells(np.stack(floats, axis=1)) if floats else None
        if any(is_text):
            cells = iter(buf.reshape(rows, len(floats), -1).swapaxes(0, 1)) if floats else None
            buf = np.concatenate([_text_cells(b) if text else next(cells)
                                  for b, text in zip(block, is_text)], axis=1)
        buf = buf.reshape(rows, -1)
        buf[:, -1] = ord("\n")
        yield buf.tobytes().translate(None, b"\0")  # drop the NUL padding


def write_csv(path, header, columns) -> None:
    blocks = _csv_blocks(header, columns)
    # The header line comes after the column checks: a rejected table raises
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

"""Deterministic CSV/JSON artifact writing.

Floats are printed as ``"%.12e" % value`` would print them (13 significant
digits in scientific notation), line endings are LF, and JSON keys are
sorted, so identical inputs always produce byte-identical files.

A CSV table is one 2-D array of finite floats, plus at most one text
column; a NaN or infinite cell is refused, by column and first bad row,
before the target is opened.  The writer formats each block of rows, about
2**15 cells, with numpy rather than one Python ``%`` per cell.  A cell's
mantissa m = |x| * 10**(12 - e) is computed with a single rounding by an
exact power of ten (|12 - e| <= 22), so it lies within half an ulp of the
true value, and floor(m + 1/2) is the correctly rounded 13-digit mantissa
unless m is within one ulp, ``np.spacing(m)``, of a half-integer.  Every
cell that test cannot settle is printed by ``%`` itself: zeros, magnitudes
outside [1e-10, 1e35), and near-ties.  The text goes in as words read from
tables built at import: the leading digit with its point, three groups of
four digits and the exponent with its sign.

Without its sign, the text of a finite float with a two-digit exponent is
18 bytes long.  So within a run of rows in which every column keeps one
sign (``np.signbit``, so -0.0 counts as negative), every cell has a fixed
width and each word is stored at its final byte offset, once per group of
adjacent columns of one sign; the ``%`` cells drop into their slots.  That
pad-free layout is for blocks of floats only, without a three-digit
exponent, that split into few enough groups for their numpy calls to pay.
Every other block, and so every block of a table with a text column, is
laid out in 21-byte slots padded with NUL, its text cells are joined in
with one concatenation, and ``bytes.translate`` drops the padding.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import NonFiniteResult


# Cells formatted and written per block, in whole rows (at least one): the
# text of a large table never has to exist in memory all at once, and narrow
# tables take as few numpy calls per cell as wide ones.
_CSV_BLOCK_CELLS = 2 ** 15

# The "%.12e" text of a finite float with a two-digit exponent, sign left out:
# "d.dddddddddddde+tu", five words from the tables below.
_BODY = 18
# A padded cell: the sign or NUL, the body, NUL, the separator.  The widest
# "%" text, "-1.000000000000e-308", fills all but the separator.
_SLOT = _BODY + 3
# A group of same-sign columns in a pad-free block costs about what dropping
# the padding saves on this many cells, plus one cell for each row it spans:
# it takes a dozen numpy calls, and each of them touches every row it spans.
# Measured on 496 x 66 and 6,553 x 5 blocks with 1 to 2,112 groups.
_GROUP_CELLS = 512
_POW10 = np.array([float(10 ** k) for k in range(23)])  # exact in binary64


def _table(texts, dtype):
    """The ASCII ``texts``, all of one length, each read as one native word."""
    return np.frombuffer("".join(texts).encode(), dtype)


def _digit_groups():
    """The four ASCII digits of every group value 0000-9999, each read as one
    native uint32 (built in numpy: 10,000 Python strings would stay resident)."""
    digits = np.empty((10,) * 4 + (4,), dtype=np.uint8)
    for k in range(4):
        digits[..., k] = np.arange(48, 58, dtype=np.uint8).reshape((10,) + (1,) * (3 - k))
    return digits.reshape(10_000, 4).view(np.uint32).ravel()


_LEADS = _table([f"{d}." for d in range(10)], np.uint16)
_GROUPS = _digit_groups()
_EXPONENTS = _table([f"e{e:+03d}" for e in range(-99, 100)], np.uint32)  # at e + 99


class _Scratch:
    """The buffers of one ``write_csv`` call, reused from block to block so
    that their pages are faulted in once per call, not once per block.  They
    are cut from one allocation, with room for the floats of a padded block:
    with separate buffers, a process running the cavity ``dos`` again and
    again faulted about 400 pages back in at each engine call."""

    def __init__(self, cells):
        raw = np.empty((30 + _SLOT) * cells, dtype=np.uint8)
        cuts = np.cumsum([16, 8, 4, 2]) * cells  # bytes per cell of each buffer
        floats, wide, exponents, flags, self.out = np.split(raw, cuts)
        self.floats = floats.view(np.float64).reshape(2, cells)
        self.wide = wide.view(np.int64)
        self.exponents = exponents.view(np.int32)
        self.flags = flags.view(bool).reshape(2, cells)


def _scaled(a, e, out, k):
    """|x| * 10**(12 - e) into ``out``, rounded once: multiply or divide by an
    exact power of ten.  ``k`` is int scratch."""
    np.subtract(12, e, out=k)
    divide = k < 0
    np.abs(k, out=k)
    np.minimum(k, 22, out=k)
    np.take(_POW10, k, out=out, mode="clip")
    np.multiply(a, out, out=out, where=~divide)
    np.divide(a, out, out=out, where=divide)
    return out


def _mantissas(x, s):
    """Per cell of the flat float array ``x``: whether the fast path settles
    it (ok), its decimal exponent e and its 13-digit mantissa d, a whole
    number held as a float; all three are views of the scratch ``s``."""
    a, m = s.floats[:, :x.size]
    k, e = s.wide[:x.size], s.exponents[:x.size]
    ok = s.flags[0, :x.size]
    np.abs(x, out=a)
    np.greater_equal(a, 1e-11, out=ok)
    ok &= a < 1e36  # False for zeros
    np.copyto(a, 1.0, where=~ok)
    np.log10(a, out=m)
    np.floor(m, out=m)
    np.copyto(e, m, casting="unsafe")
    _scaled(a, e, m, k)
    fix = np.flatnonzero((m < 1e12) | (m >= 1e13))  # log10 missed by one
    if fix.size:
        e[fix] += np.where(m[fix] >= 1e13, 1, -1)
        m[fix] = _scaled(a[fix], e[fix], np.empty(fix.size), np.empty(fix.size, np.int64))
    d = np.floor(np.add(m, 0.5, out=a), out=a)  # |x| is needed no more
    # m is within half an ulp of the true mantissa and half-integers below 1e13
    # are doubles, so only an m exactly on one is ambiguous; the guard keeps a
    # margin of one ulp, np.spacing(m), twice the rounding error: for these m,
    # the power of two whose exponent field is m's less 52.
    guard = k.view(np.float64)
    np.bitwise_and(m.view(np.int64), 0x7FF << 52, out=k)
    k -= 52 << 52
    np.subtract(0.5, guard, out=guard)
    ok &= np.abs(np.subtract(d, m, out=m), out=m) < guard
    ok &= e >= -10
    ok &= e <= 34
    carry = d == 1e13
    np.copyto(d, 1e12, where=carry)
    e += carry
    return ok, e, d


def _words(e, d, s):
    """Yield (offset in the body, words) for the five words of every cell's
    body in turn, each in the same scratch.  Consumes the mantissas ``d``."""
    hi = s.floats[1, :d.size]
    q, r = s.wide[:d.size].view(np.int32).reshape(2, d.size)  # two int32 halves
    np.floor(np.divide(d, 1e8, out=hi), out=hi)  # the first five digits
    np.copyto(r, hi, casting="unsafe")
    np.subtract(d, np.multiply(hi, 1e8, out=hi), out=d)  # and the last eight
    words = hi.view(np.uint32)[:d.size]
    np.floor_divide(r, 10_000, out=q)
    yield 0, np.take(_LEADS, q, out=words.view(np.uint16)[:d.size], mode="clip")
    np.subtract(r, np.multiply(q, 10_000, out=q), out=r)
    yield 2, np.take(_GROUPS, r, out=words, mode="clip")
    np.copyto(r, d, casting="unsafe")
    np.floor_divide(r, 10_000, out=q)
    yield 6, np.take(_GROUPS, q, out=words, mode="clip")
    np.subtract(r, np.multiply(q, 10_000, out=q), out=r)
    yield 10, np.take(_GROUPS, r, out=words, mode="clip")
    yield 14, np.take(_EXPONENTS, np.add(e, 99, out=q), out=words, mode="clip")


def _text_cells(column):
    """A string column's cells as UTF-8 bytes, NUL-padded to the longest.
    Each run of equal strings, such as mc-compare's element labels, is
    encoded once and its bytes repeated."""
    starts = np.flatnonzero(column[1:] != column[:-1]) + 1
    runs = np.array([str(v).encode() for v in column[np.append(0, starts)].tolist()],
                    dtype=bytes)
    text = np.repeat(runs, np.diff(starts, prepend=0, append=column.size))
    return text.view(np.uint8).reshape(column.size, text.itemsize)


def _layout(neg):
    """Where each cell of a pad-free block goes, by the sign mask ``neg``
    (rows by columns, at least one of each), or None when the block splits
    into more groups than pay.

    Returns (runs, begin, row, cells, groups): run r holds rows runs[r] up
    to runs[r + 1] at byte begin[r] of the block, each row[r] bytes long;
    cells[r] holds the byte offset of every cell within such a row; groups
    lists (run, first column, end column, cell width) of adjacent columns
    laid out alike.
    """
    n_rows, n = neg.shape
    flat = neg.reshape(-1)
    changed = np.flatnonzero(flat[n:] != flat[:-n]) // n  # rows before a change
    runs = np.append(0, changed[np.diff(changed, prepend=-1) != 0] + 1)
    widths = neg[runs] + (_BODY + 1)
    edge = np.empty(widths.shape, dtype=bool)  # where each group starts
    edge[:, :1] = True
    np.not_equal(widths[:, 1:], widths[:, :-1], out=edge[:, 1:])
    starts = np.flatnonzero(edge)
    group_run, first = np.divmod(starts, n)
    runs = np.append(runs, n_rows)
    if starts.size * _GROUP_CELLS + np.diff(runs)[group_run].sum() > neg.size:
        return None
    cells = np.cumsum(widths, axis=1) - widths
    row = widths.sum(axis=1)
    begin = np.append(0, np.cumsum(np.diff(runs) * row))
    ends = np.append(starts[1:], widths.size) - group_run * n
    groups = list(zip(group_run.tolist(), first.tolist(), ends.tolist(),
                      widths.reshape(-1)[starts].tolist()))
    return runs, begin, row, cells, groups


def _block_bytes(x, position, labels, s):
    """The CSV lines of the float block ``x`` (rows by columns) with the text
    cells ``labels`` (rows by bytes, NUL-padded), if any, at ``position``.
    A pad-free block comes back as a view of the scratch ``s``, valid until
    its next use."""
    n_rows, n = x.shape
    flat = x.reshape(-1)
    neg = np.signbit(x, out=s.flags[1, :x.size].reshape(n_rows, n))
    layout = _layout(neg) if labels is None else None
    ok, e, d = _mantissas(flat, s)
    rest = np.flatnonzero(~ok)
    if layout is not None:  # the sign is the group's
        printed = [b"%.12e" % v for v in np.abs(flat[rest]).tolist()]
        if any(len(t) != _BODY for t in printed):
            layout = None
    padded = layout is None
    if padded:  # one run of 21-byte cells; a text-only block has no group
        layout = (np.array([0, n_rows]), np.array([0, n_rows * n * _SLOT]),
                  np.array([n * _SLOT]), _SLOT * np.arange(n)[None],
                  [(0, 0, n, _SLOT)] if n else [])
        printed = [b"%.12e" % v for v in flat[rest].tolist()]
    runs, begin, row, cells, groups = layout
    out = s.out[:begin[-1]]  # a pad-free cell is narrower than a slot

    def view(r, c0, c1, at, dtype, width):
        return np.ndarray((runs[r + 1] - runs[r], c1 - c0), dtype, out,
                          begin[r] + cells[r, c0] + at, (row[r], width))

    for r, c0, c1, width in groups:  # the sign and the separator
        if padded:
            sign = view(r, c0, c1, 0, np.uint8, width)
            np.multiply(neg[runs[r]:runs[r + 1], c0:c1], np.uint8(ord("-")), out=sign)
            view(r, c0, c1, width - 2, np.uint8, width)[...] = 0
        elif width > _BODY + 1:
            view(r, c0, c1, 0, np.uint8, width)[...] = ord("-")
        view(r, c0, c1, width - 1, np.uint8, width)[...] = ord(",")
    for at, words in _words(e, d, s):
        words = words.reshape(n_rows, n)
        for r, c0, c1, width in groups:
            view(r, c0, c1, at + (width > _BODY + 1), words.dtype, width)[...] = \
                words[runs[r]:runs[r + 1], c0:c1]
    if rest.size:
        i, c = np.divmod(rest, n)
        r = np.searchsorted(runs, i, side="right") - 1
        at = begin[r] + (i - runs[r]) * row[r] + cells[r, c]
        width = _SLOT - 1 if padded else _BODY
        if not padded:
            at += neg.reshape(-1)[rest]
        printed = np.array(printed, dtype=f"S{width}").view(np.uint8)
        out[at[:, None] + np.arange(width)] = printed.reshape(-1, width)
    if padded:
        lines = out.reshape(n_rows, -1)
        if labels is not None:  # one group of floats stores faster than two
            cut = position * _SLOT
            comma = np.full((n_rows, 1), ord(","), dtype=np.uint8)
            lines = np.concatenate([lines[:, :cut], labels, comma, lines[:, cut:]], axis=1)
        lines[:, -1] = ord("\n")
        return lines.tobytes().translate(None, b"\0")  # drop the NUL padding
    for r in range(len(runs) - 1):
        np.ndarray((runs[r + 1] - runs[r], row[r]), np.uint8, out, begin[r])[:, -1] = ord("\n")
    return memoryview(out)


def _csv_blocks(header, table, text):
    """Yield the CSV bytes: the header line, then the lines of one block of
    rows at a time, each valid until the next is asked for.

    ``table`` is a 2-D array of finite floats with one row per line,
    ``header`` names its columns in order and, with ``text = (position,
    strings)``, one text column more, printed as it is at ``position`` among
    them.  Every float is printed as "%.12e" prints it.
    """
    table = np.ascontiguousarray(table, dtype=np.float64)
    if table.ndim != 2:
        raise ValueError(f"a table has two dimensions, not {table.ndim}")
    n_rows, n_floats = table.shape
    position = None
    if text is not None:
        position, strings = text[0], np.asarray(text[1])
        if not 0 <= position <= n_floats:
            raise ValueError(f"text column {position} outside {n_floats + 1} columns")
        if strings.shape != (n_rows,):
            raise ValueError(f"{strings.size} strings for {n_rows} rows")
    n_columns = n_floats + (text is not None)
    if len(header) != n_columns:
        raise ValueError(f"{len(header)} names for {n_columns} columns")
    if not np.isfinite(table).all():  # one pass; the cell is looked for only now
        row, column = np.argwhere(~np.isfinite(table))[0]  # row-major order
        names = [name for c, name in enumerate(header) if c != position]
        raise NonFiniteResult(f"column {names[column]} is {table[row, column]} in data "
                              f"row {row + 1} of {n_rows}; no table written")
    yield (",".join(header) + "\n").encode()
    if not n_columns:
        return
    block_rows = max(1, _CSV_BLOCK_CELLS // n_columns)
    scratch = _Scratch(min(block_rows, n_rows) * n_floats)
    for start in range(0, n_rows, block_rows):
        block = table[start:start + block_rows]  # contiguous: whole rows
        labels = None if text is None else _text_cells(strings[start:start + len(block)])
        yield _block_bytes(block, position, labels, scratch)


def write_csv(path, header, table, text=None) -> None:
    """Write the finite float ``table`` (rows by columns) as CSV under
    ``header``, with at most one text column ``text = (position, strings)``.
    Raises NonFiniteResult for a NaN or infinite cell."""
    blocks = _csv_blocks(header, table, text)
    # The header line comes after the checks: a rejected table raises
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

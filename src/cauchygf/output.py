"""Deterministic CSV/JSON artifact writing.

Floats are printed with 13 significant digits in scientific notation, line
endings are LF, and JSON keys are sorted, so identical inputs always produce
byte-identical files.
"""

from __future__ import annotations

import json

import numpy as np


_FLOAT_FORMAT = "%.12e"

# Rows formatted and written per block: the text of a wide table never has to
# exist in memory all at once.
_CSV_BLOCK_ROWS = 512


def _csv_blocks(header, columns):
    """Yield the CSV text in blocks of rows: the header line first.

    ``header`` is a list of column names; ``columns`` the matching list of
    equal-length sequences.  A column of strings passes through untouched;
    every other column is read as floats and printed with _FLOAT_FORMAT.
    """
    if len(header) != len(columns):
        raise ValueError(f"{len(header)} names for {len(columns)} columns")
    lengths = {len(c) for c in columns}
    if len(lengths) > 1:
        raise ValueError(f"column lengths differ: {sorted(lengths)}")
    arrays = [np.asarray(c) for c in columns]
    arrays = [a if a.dtype.kind in "US" else np.asarray(a, dtype=float) for a in arrays]
    row_format = ",".join("%s" if a.dtype.kind in "US" else _FLOAT_FORMAT for a in arrays) + "\n"
    yield ",".join(header) + "\n"
    n_rows = lengths.pop() if lengths else 0
    for start in range(0, n_rows, _CSV_BLOCK_ROWS):
        cells = [a[start:start + _CSV_BLOCK_ROWS].tolist() for a in arrays]
        yield "".join(row_format % row for row in zip(*cells))


def write_csv(path, header, columns) -> None:
    with open(path, "w", newline="\n") as fh:
        for block in _csv_blocks(header, columns):
            fh.write(block)


def _plain(value):
    """Recursively convert numpy scalars/arrays so json can serialize them."""
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, (complex, np.complexfloating)):
        return {"im": value.imag, "re": value.real}
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    return value


def json_text(payload) -> str:
    return json.dumps(_plain(payload), indent=2, sort_keys=True) + "\n"


def write_json(path, payload) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(json_text(payload))

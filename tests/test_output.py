import io
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cauchygf import output
from cauchygf.errors import NonFiniteResult
from cauchygf.output import json_text, write_csv, write_json
from oracles import reference_csv


def render(tmp_path, header, table, text=None):
    path = tmp_path / "t.csv"
    write_csv(path, header, table, text)
    return path.read_text()


def oracle_columns(table, text=None):
    """The table's columns as ``reference_csv`` takes them, the text one
    inserted at its position."""
    columns = list(np.asarray(table, dtype=float).T)
    if text is not None:
        columns.insert(text[0], np.asarray(text[1]))
    return columns


def test_format_float_full_precision(tmp_path):
    values = [1 / 3, np.float64(-2.5e-17), 0]
    assert render(tmp_path, ["x"], np.c_[values]).split("\n")[1:4] == [
        "3.333333333333e-01", "-2.500000000000e-17", "0.000000000000e+00"]
    # 13 significant digits are enough to round-trip through the text form
    # at any magnitude this package produces.
    values = [np.pi, 6.02e23, 1.05e-34]
    cells = render(tmp_path, ["x"], np.c_[values]).split()[1:]
    assert [float(c) for c in cells] == pytest.approx(values, rel=1e-12)


def test_csv_golden_rendering(tmp_path):
    text = render(tmp_path, ["omega", "label", "rho"],
                  [[0.5, 0.25], [-1.0, 0.75]], text=(1, ["a", "b"]))
    assert text == ("omega,label,rho\n"
                    "5.000000000000e-01,a,2.500000000000e-01\n"
                    "-1.000000000000e+00,b,7.500000000000e-01\n")


REJECTED_TABLES = [
    (["a", "b"], np.ones((1, 1)), None),               # two names, one column
    (["a"], np.ones((2, 1)), (0, ["x"])),              # two names needed
    (["a", "b"], np.ones((2, 1)), (1, ["x"])),         # one string for two rows
    (["a", "b"], np.ones((2, 1)), (2, ["x", "y"])),    # text column past the end
    (["a"], np.ones((2, 1, 1)), None),                 # not two-dimensional
    (["a"], np.ones(2), None),
]


def test_csv_rejects_mismatched_shapes(tmp_path):
    for header, table, text in REJECTED_TABLES:
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", header, table, text)
        assert not (tmp_path / "t.csv").exists()


def test_rejected_columns_leave_an_existing_file_untouched(tmp_path):
    path = tmp_path / "keep.csv"
    path.write_text("a\n1\n")
    for header, table, text in REJECTED_TABLES:
        with pytest.raises(ValueError):
            write_csv(path, header, table, text)
        assert path.read_text() == "a\n1\n"


# ---------------------------------------------------------------- rewrites

def test_rewrites_leave_exactly_the_new_bytes(tmp_path):
    # No stale tail after a shorter rewrite, and a longer one grows the file.
    path = tmp_path / "t.csv"
    rng = np.random.default_rng(5)
    for n_rows in (3000, 40, 3000, 0, 1):
        table = rng.standard_normal((n_rows, 3))
        write_csv(path, ["x", "y", "z"], table)
        assert path.read_bytes() == reference_csv(["x", "y", "z"], list(table.T))
    json_path = tmp_path / "t.json"
    for payload in ({"n": list(range(50))}, {"n": 2}, {"n": list(range(9))}):
        write_json(json_path, payload)
        assert json_path.read_bytes() == json_text(payload).encode()


def test_writers_keep_the_file_and_its_mode(tmp_path):
    # A rewrite keeps the old file's inode and permissions.
    path = tmp_path / "t.json"
    path.write_text("x" * 100)
    path.chmod(0o640)
    inode = path.stat().st_ino
    write_json(path, {"n": 1})
    assert (path.stat().st_ino, path.stat().st_mode & 0o777) == (inode, 0o640)
    assert path.read_bytes() == b'{\n  "n": 1\n}\n'


class FailingFile:
    """A writable file whose ``write`` raises OSError after ``good`` calls."""

    def __init__(self, fh, good):
        self.fh, self.good = fh, good

    def write(self, data):
        if not self.good:
            raise OSError(28, "No space left on device")
        self.good -= 1
        return self.fh.write(data)

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)


@pytest.mark.parametrize("good", [0, 1, 2])
def test_failed_write_leaves_a_prefix_of_the_new_table(tmp_path, monkeypatch, good):
    # The header, then blocks of about 2**15 cells: 4,096 rows of 8 columns.
    path = tmp_path / "t.csv"
    path.write_bytes(b"9" * 3_000_000)  # an old file longer than the new one
    table = np.random.default_rng(good).standard_normal((10_000, 8))
    header = [f"c{c}" for c in range(8)]
    monkeypatch.setattr(output, "open", lambda *a, **k: FailingFile(open(*a, **k), good),
                        raising=False)
    with pytest.raises(OSError, match="No space"):
        write_csv(path, header, table)
    written = path.read_bytes()
    full = reference_csv(header, list(table.T))
    assert full.startswith(written) and b"9" * 20 not in written
    lines = written.count(b"\n")
    assert lines == [0, 1, 1 + 4096][good]


class FailingRaw(io.FileIO):
    """A file opened for writing whose raw writes raise OSError once they
    would pass ``room`` bytes, under the buffer that ``open`` puts on it."""

    def __init__(self, path, room):
        super().__init__(path, "wb")
        self.room = room

    def write(self, data):
        if len(data) > self.room:
            raise OSError(28, "No space left on device")
        self.room -= len(data)
        return super().write(data)


@pytest.mark.parametrize("room", [0, 30, 700_000])
def test_failed_raw_write_leaves_a_prefix_of_the_new_table(tmp_path, monkeypatch, room):
    # The buffered header reaches the disk with the first block or not at
    # all; either way the old file's bytes are gone.
    path = tmp_path / "t.csv"
    path.write_bytes(b"9" * 3_000_000)
    table = np.random.default_rng(room).standard_normal((10_000, 8))
    header = [f"c{c}" for c in range(8)]
    monkeypatch.setattr(output, "open",
                        lambda p, mode: io.BufferedWriter(FailingRaw(p, room)), raising=False)
    with pytest.raises(OSError, match="No space"):
        write_csv(path, header, table)
    written = path.read_bytes()
    assert reference_csv(header, list(table.T)).startswith(written)
    assert len(written) <= room and b"9" * 20 not in written


def test_json_sorted_keys_and_numpy_coercion():
    text = json_text({"zeta": np.float64(1.5), "alpha": np.int32(3),
                      "ok": np.bool_(True),
                      "arr": np.array([1.0, 2.0])})
    parsed = json.loads(text)
    assert parsed == {"alpha": 3, "arr": [1.0, 2.0], "ok": True, "zeta": 1.5}
    assert text.index('"alpha"') < text.index('"arr"') < text.index('"zeta"')
    assert text.endswith("\n") and "\r" not in text


def test_json_complex_becomes_re_im_object():
    text = json_text({"pole": 2.1 - 0.01j,
                      "poles": np.array([1j, -1j])})
    parsed = json.loads(text)
    assert parsed["pole"] == {"re": 2.1, "im": -0.01}
    assert parsed["poles"] == [{"re": 0.0, "im": 1.0}, {"re": 0.0, "im": -1.0}]


def test_json_nested_structures():
    parsed = json.loads(json_text({"a": [{"b": (np.float32(0.5), None)}]}))
    assert parsed == {"a": [{"b": [0.5, None]}]}


def test_json_non_finite_floats_become_null():
    text = json_text({"a": float("nan"), "b": np.float64(-np.inf),
                      "c": complex(np.inf, 1.0), "d": np.array([1.0, np.nan])})
    assert json.loads(text) == {"a": None, "b": None, "c": {"re": None, "im": 1.0},
                                "d": [1.0, None]}
    assert "NaN" not in text and "Infinity" not in text


def test_writers_round_trip(tmp_path):
    csv_path = tmp_path / "t.csv"
    write_csv(csv_path, ["x"], [[1.25]])
    assert csv_path.read_bytes() == b"x\n1.250000000000e+00\n"
    json_path = tmp_path / "t.json"
    write_json(json_path, {"n": 2})
    assert json_path.read_bytes() == b'{\n  "n": 2\n}\n'


# ------------------------------------------- block formatter vs the % oracle

def csv_bytes(tmp_path, header, table, text=None):
    path = tmp_path / "t.csv"
    write_csv(path, header, table, text)
    return path.read_bytes()


def matches_oracle(tmp_path, table, text=None):
    """Whether ``write_csv`` prints ``table`` as one ``%`` per row would."""
    table = np.asarray(table, dtype=float)
    header = [f"c{c}" for c in range(table.shape[1] + (text is not None))]
    return csv_bytes(tmp_path, header, table, text) == \
        reference_csv(header, oracle_columns(table, text))


finite = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


@given(st.lists(finite, max_size=1100), st.integers(1, 3))
def test_csv_bytes_match_percent_oracle(tmp_path_factory, values, n_columns):
    # Any finite float64, signed zeros and subnormals included; the fixed
    # tables below also cross block boundaries.
    tmp_path = tmp_path_factory.mktemp("csv")
    table = np.array([np.array(values)[::-1] if c % 2 else values
                      for c in range(n_columns)]).reshape(n_columns, len(values)).T
    assert matches_oracle(tmp_path, table)


EDGE_VALUES = [
    9.9999999999995, 9.99999999999949, 99999999999999.5, 5e-324, 1e308, -1e-310,
    1e100, -1e-100, 2.5e-150, 1.7976931348623157e308, 2.2250738585072014e-308,
    1e-10, 1e-11, 9.99999999999e-11, 1e35, 9.99999999999e34, 0.0, -0.0,
] + [10.0 ** k for k in range(-25, 40)] \
  + [np.nextafter(10.0 ** k, 0.0) for k in range(-25, 40)] \
  + [np.nextafter(10.0 ** k, np.inf) for k in range(-25, 40)]


def test_csv_edge_values_match_percent_oracle(tmp_path):
    values = np.array(EDGE_VALUES)
    assert matches_oracle(tmp_path, np.c_[values, -values])


# Boundaries of the digit groups and of the exponent's fast range: mantissa
# groups with leading zeros, carries into the next decade, the first and
# last exponents printed without %, and the cells % prints.
BOUNDARY_VALUES = [
    1.00000001, 1.000000010000, 1.0000000000010, 1.000100010001, 1.000000000001,
    9.000000000009, 1.234000000056, 5.000050000500, 1.0001, 1.00000000001,
    9.9999999999995e-01, 9.9999999999994e-01, 9.99999999999951e-01, 9.999999999999e-01,
    0.99999999999995, 99.999999999995, 9999999.9999995, 9.9999999999995e33,
    9.9999999999995e-12, 9.9999999999995e-11, 9.9999999999995e34, 9.9999999999995e35,
    1e-11, 1.5e-11, 9.87654321e-11, 1e-10, 1.23456789e-10, 9.99999999999e-10,
    1e34, 4.5e34, 9.99999999999e34, 1e35, 3.2e35, 9.99999999999e35,
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.2345e-315,
    1e-100, -3.5e-200, 1e100, 7.77e299, 1.7976931348623157e308, 1e-99, 1e99,
]


@pytest.mark.parametrize("values", [BOUNDARY_VALUES, [-v for v in BOUNDARY_VALUES]],
                         ids=["positive", "negative"])
def test_csv_digit_boundaries_match_percent_oracle(tmp_path, values):
    # Each value with its neighbours one ulp away, so both sides of every
    # rounding, carry and exponent boundary are printed.
    values, top = np.array(values), np.finfo(float).max  # the largest double is its own
    table = np.c_[values, np.nextafter(values, top), np.nextafter(values, -top)]
    assert matches_oracle(tmp_path, table)
    cells = csv_bytes(tmp_path, ["x"], np.c_[values]).split(b"\n")[1:6]
    sign = b"-" if values[0] < 0 else b""
    assert cells == [sign + c for c in (b"1.000000010000e+00", b"1.000000010000e+00",
                                        b"1.000000000001e+00", b"1.000100010001e+00",
                                        b"1.000000000001e+00")]


def test_csv_near_ties_match_percent_oracle(tmp_path):
    # 14-digit decimals ending in 5 sit within an ulp of a rounding tie of
    # the 13-digit mantissa: the cells the guarded floor must hand to %.
    rng = np.random.default_rng(7)
    digits = rng.integers(10 ** 12, 10 ** 13, 4000) * 10 + 5
    values = digits / 10.0 ** rng.integers(0, 30, 4000)
    values = np.concatenate([[1.2345678901235, 0.12345678901235], values, -values])
    text = csv_bytes(tmp_path, ["x"], np.c_[values])
    assert text == reference_csv(["x"], [values])
    assert text.split(b"\n")[1:3] == [b"1.234567890123e+00", b"1.234567890123e-01"]


def test_csv_mixed_string_and_float_table_matches_oracle(tmp_path):
    # The one text column first, among the floats, and last.
    rng = np.random.default_rng(3)
    n = 1300
    labels = np.repeat(["G_0_0", "G_12_3", "", "é✓"], n // 4 + 1)[:n]
    table = np.c_[rng.standard_normal(n), rng.standard_normal(n) * 1e-30,
                  rng.standard_normal(n) * 1e30]
    for position in (0, 1, 3):
        assert matches_oracle(tmp_path, table, text=(position, labels))
    assert matches_oracle(tmp_path, np.empty((n, 0)), text=(0, labels))


@pytest.mark.parametrize("labels", [
    ["G_0_0"], ["G_0_0", "G_0_0"], ["a", "bb", "a", "a", "é✓", ""], list("abcdefg"),
    np.repeat(["G_0_0", "G_1_1", "G_0_0", "G_12_3"], 201),
    np.array(["x", "x", "yy"], dtype=object),
], ids=["one-row", "one-run", "recurring", "all-distinct", "mc-compare", "object"])
def test_text_cells_match_one_encoding_per_row(labels):
    # Each run of equal labels is encoded once and its bytes repeated; the
    # cells are those of one str(v).encode() per row, NUL-padded.
    column = np.asarray(labels)
    cells = output._text_cells(column)
    want = np.array([str(v).encode() for v in column.tolist()], dtype=bytes)
    assert cells.shape == (column.size, want.itemsize)
    assert cells.tobytes() == want.tobytes()


def test_label_runs_across_block_boundaries_match_oracle(tmp_path):
    # mc-compare's layout: one run of rows per element, here longer than a
    # block (5,461 rows of six columns), recurring after another label.
    rng = np.random.default_rng(8)
    labels = np.repeat(["G_0_0", "G_1_1", "G_0_0"], 6000)
    table = rng.standard_normal((labels.size, 5))
    assert labels.size > 3 * (output._CSV_BLOCK_CELLS // 6)
    assert matches_oracle(tmp_path, table, text=(1, labels))


@pytest.mark.parametrize("n_rows, n_columns", [(40_000, 2), (1_100, 66), (3, 40_000)],
                         ids=["narrow", "dos-ring", "wider-than-a-block"])
def test_csv_blocks_of_any_width_match_oracle(tmp_path, n_rows, n_columns):
    # Blocks hold whole rows, about _CSV_BLOCK_CELLS cells: 16,384 rows of a
    # narrow table, 496 of dos-ring's 66 columns, and one row of a table
    # wider than a block.  Each table spans at least three blocks, with a
    # text column among the floats.
    rows = max(1, output._CSV_BLOCK_CELLS // n_columns)
    assert n_rows > 2 * rows
    rng = np.random.default_rng(n_columns)
    table = rng.standard_normal((n_rows, n_columns - 1)) * 10.0 ** rng.integers(
        -12, 12, (n_rows, n_columns - 1))
    labels = np.array([f"G_{i}" for i in range(n_rows)])
    assert matches_oracle(tmp_path, table, text=(1, labels))


@pytest.mark.parametrize("header, table, text",
                         [(["a", "b"], np.empty((0, 2)), None), ([], np.empty((0, 0)), None),
                          (["a"], np.empty((0, 0)), (0, []))],
                         ids=["zero-rows", "zero-columns", "text-only"])
def test_csv_empty_tables_match_oracle(tmp_path, header, table, text):
    assert csv_bytes(tmp_path, header, table, text) == \
        reference_csv(header, oracle_columns(table, text))


# ------------------------------------------------- pad-free and padded blocks

@pytest.fixture
def pad_free(monkeypatch):
    """Per block written, whether it was laid out without padding: a padded
    block comes back from ``bytes.translate`` as bytes, a pad-free one as a
    view of the writer's buffer."""
    seen = []
    real = output._block_bytes

    def spy(*args):
        lines = real(*args)
        seen.append(isinstance(lines, memoryview))
        return lines

    monkeypatch.setattr(output, "_block_bytes", spy)
    return seen


def log_uniform(rng, shape):
    return 10.0 ** rng.uniform(-9, 9, shape)


@pytest.mark.parametrize("signs", [[1, 1, 1, 1], [-1, -1, -1, -1], [1, -1, -1, 1]],
                         ids=["positive", "negative", "mixed-columns"])
def test_columns_of_one_sign_are_written_pad_free(tmp_path, pad_free, signs):
    table = log_uniform(np.random.default_rng(11), (3000, 4)) * signs
    assert matches_oracle(tmp_path, table)
    assert pad_free == [True]


@pytest.mark.parametrize("crossing", [1000, 1500], ids=["block-boundary", "mid-block"])
def test_sign_change_splits_a_run(tmp_path, monkeypatch, pad_free, crossing):
    # Blocks of 1,000 rows; the first column turns positive at ``crossing``.
    monkeypatch.setattr(output, "_CSV_BLOCK_CELLS", 4000)
    table = log_uniform(np.random.default_rng(crossing), (3000, 4))
    table[:, 0] = np.arange(3000) - crossing + 0.5
    assert matches_oracle(tmp_path, table)
    assert pad_free == [True] * 3


def test_signed_zeros_drop_into_their_slots(tmp_path, pad_free):
    # 0.0 keeps a positive column's run, -0.0 a negative one's; a -0.0 in a
    # positive column starts a run of its own.
    table = log_uniform(np.random.default_rng(12), (3000, 8)) * np.repeat([1, -1], 4)
    table[::7, 0] = 0.0
    table[::5, 7] = -0.0
    table[1200, 3] = -0.0
    header = [f"c{c}" for c in range(8)]
    text = csv_bytes(tmp_path, header, table)
    assert text == reference_csv(header, list(table.T))
    assert pad_free == [True]
    assert b"\n0.000000000000e+00," in text and b",-0.000000000000e+00\n" in text
    assert text.split(b"\n")[1201].split(b",")[3] == b"-0.000000000000e+00"


def test_near_ties_in_a_pad_free_run(tmp_path, pad_free):
    rng = np.random.default_rng(13)
    digits = rng.integers(10 ** 12, 10 ** 13, (4000, 2)) * 10 + 5
    table = digits / 10.0 ** rng.integers(0, 30, (4000, 2))
    table[:, 1] = np.nextafter(table[:, 1], np.inf)
    assert matches_oracle(tmp_path, table)
    assert matches_oracle(tmp_path, -table)
    assert pad_free == [True, True]


@pytest.mark.parametrize("odd", [float("nan"), float("inf"), -float("inf"), 1e-100, 3e100])
def test_a_cell_printed_at_another_width_pads_only_its_block(tmp_path, monkeypatch, pad_free,
                                                             odd):
    # A three-digit exponent pads its block alone; a NaN or an infinity is
    # refused before any block is laid out or the target is opened.
    monkeypatch.setattr(output, "_CSV_BLOCK_CELLS", 4000)
    table = log_uniform(np.random.default_rng(14), (3000, 4))
    table[1234, 2] = odd
    if not np.isfinite(odd):
        with pytest.raises(NonFiniteResult, match=f"column c2 is {odd} in data row 1235 of 3000"):
            csv_bytes(tmp_path, ["c0", "c1", "c2", "c3"], table)
        assert pad_free == [] and not (tmp_path / "t.csv").exists()
        return
    assert matches_oracle(tmp_path, table)
    assert pad_free == [True, False, True]


@pytest.mark.parametrize("position", [0, 1, 3])
@pytest.mark.parametrize("names", [["G_0_1", "G_1_0", "G_3_3"], ["G_0_1", "G_10_3", "G_3_3"]],
                         ids=["one-width", "mixed-widths"])
def test_text_tables_take_the_padded_layout(tmp_path, pad_free, position, names):
    # Columns of one sign, which alone would be written pad-free.
    table = log_uniform(np.random.default_rng(position), (2000, 3))
    labels = np.repeat(names, 700)[:2000]
    assert matches_oracle(tmp_path, table, text=(position, labels))
    assert pad_free == [False]


def test_text_tables_never_lay_out_pad_free(tmp_path, monkeypatch, pad_free):
    # mc-compare's shape: element labels in column 1, one run per element.
    def layout(neg):
        raise AssertionError("a text table was laid out pad-free")

    monkeypatch.setattr(output, "_layout", layout)
    monkeypatch.setattr(output, "_CSV_BLOCK_CELLS", 4000)
    table = log_uniform(np.random.default_rng(15), (1407, 4)) * [1, -1, 1, 1]
    labels = np.repeat(["G_0_0", "G_1_1", "G_0_3"], 469)
    assert matches_oracle(tmp_path, table, text=(1, labels))
    assert pad_free == [False] * 2


def test_dos_ring_table_never_takes_the_padded_path(tmp_path, monkeypatch, pad_free):
    # A ring's dos table: sorted omega crossing zero, then positive densities.
    real = output._layout

    def layout(neg):
        placed = real(neg)
        assert placed is not None  # few enough groups to pay
        return placed

    monkeypatch.setattr(output, "_layout", layout)
    omegas = np.linspace(-2.6, 2.4, 4001)
    levels = 2 * np.cos(2 * np.pi * np.arange(64) / 64) - 0.1
    rho = 0.1 / np.pi / ((omegas[:, None] - levels) ** 2 + 0.01)
    table = np.column_stack([omegas, rho.sum(axis=1), rho, rho[:, :1]])
    assert matches_oracle(tmp_path, table)
    assert pad_free == [True] * 9

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cauchygf import output
from cauchygf.output import json_text, write_csv, write_json
from oracles import reference_csv


def render(tmp_path, header, columns):
    path = tmp_path / "t.csv"
    write_csv(path, header, columns)
    return path.read_text()


def test_format_float_full_precision(tmp_path):
    values = [1 / 3, np.float64(-2.5e-17), 0]
    assert render(tmp_path, ["x"], [values]).split("\n")[1:4] == [
        "3.333333333333e-01", "-2.500000000000e-17", "0.000000000000e+00"]
    # 13 significant digits are enough to round-trip through the text form
    # at any magnitude this package produces.
    values = [np.pi, 6.02e23, 1.05e-34]
    cells = render(tmp_path, ["x"], [values]).split()[1:]
    assert [float(c) for c in cells] == pytest.approx(values, rel=1e-12)


def test_csv_golden_rendering(tmp_path):
    text = render(tmp_path, ["omega", "label", "rho"],
                  [[0.5, -1.0], ["a", "b"], np.array([0.25, 0.75])])
    assert text == ("omega,label,rho\n"
                    "5.000000000000e-01,a,2.500000000000e-01\n"
                    "-1.000000000000e+00,b,7.500000000000e-01\n")


def test_csv_rejects_mismatched_shapes(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", ["a", "b"], [[1.0]])
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", ["a", "b"], [[1.0], [1.0, 2.0]])


def test_rejected_columns_leave_an_existing_file_untouched(tmp_path):
    path = tmp_path / "keep.csv"
    path.write_text("a\n1\n")
    for header, columns in ((["a", "b"], [[1.0]]), (["a", "b"], [[1.0], [1.0, 2.0]])):
        with pytest.raises(ValueError):
            write_csv(path, header, columns)
        assert path.read_text() == "a\n1\n"


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

def csv_bytes(tmp_path, header, columns):
    path = tmp_path / "t.csv"
    write_csv(path, header, columns)
    return path.read_bytes()


finite_or_not = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@given(st.lists(finite_or_not, max_size=1100), st.integers(1, 3))
def test_csv_bytes_match_percent_oracle(tmp_path_factory, values, n_columns):
    # Any float64, NaN, infinities, signed zeros and subnormals included; the
    # fixed tables below also cross block boundaries.
    tmp_path = tmp_path_factory.mktemp("csv")
    columns = [np.array(values)[::-1] if c % 2 else values for c in range(n_columns)]
    header = [f"c{c}" for c in range(n_columns)]
    assert csv_bytes(tmp_path, header, columns) == reference_csv(header, columns)


EDGE_VALUES = [
    9.9999999999995, 9.99999999999949, 99999999999999.5, 5e-324, 1e308, -1e-310,
    1e100, -1e-100, 2.5e-150, 1.7976931348623157e308, 2.2250738585072014e-308,
    1e-10, 1e-11, 9.99999999999e-11, 1e35, 9.99999999999e34, 0.0, -0.0,
    float("nan"), float("inf"), -float("inf"),
] + [10.0 ** k for k in range(-25, 40)] \
  + [np.nextafter(10.0 ** k, 0.0) for k in range(-25, 40)] \
  + [np.nextafter(10.0 ** k, np.inf) for k in range(-25, 40)]


def test_csv_edge_values_match_percent_oracle(tmp_path):
    values = np.array(EDGE_VALUES)
    columns = [values, -values]
    assert csv_bytes(tmp_path, ["x", "y"], columns) == reference_csv(["x", "y"], columns)


def test_csv_near_ties_match_percent_oracle(tmp_path):
    # 14-digit decimals ending in 5 sit within an ulp of a rounding tie of
    # the 13-digit mantissa: the cells the guarded floor must hand to %.
    rng = np.random.default_rng(7)
    digits = rng.integers(10 ** 12, 10 ** 13, 4000) * 10 + 5
    values = digits / 10.0 ** rng.integers(0, 30, 4000)
    values = np.concatenate([[1.2345678901235, 0.12345678901235], values, -values])
    text = csv_bytes(tmp_path, ["x"], [values])
    assert text == reference_csv(["x"], [values])
    assert text.split(b"\n")[1:3] == [b"1.234567890123e+00", b"1.234567890123e-01"]


def test_csv_mixed_string_and_float_table_matches_oracle(tmp_path):
    rng = np.random.default_rng(3)
    n = 1300
    labels = np.repeat(["G_0_0", "G_12_3", "", "é✓"], n // 4 + 1)[:n]
    columns = [rng.standard_normal(n), labels, rng.standard_normal(n) * 1e-30, labels]
    header = ["omega", "element", "re", "again"]
    assert csv_bytes(tmp_path, header, columns) == reference_csv(header, columns)


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
    values = rng.standard_normal((n_columns - 1, n_rows)) * 10.0 ** rng.integers(
        -12, 12, (n_columns - 1, n_rows))
    labels = np.array([f"G_{i}" for i in range(n_rows)])
    columns = [values[0], labels, *values[1:]]
    header = [f"c{c}" for c in range(n_columns)]
    assert csv_bytes(tmp_path, header, columns) == reference_csv(header, columns)


@pytest.mark.parametrize("header, columns", [(["a", "b"], [[], []]), ([], [])],
                         ids=["zero-rows", "zero-columns"])
def test_csv_empty_tables_match_oracle(tmp_path, header, columns):
    assert csv_bytes(tmp_path, header, columns) == reference_csv(header, columns)

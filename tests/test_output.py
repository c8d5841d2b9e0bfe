import json

import numpy as np
import pytest

from cauchygf.output import json_text, write_csv, write_json


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


def test_writers_round_trip(tmp_path):
    csv_path = tmp_path / "t.csv"
    write_csv(csv_path, ["x"], [[1.25]])
    assert csv_path.read_bytes() == b"x\n1.250000000000e+00\n"
    json_path = tmp_path / "t.json"
    write_json(json_path, {"n": 2})
    assert json_path.read_bytes() == b'{\n  "n": 2\n}\n'

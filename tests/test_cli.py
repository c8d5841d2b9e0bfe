import configparser
import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import cauchygf.cli as cli
import cauchygf.engine as engine
import cauchygf.lattice as lattice
from cauchygf.cavity import CavityParams, g_cc, polariton_poles, rho_c
from cauchygf.cli import main
from cauchygf.engine import SpectralGrid, averaged_greens, default_eta, diagonalize
from cauchygf.lattice import (DisorderSpec, assemble_cavity, assemble_huckel,
                              bright_spec, build_topology)
from cauchygf.montecarlo import EnsembleConfig, ensemble_average
from cauchygf.output import write_csv
from cauchygf.quadrature import auto_window
from oracles import solve_greens

STAR_INI = """\
[model]
kind = star
n_sites = 7
gamma = 0.1
"""

CAVITY_INI = """\
[model]
kind = cavity
epsilon_c = 2.1
epsilon_a = 2.1
gamma = 0.02
n_molecules = 6
v_tilde = 4.06e-14
number_density = 1.16e25
"""


def run(tmp_path, ini, *argv):
    cfg = tmp_path / "run.ini"
    cfg.write_text(ini)
    return main([argv[0], "--config", str(cfg), "--quiet", *argv[1:]])


def read_columns(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {name: [row[name] for row in rows] for name in rows[0]}


# ----------------------------------------------------------------------- dos

def test_dos_star_matches_engine(tmp_path):
    out = tmp_path / "star.csv"
    assert run(tmp_path, STAR_INI, "dos", "--out", str(out),
               "--grid=-3:3:41") == 0
    table = read_columns(out)
    omegas = np.array([float(x) for x in table["omega"]])
    np.testing.assert_allclose(omegas, np.linspace(-3, 3, 41), atol=1e-12)

    spec = assemble_huckel(build_topology("star", 7), 0.0, 1.0, 0.1)
    want = -solve_greens(spec, SpectralGrid(omegas)).reshape(-1, 7, 7).imag \
        .trace(axis1=1, axis2=2) / np.pi
    got = np.array([float(x) for x in table["rho_total"]])
    np.testing.assert_allclose(got, want, rtol=1e-11)
    hub = np.array([float(x) for x in table["rho_site_0"]])
    leaf = np.array([float(x) for x in table["rho_site_3"]])
    assert hub[20] != leaf[20]  # distinct site columns, not copies

    summary = json.loads((tmp_path / "star.summary.json").read_text())
    assert summary["model"] == {"kind": "star", "n_sites": 7, "alpha": 0.0,
                                "beta": 1.0, "gamma": 0.1,
                                "edges": [[0, i] for i in range(1, 7)]}
    assert summary["grid"] == {"lo": -3.0, "hi": 3.0, "n": 41, "eta": 0.0}


def test_dos_greens_element_columns(tmp_path):
    ini = STAR_INI + "[output]\ncolumns = rho_total, re_G_0_1, im_G_0_1\n"
    out = tmp_path / "g.csv"
    assert run(tmp_path, ini, "dos", "--out", str(out), "--grid", "0.4:0.6:3") == 0
    table = read_columns(out)
    assert list(table) == ["omega", "rho_total", "re_G_0_1", "im_G_0_1"]
    spec = assemble_huckel(build_topology("star", 7), 0.0, 1.0, 0.1)
    want = solve_greens(spec, SpectralGrid(np.linspace(0.4, 0.6, 3)),
                        elements=[(0, 1)])[1, 0]
    assert float(table["re_G_0_1"][1]) == pytest.approx(want.real, rel=1e-11)
    assert float(table["im_G_0_1"][1]) == pytest.approx(want.imag, rel=1e-11)


def test_dos_cavity_matches_direct_solve(tmp_path):
    # The cavity state is undisordered, so this goes through the Woodbury
    # correction; the default eta is 1e-3 * gamma.
    ini = CAVITY_INI + "[output]\ncolumns = rho_total, rho_site_0, re_G_0_1, im_G_0_1\n"
    out = tmp_path / "cav.csv"
    assert run(tmp_path, ini, "dos", "--out", str(out), "--grid", "1.8:2.4:61") == 0
    table = read_columns(out)
    spec = assemble_cavity(CavityParams(2.1, 2.1, 0.02, 6, v_tilde=4.06e-14,
                                        number_density=1.16e25))
    grid = SpectralGrid(np.linspace(1.8, 2.4, 61), eta=2e-5)
    want = solve_greens(spec, grid, [(i, i) for i in range(7)] + [(0, 1)])
    got = {name: np.array([float(x) for x in table[name]]) for name in table}
    np.testing.assert_allclose(got["rho_total"],
                               -want[:, :7].imag.sum(axis=1) / np.pi, rtol=1e-9)
    np.testing.assert_allclose(got["rho_site_0"], -want[:, 0].imag / np.pi, rtol=1e-9)
    np.testing.assert_allclose(got["re_G_0_1"] + 1j * got["im_G_0_1"], want[:, 7],
                               rtol=1e-9)


def bench_cavity_ini(n_molecules, columns):
    """The benchmark's resonant cavity, V = 0.1/sqrt(8) per molecule."""
    return (f"[model]\nkind = cavity\nepsilon_c = 2.1\nepsilon_a = 2.1\ngamma = 0.02\n"
            f"n_molecules = {n_molecules}\ncoupling = {0.1 / math.sqrt(8)!r}\n"
            f"[output]\ncolumns = {columns}\n")


@pytest.mark.parametrize("n_molecules", [24, 2000])
def test_dos_total_on_the_cavity_matches_the_closed_trace(tmp_path, n_molecules):
    # Tr G = g_cc + N a + N V^2 a^2 g_cc with a = 1/(z + i*gamma - eps_a): the
    # mode, the N bare molecules, and their share of the mode.  rho_total alone
    # asks for no element, so N = 2000 costs O(N) per frequency after one eigh.
    out = tmp_path / "trace.csv"
    assert run(tmp_path, bench_cavity_ini(n_molecules, "rho_total"), "dos",
               "--out", str(out)) == 0
    table = read_columns(out)
    assert list(table) == ["omega", "rho_total"]
    eta = json.loads((tmp_path / "trace.summary.json").read_text())["grid"]["eta"]
    params = CavityParams(2.1, 2.1, 0.02, n_molecules, coupling=0.1 / math.sqrt(8))
    w = np.array([float(x) for x in table["omega"]])
    a = 1 / (w + 1j * eta + 1j * params.gamma - params.epsilon_a)
    mode = g_cc(params, w, eta)
    trace = mode + n_molecules * a + params.nv2 * a * a * mode
    got = np.array([float(x) for x in table["rho_total"]])
    np.testing.assert_allclose(got, -trace.imag / np.pi, rtol=1e-9)


@pytest.mark.parametrize("ini, n_sites", [(bench_cavity_ini(24, "rho_total"), 25),
                                          (STAR_INI, 7)], ids=["cavity", "star"])
def test_dos_column_subset_matches_the_full_column_set(tmp_path, monkeypatch, ini, n_sites):
    # The cells of a column do not depend on which other columns the table
    # holds: rho_total is the trace, not a sum over the rho_site columns.
    tables = []
    monkeypatch.setattr(cli, "write_csv",
                        lambda path, header, table, text=None:
                        tables.append(dict(zip(header, table.T))))
    ini = ini.split("[output]")[0]
    subset = "rho_total, rho_site_0, re_G_0_1, im_G_0_1"
    full = ", ".join(["rho_total"] + [f"rho_site_{i}" for i in range(n_sites)]
                     + ["re_G_0_1", "im_G_0_1", "re_G_2_1", "im_G_2_1"])
    for columns in (subset, full):
        assert run(tmp_path, ini + f"[output]\ncolumns = {columns}\n", "dos",
                   "--out", str(tmp_path / "t"), "--grid", "1.5:2.7:801") == 0
    small, large = tables
    assert list(small) == ["omega"] + subset.split(", ")
    for name, values in small.items():
        scale = np.abs(large[name]).max()
        assert np.abs(values - large[name]).max() <= 1e-13 * scale, name


DENSITY_SPECS = {
    "chain": assemble_huckel(build_topology("chain", 9), 0.0, 1.0, 0.1),
    "ring": assemble_huckel(build_topology("ring", 64), 0.0, 1.0, 0.1),
    "star": assemble_huckel(build_topology("star", 7), 0.0, 1.0, 0.1),
    "hexagon": assemble_huckel(build_topology(
        "custom", 6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]), -0.3, -2.4, 0.05),
    "cavity": assemble_cavity(CavityParams(2.1, 2.1, 0.02, 24, coupling=0.1 / math.sqrt(8))),
}


def greens_view_table(spec, grid, columns):
    """The dos table read off the complex ``averaged_greens`` result for the
    same distinct elements and trace."""
    elements = list(dict.fromkeys(e for _, _, e in columns if e is not None))
    trace = any(e is None for _, _, e in columns)
    greens = averaged_greens(spec, grid, elements, trace=trace)
    greens, total = greens if trace else (greens, None)
    table = np.empty((grid.omegas.size, 1 + len(columns)))
    table[:, 0] = grid.omegas
    for c, (_, part, e) in enumerate(columns, 1):
        value = total if e is None else greens[:, elements.index(e)]
        table[:, c] = value.real if part == "re" else \
            value.imag if part == "im" else value.imag / -np.pi
    return table


@pytest.mark.parametrize("eta", [0.0, 0.02])
@pytest.mark.parametrize("shape", list(DENSITY_SPECS))
def test_density_only_table_equals_the_complex_route_byte_for_byte(shape, eta):
    # The table's cells, written straight from the pole sums (no real plane
    # for densities and imaginary parts on a graph), keep the bits of the
    # complex averaged_greens view of the same request, on every mask.
    spec = DENSITY_SPECS[shape]
    n = spec.n_sites
    grid = SpectralGrid(np.linspace(-3.1, 3.1, 1201) + 2.1 * (shape == "cavity"), eta)
    default = cli._dos_columns(configparser.ConfigParser(), n)
    requests = {
        "default": default,
        "total alone": [("rho_total", "rho", None)],
        "sites alone, reordered and repeated": [
            (f"rho_site_{i}", "rho", (i, i)) for i in (n - 1, 2, 0, 2, n - 1, 1)],
        "mixed": [(f"rho_site_{i}", "rho", (i, i)) for i in (3, 1)]
                 + [("rho_total", "rho", None), ("rho_site_3", "rho", (3, 3))],
        "im parts": [("im_G_0_1", "im", (0, 1)), ("rho_site_1", "rho", (1, 1)),
                     ("im_G_1_0", "im", (1, 0)), ("rho_total", "rho", None)],
        "re and im parts": [("re_G_2_0", "re", (2, 0)), ("rho_site_0", "rho", (0, 0)),
                            ("im_G_2_0", "im", (2, 0)), ("re_G_1_1", "re", (1, 1)),
                            ("rho_total", "rho", None), ("rho_site_2", "rho", (2, 2))],
    }
    for name, columns in requests.items():
        table = cli._dos_table(spec, grid, columns)
        assert table.tobytes() == greens_view_table(spec, grid, columns).tobytes(), name


def test_requests_without_real_parts_on_disordered_graphs_skip_the_real_plane(tmp_path,
                                                                               monkeypatch):
    # Every pole-sum call of a ring's default dos, of its densities and
    # imaginary parts, and of a graph's sum rules leaves out the real plane;
    # a re_G column, or the cavity's undisordered site, still forms it.
    kernel, calls = engine._pole_sums, []

    def spy(*args, real=True, **kwargs):
        calls.append(real)
        return kernel(*args, real=real, **kwargs)

    monkeypatch.setattr(engine, "_pole_sums", spy)
    ring = "[model]\nkind = ring\nn_sites = 64\ngamma = 0.1\n"
    imaginary = ring + "[output]\ncolumns = rho_total, im_G_0_0\n"
    for ini, command in ((ring, "dos"), (imaginary, "dos"),
                         (ring, "sum-rules"), (STAR_INI, "sum-rules")):
        calls.clear()
        assert run(tmp_path, ini, command, "--out", str(tmp_path / "d")) == 0
        assert calls and not any(calls), (command, calls)
    for ini in (bench_cavity_ini(24, "rho_total, rho_site_0, re_G_0_1, im_G_0_1"),
                bench_cavity_ini(24, "rho_site_0"),
                ring + "[output]\ncolumns = rho_total, re_G_0_0\n"):
        calls.clear()
        assert run(tmp_path, ini, "dos", "--out", str(tmp_path / "d")) == 0
        assert calls and all(calls), calls


def test_dos_rerun_rewrites_exactly_the_new_table(tmp_path):
    # Each run replaces the last one's files: a run with fewer columns (a
    # shorter table and summary) leaves no stale tail, and one with more
    # grows them again.
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    for columns in ("", "[output]\ncolumns = rho_site_2\n",
                    "[output]\ncolumns = rho_total, re_G_0_1, im_G_0_1, rho_site_6\n"):
        ini = STAR_INI + columns
        assert run(tmp_path, ini, "dos", "--out", str(tmp_path / "t"), "--grid=-3:3:201") == 0
        assert run(fresh, ini, "dos", "--out", str(fresh / "t"), "--grid=-3:3:201") == 0
        assert (tmp_path / "t.csv").read_bytes() == (fresh / "t.csv").read_bytes()
        summary = (tmp_path / "t.summary.json").read_text()
        assert summary == (fresh / "t.summary.json").read_text().replace(str(fresh), str(tmp_path))
        (fresh / "t.csv").unlink()
        (fresh / "t.summary.json").unlink()


def test_write_table_names_the_first_bad_row_then_its_first_bad_column(tmp_path):
    # The writer every command's table goes through: row order first, then
    # column order among the floats, wherever the text column sits among the
    # names.
    table = np.ones((4, 3))
    table[3, 0] = np.nan
    table[2, 2] = -np.inf
    table[2, 1] = np.inf
    path = tmp_path / "t.csv"
    for position in range(4):
        header = ["a", "b", "c"]
        header.insert(position, "label")
        with pytest.raises(cli.NonFiniteResult,
                           match="column b is inf in data row 3 of 4; no table written"):
            write_csv(path, header, table, text=(position, list("wxyz")))
    assert not path.exists()


def test_dos_rejects_unknown_column(tmp_path):
    # Leading zeros and non-ASCII digits name no column the run writes.
    for name in ("rho_site_9", "rho_site_01", "re_G_0_01", "rho_site_\u0663"):
        ini = STAR_INI + f"[output]\ncolumns = rho_total, {name}\n"
        assert run(tmp_path, ini, "dos") == 3


def test_custom_edges_write_the_ring_they_list(tmp_path):
    ring = "[model]\nkind = ring\nn_sites = 6\ngamma = 0.1\n"
    custom = ("[model]\nkind = custom\nn_sites = 6\ngamma = 0.1\n"
              "edges = 0-1, 1-2, 2-3, 3-4, 4-5, 5-0\n")
    for name, ini in (("ring", ring), ("custom", custom)):
        assert run(tmp_path, ini, "dos", "--out", str(tmp_path / name)) == 0
    assert (tmp_path / "custom.csv").read_bytes() == (tmp_path / "ring.csv").read_bytes()
    model = json.loads((tmp_path / "custom.summary.json").read_text())["model"]
    assert model["kind"] == "custom"
    assert model["edges"] == [[0, 1], [0, 5], [1, 2], [2, 3], [3, 4], [4, 5]]


# -------------------------------------------------------------------- cavity

def test_cavity_poles_and_absorption_columns(tmp_path):
    out = tmp_path / "cav.csv"
    assert run(tmp_path, CAVITY_INI + "mu_debye = 10.0\n", "cavity",
               "--out", str(out), "--grid", "1.7:2.5:101") == 0
    table = read_columns(out)
    assert list(table) == ["omega", "rho_c", "delta_rho_m", "delta_rho_t",
                           "alpha_m2", "alpha_normalized"]
    norm = [float(x) for x in table["alpha_normalized"]]
    assert max(norm) == pytest.approx(1.0, abs=1e-12)

    params = CavityParams(2.1, 2.1, 0.02, 6, v_tilde=4.06e-14,
                          number_density=1.16e25)
    poles = polariton_poles(params)
    payload = json.loads((tmp_path / "cav.poles.json").read_text())
    assert payload["poles"]["eps_plus"] == {
        "re": pytest.approx(poles.eps_plus.real, abs=1e-15),
        "im": pytest.approx(poles.eps_plus.imag, abs=1e-15)}
    assert payload["poles"]["rabi_splitting"] == pytest.approx(
        poles.rabi_splitting, abs=1e-15)
    assert payload["model"]["collective_coupling_sq"] == pytest.approx(
        params.nv2, rel=1e-15)


def test_cavity_without_dipole_omits_absorption(tmp_path):
    out = tmp_path / "cav.csv"
    assert run(tmp_path, CAVITY_INI, "cavity", "--out", str(out),
               "--grid", "1.7:2.5:11") == 0
    assert list(read_columns(out)) == ["omega", "rho_c", "delta_rho_m",
                                       "delta_rho_t"]


def test_cavity_command_requires_cavity_model(tmp_path):
    assert run(tmp_path, STAR_INI, "cavity") == 3


@pytest.mark.parametrize("n_molecules", [1, 2, 7, 200])
def test_cavity_dos_from_the_bright_matrix_matches_the_dense_engine(n_molecules):
    # Every column kind of a detuned cavity with a negative coupling, read off
    # H_b, against the engine on the (N+1)² matrix, within 1e-9 of each
    # column's peak.  At N = 1 there is no dark state and no pair of molecules.
    params = CavityParams(2.15, 2.1, 0.02, n_molecules, coupling=-0.1 / math.sqrt(8))
    spec = bright_spec(params)
    grid = SpectralGrid(auto_window(diagonalize(spec)[0], spec.gamma).omegas,
                        default_eta(spec))
    last = n_molecules
    pairs = [(0, 1), (1, 0), (last, last)] + [(1, last), (last, 1)] * (last > 1)
    columns = [("rho_total", "rho", None), ("rho_site_0", "rho", (0, 0)),
               (f"rho_site_{last}", "rho", (last, last))] + [
        (f"{part}_G_{i}_{j}", part, (i, j)) for i, j in pairs for part in ("re", "im")]
    bright = cli._bright_table(params, grid, columns)
    dense = cli._dos_table(assemble_cavity(params), grid, columns)
    assert np.array_equal(bright[:, 0], dense[:, 0])
    for c, (name, _, _) in enumerate(columns, 1):
        peak = np.abs(dense[:, c]).max()
        assert np.abs(bright[:, c] - dense[:, c]).max() <= 1e-9 * peak, name


def test_dos_reads_a_million_molecule_cavity_off_its_bright_matrix(tmp_path, monkeypatch):
    # With explicit columns dos builds no (N+1)² matrix, which would take
    # 7 TiB here: assembling it fails the test.  Against the closed forms,
    # with a = 1/(z + i*gamma - eps_a): G_00 = g_cc, G_0i = V a g_cc,
    # G_ii = a + V² a² g_cc, G_ij = V² a² g_cc for i != j, and
    # Tr G = g_cc + N a + N V² a² g_cc.
    def refuse(params):
        raise AssertionError(f"assembled the cavity of {params.n_molecules} molecules")

    monkeypatch.setattr(lattice, "assemble_cavity", refuse)
    monkeypatch.setattr(cli, "assemble_cavity", refuse)
    n = 10 ** 6
    ini = CAVITY_INI.replace("n_molecules = 6", f"n_molecules = {n}") + (
        "[output]\ncolumns = rho_total, rho_site_0, re_G_0_1, im_G_0_1, rho_site_7, "
        "re_G_7_999999, im_G_7_999999\n")
    out = tmp_path / "big.csv"
    assert run(tmp_path, ini, "dos", "--out", str(out)) == 0
    eta = json.loads((tmp_path / "big.summary.json").read_text())["grid"]["eta"]
    table = {name: np.array([float(x) for x in values])
             for name, values in read_columns(out).items()}
    assert table["omega"].size == 4001
    params = CavityParams(2.1, 2.1, 0.02, n, v_tilde=4.06e-14, number_density=1.16e25)
    w, v = table["omega"], params.coupling
    g = g_cc(params, w, eta)
    a = 1 / (w + 1j * eta + 1j * params.gamma - params.epsilon_a)
    pair = v * v * a * a * g
    want = {"rho_total": -(g + n * a + params.nv2 * a * a * g).imag / np.pi,
            "rho_site_0": -g.imag / np.pi, "re_G_0_1": (v * a * g).real,
            "im_G_0_1": (v * a * g).imag, "rho_site_7": -(a + pair).imag / np.pi,
            "re_G_7_999999": pair.real, "im_G_7_999999": pair.imag}
    for name, values in want.items():
        peak = np.abs(values).max()
        assert np.abs(table[name] - values).max() <= 1e-9 * peak, name


def test_cavity_closed_forms_run_at_a_million_molecules(tmp_path, monkeypatch):
    # cavity and the cavity sum-rules evaluate closed forms only; the dense
    # (N+1)² matrix would take 7 TiB here, so assembling it fails the test.
    def refuse(params):
        raise AssertionError(f"assembled the cavity of {params.n_molecules} molecules")

    monkeypatch.setattr(lattice, "assemble_cavity", refuse)
    monkeypatch.setattr(cli, "assemble_cavity", refuse)
    ini = CAVITY_INI.replace("n_molecules = 6", "n_molecules = 1000000")
    out = tmp_path / "big.csv"
    assert run(tmp_path, ini, "cavity", "--out", str(out), "--grid", "1.7:2.5:401") == 0
    params = CavityParams(2.1, 2.1, 0.02, 10 ** 6, v_tilde=4.06e-14, number_density=1.16e25)
    want = rho_c(params, SpectralGrid.uniform(1.7, 2.5, 401).omegas, 0.0)
    assert read_columns(out)["rho_c"] == ["%.12e" % v for v in want.tolist()]

    out = tmp_path / "big.json"
    assert run(tmp_path, ini, "sum-rules", "--out", str(out)) == 0
    assert json.loads(out.read_text())["all_passed"] is True


# ---------------------------------------------------------------- mc-compare

def test_mc_compare_is_bytewise_reproducible(tmp_path):
    ini = STAR_INI + "[ensemble]\nsamples = 400\nseed = 12\neta = 0.05\n"
    out = tmp_path / "mc.csv"
    args = ("mc-compare", "--out", str(out), "--grid=-3:3:9")
    assert run(tmp_path, ini, *args) == 0
    first_csv = out.read_bytes()
    first_json = (tmp_path / "mc.summary.json").read_bytes()
    assert run(tmp_path, ini, *args) == 0
    assert out.read_bytes() == first_csv
    assert (tmp_path / "mc.summary.json").read_bytes() == first_json

    summary = json.loads(first_json)
    assert summary["ensemble"] == {"samples": 400, "seed": 12,
                                   "distribution": "cauchy", "scale": 0.1,
                                   "eta": 0.05}
    assert summary["grid"]["eta"] == 0.05  # defaults to the ensemble eta
    assert 0.0 <= summary["fraction_within_3_stderr"] <= 1.0
    assert summary["max_deviation_stderr_units"] >= 0.0
    table = read_columns(out)
    assert set(table["element"]) == {f"G_{i}_{i}" for i in range(7)}
    assert len(table["omega"]) == 9 * 7


def test_mc_compare_flag_overrides_beat_config(tmp_path):
    ini = STAR_INI + "[ensemble]\nsamples = 400\nseed = 12\n"
    out = tmp_path / "mc.csv"
    assert run(tmp_path, ini, "mc-compare", "--out", str(out),
               "--grid=-1:1:5", "--samples", "37", "--seed", "9") == 0
    summary = json.loads((tmp_path / "mc.summary.json").read_text())
    assert summary["n_samples"] == 37
    assert summary["seed"] == 9


def test_mc_compare_cavity_z_scores_match_direct_solve(tmp_path):
    # The cavity state is undisordered: eigh realizations of the full
    # diagonal, and a reference from the engine's Woodbury correction,
    # recomputed here by the direct solve.
    ini = CAVITY_INI + "[ensemble]\nsamples = 200\nseed = 5\n"
    out = tmp_path / "mc.csv"
    assert run(tmp_path, ini, "mc-compare", "--out", str(out),
               "--grid", "1.9:2.3:21") == 0
    summary = json.loads((tmp_path / "mc.summary.json").read_text())

    spec = assemble_cavity(CavityParams(2.1, 2.1, 0.02, 6, v_tilde=4.06e-14,
                                        number_density=1.16e25))
    grid = SpectralGrid(np.linspace(1.9, 2.3, 21), eta=0.02)
    result = ensemble_average(
        spec, EnsembleConfig(200, 5, DisorderSpec("cauchy", 0.02), 0.02), grid)
    ref = solve_greens(spec, grid, result.elements)
    units_re = np.abs(result.mean_greens.real - ref.real) / result.stderr_re
    units_im = np.abs(result.mean_greens.imag - ref.imag) / result.stderr_im
    assert summary["max_deviation_stderr_units"] == pytest.approx(
        max(units_re.max(), units_im.max()), rel=1e-9)
    assert summary["fraction_within_3_stderr"] == pytest.approx(
        np.mean((units_re <= 3.0) & (units_im <= 3.0)), rel=1e-9)


def test_mc_compare_single_sample_summary_is_strict_json(tmp_path):
    # One sample has no standard error, so the worst deviation is undefined:
    # null in the summary, never the NaN token that JSON does not have.
    ini = STAR_INI + "[ensemble]\nsamples = 1\nseed = 3\n"
    assert run(tmp_path, ini, "mc-compare", "--out", str(tmp_path / "mc"),
               "--grid=-1:1:5") == 0

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    text = (tmp_path / "mc.summary.json").read_text()
    summary = json.loads(text, parse_constant=reject)
    assert summary["n_samples"] == 1
    assert summary["max_deviation_stderr_units"] is None


@pytest.mark.parametrize("grid_section, flags", [("", ["--eta", "0.3"]),
                                                 ("[grid]\neta = 0.3\n", [])],
                         ids=["flag", "config"])
def test_mc_compare_rejects_grid_eta_off_the_ensemble_eta(tmp_path, grid_section,
                                                          flags, capsys):
    ini = STAR_INI + "[ensemble]\nsamples = 10\n" + grid_section
    assert run(tmp_path, ini, "mc-compare", "--out", str(tmp_path / "mc"),
               "--grid=-1:1:5", *flags) == 3
    err = capsys.readouterr().err
    assert "0.02" in err and "0.3" in err
    assert not (tmp_path / "mc.csv").exists()


@pytest.mark.parametrize("command", ["dos", "cavity", "sum-rules"])
@pytest.mark.parametrize("flag", ["--seed", "--samples"])
def test_ensemble_flags_belong_to_mc_compare(tmp_path, command, flag):
    with pytest.raises(SystemExit) as info:
        run(tmp_path, CAVITY_INI, command, flag, "7")
    assert info.value.code == 2


# ----------------------------------------------------------------- sum-rules

def test_sum_rules_huckel_passes(tmp_path):
    out = tmp_path / "rules.json"
    assert run(tmp_path, STAR_INI, "sum-rules", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["all_passed"] is True
    (check,) = payload["checks"]
    assert check["name"] == "total_dos_norm"
    assert check["value"] == pytest.approx(7.0, abs=0.14)


def test_sum_rules_cavity_reports_band_deficit(tmp_path):
    # The [eps_a +- 5*gamma] band holds only -(2/pi)*atan(5) = -0.874 of the
    # -1 dip, whose full-line weight lies partly outside it, plus +0.027 of
    # polariton tails, so the band integral lands near -0.847.  The check's
    # target is that exact band weight, not the full-line -1.
    out = tmp_path / "rules.json"
    assert run(tmp_path, CAVITY_INI, "sum-rules", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name["rho_c_norm"]["passed"] is True
    assert by_name["rho_c_norm"]["value"] == pytest.approx(1.0, abs=0.02)
    band = by_name["delta_rho_m_band"]
    assert band["value"] == pytest.approx(-0.8473, abs=2e-3)
    assert band["target"] == pytest.approx(-0.8472555, abs=1e-6)
    assert band["passed"] is True
    wide = by_name["delta_rho_t_wide"]
    assert wide["passed"] is True
    assert payload["grid"]["delta_rho_t_eta"] == pytest.approx(0.01)
    assert payload["all_passed"] is True


def test_sum_rules_with_a_non_finite_curve_is_numerical_error(tmp_path, capsys, recwarn):
    # At eta = 1e-170, eta^2 underflows and delta_rho_t's bare line divides
    # by zero at omega = eps_c, the middle of the default window.  The run
    # exits 5, names the check and the frequency, prints no warning and
    # leaves an existing summary as it was.
    out = tmp_path / "rules.json"
    out.write_text("kept\n")
    assert run(tmp_path, CAVITY_INI, "sum-rules", "--out", str(out), "--eta", "1e-170") == 5
    err = capsys.readouterr().err
    assert "numerical error: sum rule delta_rho_t_wide is -inf at omega = 2.1" in err
    assert "Warning" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert out.read_text() == "kept\n"


# -------------------------------------------------------------- error paths

def test_missing_config_file_is_io_error(tmp_path):
    assert main(["dos", "--config", str(tmp_path / "absent.ini"),
                 "--quiet"]) == 4


def test_malformed_ini_is_config_error(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("kind = star\n")  # key before any section header
    assert main(["dos", "--config", str(cfg), "--quiet"]) == 3


def test_unknown_model_kind_is_config_error(tmp_path):
    assert run(tmp_path, "[model]\nkind = moebius\nn_sites = 4\ngamma = 0.1\n",
               "dos") == 3


def test_missing_required_key_is_config_error(tmp_path):
    assert run(tmp_path, "[model]\nkind = star\ngamma = 0.1\n", "dos") == 3


@pytest.mark.parametrize("eta", ["nan", "inf", "-0.1"])
def test_bad_eta_is_config_error(tmp_path, eta, capsys):
    assert run(tmp_path, STAR_INI, "dos", "--eta", eta) == 3
    assert "eta" in capsys.readouterr().err


@pytest.mark.parametrize("ini", [STAR_INI, CAVITY_INI], ids=["star", "cavity"])
def test_non_finite_gamma_is_config_error(tmp_path, ini, capsys):
    assert run(tmp_path, ini.replace("gamma = 0.1", "gamma = nan")
               .replace("gamma = 0.02", "gamma = nan"), "dos") == 3
    assert "gamma must be finite" in capsys.readouterr().err


def test_overflowing_coupling_is_config_error(tmp_path, capsys):
    ini = CAVITY_INI.replace("v_tilde = 4.06e-14\nnumber_density = 1.16e25\n",
                             "coupling = 1e200\n")
    assert run(tmp_path, ini, "cavity", "--out", str(tmp_path / "c")) == 3
    assert "collective coupling must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["mu_debye = 10.0", "epsilon_c = 2.1"])
def test_overflowing_dipole_or_detuning_is_config_error(tmp_path, capsys, line):
    # 1e200 overflows when absorption or polariton_poles squares it, so
    # CavityParams rejects it by name before either runs.
    field = line.split()[0]
    ini = (CAVITY_INI + "mu_debye = 10.0\n").replace(line, f"{field} = 1e200")
    assert run(tmp_path, ini, "cavity", "--out", str(tmp_path / "c")) == 3
    assert f"config error: {field}" in capsys.readouterr().err


def test_undisordered_resonance_at_zero_eta_is_numerical_error(tmp_path, capsys):
    # With no coupling the cavity state is an undisordered level at 2.1, and
    # eta = 0 probes it exactly on its pole: exit 5, not a traceback, and the
    # message names that frequency, also from inside a long frequency block.
    ini = ("[model]\nkind = cavity\nepsilon_c = 2.1\nepsilon_a = 2.1\n"
           "gamma = 0.02\nn_molecules = 6\ncoupling = 0\n")
    for grid in ("2.0:2.2:3", "1.5:2.1:601"):
        assert run(tmp_path, ini, "dos", "--out", str(tmp_path / "d"), "--eta", "0",
                   "--grid", grid) == 5
        err = capsys.readouterr().err
        assert "numerical error" in err and "omega = 2.1" in err


def test_non_finite_table_is_numerical_error_and_keeps_the_old_file(tmp_path, capsys,
                                                                    recwarn):
    # A dipole below CavityParams' overflow limit still overflows absorption
    # near the polaritons: the first inf of the default window's alpha_m2 is
    # in data row 1695.  The table is refused before either file is opened.
    ini = CAVITY_INI + "mu_debye = 1e164\n"
    (tmp_path / "c.csv").write_text("kept\n")
    assert run(tmp_path, ini, "cavity", "--out", str(tmp_path / "c")) == 5
    err = capsys.readouterr().err
    assert "numerical error: column alpha_m2 is inf in data row 1695 of 4001" in err
    assert (tmp_path / "c.csv").read_text() == "kept\n"
    assert not (tmp_path / "c.poles.json").exists()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert run(tmp_path, ini.replace("1e164", "1e163"), "cavity",
               "--out", str(tmp_path / "c")) == 0


@pytest.mark.parametrize("command, section", [("dos", ""), ("sum-rules", ""),
                                              ("mc-compare", "[ensemble]\nsamples = 20\n"),
                                              ("dos", "[grid]\nlo = -1\nhi = 1\nn = 5\n")],
                         ids=["dos", "sum-rules", "mc-compare", "dos-explicit-grid"])
def test_command_decomposes_h0_once(tmp_path, monkeypatch, command, section):
    # The default window and the engine share one eigh of h0; the
    # Monte-Carlo realizations' batched (3-d) eigh calls are not counted.
    calls = []

    def counted(solver):
        def wrapper(a, *args, **kwargs):
            if np.ndim(a) == 2:
                calls.append(solver.__name__)
            return solver(a, *args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
    assert run(tmp_path, STAR_INI + section, command, "--out", str(tmp_path / "d")) == 0
    assert calls == ["eigh"]


def test_non_finite_grid_bound_is_config_error(tmp_path, capsys, recwarn):
    # The window rejects it by name before numpy builds a grid from it.
    assert run(tmp_path, STAR_INI + "[grid]\nlo = -inf\nhi = 4\n", "dos") == 3
    assert "window lo must be finite" in capsys.readouterr().err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_grid_n_without_bounds_is_config_error(tmp_path, capsys):
    assert run(tmp_path, STAR_INI + "[grid]\nn = 77\n", "dos",
               "--out", str(tmp_path / "d")) == 3
    assert "[grid] n" in capsys.readouterr().err
    assert not (tmp_path / "d.csv").exists()


@pytest.mark.parametrize("command", ["dos", "mc-compare"])
@pytest.mark.parametrize("section, flags", [("", ["--grid=-1:1:5"]),
                                            ("[grid]\nlo = -1\nhi = 1\nn = 5\n", [])],
                         ids=["flag", "section"])
def test_explicit_grid_never_builds_the_default_window(tmp_path, monkeypatch, command,
                                                       section, flags):
    # The default window diagonalizes h0; a grid given in full replaces it.
    def unused(_):
        raise np.linalg.LinAlgError("default window built")

    monkeypatch.setattr(np.linalg, "eigvalsh", unused)
    ini = STAR_INI + "[ensemble]\nsamples = 20\nseed = 1\n" + section
    assert run(tmp_path, ini, command, "--out", str(tmp_path / "d"), *flags) == 0


@pytest.mark.parametrize("key", ["alpha", "beta"])
def test_non_finite_alpha_beta_is_config_error(tmp_path, key, capsys, recwarn):
    assert run(tmp_path, STAR_INI + f"{key} = inf\n", "dos") == 3
    assert f"{key} must be finite" in capsys.readouterr().err
    assert not recwarn.list


@pytest.mark.parametrize("command, ini, named", [
    ("dos", "[model]\nkind = custom\nn_sites = 3\ngamma = 0.1\nedges = 0-1-2\n",
     "[model] edges"),
    ("dos", "[model]\nkind = custom\nn_sites = 3\ngamma = 0.1\nedges = a-b\n",
     "[model] edges"),
    ("dos", "[model]\nkind = ring\nn_sites = seven\ngamma = 0.1\n", "[model] n_sites"),
    ("dos", STAR_INI + "[output]\ncolumns = ,\n", "[output] columns"),
    ("mc-compare", STAR_INI + "[ensemble]\ndistribution = lorentz\neta = 0.02\n",
     "[ensemble]"),
], ids=["three-ended-edge", "non-integer-edge", "word-count", "empty-columns",
        "unknown-law"])
def test_bad_config_value_is_config_error_naming_it(tmp_path, capsys, command, ini, named):
    assert run(tmp_path, ini, command, "--out", str(tmp_path / "x")) == 3
    assert named in capsys.readouterr().err
    assert not list(tmp_path.glob("x*"))


def test_bad_grid_flag_is_config_error(tmp_path):
    assert run(tmp_path, STAR_INI, "dos", "--grid", "0:1") == 3
    assert run(tmp_path, STAR_INI, "dos", "--grid", "0:one:5") == 3


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_parser_is_built_once_and_keeps_no_option_between_runs(tmp_path):
    # dos with --grid and --eta, mc-compare with --seed and --samples, then
    # dos with neither, in one process: each run writes the bytes a fresh
    # interpreter writes for the same arguments.
    assert cli.build_parser() is cli.build_parser()
    ini = tmp_path / "run.ini"
    ini.write_text(STAR_INI + "[ensemble]\nsamples = 300\nseed = 4\neta = 0.05\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    fresh = "import sys; from cauchygf.cli import main; sys.exit(main(sys.argv[1:]))"
    runs = [("dos", "--grid=-2:2:21", "--eta", "0.01"),
            ("mc-compare", "--grid=-2:2:9", "--seed", "7", "--samples", "50"),
            ("dos",)]
    for command, *flags in runs:
        base = tmp_path / command
        argv = [command, "--config", str(ini), "--out", str(base), "--quiet", *flags]
        artifacts = [tmp_path / f"{command}.csv", tmp_path / f"{command}.summary.json"]
        assert main(argv) == 0
        in_process = [path.read_bytes() for path in artifacts]
        subprocess.run([sys.executable, "-c", fresh, *argv], check=True, timeout=120,
                       env={**os.environ, "PYTHONPATH": src})
        assert [path.read_bytes() for path in artifacts] == in_process


# Per command: its INI, its flags, and the artifacts it writes for each --out
# form, in the order of its "wrote" lines.  No extension or .json gives the
# CSV .csv, another extension is kept, and the JSON takes the stem plus the
# command's suffix; with no --out the stem is the command's name.
ARTIFACT_RUNS = {
    "dos": (STAR_INI, ["--grid=-1:1:3"], {
        None: ["dos.csv", "dos.summary.json"],
        "x": ["x.csv", "x.summary.json"],
        "x.csv": ["x.csv", "x.summary.json"],
        "x.json": ["x.csv", "x.summary.json"],
        "x.txt": ["x.txt", "x.summary.json"]}),
    "cavity": (CAVITY_INI, ["--grid", "1.7:2.5:5"], {
        None: ["cavity.csv", "cavity.poles.json"],
        "x": ["x.csv", "x.poles.json"],
        "x.csv": ["x.csv", "x.poles.json"],
        "x.json": ["x.csv", "x.poles.json"],
        "x.txt": ["x.txt", "x.poles.json"]}),
    "mc-compare": (STAR_INI + "[ensemble]\nsamples = 20\n", ["--grid=-1:1:3"], {
        None: ["mc-compare.csv", "mc-compare.summary.json"],
        "x": ["x.csv", "x.summary.json"],
        "x.csv": ["x.csv", "x.summary.json"],
        "x.json": ["x.csv", "x.summary.json"],
        "x.txt": ["x.txt", "x.summary.json"]}),
    "sum-rules": (STAR_INI, [], {
        None: ["sum-rules.json"],
        "x": ["x.json"],
        "x.csv": ["x.json"],
        "x.json": ["x.json"],
        "x.txt": ["x.json"]}),
}


def test_default_artifact_names_and_progress_lines(tmp_path, monkeypatch, capsys):
    # Every command and --out form writes exactly its artifacts, prints one
    # "wrote" line for each in order, and its JSON names the CSV it wrote.
    for command, (ini, flags, forms) in ARTIFACT_RUNS.items():
        for out, artifacts in forms.items():
            case = tmp_path / f"{command}-{out}"
            case.mkdir()
            (case / "run.ini").write_text(ini)
            monkeypatch.chdir(case)
            argv = [command, "--config", "run.ini", *flags] + (["--out", out] if out else [])
            assert main(argv) == 0, (command, out)
            assert capsys.readouterr().out == "".join(f"wrote {a}\n" for a in artifacts)
            assert sorted(os.listdir(case)) == sorted(artifacts + ["run.ini"])
            summary = json.loads((case / artifacts[-1]).read_text())
            assert summary["command"] == command
            csv_name = artifacts[0] if len(artifacts) == 2 else None
            assert summary.get("artifacts") == (csv_name and {"csv": csv_name}), (command, out)


NUMPY_MEMORY_ERROR = ("Unable to allocate 7.28 TiB for an array with shape "
                      "(1000001, 1000001) and data type float64")


@pytest.mark.parametrize("message, reported", [
    (NUMPY_MEMORY_ERROR, NUMPY_MEMORY_ERROR),
    ("", "MemoryError"),  # Python's own allocator gives no message
], ids=["mc-compare", "bare"])
def test_model_too_large_for_memory_is_numerical_error(tmp_path, monkeypatch, capsys,
                                                       message, reported):
    # mc-compare's realizations need the dense matrix, which for a million
    # molecules would take 7.28 TiB; the stand-in raises the error for it
    # without allocating anything.
    def refuse(params):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "assemble_cavity", refuse)
    ini = CAVITY_INI.replace("n_molecules = 6", "n_molecules = 1000000")
    assert run(tmp_path, ini, "mc-compare", "--out", str(tmp_path / "big")) == 5
    assert capsys.readouterr().err == f"numerical error: {reported}\n"
    assert sorted(os.listdir(tmp_path)) == ["run.ini"]

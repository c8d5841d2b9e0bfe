"""End-to-end acceptance runs.

Each test prints one verdict line (to the real stdout, so it survives pytest
capture) and then asserts it.  The Monte-Carlo criteria use pinned seeds and
take about a minute together; everything else is instant.
"""

import math

import numpy as np
import pytest

from cauchygf.cavity import (CavityParams, delta_rho_m, delta_rho_t, g_cc,
                             polariton_poles, rho_c)
from cauchygf.cli import main
from cauchygf.engine import SpectralGrid, averaged_greens, diagonalize
from cauchygf.lattice import (DisorderSpec, HamiltonianSpec, assemble_cavity,
                              assemble_huckel, build_topology)
from cauchygf.montecarlo import EnsembleConfig, ensemble_average
from cauchygf.quadrature import (auto_window, estimate_peak_width,
                                 integrate_trapezoid)
from oracles import find_peaks, solve_greens

SEED = 20240817

BULK = dict(epsilon_c=2.1, epsilon_a=2.1, gamma=0.02, n_molecules=6,
            v_tilde=4.06e-14, number_density=1.16e25)


@pytest.fixture(name="verdict")
def verdict_fixture(capsys):
    """One always-visible pass/fail line per criterion, then the assert."""

    def _verdict(num, label, ok, detail):
        state = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"criterion {num} ({label}): {state} - {detail}", flush=True)
        assert ok, f"criterion {num}: {detail}"

    return _verdict


def _graphs_under_test():
    yield "chain(5)", assemble_huckel(build_topology("chain", 5), 0.0, 1.0, 0.1)
    yield "star(7)", assemble_huckel(build_topology("star", 7), 0.0, 1.0, 0.1)
    yield "ring(6)", assemble_huckel(build_topology("ring", 6), 0.0, 1.0, 0.1)
    yield "cavity(N=6)", assemble_cavity(
        CavityParams(0.0, 0.0, 0.1, 6, coupling=1.0))


def test_criterion_1_exactness_theorem(verdict):
    # Monte-Carlo means over 1e5 Cauchy realizations agree with the
    # deterministic -i*gamma engine within 3 standard errors (both
    # components) in >= 99% of (omega, element) cells, per graph.
    grid = SpectralGrid(np.linspace(-4, 4, 201), eta=0.02)
    conf = EnsembleConfig(100_000, SEED, DisorderSpec("cauchy", 0.1), 0.02)
    fractions = {}
    for name, spec in _graphs_under_test():
        result = ensemble_average(spec, conf, grid)
        reference = averaged_greens(spec, grid, result.elements)
        ok_re = np.abs(result.mean_greens.real - reference.real) \
            <= 3 * result.stderr_re
        ok_im = np.abs(result.mean_greens.imag - reference.imag) \
            <= 3 * result.stderr_im
        fractions[name] = float(np.mean(ok_re & ok_im))
    detail = ", ".join(f"{k}: {v:.4f}" for k, v in fractions.items()) \
        + " within 3 stderr (target >= 0.99; seed fixed)"
    verdict(1, "exactness theorem", min(fractions.values()) >= 0.99, detail)


def test_criterion_2_cavity_pole_regression(verdict):
    params = CavityParams(**BULK)
    poles = polariton_poles(params)
    # Independent oracle: numpy's quadratic root finder on the resolvent
    # denominator (w - eps_c)(w - eps_a + i*gamma) - NV2.
    roots = sorted(np.roots(
        [1.0, -(params.epsilon_c + params.epsilon_a - 1j * params.gamma),
         params.epsilon_c * (params.epsilon_a - 1j * params.gamma) - params.nv2]),
        key=lambda z: z.real)
    oracle_ok = (abs(poles.eps_minus - roots[0]) < 1e-12
                 and abs(poles.eps_plus - roots[1]) < 1e-12)
    re_ok = (abs(poles.eps_minus.real - (2.1 - 0.1383)) < 1e-3
             and abs(poles.eps_plus.real - (2.1 + 0.1383)) < 1e-3)
    # Strong-coupling width limit: Im eps_+- -> -gamma/2 within 1% once
    # NV2/gamma^2 >= 1e4.
    width_ok = True
    for ratio in (1e4, 1e6):
        strong = CavityParams(2.1, 2.1, 0.02, 6,
                              coupling=math.sqrt(ratio * 0.02 ** 2 / 6))
        p = polariton_poles(strong)
        for im in (p.eps_plus.imag, p.eps_minus.imag):
            width_ok &= abs(im + 0.01) <= 0.01 * 0.01
    verdict(2, "cavity pole regression", oracle_ok and re_ok and width_ok,
             f"Re eps_+- = 2.1 -+ {abs(poles.eps_minus.real - 2.1):.6f} "
             f"(expect 0.1383 +- 1e-3), quadratic-oracle match: {oracle_ok}, "
             f"Im -> -gamma/2 within 1%: {width_ok}")


def test_criterion_3_sum_rules(verdict):
    params = CavityParams(**BULK)
    poles = polariton_poles(params)
    wide = auto_window([poles.eps_plus, poles.eps_minus], params.gamma,
                       n_points=40001).omegas

    area_c = integrate_trapezoid(wide, rho_c(params, wide))
    a_ok = abs(area_c - 1.0) <= 0.02

    # Independent oracle for the Delta rho_M band: partial fractions of
    # NV2/((w - eps~_a)(w - eps_+)(w - eps_-)), poles from numpy's root finder
    # as in criterion 2.  The eps~_a residue is the -1 dip over the whole
    # line; the band [eps_a +- 5*gamma] holds only part of it plus some
    # polariton tail weight, and the trapezoid must reproduce that sum.
    a, b = 2.0, 2.2
    eps_a = params.epsilon_a - 1j * params.gamma
    poles_q = np.concatenate(([eps_a], np.roots(
        [1.0, -(params.epsilon_c + eps_a),
         params.epsilon_c * eps_a - params.nv2])))
    residues = np.array([params.nv2 / np.prod(np.delete(q - poles_q, k))
                         for k, q in enumerate(poles_q)])
    shares = -(residues * (np.log(b - poles_q) - np.log(a - poles_q))).imag \
        / np.pi
    exact_m = float(shares.sum())
    dip_ok = abs(residues[0] - (-1.0)) <= 1e-12

    band = np.linspace(a, b, 4001)
    area_m = integrate_trapezoid(band, delta_rho_m(params, band))
    err_m = abs(area_m - exact_m)
    b_ok = dip_ok and err_m <= 1e-4

    area_t = integrate_trapezoid(wide, delta_rho_t(params, wide, eta=0.01))
    c_ok = abs(area_t) <= 0.05

    verdict(3, "sum rules", a_ok and b_ok and c_ok,
             f"rho_c integral = {area_c:.5f} (1 +- 0.02: {a_ok}); "
             f"delta_rho_m band [2.0, 2.2] = {area_m:.5f} against exact "
             f"{exact_m:.7f} = dip {shares[0]:.6f} (residue -1: {dip_ok}) "
             f"+ polaritons {shares[1:].sum():+.6f}, error {err_m:.1e} "
             f"(<= 1e-4: {b_ok}); "
             f"delta_rho_t wide = {area_t:.5f} (0 +- 0.05: {c_ok})")


def _total_dos_peaks(kind, n_sites, gamma=0.1):
    spec = assemble_huckel(build_topology(kind, n_sites), 0.0, 1.0, gamma)
    grid = auto_window(diagonalize(spec)[0], gamma)
    diagonal = averaged_greens(spec, grid, [(i, i) for i in range(n_sites)])
    rho = -diagonal.imag.sum(axis=1) / np.pi
    return grid, find_peaks(grid.omegas, rho)


def test_criterion_4_star_and_hexagon_lineshapes(verdict):
    grid, star_peaks = _total_dos_peaks("star", 7)
    tol = 2 * (grid.omegas[1] - grid.omegas[0])
    star_pos_ok = (len(star_peaks) == 3
                   and abs(star_peaks[0][0] + math.sqrt(6)) < tol
                   and abs(star_peaks[1][0]) < tol
                   and abs(star_peaks[2][0] - math.sqrt(6)) < tol)
    star_ratio = star_peaks[1][1] / star_peaks[2][1] if star_pos_ok \
        else float("nan")
    star_ok = star_pos_ok and abs(star_ratio - 5.0) <= 0.2

    grid, hex_peaks = _total_dos_peaks("ring", 6)
    tol = 2 * (grid.omegas[1] - grid.omegas[0])
    hex_pos_ok = (len(hex_peaks) == 4
                  and all(abs(p[0] - want) < tol for p, want in
                          zip(hex_peaks, (-2.0, -1.0, 1.0, 2.0))))
    hex_ratio = hex_peaks[2][1] / hex_peaks[3][1] if hex_pos_ok \
        else float("nan")
    hex_ok = hex_pos_ok and abs(hex_ratio - 2.0) <= 0.1

    verdict(4, "star/hexagon line shapes", star_ok and hex_ok,
             f"star(7): {len(star_peaks)} peaks at -sqrt6/0/+sqrt6, "
             f"center/side = {star_ratio:.3f} (5 +- 0.2); "
             f"hexagon: {len(hex_peaks)} peaks at -+1, -+2, "
             f"inner/outer = {hex_ratio:.3f} (2 +- 0.1)")


def test_criterion_5_width_vs_distribution(verdict):
    # Polariton FWHM vs collective coupling at fixed disorder scale 0.02 and
    # eta = 0.002, over a decade of NV2 realized as N in {8, 25, 80} at fixed
    # per-molecule V = 0.1/sqrt(8).  Cauchy: constant within 10%; Gaussian:
    # strictly decreasing (motional narrowing ~ 1/sqrt(N)); Uniform: strictly
    # decreasing toward the eta floor (FWHM -> 2*eta as the intrinsic width
    # collapses).
    v = 0.1 / math.sqrt(8)
    eta = 0.002
    widths = {}
    for law in ("cauchy", "gaussian", "uniform"):
        conf = EnsembleConfig(12_000, SEED, DisorderSpec(law, 0.02), eta)
        per_n = []
        for n in (8, 25, 80):
            spec = assemble_cavity(CavityParams(0.0, 0.0, 0.02, n, coupling=v))
            center = math.sqrt(n) * v
            grid = SpectralGrid(np.linspace(center - 0.04, center + 0.04, 601),
                                eta)
            result = ensemble_average(spec, conf, grid, elements=[(0, 0)])
            rho = -result.mean_greens[:, 0].imag / np.pi
            per_n.append(estimate_peak_width(
                grid.omegas, rho, (center - 0.04, center + 0.04)))
        widths[law] = per_n

    cauchy_ok = max(widths["cauchy"]) / min(widths["cauchy"]) <= 1.10
    gauss_ok = widths["gaussian"][0] > widths["gaussian"][1] > widths["gaussian"][2]
    floor = 2 * eta
    uniform_ok = (widths["uniform"][0] > widths["uniform"][1]
                  > widths["uniform"][2]
                  and widths["uniform"][2] <= 1.5 * floor)
    fmt = {k: "/".join(f"{w:.5f}" for w in v) for k, v in widths.items()}
    verdict(5, "width vs disorder law", cauchy_ok and gauss_ok and uniform_ok,
             f"FWHM over NV2 decade: cauchy {fmt['cauchy']} (const within "
             f"10%: {cauchy_ok}), gaussian {fmt['gaussian']} (decreasing: "
             f"{gauss_ok}), uniform {fmt['uniform']} (decreasing to eta "
             f"floor {floor}: {uniform_ok}; seed fixed)")


def test_criterion_6_oracle_equivalence(verdict):
    rng = np.random.default_rng(SEED)
    worst_matrix = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 21))
        h = rng.standard_normal((n, n))
        spec = HamiltonianSpec((h + h.T) / 2, gamma=0.1)
        grid = SpectralGrid(np.linspace(-5, 5, 21), eta=0.01)
        worst_matrix = max(worst_matrix, np.abs(
            averaged_greens(spec, grid) - solve_greens(spec, grid)).max())
    # One partial mask beside the uniform ones: the Woodbury correction
    # restores the undisordered sites.
    n = int(rng.integers(2, 21))
    h = rng.standard_normal((n, n))
    mask = rng.random(n) < 0.5
    mask[:2] = False, True  # at least one site of each kind
    spec = HamiltonianSpec((h + h.T) / 2, gamma=0.1, disordered=mask)
    worst_matrix = max(worst_matrix, np.abs(
        averaged_greens(spec, grid) - solve_greens(spec, grid)).max())

    worst_gcc = 0.0
    for n in (1, 6, 50):
        params = CavityParams(2.0, 2.3, 0.05, n, coupling=0.3 / math.sqrt(n))
        poles = polariton_poles(params)
        window = auto_window([poles.eps_plus, poles.eps_minus], params.gamma,
                             n_points=4001)
        grid = SpectralGrid(window.omegas, eta=0.01)
        closed = g_cc(params, grid.omegas, eta=0.01)
        engine = averaged_greens(assemble_cavity(params), grid, [(0, 0)])[:, 0]
        worst_gcc = max(worst_gcc, np.abs(closed - engine).max())

    verdict(6, "oracle equivalence",
             worst_matrix <= 1e-10 and worst_gcc <= 1e-9,
             f"engine vs direct solve, 10 random symmetric N<=20 plus one "
             f"partial mask: worst {worst_matrix:.3e} (<= 1e-10); closed g_cc "
             f"vs engine, "
             f"N in {{1, 6, 50}}: worst {worst_gcc:.3e} (<= 1e-9)")


def test_criterion_7_byte_reproducibility(tmp_path, verdict):
    star_ini = "[model]\nkind = star\nn_sites = 7\ngamma = 0.1\n"
    cavity_ini = ("[model]\nkind = cavity\nepsilon_c = 2.1\nepsilon_a = 2.1\n"
                  "gamma = 0.02\nn_molecules = 6\nv_tilde = 4.06e-14\n"
                  "number_density = 1.16e25\nmu_debye = 10.0\n")
    runs = [
        ("dos", star_ini, ["--grid=-3:3:41"], ["dos.csv", "dos.summary.json"]),
        ("cavity", cavity_ini, ["--grid", "1.7:2.5:65"],
         ["cavity.csv", "cavity.poles.json"]),
        ("mc-compare", star_ini + "[ensemble]\nsamples = 300\nseed = 12\n",
         ["--grid=-3:3:9"], ["mc.csv", "mc.summary.json"]),
        ("sum-rules", cavity_ini, [], ["rules.json"]),
    ]
    identical = True
    for command, ini, flags, artifacts in runs:
        cfg = tmp_path / f"{command}.ini"
        cfg.write_text(ini)
        base = artifacts[0].split(".")[0]
        argv = [command, "--config", str(cfg), "--quiet",
                "--out", str(tmp_path / base), *flags]
        assert main(argv) == 0
        snapshot = {a: (tmp_path / a).read_bytes() for a in artifacts}
        assert main(argv) == 0
        identical &= all((tmp_path / a).read_bytes() == snapshot[a]
                         for a in artifacts)
    verdict(7, "byte reproducibility", identical,
             "dos, cavity, mc-compare (fixed seed), sum-rules each rewrote "
             "byte-identical artifacts on a second run")

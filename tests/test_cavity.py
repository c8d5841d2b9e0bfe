import math

import numpy as np
import pytest
import scipy.constants
from scipy.integrate import quad

from cauchygf.cavity import (CavityParams, absorption, band_weight,
                             delta_rho_m, delta_rho_t, g_cc, g_mol_mol,
                             polariton_poles, rho_c, self_energy)
from cauchygf.engine import SpectralGrid
from cauchygf.errors import InvalidCoupling, MissingDipole
from cauchygf.lattice import assemble_cavity
from cauchygf.quadrature import auto_window, integrate_trapezoid
from oracles import find_peaks, solve_greens

# Bulk-route constants used throughout: N*V^2 = density * v_tilde^2 ~ 0.0191 eV^2.
DENSITY = 1.16e25
V_TILDE = 4.06e-14
NV2 = DENSITY * V_TILDE ** 2


def resonant(gamma=0.02, n=6, **extra):
    return CavityParams(2.1, 2.1, gamma, n, v_tilde=V_TILDE,
                        number_density=DENSITY, **extra)


def uncoupled(gamma=0.02, **extra):
    return CavityParams(2.1, 2.1, gamma, 6, coupling=0.0, **extra)


# --------------------------------------------------------------- parameters

@pytest.mark.parametrize("field", ["epsilon_c", "epsilon_a", "gamma", "mu_debye",
                                   "v_tilde", "number_density", "coupling", "volume"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_params_reject_non_finite_field_by_name(field, value):
    values = dict(epsilon_c=2.1, epsilon_a=2.1, gamma=0.02, mu_debye=10.0, coupling=0.05)
    values[field] = value
    with pytest.raises(ValueError, match=field):
        CavityParams(n_molecules=6, **values)


@pytest.mark.parametrize("route", [dict(coupling=1e200),
                                   dict(number_density=1e300, v_tilde=1e200),
                                   dict(v_tilde=1e300, volume=1e-300)],
                         ids=["coupling", "bulk", "volume"])
def test_params_reject_overflowing_collective_coupling(route):
    # Finite inputs whose N*V^2 overflows: InvalidCoupling, not OverflowError.
    with pytest.raises(InvalidCoupling, match="collective coupling must be finite"):
        CavityParams(2.1, 2.1, 0.02, 6, **route)


# -------------------------------------------------------------- self-energy

def test_self_energy_at_resonance_is_pure_damping():
    p = resonant()
    assert self_energy(p, 2.1) == pytest.approx(-1j * NV2 / 0.02, rel=1e-14)


def test_self_energy_vanishes_without_coupling():
    assert self_energy(uncoupled(), 1.7) == 0


def test_self_energy_imag_negative_on_real_axis():
    sigma = self_energy(resonant(), np.linspace(-1, 5, 301))
    assert np.all(sigma.imag < 0)


def test_bulk_coupling_arithmetic():
    assert resonant().nv2 == pytest.approx(0.0191210, rel=1e-4)
    assert resonant().nv2 == pytest.approx(NV2, rel=1e-15)


# -------------------------------------------------------------------- g_cc

def test_gcc_uncoupled_is_bare_cavity_pole():
    w = np.linspace(1.0, 3.0, 11)
    assert np.allclose(g_cc(uncoupled(), w, eta=0.05),
                       1 / (w + 0.05j - 2.1), atol=1e-15)


@pytest.mark.parametrize("n", [1, 6, 50])
def test_gcc_matches_matrix_resolvent(n):
    p = CavityParams(2.0, 2.3, 0.05, n, coupling=0.4 / math.sqrt(n))
    omegas = np.unique(np.random.default_rng(n).uniform(0.0, 4.0, 100))
    grid = SpectralGrid(omegas, eta=0.013)
    closed = g_cc(p, omegas, eta=0.013)
    solved = solve_greens(assemble_cavity(p), grid, elements=[(0, 0)])[:, 0]
    assert np.abs(solved - closed).max() < 1e-9


# -------------------------------------------------------------------- poles

def test_pole_sum_and_product_identities():
    for p in (resonant(), CavityParams(1.9, 2.4, 0.11, 3, coupling=0.25)):
        poles = polariton_poles(p)
        s = poles.eps_plus + poles.eps_minus
        prod = poles.eps_plus * poles.eps_minus
        assert s == pytest.approx(p.epsilon_a + p.epsilon_c - 1j * p.gamma,
                                  abs=1e-12)
        assert prod == pytest.approx(
            p.epsilon_c * (p.epsilon_a - 1j * p.gamma) - p.nv2, abs=1e-12)


def test_poles_against_quadratic_root_finder():
    p = CavityParams(2.05, 2.35, 0.08, 12, coupling=0.09)
    roots = np.roots([1.0,
                      -(p.epsilon_c + p.epsilon_a - 1j * p.gamma),
                      p.epsilon_c * (p.epsilon_a - 1j * p.gamma) - p.nv2])
    got = polariton_poles(p)
    assert sorted([got.eps_plus, got.eps_minus], key=lambda z: z.real) == \
        pytest.approx(sorted(roots, key=lambda z: z.real), abs=1e-12)


def test_resonant_poles_limit_to_plus_minus_collective_coupling():
    p = CavityParams(2.1, 2.1, 1e-12, 6, v_tilde=V_TILDE, number_density=DENSITY)
    got = polariton_poles(p)
    assert got.eps_plus == pytest.approx(2.1 + math.sqrt(NV2), abs=1e-9)
    assert got.eps_minus == pytest.approx(2.1 - math.sqrt(NV2), abs=1e-9)


def test_pole_positions_at_bulk_benchmark_parameters():
    got = polariton_poles(resonant(gamma=0.02))
    offset = math.sqrt(NV2 - 0.0001)  # sqrt(NV2 - (gamma/2)^2)
    assert got.eps_plus == pytest.approx(2.1 + offset - 0.01j, abs=1e-12)
    assert got.eps_minus == pytest.approx(2.1 - offset - 0.01j, abs=1e-12)
    assert got.rabi_splitting == pytest.approx(2 * offset, rel=1e-12)


@pytest.mark.parametrize("eps_c, eps_a", [(2.1, 2.1), (2.0, 2.4), (2.4, 2.0)])
def test_plus_label_has_larger_real_part(eps_c, eps_a):
    got = polariton_poles(CavityParams(eps_c, eps_a, 0.05, 4, coupling=0.2))
    assert got.eps_plus.real >= got.eps_minus.real


def test_splitting_closes_as_damping_grows():
    gammas = [0.02, 0.1, 0.2, 0.28, 1.0, 10.0]
    splittings = [polariton_poles(resonant(gamma=g)).rabi_splitting
                  for g in gammas]
    assert all(a >= b - 1e-15 for a, b in zip(splittings, splittings[1:]))
    assert splittings[0] > 0.25          # well-split polaritons
    assert splittings[-1] == pytest.approx(0.0, abs=1e-12)  # overdamped


# -------------------------------------------------------------------- rho_c

def test_rho_c_nonnegative_and_unit_area():
    p = resonant()
    half = 6 * math.sqrt(NV2) + 40 * p.gamma
    omegas = np.linspace(2.1 - half, 2.1 + half, 40001)
    curve = rho_c(p, omegas)
    assert curve.min() >= 0
    area = integrate_trapezoid(omegas, curve)
    assert area == pytest.approx(1.0, abs=0.02)
    oracle, _ = quad(lambda w: rho_c(p, w), omegas[0], omegas[-1],
                     limit=400)
    assert area == pytest.approx(oracle, abs=1e-6)


def test_rho_c_gamma_family_two_equal_peaks_broadening():
    # At resonance the spectrum splits into two polariton lines of equal
    # area; raising gamma broadens both (lower, wider peaks) without moving
    # the split point.
    w = np.linspace(1.5, 2.7, 6001)
    mid = np.abs(w - 2.1).argmin()
    last_height = np.inf
    for gamma in (0.005, 0.02, 0.05):
        curve = rho_c(resonant(gamma=gamma), w)
        peaks = find_peaks(w, curve)
        assert len(peaks) == 2
        left = integrate_trapezoid(w[:mid + 1], curve[:mid + 1])
        right = integrate_trapezoid(w[mid:], curve[mid:])
        assert left == pytest.approx(right, rel=1e-9)  # resonant symmetry
        assert peaks[0][1] == pytest.approx(peaks[1][1], rel=1e-6)
        assert peaks[0][1] < last_height
        last_height = peaks[0][1]


def test_rho_c_uncoupled_is_eta_lorentzian():
    w = np.linspace(1.5, 2.7, 501)
    got = rho_c(uncoupled(), w, eta=0.04)
    want = (0.04 / np.pi) / ((w - 2.1) ** 2 + 0.04 ** 2)
    assert np.allclose(got, want, atol=1e-14)


# --------------------------------------------------------------- g_mol_mol

def test_gmm_uncoupled_is_broadened_molecular_pole():
    w = np.linspace(1.0, 3.0, 11)
    assert np.allclose(g_mol_mol(uncoupled(), w, eta=0.01),
                       1 / (w + 0.03j - 2.1), atol=1e-15)


def test_gmm_self_energy_identity():
    p = CavityParams(2.2, 1.9, 0.03, 8, coupling=0.11)
    w = np.linspace(1.0, 3.2, 57)
    lhs = g_mol_mol(p, w, eta=0.02)
    rhs = (w + 0.02j - p.epsilon_c) * g_cc(p, w, eta=0.02) \
        * self_energy(p, w, eta=0.02) / p.nv2
    assert np.allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("n", [1, 5, 24])
def test_gmm_is_molecule_block_average_of_matrix(n):
    p = CavityParams(2.0, 2.25, 0.06, n, coupling=0.3 / math.sqrt(n))
    grid = SpectralGrid(np.linspace(1.2, 3.1, 41), eta=0.015)
    closed = g_mol_mol(p, grid.omegas, eta=0.015)
    matrices = solve_greens(assemble_cavity(p), grid).reshape(-1, n + 1, n + 1)
    block_average = matrices[:, 1:, 1:].sum(axis=(1, 2)) / n
    assert np.abs(block_average - closed).max() < 1e-10


@pytest.mark.parametrize("p", [
    resonant(),
    CavityParams(2.0, 2.25, 0.06, 5, coupling=0.3 / math.sqrt(5)),
], ids=["bulk-resonant", "detuned"])
def test_delta_rho_m_is_molecule_block_trace_change_of_matrix(p):
    # Delta rho_M = -Im[Tr G_MM - N/(z - eps~_a)]/pi: the molecular block's
    # trace minus that of N uncoupled, Cauchy-broadened molecular lines.
    grid = SpectralGrid(np.linspace(1.8, 2.4, 121), eta=0.01)
    closed = delta_rho_m(p, grid.omegas, eta=0.01)
    bare = p.n_molecules / (grid.omegas + 0.01j + 1j * p.gamma - p.epsilon_a)
    molecules = [(m, m) for m in range(1, p.n_molecules + 1)]
    change = solve_greens(assemble_cavity(p), grid, molecules).sum(axis=1) - bare
    assert np.abs(-change.imag / np.pi - closed).max() < 1e-10


# -------------------------------------------------------------- delta_rho_m

def test_delta_rho_m_zero_without_coupling():
    assert np.all(delta_rho_m(uncoupled(), np.linspace(1, 3, 99)) == 0)


def test_delta_rho_m_dips_at_molecular_line():
    p = resonant()
    w = np.linspace(1.6, 2.6, 2001)
    curve = delta_rho_m(p, w)
    assert curve[np.abs(w - 2.1).argmin()] < 0
    assert w[curve.argmin()] == pytest.approx(2.1, abs=2e-3)
    assert curve.max() > 0  # flanking polariton peaks


def test_delta_rho_m_quadrature_against_adaptive_oracle():
    p = resonant()
    w = np.linspace(2.0, 2.2, 4001)
    area = integrate_trapezoid(w, delta_rho_m(p, w))
    oracle, _ = quad(lambda x: delta_rho_m(p, x), 2.0, 2.2, limit=400,
                     points=[2.1])
    assert area == pytest.approx(oracle, abs=1e-7)


def test_delta_rho_m_integrates_to_zero_over_the_full_line():
    # The promoted molecular state reappears inside the polariton peaks, so
    # the net change of *molecular* weight over the whole axis vanishes.
    p = resonant()
    half = 6 * math.sqrt(NV2) + 40 * p.gamma
    w = np.linspace(2.1 - half, 2.1 + half, 40001)
    assert integrate_trapezoid(w, delta_rho_m(p, w)) == pytest.approx(
        0.0, abs=1e-3)


@pytest.mark.parametrize("p, eta", [
    (resonant(), 0.0),
    (resonant(), 0.01),
    (CavityParams(2.2, 1.9, 0.03, 8, coupling=0.11), 0.02),
    # NV2 = gamma^2/4 at resonance: eps_+ = eps_-, a double pole.
    (CavityParams(2.1, 2.1, 0.04, 4, coupling=0.01), 0.0),
], ids=["resonant", "resonant-eta", "detuned-eta", "exceptional-point"])
def test_band_weight_against_adaptive_oracle(p, eta):
    oracle, _ = quad(lambda x: delta_rho_m(p, x, eta), 1.95, 2.3, limit=400,
                     points=[p.epsilon_a, p.epsilon_c], epsabs=1e-12)
    assert band_weight(p, 1.95, 2.3, eta) == pytest.approx(oracle, abs=1e-9)


def test_band_weight_tends_to_zero_over_the_full_line():
    assert band_weight(resonant(), -1e6, 1e6) == pytest.approx(0.0, abs=1e-6)


def test_band_weight_zero_without_coupling():
    assert band_weight(uncoupled(), 2.0, 2.2) == 0.0


# -------------------------------------------------------------- delta_rho_t

def test_delta_rho_t_at_zero_eta_is_plain_sum():
    p = resonant()
    w = np.linspace(1.5, 2.7, 301)
    assert np.array_equal(delta_rho_t(p, w),
                          rho_c(p, w) + delta_rho_m(p, w))


def test_delta_rho_t_wide_integral_vanishes_at_positive_eta():
    p = resonant()
    half = 6 * math.sqrt(NV2) + 40 * p.gamma
    w = np.linspace(2.1 - half, 2.1 + half, 40001)
    net = integrate_trapezoid(w, delta_rho_t(p, w, eta=0.01))
    assert net == pytest.approx(0.0, abs=0.05)
    # Without the bare-line subtraction the same window holds ~one full state.
    gross = integrate_trapezoid(w, rho_c(p, w, eta=0.01)
                                + delta_rho_m(p, w, eta=0.01))
    assert gross == pytest.approx(1.0, abs=0.05)


def test_delta_rho_t_uncoupled_cancels_exactly():
    w = np.linspace(1.5, 2.7, 301)
    assert np.abs(delta_rho_t(uncoupled(), w, eta=0.02)).max() < 1e-13


# --------------------------------------------------------------- absorption

def test_absorption_needs_a_dipole():
    with pytest.raises(MissingDipole):
        absorption(resonant(), np.array([2.1]))


def test_absorption_zero_dipole_zero_signal():
    assert np.all(absorption(resonant(mu_debye=0.0), np.linspace(1, 3, 7)) == 0)


def test_absorption_peaks_sit_on_the_polariton_poles():
    # On the default auto-widened grid the residual skew of the absorption
    # maxima (the omega prefactor plus overlapping tails, ~4e-4 here) stays
    # below one grid step.
    p = resonant(mu_debye=10.0)
    poles = polariton_poles(p)
    w = auto_window([poles.eps_plus, poles.eps_minus], p.gamma).omegas
    peaks = find_peaks(w, absorption(p, w))
    assert len(peaks) == 2
    step = w[1] - w[0]
    assert peaks[0][0] == pytest.approx(poles.eps_minus.real, abs=step)
    assert peaks[1][0] == pytest.approx(poles.eps_plus.real, abs=step)


def test_absorption_nonnegative_across_polariton_window():
    p = resonant(mu_debye=10.0)
    assert absorption(p, np.linspace(1.7, 2.5, 2001)).min() >= 0


def test_absorption_scales_with_molecule_count_times_dipole_squared():
    w = np.linspace(1.8, 2.4, 301)
    base = absorption(resonant(mu_debye=5.0), w)
    assert np.allclose(absorption(resonant(mu_debye=10.0), w), 4 * base,
                       rtol=1e-12)
    doubled = CavityParams(2.1, 2.1, 0.02, 12, coupling=math.sqrt(NV2 / 12),
                           mu_debye=5.0)
    assert np.allclose(absorption(doubled, w), 2 * base, rtol=1e-12)


def test_absorption_prefactor_against_scipy_constants():
    # alpha = N mu^2/(eps0 c hbar) * w * (-Im g); check the dimensional
    # prefactor with an independent constants source at a single frequency.
    p = resonant(mu_debye=10.0)
    w = 2.2
    mu = 10.0 * 1e-21 / scipy.constants.c  # Debye in C m
    want = (p.n_molecules * mu ** 2
            / (scipy.constants.epsilon_0 * scipy.constants.c * scipy.constants.hbar)
            * w * (-g_mol_mol(p, w).imag))
    assert absorption(p, np.array([w]))[0] == pytest.approx(want, rel=1e-5)

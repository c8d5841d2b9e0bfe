"""Closed-form polariton spectra for one cavity mode coupled to N molecules.

A single cavity state |c> at energy epsilon_c couples with uniform strength V
to N molecular states at epsilon_a whose site energies carry independent
Cauchy noise of half-width gamma.  Averaging over the noise shifts every
molecular denominator by -i*gamma, which collapses the whole ensemble into
elementary closed forms:

    Sigma(w)   = NV2 / (w - epsilon_a + i*gamma)          molecular self-energy
    g_cc(w)    = 1 / (w - epsilon_c - Sigma(w))           cavity Green's function
    eps_+/-    = (eps_a + eps_c - i*gamma)/2
                 +- sqrt(NV2 + ((eps_c - eps_a + i*gamma)/2)**2)

with the collective coupling NV2 = N*V^2 = number_density * v_tilde^2.
Densities of states follow from -Im/pi, and the absorption cross-section from
the bright-state element g_mol_mol.  All energies are in eV; an optional
eta > 0 adds the usual +i*eta to the probe frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidCoupling, MissingDipole

# CODATA 2018 constants.
EPSILON_0_F_PER_M = 8.8541878128e-12
C_M_PER_S = 299792458.0
HBAR_J_S = 1.054571817e-34
DEBYE_TO_C_M = 3.33564e-30

COUPLING_CONSISTENCY_RTOL = 1e-9


@dataclass(frozen=True)
class CavityParams:
    """Tavis-Cummings model parameters.

    The collective coupling can be supplied through either route:
    ``number_density`` (m^-3) with ``v_tilde`` (eV m^{3/2}), or the
    per-molecule matrix element ``coupling`` (eV), optionally derived from
    ``v_tilde`` and a cavity ``volume`` (m^3).  When both routes are present
    they must satisfy n_molecules*coupling^2 = number_density*v_tilde^2 to
    1e-9 relative.  ``mu_debye`` is only needed for absorption.
    """

    epsilon_c: float
    epsilon_a: float
    gamma: float
    n_molecules: int
    v_tilde: float | None = None
    number_density: float | None = None
    coupling: float | None = None
    volume: float | None = None
    mu_debye: float | None = None

    def __post_init__(self):
        coupling_fields = ("v_tilde", "number_density", "coupling", "volume")
        for name in ("epsilon_c", "epsilon_a", "gamma", "mu_debye") + coupling_fields:
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                error = InvalidCoupling if name in coupling_fields else ValueError
                raise error(f"{name} must be finite, got {value}")
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not hasattr(type(self.n_molecules), "__index__") or self.n_molecules < 1:
            raise ValueError(f"n_molecules must be an integer >= 1, got {self.n_molecules!r}")
        if self.mu_debye is not None and self.mu_debye < 0:
            raise ValueError("transition dipole must be non-negative")
        if self.volume is not None and self.volume <= 0:
            raise ValueError(f"volume must be positive, got {self.volume}")
        if self.number_density is not None and self.number_density <= 0:
            raise ValueError(f"number_density must be positive, got {self.number_density}")

        # Fill in whichever coupling quantities the given route determines.
        coupling = self.coupling
        density = self.number_density
        if self.volume is not None:
            derived_density = self.n_molecules / self.volume
            if density is not None and not math.isclose(
                    density, derived_density, rel_tol=COUPLING_CONSISTENCY_RTOL):
                raise InvalidCoupling(
                    f"number_density {density} inconsistent with "
                    f"n_molecules/volume = {derived_density}")
            density = derived_density
            if self.v_tilde is not None:
                derived_v = self.v_tilde / math.sqrt(self.volume)
                if coupling is not None and not math.isclose(
                        coupling, derived_v, rel_tol=COUPLING_CONSISTENCY_RTOL):
                    raise InvalidCoupling(
                        f"coupling {coupling} inconsistent with "
                        f"v_tilde/sqrt(volume) = {derived_v}")
                coupling = derived_v

        # Squares by multiplication: a float's ** 2 raises OverflowError, x * x
        # gives the inf that the finiteness check below reports by name.
        nv2_bulk = None
        if density is not None and self.v_tilde is not None:
            nv2_bulk = density * (self.v_tilde * self.v_tilde)
        nv2_site = None
        if coupling is not None:
            nv2_site = self.n_molecules * (coupling * coupling)

        if nv2_bulk is None and nv2_site is None:
            raise InvalidCoupling(
                "coupling unspecified: provide (number_density, v_tilde), "
                "(volume, v_tilde), or a per-molecule coupling")
        if nv2_bulk is not None and nv2_site is not None:
            if not math.isclose(nv2_bulk, nv2_site, rel_tol=COUPLING_CONSISTENCY_RTOL,
                                abs_tol=1e-300):
                raise InvalidCoupling(
                    f"N*V^2 = {nv2_site} disagrees with density*v_tilde^2 = {nv2_bulk}")
        nv2 = nv2_site if nv2_site is not None else nv2_bulk
        if not math.isfinite(nv2):
            raise InvalidCoupling(f"collective coupling must be finite, got {nv2}")
        # polariton_poles takes the root of NV2 + ((eps_c - eps_a + i*gamma)/2)^2.
        half_detuning = 0.5 * (self.epsilon_c - self.epsilon_a)
        if not math.isfinite(nv2 + half_detuning * half_detuning
                             + 0.25 * self.gamma * self.gamma):
            raise ValueError(
                f"epsilon_c - epsilon_a = {self.epsilon_c - self.epsilon_a} with "
                f"gamma = {self.gamma} overflows the polariton poles")
        if self.mu_debye is not None and not math.isfinite(
                _absorption_prefactor(self.n_molecules, self.mu_debye)):
            raise ValueError(f"mu_debye = {self.mu_debye} overflows the absorption "
                             "prefactor N*mu^2/(epsilon_0*c*hbar)")
        if coupling is None:
            coupling = math.sqrt(nv2 / self.n_molecules)
        object.__setattr__(self, "coupling", float(coupling))
        object.__setattr__(self, "number_density", density)
        object.__setattr__(self, "_nv2", float(nv2))

    @property
    def nv2(self) -> float:
        """Collective coupling squared N*V^2 = number_density*v_tilde^2, eV^2."""
        return self._nv2


@dataclass(frozen=True)
class PolaritonPoles:
    """The two complex poles of the averaged cavity Green's function."""

    eps_plus: complex
    eps_minus: complex

    @property
    def rabi_splitting(self) -> float:
        return float(self.eps_plus.real - self.eps_minus.real)


def self_energy(params: CavityParams, omega, eta: float = 0.0):
    """Molecular self-energy of the cavity state, NV2/(w + i(eta+gamma) - eps_a).

    Strictly negative imaginary part for real omega, so the cavity resolvent
    below never hits a real pole even at eta = 0.
    """
    z = np.asarray(omega, dtype=complex) + 1j * eta
    return params.nv2 / (z + 1j * params.gamma - params.epsilon_a)


def g_cc(params: CavityParams, omega, eta: float = 0.0):
    """Disorder-averaged cavity Green's function 1/(w + i*eta - eps_c - Sigma)."""
    z = np.asarray(omega, dtype=complex) + 1j * eta
    return 1.0 / (z - params.epsilon_c - self_energy(params, omega, eta))


def polariton_poles(params: CavityParams) -> PolaritonPoles:
    """Roots of (w - eps_c)(w - eps_a + i*gamma) = NV2.

    eps_plus adds the principal square root, whose real part is
    non-negative (its imaginary part too on the branch cut), so
    Re eps_plus >= Re eps_minus.
    """
    center = 0.5 * (params.epsilon_a + params.epsilon_c - 1j * params.gamma)
    half_detuning = 0.5 * (params.epsilon_c - params.epsilon_a + 1j * params.gamma)
    root = np.sqrt(complex(params.nv2 + half_detuning * half_detuning))
    return PolaritonPoles(complex(center + root), complex(center - root))


def rho_c(params: CavityParams, omegas, eta: float = 0.0):
    """Cavity density of states -Im g_cc/pi; unit area over a wide window."""
    return -g_cc(params, omegas, eta).imag / np.pi


def g_mol_mol(params: CavityParams, omega, eta: float = 0.0):
    """Bright-state molecular Green's function (w + i*eta - eps_c)*g_cc/(w + i(eta+gamma) - eps_a).

    The bright state is the symmetric combination (1/sqrt(N)) sum_i |i>; this
    equals the molecule-block average (1/N) sum_ij G_ij of the full matrix.
    """
    z = np.asarray(omega, dtype=complex) + 1j * eta
    return (z - params.epsilon_c) * g_cc(params, omega, eta) / (
        z + 1j * params.gamma - params.epsilon_a)


def delta_rho_m(params: CavityParams, omegas, eta: float = 0.0):
    """Coupling-induced change of the molecular density of states.

    -Im[NV2 * g_cc / (w + i(eta+gamma) - eps_a)^2] / pi, which is
    -Im[NV2 / ((w - eps~_a)(w - eps_+)(w - eps_-))] / pi with
    eps~_a = eps_a - i*gamma and every pole shifted by -i*eta.  The eps~_a
    pole has residue exactly -1: a dip whose full-line weight is -1 (one
    molecular state is promoted into the polaritons).  The polariton poles'
    residues sum to +1, split into two half-weight peaks only at resonance,
    so the integral over the whole real line is 0.  A finite band holds only
    part of each; ``band_weight`` gives it exactly.
    """
    z = np.asarray(omegas, dtype=complex) + 1j * eta
    denom = z + 1j * params.gamma - params.epsilon_a
    return -(params.nv2 * g_cc(params, omegas, eta) / denom ** 2).imag / np.pi


def band_weight(params: CavityParams, lo: float, hi: float,
                eta: float = 0.0) -> float:
    """Exact integral of ``delta_rho_m`` over the real band [lo, hi].

    Partial fractions over the three poles q_k (eps~_a, eps_+, eps_-, each
    shifted by -i*eta) with residues r_k = NV2 / prod_{j != k}(q_k - q_j)
    give sum_k -Im[r_k (log(hi - q_k) - log(lo - q_k))] / pi.  Every
    Im q_k < 0, so the principal log crosses no branch cut on a real band.
    At the exceptional point eps_+ = eps_- the double pole is integrated as
    such.
    """
    if params.nv2 == 0:
        return 0.0
    poles = polariton_poles(params)
    shift = 1j * eta
    mol = params.epsilon_a - 1j * params.gamma - shift
    plus, minus = poles.eps_plus - shift, poles.eps_minus - shift

    def log_span(q):
        return np.log(hi - q) - np.log(lo - q)

    if plus == minus:
        # NV2/((w - mol)(w - p)^2) = A/(w - mol) - A/(w - p) + C/(w - p)^2.
        a = params.nv2 / (plus - mol) ** 2
        c = params.nv2 / (plus - mol)
        total = a * (log_span(mol) - log_span(plus)) \
            - c * (1 / (hi - plus) - 1 / (lo - plus))
    else:
        total = -log_span(mol) \
            + params.nv2 / ((plus - mol) * (plus - minus)) * log_span(plus) \
            + params.nv2 / ((minus - mol) * (minus - plus)) * log_span(minus)
    return float(-total.imag / np.pi)


def delta_rho_t(params: CavityParams, omegas, eta: float = 0.0):
    """Coupling-induced change of the total density of states.

    rho_c + delta_rho_m minus the bare cavity line the coupling consumed.
    With eta = 0 the bare line is an unrepresentable point mass at eps_c and
    this reduces to rho_c + delta_rho_m pointwise (their sum integrates to +1
    because the removed line is invisible at zero width); with eta > 0 the
    bare line is the eta-Lorentzian and the result integrates to ~0 over a
    wide window, one state in and one state out.
    """
    change = rho_c(params, omegas, eta) + delta_rho_m(params, omegas, eta)
    if eta > 0:
        w = np.asarray(omegas, dtype=float)
        change = change - (eta / np.pi) / ((w - params.epsilon_c) ** 2 + eta ** 2)
    return change


def absorption(params: CavityParams, omegas, eta: float = 0.0):
    """Ensemble absorption cross-section alpha(w) = -(w/e0*c*hbar) N|mu|^2 Im g_mol_mol, in m^2.

    With omega in eV and g_mol_mol in 1/eV the eV factors cancel, leaving
    N * mu^2 / (epsilon_0 c hbar) * w_eV * (-Im g), so only the Debye -> C m
    conversion enters.  The value is the total cross-section of all N
    molecules; divide by n_molecules for a per-molecule value.
    """
    if params.mu_debye is None:
        raise MissingDipole("absorption needs mu_debye on CavityParams")
    prefactor = _absorption_prefactor(params.n_molecules, params.mu_debye)
    w = np.asarray(omegas, dtype=float)
    return prefactor * w * (-g_mol_mol(params, omegas, eta).imag)


def _absorption_prefactor(n_molecules, mu_debye):
    """N * mu^2 / (epsilon_0 c hbar) in SI units, for mu given in Debye."""
    mu = mu_debye * DEBYE_TO_C_M
    return n_molecules * (mu * mu) / (EPSILON_0_F_PER_M * C_M_PER_S * HBAR_J_S)

"""Exact disorder-averaged spectra for tight-binding graphs and a single-mode
cavity, built on the Cauchy-noise identity: ensemble-averaging the resolvent
over independent Cauchy site energies equals one deterministic evaluation of
the clean Hamiltonian with -i*gamma on the disordered diagonal."""

from .cavity import (CavityParams, PolaritonPoles, absorption, delta_rho_m,
                     delta_rho_t, g_cc, g_mol_mol, polariton_poles, rho_c,
                     self_energy)
from .engine import SpectralGrid, averaged_greens, default_eta, diagonalize
from .lattice import (DisorderSpec, Distribution, Family, HamiltonianSpec,
                      Topology, adjacency, assemble_cavity, assemble_huckel,
                      build_topology)
from .montecarlo import EnsembleConfig, EnsembleResult, ensemble_average, make_rng
from .quadrature import auto_window, estimate_peak_width, integrate_trapezoid

__version__ = "0.1.0"

__all__ = [
    "CavityParams", "PolaritonPoles", "absorption", "delta_rho_m",
    "delta_rho_t", "g_cc", "g_mol_mol", "polariton_poles", "rho_c",
    "self_energy",
    "SpectralGrid", "averaged_greens", "default_eta", "diagonalize",
    "DisorderSpec", "Distribution", "Family", "HamiltonianSpec", "Topology",
    "adjacency", "assemble_cavity", "assemble_huckel", "build_topology",
    "EnsembleConfig", "EnsembleResult", "ensemble_average", "make_rng",
    "auto_window", "estimate_peak_width", "integrate_trapezoid",
    "__version__",
]

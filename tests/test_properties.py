"""Properties of the engine route and of the Monte-Carlo realization solvers
over random Hamiltonians, masks and grids.

Each case draws a symmetric h0 with at most 12 sites, a disorder mask (every
site disordered, none, all but one, or a random mix), gamma or a noise
realization, eta and a frequency grid.  The draws are deterministic (see
conftest.py).
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import cauchygf.montecarlo as mc
from cauchygf.cavity import CavityParams, g_cc
from cauchygf.engine import SpectralGrid, averaged_greens, solve_greens
from cauchygf.lattice import HamiltonianSpec, assemble_cavity

@st.composite
def grids(draw, lo, hi, eta):
    start = draw(st.floats(lo, hi))
    width = draw(st.floats(0.01, 3.0))
    count = draw(st.integers(1, 40))
    return SpectralGrid(np.linspace(start, start + width, count), draw(eta))


@st.composite
def matrices(draw):
    """Symmetric h0 with at most 12 sites and a disorder mask: every site
    disordered, none, all but one, or a random mix.  Every entry is drawn on
    its own (no fill value), so the matrices are rarely constant."""
    n = draw(st.integers(1, 12))
    upper = draw(hnp.arrays(float, (n, n), elements=st.floats(-2.0, 2.0),
                            fill=st.nothing()))
    h0 = np.triu(upper) + np.triu(upper, 1).T
    kind = draw(st.sampled_from(["all", "none", "one", "mixed"]))
    mask = {"all": np.ones(n, bool), "none": np.zeros(n, bool),
            "one": np.arange(n) != draw(st.integers(0, n - 1)),
            "mixed": draw(hnp.arrays(bool, n, fill=st.nothing()))}[kind]
    return h0, mask


@st.composite
def problems(draw):
    h0, mask = draw(matrices())
    spec = HamiltonianSpec(h0, draw(st.floats(0.05, 1.0)), mask)
    return spec, draw(grids(-5.0, 3.0, st.floats(0.05, 0.5)))


def full(greens, n):
    return greens.reshape(-1, n, n)


@given(problems())
def test_route_matches_direct_solve(problem):
    spec, grid = problem
    assert np.abs(averaged_greens(spec, grid) - solve_greens(spec, grid)).max() <= 1e-10


@given(problems())
def test_greens_is_complex_symmetric(problem):
    spec, grid = problem
    g = full(averaged_greens(spec, grid), spec.n_sites)
    assert np.abs(g - g.transpose(0, 2, 1)).max() <= 1e-12 * max(1.0, np.abs(g).max())


@given(problems())
def test_site_dos_is_non_negative(problem):
    # Im G_ii <= 0 up to rounding of the largest entry.
    spec, grid = problem
    diagonal = averaged_greens(spec, grid, [(i, i) for i in range(spec.n_sites)])
    assert diagonal.imag.max() <= 1e-14 * max(1.0, np.abs(diagonal).max())


@st.composite
def cavities(draw):
    params = CavityParams(draw(st.floats(1.5, 2.5)), draw(st.floats(1.5, 2.5)),
                          draw(st.floats(0.01, 0.2)), draw(st.integers(1, 11)),
                          coupling=draw(st.floats(0.0, 0.3)))
    return params, draw(grids(1.0, 3.0, st.floats(0.005, 0.05)))


@given(cavities())
def test_cavity_element_matches_closed_form(case):
    params, grid = case
    engine = averaged_greens(assemble_cavity(params), grid, [(0, 0)])[:, 0]
    assert np.abs(engine - g_cc(params, grid.omegas, grid.eta)).max() <= 1e-9


@st.composite
def realizations(draw):
    """h0 with no hopping between disordered sites, three noise realizations
    on those sites and a grid at eta > 0."""
    h0, mask = draw(matrices())
    h0[np.ix_(mask, mask)] = np.diag(np.diagonal(h0)[mask])
    xi = draw(hnp.arrays(float, (3, mask.size), elements=st.floats(-3.0, 3.0),
                         fill=st.nothing()))
    return HamiltonianSpec(h0, 0.1, mask), xi * mask, draw(grids(-5.0, 3.0, st.floats(0.05, 0.5)))


@given(realizations())
def test_schur_realizations_match_eigh_and_direct_solve(case):
    # Every pair, so U x U, U x D and D x D elements, on and off the diagonal.
    spec, xi, grid = case
    n, z = spec.n_sites, grid.omegas + 1j * grid.eta
    pairs = [(i, j) for i in range(n) for j in range(n)]
    schur = mc._schur_chunk(spec, xi, pairs, grid.omegas, grid.eta)
    eigh = mc._eigh_chunk(spec, xi, pairs, grid.omegas, grid.eta)
    h = spec.h0 + xi[:, :, None] * np.eye(n)                        # (c, n, n)
    direct = np.linalg.solve(z[:, None, None] * np.eye(n) - h[:, None], np.eye(n))
    direct = direct.reshape(len(xi), z.size, n * n).transpose(0, 2, 1)
    scale = np.abs(direct).max(axis=(1, 2))[:, None, None]           # per realization
    assert np.all(np.abs(schur - eigh) <= 1e-10 * scale)
    assert np.all(np.abs(schur - direct) <= 1e-10 * scale)
    assert np.all(np.abs(eigh - direct) <= 1e-10 * scale)

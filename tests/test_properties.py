"""Properties of the engine route over random Hamiltonians, masks and grids.

Each case draws a symmetric h0 with at most 12 sites, a disorder mask (every
site disordered, none, or a random mix), gamma, eta and a frequency grid.
The draws are deterministic (see conftest.py).
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
def problems(draw):
    n = draw(st.integers(1, 12))
    upper = draw(hnp.arrays(float, (n, n), elements=st.floats(-2.0, 2.0)))
    h0 = np.triu(upper) + np.triu(upper, 1).T
    kind = draw(st.sampled_from(["all", "none", "mixed"]))
    mask = {"all": np.ones(n, bool), "none": np.zeros(n, bool),
            "mixed": draw(hnp.arrays(bool, n))}[kind]
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

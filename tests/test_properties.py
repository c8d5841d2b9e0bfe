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
from cauchygf.cavity import CavityParams, g_cc, polariton_poles
from cauchygf.engine import SpectralGrid, averaged_greens
from cauchygf.lattice import HamiltonianSpec, assemble_cavity
from cauchygf.quadrature import auto_window, integrate_trapezoid
from oracles import solve_greens

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
def test_trace_matches_diagonal_sum_and_direct_solve(problem):
    # Tr G from G0's row of ones, or from the Woodbury-corrected diagonal,
    # on every mask, |U| = n ("none" disordered) included.
    spec, grid = problem
    diagonal = [(i, i) for i in range(spec.n_sites)]
    greens, trace = averaged_greens(spec, grid, diagonal, trace=True)
    _, alone = averaged_greens(spec, grid, [], trace=True)
    for want in (greens.sum(axis=1), solve_greens(spec, grid, diagonal).sum(axis=1)):
        scale = np.abs(want).max()
        assert np.abs(trace - want).max() <= 1e-12 * scale
        assert np.abs(alone - want).max() <= 1e-12 * scale


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


@given(problems())
def test_generalized_ward_identity(problem):
    # G^-1 - G^-H = 2i(eta + Gamma), so -Im G_ii = sum_j |G_ji|^2 (eta + gamma_j)
    # at every frequency, with gamma_j = 0 on the sites without disorder (the
    # Woodbury sites); on a uniform mask it restates the kernel's Im part.
    spec, grid = problem
    g = full(averaged_greens(spec, grid), spec.n_sites)
    damping = grid.eta + np.where(spec.disordered, spec.gamma, 0.0)
    lhs = -np.diagonal(g, axis1=1, axis2=2).imag
    rhs = np.einsum("wji,j->wi", np.abs(g) ** 2, damping)
    assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(lhs).max()


@st.composite
def fully_disordered(draw):
    h0, _ = draw(matrices())
    return HamiltonianSpec(h0, draw(st.floats(0.05, 1.0))), draw(st.floats(0.0, 0.5))


@given(fully_disordered())
def test_total_dos_integral_matches_lorentzian_sum(case):
    # With every site disordered the total DOS is a sum of Lorentzians of
    # half-width w = gamma + eta at the eigenvalues of h0, so its integral
    # over [lo, hi] is exactly sum_m [atan((hi - e_m)/w) - atan((lo - e_m)/w)]/pi.
    spec, eta = case
    levels = np.linalg.eigvalsh(spec.h0)
    omegas = auto_window(levels, spec.gamma, n_points=4001).omegas
    grid = SpectralGrid(omegas, eta)
    diagonal = averaged_greens(spec, grid, [(i, i) for i in range(spec.n_sites)])
    total = integrate_trapezoid(grid.omegas, -diagonal.imag.sum(axis=1) / np.pi)
    w = spec.gamma + eta
    exact = np.sum(np.arctan((omegas[-1] - levels) / w)
                   - np.arctan((omegas[0] - levels) / w)) / np.pi
    assert abs(total - exact) <= 1e-6 * spec.n_sites


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
def polaritons(draw):
    """Cavity parameters, detuned or not, or resonant with N V^2 < gamma^2/4,
    where the discriminant is negative and its square root purely imaginary."""
    gamma, n = draw(st.floats(0.001, 0.5)), draw(st.integers(1, 10 ** 6))
    epsilon_a = draw(st.floats(-5.0, 5.0))
    if draw(st.booleans()):
        epsilon_c = epsilon_a
        coupling = draw(st.floats(0.0, 0.999)) * gamma / (2 * np.sqrt(n))
    else:
        epsilon_c = draw(st.floats(-5.0, 5.0))
        coupling = draw(st.floats(0.0, 1.0))
    return CavityParams(epsilon_c, epsilon_a, gamma, n, coupling=coupling)


@given(polaritons())
def test_polariton_poles_are_ordered_and_sum_to_the_trace(params):
    poles = polariton_poles(params)
    plus, minus = poles.eps_plus, poles.eps_minus
    assert plus.real >= minus.real
    trace = params.epsilon_a + params.epsilon_c - 1j * params.gamma
    scale = abs(params.epsilon_a) + abs(params.epsilon_c) + params.gamma + abs(plus - minus)
    assert abs(plus + minus - trace) <= 4 * np.finfo(float).eps * scale
    if params.epsilon_c == params.epsilon_a and params.nv2 < params.gamma ** 2 / 4:
        # A purely imaginary root: equal real parts, the plus pole the less damped.
        assert plus.real == minus.real and plus.imag >= minus.imag


@st.composite
def realizations(draw):
    """Three noise realizations and a grid at eta > 0 for two masks on one
    drawn h0: the mask matrices() draws, and the mask that leaves only a
    drawn site u undisordered.  Each comes with its own copy of h0 whose
    disordered sites do not hop to each other."""
    h0, mask = draw(matrices())
    one = np.arange(mask.size) != draw(st.integers(0, mask.size - 1))
    xi = draw(hnp.arrays(float, (3, mask.size), elements=st.floats(-3.0, 3.0),
                         fill=st.nothing()))
    cases = []
    for disordered in (mask, one):
        h = h0.copy()
        h[np.ix_(disordered, disordered)] = np.diag(np.diagonal(h0)[disordered])
        cases.append((HamiltonianSpec(h, 0.1, disordered), xi * disordered))
    return cases, draw(grids(-5.0, 3.0, st.floats(0.05, 0.5)))


@given(realizations())
def test_schur_realizations_match_eigh_and_direct_solve(case):
    # The eigendecomposition serves every mask and every pair, so it is
    # checked on u x u, u x D and D x D elements, on and off the diagonal.
    # The Schur route serves only G_uu, on masks with exactly one
    # undisordered site u, which every example has: it is checked on
    # (u, u), asked for twice.
    cases, grid = case
    z = grid.omegas + 1j * grid.eta
    schur_checked = 0
    for spec, xi in cases:
        n = spec.n_sites
        pairs = [(i, j) for i in range(n) for j in range(n)]

        def collected(solver, elements):
            # The solvers hand over (re, im) tiles of samples x frequencies;
            # gather them back into one (c, k, n_omega) complex array.
            out = np.full((len(xi), len(elements), z.size), np.nan, dtype=complex)
            for c0, c1, w0, w1, tile in solver(spec, xi, elements, grid.omegas, grid.eta):
                out[c0:c1, :, w0:w1] = tile[:, 0] + 1j * tile[:, 1]
            return out

        eigh = collected(mc._eigh_chunk, pairs)
        h = spec.h0 + xi[:, :, None] * np.eye(n)                        # (c, n, n)
        direct = np.linalg.solve(z[:, None, None] * np.eye(n) - h[:, None], np.eye(n))
        direct = direct.reshape(len(xi), z.size, n * n).transpose(0, 2, 1)
        scale = np.abs(direct).max(axis=(1, 2))[:, None, None]           # per realization
        assert np.all(np.abs(eigh - direct) <= 1e-10 * scale)
        undisordered = np.flatnonzero(~spec.disordered)
        if undisordered.size == 1:
            u = int(undisordered[0])
            assert mc._realization_route(spec, [(u, u)]) is mc._schur_chunk
            schur = collected(mc._schur_chunk, [(u, u), (u, u)])
            for want in (eigh, direct):
                assert np.all(np.abs(schur - want[:, [u * n + u] * 2]) <= 1e-10 * scale)
            schur_checked += 1
    assert schur_checked >= 1

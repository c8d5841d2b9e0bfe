import numpy as np
import pytest
from numpy.testing import assert_allclose

from cauchygf.cavity import CavityParams
from cauchygf.engine import (SpectralGrid, averaged_greens, default_eta,
                             diagonalize, solve_greens)
from cauchygf.errors import NonMonotonicGrid, SingularMatrix
from cauchygf.lattice import (HamiltonianSpec, assemble_cavity,
                              assemble_huckel, build_topology)
from cauchygf.quadrature import auto_window, integrate_trapezoid


def huckel(kind, n, gamma=0.1):
    return assemble_huckel(build_topology(kind, n), 0.0, 1.0, gamma)


def matrices(greens, n):
    """(n_omega, n*n) result for elements=None -> (n_omega, n, n) matrices."""
    return greens.reshape(-1, n, n)


def diagonal(n):
    return [(i, i) for i in range(n)]


# ------------------------------------------------------------- SpectralGrid

def test_grid_rejects_non_increasing():
    with pytest.raises(NonMonotonicGrid):
        SpectralGrid(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(NonMonotonicGrid):
        SpectralGrid(np.array([1.0, 0.0]))


def test_grid_single_frequency_and_eta_validation():
    grid = SpectralGrid(np.array([2.0]), eta=0.5)
    assert grid.omegas.shape == (1,)
    with pytest.raises(ValueError):
        SpectralGrid(np.array([0.0, 1.0]), eta=-0.1)


@pytest.mark.parametrize("eta", [float("nan"), float("inf")])
def test_grid_rejects_non_finite_eta(eta):
    with pytest.raises(ValueError, match="eta"):
        SpectralGrid(np.array([0.0, 1.0]), eta=eta)


# -------------------------------------------------------------- diagonalize

def test_two_site_eigensystem():
    eig = diagonalize(HamiltonianSpec(np.array([[0.0, 1.0], [1.0, 0.0]]), 0.1))
    assert_allclose(eig.eigenvalues, [-1.0, 1.0], atol=1e-12)


@pytest.mark.parametrize("kind, n", [("chain", 5), ("star", 7), ("ring", 6)])
def test_eigensystem_invariants(kind, n):
    spec = huckel(kind, n)
    eig = diagonalize(spec)
    u = eig.eigenvectors
    assert np.abs(u.T @ u - np.eye(n)).max() < 1e-10
    residual = np.abs(spec.h0 @ u - u * eig.eigenvalues).max()
    assert residual < 1e-8 * max(1.0, np.abs(eig.eigenvalues).max())
    assert np.all(np.diff(eig.eigenvalues) >= 0)


def test_default_eta_by_mask():
    assert default_eta(huckel("chain", 3)) == 0.0
    cav = assemble_cavity(CavityParams(0.0, 0.0, 0.1, 2, coupling=1.0))
    assert default_eta(cav) == pytest.approx(1e-4)


# ---------------------------------------------------------- averaged_greens

def test_scalar_resolvent_value():
    spec = HamiltonianSpec(np.zeros((1, 1)), 0.1)
    greens = averaged_greens(spec, SpectralGrid(np.array([0.0])))
    assert greens.shape == (1, 1)
    assert greens[0, 0] == pytest.approx(-10j)


def test_two_routes_agree_on_uniform_mask():
    rng = np.random.default_rng(11)
    for _ in range(5):
        n = rng.integers(2, 12)
        h = rng.standard_normal((n, n))
        spec = HamiltonianSpec((h + h.T) / 2, gamma=0.07)
        grid = SpectralGrid(np.linspace(-3, 3, 17), eta=0.01)
        a = averaged_greens(spec, grid)
        b = solve_greens(spec, grid)
        assert a.shape == b.shape == (17, n * n)
        assert np.abs(a - b).max() < 1e-10


def test_partial_mask_matches_direct_solve():
    # The Woodbury correction restores the undisordered cavity site.
    cav = assemble_cavity(CavityParams(0.0, 0.0, 0.1, 2, coupling=1.0))
    grid = SpectralGrid(np.linspace(-2, 2, 9), 0.01)
    assert np.abs(averaged_greens(cav, grid) - solve_greens(cav, grid)).max() < 1e-12


def test_tiny_gamma_standin_matches_clean_resolvent():
    # gamma -> 1e-12 stand-in: the average collapses to the clean resolvent
    # (omega + i*eta - h0)^(-1), evaluated here by a direct dense solve.  The
    # leftover offset is bounded by gamma/eta^2 = 4e-10.
    spec = huckel("ring", 6, gamma=1e-12)
    grid = SpectralGrid(np.linspace(-3, 3, 13), eta=0.05)
    for omega, g in zip(grid.omegas, matrices(averaged_greens(spec, grid), 6)):
        clean = np.linalg.solve(
            (omega + 0.05j) * np.eye(6) - spec.h0, np.eye(6, dtype=complex))
        assert np.abs(g - clean).max() < 1e-9


def test_subset_elements_match_full_matrix():
    spec = huckel("star", 7)
    grid = SpectralGrid(np.linspace(-3, 3, 9), eta=0.02)
    full = matrices(averaged_greens(spec, grid), 7)
    pairs = [(0, 0), (2, 5), (6, 6), (5, 2)]
    subset = averaged_greens(spec, grid, elements=pairs)
    assert subset.shape == (9, 4)
    for col, (i, j) in enumerate(pairs):
        assert_allclose(subset[:, col], full[:, i, j], rtol=0, atol=1e-14)
    with pytest.raises(IndexError):
        averaged_greens(spec, grid, elements=[(0, 7)])


def test_hub_dos_is_tail_of_edge_levels():
    # Star(7) at omega = 0: the five leaf-only zero modes carry no hub weight,
    # so the hub DOS is exactly the two +-sqrt(6) Lorentzian tails:
    # -Im[ 0.5/(i g - r) + 0.5/(i g + r) ]/pi = g/(pi (6 + g^2)).
    spec = huckel("star", 7)
    hub_dos = -averaged_greens(spec, SpectralGrid(np.array([0.0])), [(0, 0)])[0, 0].imag / np.pi
    assert hub_dos == pytest.approx(0.1 / (np.pi * (6 + 0.01)), rel=1e-12)


# ------------------------------------------------- partial masks and oracle

def test_cavity_two_level_self_energy_elimination():
    # N=1, eps=0, V=1, gamma=0.2, eta=0, omega=2:
    # G_00 = 1/(2 - 1/(2 + 0.2i)) by eliminating the molecule row.
    cav = assemble_cavity(CavityParams(0.0, 0.0, 0.2, 1, coupling=1.0))
    grid = SpectralGrid(np.array([2.0]))
    want = 1 / (2 - 1 / (2 + 0.2j))
    assert solve_greens(cav, grid, [(0, 0)])[0, 0] == pytest.approx(want, abs=1e-14)
    assert averaged_greens(cav, grid, [(0, 0)])[0, 0] == pytest.approx(want, abs=1e-14)


def test_resolvent_identity_residual():
    cav = assemble_cavity(CavityParams(2.1, 2.1, 0.02, 6, coupling=0.05))
    grid = SpectralGrid(np.linspace(1.8, 2.4, 7), eta=0.0)
    shifted = np.diag(np.where(cav.disordered, cav.gamma, 0.0))
    for omega, g in zip(grid.omegas, matrices(averaged_greens(cav, grid), 7)):
        m = omega * np.eye(7) - cav.h0 + 1j * shifted
        assert np.abs(m @ g - np.eye(7)).max() < 1e-9


def test_greens_complex_symmetric_with_negative_imag_diagonal():
    for spec in (huckel("chain", 5), assemble_cavity(
            CavityParams(0.3, -0.2, 0.15, 4, coupling=0.7))):
        grid = SpectralGrid(np.linspace(-3, 3, 21), eta=0.01)
        g = matrices(averaged_greens(spec, grid), spec.n_sites)
        assert np.abs(g - g.transpose(0, 2, 1)).max() < 1e-12
        assert np.all(np.diagonal(g, axis1=1, axis2=2).imag <= 0)


def test_solve_subset_matches_full():
    cav = assemble_cavity(CavityParams(0.0, 0.0, 0.1, 3, coupling=0.5))
    grid = SpectralGrid(np.linspace(-2, 2, 5), eta=0.01)
    full = matrices(solve_greens(cav, grid), 4)
    part = solve_greens(cav, grid, elements=[(0, 0), (1, 3)])
    assert_allclose(part[:, 0], full[:, 0, 0], rtol=0, atol=1e-14)
    assert_allclose(part[:, 1], full[:, 1, 3], rtol=0, atol=1e-14)


def test_exactly_singular_matrix_raises():
    # One undisordered site probed at its bare energy with eta = 0.
    spec = HamiltonianSpec(np.array([[0.5]]), 0.1, disordered=[False])
    with pytest.raises(SingularMatrix, match="omega = 0.5"):
        solve_greens(spec, SpectralGrid(np.array([0.5])))
    with pytest.raises(SingularMatrix, match="omega = 0.5"):
        averaged_greens(spec, SpectralGrid(np.array([0.3, 0.4, 0.5, 0.6])))


# ------------------------------------------------------------------ the DOS

def test_single_site_dos_is_lorentzian():
    spec = HamiltonianSpec(np.zeros((1, 1)), 0.1)
    grid = SpectralGrid(np.linspace(-2, 2, 401))
    rho = -averaged_greens(spec, grid).imag / np.pi
    expected = (0.1 / np.pi) / (grid.omegas ** 2 + 0.01)
    assert_allclose(rho[:, 0], expected, rtol=1e-12)


@pytest.mark.parametrize("kind, n", [("chain", 5), ("star", 7), ("ring", 6)])
def test_dos_positive_and_symmetric_for_bipartite_like_graphs(kind, n):
    spec = huckel(kind, n)
    omegas = np.linspace(-4, 4, 321)  # symmetric grid around 0
    rho = -averaged_greens(spec, SpectralGrid(omegas), diagonal(n)).imag / np.pi
    assert rho.min() >= -1e-12
    total = rho.sum(axis=1)
    assert np.abs(total - total[::-1]).max() < 1e-9


def test_trace_sum_rule_star7():
    spec = huckel("star", 7)
    window = auto_window(diagonalize(spec).eigenvalues, spec.gamma)
    grid = SpectralGrid.from_window(window)
    total = -averaged_greens(spec, grid, diagonal(7)).imag.sum(axis=1) / np.pi
    assert integrate_trapezoid(grid.omegas, total) == pytest.approx(7.0, rel=0.02)

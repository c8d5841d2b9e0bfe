import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import cauchygf
from cauchygf import output
from cauchygf.cavity import CavityParams
from cauchygf.engine import (_TILE_BUDGET, SpectralGrid, _pole_sums, averaged_greens,
                             averaged_table, default_eta, diagonalize)
from cauchygf.errors import NonMonotonicGrid, SingularMatrix
from cauchygf.lattice import (HamiltonianSpec, assemble_cavity,
                              assemble_huckel, build_topology)
from cauchygf.quadrature import auto_window, integrate_trapezoid
from oracles import pole_sum_tile, solve_greens


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
    with pytest.raises(NonMonotonicGrid, match="finite"):
        SpectralGrid(np.array([0.0, np.nan, 1.0]))


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
    spec = HamiltonianSpec(np.array([[0.0, 1.0], [1.0, 0.0]]), 0.1)
    eigenvalues, _ = diagonalize(spec)
    assert_allclose(eigenvalues, [-1.0, 1.0], atol=1e-12)


@pytest.mark.parametrize("kind, n", [("chain", 5), ("star", 7), ("ring", 6)])
def test_eigensystem_invariants(kind, n):
    spec = huckel(kind, n)
    eigenvalues, u = diagonalize(spec)
    assert np.abs(u.T @ u - np.eye(n)).max() < 1e-10
    residual = np.abs(spec.h0 @ u - u * eigenvalues).max()
    assert residual < 1e-8 * max(1.0, np.abs(eigenvalues).max())
    assert np.all(np.diff(eigenvalues) >= 0)


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
    # The Woodbury correction restores the undisordered cavity site.  At 39
    # molecules the 820 distinct pairs of G0 outnumber the 40 poles, and the
    # frequencies span three pole-sum tiles, the last one partial.
    for n_molecules, edge, n_omega in ((2, 2.0, 9), (39, 7.0, 100)):
        cav = assemble_cavity(CavityParams(0.0, 0.0, 0.1, n_molecules, coupling=1.0))
        grid = SpectralGrid(np.linspace(-edge, edge, n_omega), 0.01)
        assert np.abs(averaged_greens(cav, grid) - solve_greens(cav, grid)).max() < 1e-12
    tile = _TILE_BUDGET // (40 * 41 // 2)
    assert 2 * tile < n_omega < 3 * tile


@pytest.mark.parametrize("m, p, n_omega, first", [
    (25, 27, 4001, (1, 1213)),   # two more rows of G0 than poles
    (7, 7, 201, (23, 201)),      # mc-star's full diagonal
    (64, 64, 4001, (1, 512)),    # ring(64)'s full diagonal
    (40, 820, 100, (1, 39)),     # every pair of cavity(N=39)
    (80, 1, 601, (1, 601)),      # the Monte-Carlo self-energy of cavity(N=80)
])
def test_pole_sum_tiles_are_sized_by_their_working_set(m, p, n_omega, first):
    # A tile spans max(p, ceil((m + p)/2)) cells per (sample, frequency):
    # max(m, p) whenever p >= m, so the engine's requests and the
    # full-diagonal ensembles keep these tiles and their bits, while the
    # self-energy (p = 1) gets a sample's 601 frequencies in one tile.
    poles = np.zeros((64, m))
    weights = np.broadcast_to(np.ones(m), (64, p, m))
    c0, c1, w0, w1, _ = next(_pole_sums(weights, poles, np.linspace(-1, 1, n_omega), 0.1))
    assert (c1 - c0, w1 - w0) == first


def test_double_pole_rows_follow_the_single_pole_rows():
    # tile[:, :, :p] are the sums of weights/(z - pole), whose imaginary
    # part is -eta times the raw row, and tile[:, :, p:] the finished sums of
    # double/(z - pole)^2, over tiles that span several frequency blocks.
    rng = np.random.default_rng(17)
    m, n_omega, eta = 300, 500, 0.07
    poles = rng.uniform(-2, 2, (1, m))
    weights, double = rng.standard_normal((1, 3, m)), rng.standard_normal((2, m))
    omegas = np.linspace(-3, 3, n_omega)
    g = 1 / (omegas[:, None] + 1j * eta - poles[0])                  # (w, m)
    want = np.concatenate([weights[0] @ g.T, double @ (g * g).T])    # (p + q, w)
    got = np.full((5, n_omega), np.nan, dtype=complex)
    blocks = 0
    for _, _, w0, w1, tile in _pole_sums(weights, poles, omegas, eta, double):
        got[:, w0:w1] = tile[0, 0] + 1j * tile[0, 1]
        got[:3, w0:w1].imag *= -eta
        blocks += 1
    assert blocks > 1
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("c, p, m, n_omega, q, shared", [
    (1, 1, 1, 1, 0, False),      # one pole, one frequency
    (1, 3, 1, 700, 1, False),    # one pole, double rows
    (6, 2, 9, 1, 0, False),      # one frequency, several samples a tile
    (1, 27, 25, 4001, 2, False), # the engine's cavity trace shape
    (5, 7, 7, 201, 0, False),    # mc-star's full diagonal
    (3, 1, 80, 601, 0, True),    # the Monte-Carlo self-energy, shared weights
    (2, 4, 300, 500, 2, False),  # several frequency blocks per sample block
])
def test_pole_sum_tiles_match_copy_and_subtract_reference(c, p, m, n_omega, q, shared):
    # d = omega - pole comes from one matrix product of rows (-pole, 1) and
    # columns (1, omega): two exact products and one rounding, the bits of
    # the subtraction.  Cauchy poles reach 1e13, and some sit on a frequency.
    rng = np.random.default_rng([c, p, m, n_omega, q])
    poles = 0.1 * rng.standard_cauchy((c, m))
    poles.flat[::3] = rng.choice([-1e13, 1e13, 3e7, -2.5e-9], poles.flat[::3].size)
    omegas = np.sort(rng.uniform(-3, 3, n_omega))
    poles.flat[1::5] = rng.choice(omegas, poles.flat[1::5].size)
    weights = (np.broadcast_to(rng.standard_normal((1, p, m)), (c, p, m)) if shared
               else rng.standard_normal((c, p, m)))
    double = rng.standard_normal((q, m)) if q else None
    cells = 0
    for c0, c1, w0, w1, tile in _pole_sums(weights, poles, omegas, 0.05, double):
        want = pole_sum_tile(weights, poles, omegas, 0.05, double, c0, c1, w0, w1)
        assert tile.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()
        cells += (c1 - c0) * (w1 - w0)
    assert cells == c * n_omega


@pytest.mark.parametrize("c, p, m, n_omega, shared", [
    (1, 65, 64, 4001, False),    # ring(64)'s densities: 64 sites and the trace
    (5, 7, 7, 201, False),       # several samples a tile
    (3, 1, 80, 601, True),       # one row, shared weights, wide tiles
])
def test_pole_sums_without_the_real_plane_keep_the_imaginary_bits(c, p, m, n_omega, shared):
    # real=False forms neither d*r nor its product; the imaginary plane and
    # the tiles stay what real=True gives, bit for bit.
    rng = np.random.default_rng([c, p, m, n_omega])
    poles = rng.uniform(-3, 3, (c, m))
    omegas = np.linspace(-3.5, 3.5, n_omega)
    weights = (np.broadcast_to(rng.standard_normal((1, p, m)), (c, p, m)) if shared
               else rng.standard_normal((c, p, m)))
    full, imaginary = (_pole_sums(weights, poles, omegas, 0.05, real=real)
                       for real in (True, False))
    tiles = 0
    for (*span, want), (*got_span, got) in zip(full, imaginary, strict=True):
        assert got_span == span
        assert got[:, 1].tobytes() == want[:, 1].tobytes()
        tiles += 1
    assert tiles >= 1


def test_table_rejects_invalid_sites_and_parts():
    grid = SpectralGrid(np.linspace(-1, 1, 5), 0.01)
    star, out = huckel("star", 7), np.empty((5, 3))
    with pytest.raises(IndexError, match="outside 0..6"):
        averaged_table(star, grid, [("rho", None), ("rho", (7, 7))], out[:, :2])
    with pytest.raises(ValueError, match="re, im or rho"):
        averaged_table(star, grid, [("abs", (0, 0))], out[:, :1])
    densities = averaged_table(star, grid, [("rho", (0, 0)), ("rho", None), ("rho", (0, 0))], out)
    assert densities is out and np.array_equal(out[:, 0], out[:, 2])


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
    # A fractional index is rejected by name, not truncated to a valid one.
    for bad in ([(0.7, 0)], [(0, 2.0)]):
        with pytest.raises(ValueError, match="indices must be integers"):
            averaged_greens(spec, grid, elements=bad)
    assert_allclose(averaged_greens(spec, grid, [(np.int64(2), np.uint8(5))])[:, 0],
                    full[:, 2, 5], rtol=0, atol=1e-14)


def test_cavity_dos_columns_hold_little_memory():
    # cavity(N=24), the full diagonal plus (0, 1) on the 4001-point auto
    # window (the elements of dos's default columns and G_0_1): the result
    # itself takes 1.7 MB and the whole call about 3.5 MB; sizing the
    # pole-sum tiles by the 25 poles alone, not by the 49 columns of G0 they
    # feed, takes it to 5.06 MB.
    cav = assemble_cavity(CavityParams(2.1, 2.1, 0.02, 24, coupling=0.1 / math.sqrt(8)))
    grid = SpectralGrid(auto_window(diagonalize(cav)[0], cav.gamma).omegas,
                        default_eta(cav))
    tracemalloc.start()
    try:
        averaged_greens(cav, grid, diagonal(25) + [(0, 1)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5e6


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


def test_trace_at_an_undisordered_resonance_is_singular():
    # The trace's Woodbury columns reduce the same K, so eta = 0 at the bare
    # energy of an undisordered site still raises, with or without elements.
    spec = HamiltonianSpec(np.diag([0.7, 0.5, 0.0]), 0.1, disordered=[False, False, True])
    for elements in ([], [(0, 2)]):
        with pytest.raises(SingularMatrix, match="omega = 0.5$"):
            averaged_greens(spec, SpectralGrid(np.array([0.3, 0.5, 0.6, 0.7])), elements,
                            trace=True)
    single = HamiltonianSpec(np.array([[0.5]]), 0.1, disordered=[False])
    with pytest.raises(SingularMatrix, match="omega = 0.5"):
        averaged_greens(single, SpectralGrid(np.array([0.4, 0.5])), [], trace=True)


def test_singular_second_pivot_names_the_first_frequency():
    # Two uncoupled undisordered levels at 0.7 and 0.5: at eta = 0 the
    # Woodbury kernel loses its first pivot at omega = 0.7 and its second at
    # omega = 0.5, and the message names the earlier frequency.
    spec = HamiltonianSpec(np.diag([0.7, 0.5, 0.0]), 0.1, disordered=[False, False, True])
    with pytest.raises(SingularMatrix, match="omega = 0.5$"):
        averaged_greens(spec, SpectralGrid(np.array([0.3, 0.5, 0.6, 0.7])))
    with pytest.raises(SingularMatrix, match="omega = 0.7$"):
        averaged_greens(spec, SpectralGrid(np.array([0.6, 0.7])))
    finite = averaged_greens(spec, SpectralGrid(np.array([0.5, 0.7]), eta=1e-4))
    assert np.all(np.isfinite(finite))


def test_random_masks_match_direct_solve_at_undisordered_resonances():
    # Frequencies at the eigenvalues of h0[U, U] with eta = 1e-3 gamma bring
    # K = G0[U, U] + (i/gamma) I closest to singular, which is where
    # elimination without pivoting would break first; |U| runs from 1 to n.
    rng = np.random.default_rng(20261019)
    sizes = set()
    for _ in range(60):
        n = int(rng.integers(1, 13))
        h = rng.standard_normal((n, n))
        mask = rng.random(n) < rng.uniform(0.0, 1.0)
        if mask.all():
            mask[rng.integers(n)] = False
        spec = HamiltonianSpec((h + h.T) / 2, float(rng.uniform(0.05, 0.5)), mask)
        u = ~spec.disordered
        sizes.add(int(u.sum()) == n)
        grid = SpectralGrid(np.unique(np.linalg.eigvalsh(spec.h0[np.ix_(u, u)])),
                            default_eta(spec))
        want = solve_greens(spec, grid)
        assert np.abs(averaged_greens(spec, grid) - want).max() <= 1e-9 * np.abs(want).max()
    assert sizes == {False, True}


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
    grid = auto_window(diagonalize(spec)[0], spec.gamma)
    total = -averaged_greens(spec, grid, diagonal(7)).imag.sum(axis=1) / np.pi
    assert integrate_trapezoid(grid.omegas, total) == pytest.approx(7.0, rel=0.02)


# --------------------------------------------------------------- public API

def test_public_api_has_no_test_only_names():
    # The direct solve the tests compare against and the peak finder they
    # read spectra with live in tests/oracles.py, not in the package.
    assert sorted(cauchygf.__all__) == sorted([
        "CavityParams", "PolaritonPoles", "absorption", "delta_rho_m",
        "delta_rho_t", "g_cc", "g_mol_mol", "polariton_poles", "rho_c",
        "self_energy",
        "SpectralGrid", "averaged_greens", "default_eta", "diagonalize",
        "DisorderSpec", "Distribution", "Family", "HamiltonianSpec", "Topology",
        "adjacency", "assemble_cavity", "assemble_huckel", "build_topology",
        "EnsembleConfig", "EnsembleResult", "ensemble_average", "make_rng",
        "auto_window", "estimate_peak_width", "integrate_trapezoid",
        "__version__"])
    for name in cauchygf.__all__:
        assert hasattr(cauchygf, name)
    assert not hasattr(output, "format_float")
    assert not hasattr(output, "csv_text")
    assert not hasattr(cauchygf.engine, "solve_greens")
    assert not hasattr(cauchygf.quadrature, "find_peaks")


def test_every_module_level_name_is_used_in_the_package():
    # A module-level function, class or assignment that no code in the
    # package names -- not even the re-exports of __init__ -- is dead.
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(cauchygf.__file__).parent.glob("*.py"))}
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(module, name.id) for target in targets
                            for name in ast.walk(target) if isinstance(name, ast.Name)]
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    dead = [f"{module}:{name}" for module, name in defined
            if name not in named and not (name.startswith("__") and name.endswith("__"))]
    assert dead == []

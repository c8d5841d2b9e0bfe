import numpy as np
import pytest
from numpy.testing import assert_allclose

from cauchygf.cavity import CavityParams
from cauchygf.errors import InvalidCoupling, InvalidEdge, InvalidSize
from cauchygf.lattice import (DisorderSpec, Distribution, Family,
                              HamiltonianSpec, adjacency, assemble_cavity,
                              assemble_huckel, build_topology)


# ----------------------------------------------------------------- topology

def test_chain_two_sites():
    topo = build_topology("chain", 2)
    assert topo.edges == ((0, 1),)


def test_star_seven_sites():
    topo = build_topology(Family.STAR, 7)
    assert topo.edges == tuple((0, i) for i in range(1, 7))
    degree = adjacency(topo).sum(axis=0)
    assert degree[0] == 6 and set(degree[1:]) == {1.0}


def test_ring_six_sites():
    topo = build_topology("ring", 6)
    assert build_topology("ring", np.int64(6)) == topo
    assert set(topo.edges) == {(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)}


def test_complete_graph_edge_count():
    topo = build_topology("complete", 5)
    assert len(topo.edges) == 10


def test_single_site_chain_is_valid():
    assert build_topology("chain", 1).edges == ()


@pytest.mark.parametrize("kind, n", [("ring", 2), ("star", 1), ("chain", 0), ("chain", 2.5)])
def test_bad_sizes(kind, n):
    with pytest.raises(InvalidSize):
        build_topology(kind, n)


@pytest.mark.parametrize("edges", [
    [(0, 3)],          # out of range
    [(1, 1)],          # self-loop
    [(0, 1), (1, 0)],  # duplicate in the other orientation
    [],                # empty
    None,              # missing
])
def test_bad_custom_edges(edges):
    with pytest.raises(InvalidEdge):
        build_topology("custom", 3, edges)


def test_named_family_rejects_edge_list():
    with pytest.raises(InvalidEdge):
        build_topology("chain", 3, [(0, 1)])


def test_custom_edge_indices_must_be_integers():
    # int() would truncate 1.7 to site 1 and fail on NaN with Python's own
    # message; the error names the edge instead.
    with pytest.raises(InvalidEdge, match=r"edge \(0, 1\.7\) indices must be integers"):
        build_topology("custom", 3, [(0, 1.7)])
    with pytest.raises(InvalidEdge, match=r"edge \(nan, 2\) indices must be integers"):
        build_topology("custom", 3, [(0, 1), (float("nan"), 2)])
    assert build_topology("custom", 3, [(np.int64(0), 2)]).edges == ((0, 2),)


def test_custom_edges_normalized_and_sorted():
    topo = build_topology("custom", 4, [(2, 0), (3, 1)])
    assert topo.edges == ((0, 2), (1, 3))


# ----------------------------------------------------------- assemble_huckel

def test_chain3_matrix():
    spec = assemble_huckel(build_topology("chain", 3), 0.0, 1.0, 0.1)
    assert_allclose(spec.h0, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    assert spec.disordered.all()


def test_star7_hub_row():
    spec = assemble_huckel(build_topology("star", 7), 0.0, 1.0, 0.1)
    assert_allclose(spec.h0[0], [0, 1, 1, 1, 1, 1, 1])


def test_alpha_beta_scaling():
    spec = assemble_huckel(build_topology("chain", 2), -0.5, 2.5, 0.1)
    assert_allclose(spec.h0, [[-0.5, 2.5], [2.5, -0.5]])


def test_ring6_eigenvalues_match_circulant_closed_form():
    # Circulant oracle: eigenvalues of a 6-ring are 2 cos(2 pi m / 6).
    spec = assemble_huckel(build_topology("ring", 6), 0.0, 1.0, 0.1)
    closed_form = np.sort(2 * np.cos(2 * np.pi * np.arange(6) / 6))
    assert_allclose(np.linalg.eigvalsh(spec.h0), closed_form, atol=1e-10)
    assert_allclose(closed_form, [-2, -1, -1, 1, 1, 2], atol=1e-12)


def test_star7_spectrum_via_determinant_oracle():
    # Characteristic-polynomial oracle, no eigensolver: det(h0 - x I) must
    # vanish at x = +-sqrt(6), and rank 2 forces eigenvalue 0 with
    # multiplicity 5.
    spec = assemble_huckel(build_topology("star", 7), 0.0, 1.0, 0.1)
    root6 = np.sqrt(6.0)
    for x in (root6, -root6):
        assert abs(np.linalg.det(spec.h0 - x * np.eye(7))) < 1e-9
    assert np.linalg.matrix_rank(spec.h0) == 2
    assert_allclose(np.linalg.eigvalsh(spec.h0),
                    [-root6, 0, 0, 0, 0, 0, root6], atol=1e-10)


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_chain_eigenvalues_closed_form(n):
    spec = assemble_huckel(build_topology("chain", n), 0.0, 1.0, 0.1)
    closed_form = np.sort(2 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))
    assert_allclose(np.linalg.eigvalsh(spec.h0), closed_form, atol=1e-10)


# ---------------------------------------------------------- HamiltonianSpec

def test_spec_rejects_asymmetric_matrix():
    with pytest.raises(ValueError):
        HamiltonianSpec(np.array([[0.0, 1.0], [1.0 + 1e-15, 0.0]]), 0.1)


def test_spec_rejects_bad_gamma_and_mask():
    h = np.zeros((2, 2))
    with pytest.raises(ValueError):
        HamiltonianSpec(h, 0.0)
    with pytest.raises(ValueError):
        HamiltonianSpec(h, 0.1, disordered=[True])


@pytest.mark.parametrize("gamma", [float("nan"), float("inf")])
def test_spec_rejects_non_finite_gamma(gamma):
    with pytest.raises(ValueError, match="gamma"):
        HamiltonianSpec(np.zeros((2, 2)), gamma)


@pytest.mark.parametrize("name", ["alpha", "beta"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_huckel_rejects_non_finite_alpha_beta_by_name(name, value, recwarn):
    # Named before h0 is built: no numpy warning from inf * 0 on the way.
    params = {"alpha": 0.0, "beta": 1.0, name: value}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        assemble_huckel(build_topology("chain", 3), params["alpha"], params["beta"], 0.1)
    assert not recwarn.list


def test_spec_rejects_non_finite_matrix():
    with pytest.raises(ValueError, match="finite"):
        HamiltonianSpec(np.array([[0.0, np.nan], [np.nan, 0.0]]), 0.1)


def test_spec_arrays_frozen():
    spec = assemble_huckel(build_topology("chain", 2), 0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        spec.h0[0, 1] = 5.0
    assert_allclose(np.diagonal(spec.h0), [0.0, 0.0])
    assert spec.n_sites == 2


# ---------------------------------------------------------- assemble_cavity

def test_cavity_two_level():
    params = CavityParams(0.0, 0.0, 0.1, 1, coupling=1.0)
    spec = assemble_cavity(params)
    assert_allclose(spec.h0, [[0, 1], [1, 0]])
    assert list(spec.disordered) == [False, True]


def test_cavity_matches_scaled_star_adjacency():
    params = CavityParams(2.1, 2.1, 0.02, 6, coupling=0.05)
    spec = assemble_cavity(params)
    star = adjacency(build_topology("star", 7))
    assert_allclose(spec.h0, 0.05 * star + 2.1 * np.eye(7))
    assert not spec.disordered[0] and spec.disordered[1:].all()


def test_cavity_coupling_derived_from_bulk_route():
    params = CavityParams(2.1, 2.1, 0.02, 6,
                          v_tilde=4.06e-14, number_density=1.16e25)
    expected = np.sqrt(1.16e25 * 4.06e-14 ** 2 / 6)
    assert_allclose(params.coupling, expected, rtol=1e-12)
    spec = assemble_cavity(params)
    assert_allclose(spec.h0[0, 1:], expected)


# -------------------------------------------------------------- DisorderSpec

def test_disorder_scale_must_be_positive():
    with pytest.raises(ValueError):
        DisorderSpec(Distribution.CAUCHY, 0.0)


def test_disorder_accepts_string_names():
    law = DisorderSpec("gaussian", 1.0)
    assert law.distribution is Distribution.GAUSSIAN


@pytest.mark.parametrize("law", [3, None, "lorentz"])
def test_disorder_rejects_unknown_laws_by_name(law):
    # Not sampled as uniform, which _draw falls back to for any other law.
    with pytest.raises(ValueError, match="distribution"):
        DisorderSpec(law, 0.1)


@pytest.mark.parametrize("law", list(Distribution))
def test_disorder_keeps_distribution_members(law):
    assert DisorderSpec(law, 0.1).distribution is law


@pytest.mark.parametrize("scale", [float("nan"), float("inf")])
def test_disorder_scale_must_be_finite(scale):
    with pytest.raises(ValueError, match="scale"):
        DisorderSpec("cauchy", scale)


# -------------------------------------------------------------- CavityParams

def test_params_consistent_dual_route_accepted():
    v = np.sqrt(1.16e25 * 4.06e-14 ** 2 / 6)
    params = CavityParams(2.1, 2.1, 0.02, 6, v_tilde=4.06e-14,
                          number_density=1.16e25, coupling=v)
    assert_allclose(params.nv2, 1.16e25 * 4.06e-14 ** 2, rtol=1e-12)


def test_params_inconsistent_dual_route_rejected():
    with pytest.raises(InvalidCoupling):
        CavityParams(2.1, 2.1, 0.02, 6, v_tilde=4.06e-14,
                     number_density=1.16e25, coupling=0.1)


def test_params_volume_route():
    # N molecules in volume V: density = N/V and V_per_molecule = v_tilde/sqrt(V).
    params = CavityParams(2.1, 2.1, 0.02, 6, v_tilde=4.06e-14,
                          volume=6 / 1.16e25)
    assert_allclose(params.number_density, 1.16e25)
    assert_allclose(params.nv2, 1.16e25 * 4.06e-14 ** 2, rtol=1e-12)


def test_params_volume_density_conflict_rejected():
    with pytest.raises(InvalidCoupling):
        CavityParams(2.1, 2.1, 0.02, 6, v_tilde=4.06e-14,
                     number_density=1.16e25, volume=1e-24)


def test_params_need_some_coupling_route():
    with pytest.raises(InvalidCoupling):
        CavityParams(2.1, 2.1, 0.02, 6)
    with pytest.raises(InvalidCoupling):
        CavityParams(2.1, 2.1, 0.02, 6, v_tilde=4.06e-14)  # no density/volume


def test_params_validation():
    with pytest.raises(ValueError):
        CavityParams(2.1, 2.1, -0.02, 6, coupling=0.1)
    with pytest.raises(ValueError):
        CavityParams(2.1, 2.1, 0.02, 0, coupling=0.1)
    with pytest.raises(ValueError):
        CavityParams(2.1, 2.1, 0.02, 6, coupling=0.1, mu_debye=-1.0)
    with pytest.raises(InvalidCoupling):
        CavityParams(2.1, 2.1, 0.02, 6, coupling=float("inf"))
    with pytest.raises(ValueError, match="n_molecules must be an integer"):
        CavityParams(2.1, 2.1, 0.02, 2.5, coupling=0.1)
    assert CavityParams(2.1, 2.1, 0.02, np.int64(6), coupling=0.1).n_molecules == 6


def test_zero_coupling_is_a_valid_decoupled_cavity():
    params = CavityParams(2.1, 2.0, 0.02, 3, coupling=0.0)
    assert params.nv2 == 0.0

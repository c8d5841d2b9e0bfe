import numpy as np
import pytest

import cauchygf.montecarlo as mc
from cauchygf.engine import SpectralGrid
from cauchygf.errors import PeakNotFound, UnresolvedWidth
from cauchygf.cavity import CavityParams
from cauchygf.lattice import (DisorderSpec, HamiltonianSpec, assemble_cavity,
                              assemble_huckel, build_topology)
from cauchygf.montecarlo import (EnsembleConfig, ensemble_average,
                                 estimate_peak_width, make_rng,
                                 sample_disorder)

CAUCHY = DisorderSpec("cauchy", 0.1)


def single_site(gamma=0.1):
    return HamiltonianSpec(np.zeros((1, 1)), gamma)


# ------------------------------------------------------------------ sampling

def test_cauchy_draws_have_matching_median_and_quartiles():
    xi = sample_disorder(CAUCHY, 200_000, make_rng(5))
    assert np.median(xi) == pytest.approx(0.0, abs=2e-3)
    # P(|xi| <= scale) = 1/2 for a Cauchy law of that half-width.
    assert np.mean(np.abs(xi) <= 0.1) == pytest.approx(0.5, abs=5e-3)
    # Heavy tails: draws beyond 100*scale appear at rate ~ 2/(100 pi).
    assert np.mean(np.abs(xi) > 10.0) == pytest.approx(2 / (100 * np.pi),
                                                       rel=0.25)


def test_gaussian_and_uniform_draws():
    rng = make_rng(6)
    g = sample_disorder(DisorderSpec("gaussian", 0.3), 200_000, rng)
    assert np.std(g) == pytest.approx(0.3, rel=0.01)
    assert np.mean(g) == pytest.approx(0.0, abs=0.005)
    u = sample_disorder(DisorderSpec("uniform", 0.2), 200_000, rng)
    assert u.min() >= -0.2 and u.max() <= 0.2
    assert np.mean(u) == pytest.approx(0.0, abs=0.002)
    assert np.std(u) == pytest.approx(0.2 / np.sqrt(3), rel=0.01)


def test_same_seed_reproduces_bitwise():
    spec = assemble_huckel(build_topology("chain", 4), 0.0, 1.0, 0.1)
    grid = SpectralGrid(np.linspace(-3, 3, 11), eta=0.05)
    conf = EnsembleConfig(500, 42, CAUCHY, 0.05)
    a = ensemble_average(spec, conf, grid)
    b = ensemble_average(spec, conf, grid)
    assert np.array_equal(a.mean_greens, b.mean_greens)
    assert np.array_equal(a.stderr_re, b.stderr_re)
    c = ensemble_average(spec, EnsembleConfig(500, 43, CAUCHY, 0.05), grid)
    assert not np.array_equal(a.mean_greens, c.mean_greens)


def test_merge_matches_two_pass_statistics():
    rng = np.random.default_rng(3)
    data = rng.standard_normal((1000, 4)) + 1j * rng.standard_normal((1000, 4))
    count, mean = 0, np.zeros(4, complex)
    m2r, m2i = np.zeros(4), np.zeros(4)
    for chunk in np.split(data, [130, 131, 700]):  # ragged chunks incl. size 1
        if not len(chunk):
            continue
        add_mean = chunk.mean(axis=0)
        count, mean, m2r, m2i = mc._merge_streams(
            count, mean, m2r, m2i, len(chunk), add_mean,
            ((chunk.real - add_mean.real) ** 2).sum(axis=0),
            ((chunk.imag - add_mean.imag) ** 2).sum(axis=0))
    assert count == 1000
    np.testing.assert_allclose(mean, data.mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(m2r, data.real.var(axis=0) * 1000, rtol=1e-10)
    np.testing.assert_allclose(m2i, data.imag.var(axis=0) * 1000, rtol=1e-10)


def test_zero_noise_rng_gives_clean_resolvent(monkeypatch):
    # A generator whose uniforms are all 1/2 maps to xi = 0 under the Cauchy
    # inverse CDF, so the single-sample mean must equal the noise-free
    # resolvent with zero spread.
    class Flat:
        def random(self, shape=None):
            return np.full(shape, 0.5) if shape is not None else 0.5

    monkeypatch.setattr(mc, "make_rng", lambda seed: Flat())
    spec = assemble_huckel(build_topology("chain", 3), 0.0, 1.0, 0.1)
    grid = SpectralGrid(np.linspace(-2, 2, 9), eta=0.03)
    out = ensemble_average(spec, EnsembleConfig(1, 0, CAUCHY, 0.03), grid)
    eye = np.eye(3, dtype=complex)
    for k, w in enumerate(grid.omegas):
        want = np.diagonal(np.linalg.solve((w + 0.03j) * eye - spec.h0, eye))
        np.testing.assert_allclose(out.mean_greens[k], want, atol=1e-12)
    assert np.all(out.stderr_re == 0) and np.all(out.stderr_im == 0)


# --------------------------------------------------- convergence to theorem

def test_single_site_mean_hits_cauchy_average_theorem():
    # <1/(w + i*eta - xi)> over Cauchy xi equals 1/(w + i(eta + gamma)):
    # check the MC mean at three frequencies against that closed form,
    # within 3 standard errors componentwise.
    spec = single_site(gamma=0.1)
    grid = SpectralGrid(np.array([-0.5, 0.0, 0.5]), eta=0.05)
    out = ensemble_average(spec, EnsembleConfig(100_000, 9, CAUCHY, 0.05), grid)
    want = 1 / (grid.omegas + 0.15j)
    got = out.mean_greens[:, 0]
    assert np.all(np.abs(got.real - want.real) < 3 * out.stderr_re[:, 0])
    assert np.all(np.abs(got.imag - want.imag) < 3 * out.stderr_im[:, 0])
    assert np.all(out.stderr_re > 0)


def test_gaussian_noise_is_not_the_cauchy_average():
    # Control experiment: with Gaussian disorder of the same scale the
    # -i*gamma substitution is NOT exact; at resonance the discrepancy
    # should exceed 5 standard errors comfortably.
    spec = single_site(gamma=0.1)
    grid = SpectralGrid(np.array([0.0]), eta=0.05)
    conf = EnsembleConfig(100_000, 9, DisorderSpec("gaussian", 0.1), 0.05)
    out = ensemble_average(spec, conf, grid)
    cauchy_form = 1 / 0.15j
    assert abs(out.mean_greens[0, 0].imag - cauchy_form.imag) \
        > 5 * out.stderr_im[0, 0]


def test_stderr_scales_inversely_with_sqrt_n():
    spec = single_site()
    grid = SpectralGrid(np.array([0.2]), eta=0.05)
    small = ensemble_average(spec, EnsembleConfig(1000, 17, CAUCHY, 0.05), grid)
    big = ensemble_average(spec, EnsembleConfig(16_000, 17, CAUCHY, 0.05), grid)
    ratio = small.stderr_im[0, 0] / big.stderr_im[0, 0]
    assert ratio == pytest.approx(4.0, rel=0.25)


def test_stderr_respects_resolvent_bound():
    # |G| <= 1/eta for every realization, so the sample variance obeys
    # var <= 1/eta^2 and stderr^2 * n cannot exceed it.
    spec = single_site()
    grid = SpectralGrid(np.linspace(-1, 1, 5), eta=0.05)
    out = ensemble_average(spec, EnsembleConfig(4000, 21, CAUCHY, 0.05), grid)
    bound = 1 / 0.05 ** 2
    assert np.all(out.stderr_re ** 2 * 4000 <= bound)
    assert np.all(out.stderr_im ** 2 * 4000 <= bound)


def test_elements_default_to_diagonal_and_accept_offdiagonal():
    spec = assemble_huckel(build_topology("star", 4), 0.0, 1.0, 0.1)
    grid = SpectralGrid(np.array([0.3]), eta=0.05)
    conf = EnsembleConfig(200, 11, CAUCHY, 0.05)
    out = ensemble_average(spec, conf, grid)
    assert out.elements == ((0, 0), (1, 1), (2, 2), (3, 3))
    off = ensemble_average(spec, conf, grid, elements=[(0, 2), (3, 3)])
    assert off.elements == ((0, 2), (3, 3))
    assert off.mean_greens.shape == (1, 2)
    # same seed: the shared element must agree exactly across the two runs
    assert off.mean_greens[0, 1] == out.mean_greens[0, 3]


def star_with_hub(disordered_hub, disordered_leaves=4):
    spec = assemble_huckel(build_topology("star", 5), 0.0, 1.0, 0.1)
    mask = [disordered_hub] + [True] * disordered_leaves + [False] * (4 - disordered_leaves)
    return HamiltonianSpec(spec.h0, 0.1, mask)


def test_route_follows_hopping_between_disordered_sites():
    # Schur when the disordered sites couple only through one undisordered
    # site; the eigendecomposition as soon as two disordered sites hop, or
    # when two sites are undisordered.
    cavity = assemble_cavity(CavityParams(2.1, 2.1, 0.02, 6, coupling=0.1))
    chain = assemble_huckel(build_topology("chain", 5), 0.0, 1.0, 0.1)
    chain_end = HamiltonianSpec(chain.h0, 0.1, [False] + [True] * 4)
    assert mc._realization_route(star_with_hub(False)) is mc._schur_chunk
    assert mc._realization_route(cavity) is mc._schur_chunk
    assert mc._realization_route(chain_end) is mc._eigh_chunk
    assert mc._realization_route(star_with_hub(True)) is mc._eigh_chunk
    assert mc._realization_route(star_with_hub(False, 3)) is mc._eigh_chunk


@pytest.mark.parametrize("disordered_hub", [False, True], ids=["schur", "eigh"])
def test_empty_element_list_gives_empty_columns(disordered_hub):
    grid = SpectralGrid(np.linspace(-1, 1, 7), eta=0.05)
    out = ensemble_average(star_with_hub(disordered_hub),
                           EnsembleConfig(50, 4, CAUCHY, 0.05), grid, elements=[])
    assert out.elements == ()
    for values in (out.mean_greens, out.stderr_re, out.stderr_im):
        assert values.shape == (7, 0)
    assert out.n_samples == 50


def test_grid_eta_must_match_config():
    spec = single_site()
    conf = EnsembleConfig(10, 1, CAUCHY, 0.05)
    ensemble_average(spec, conf, SpectralGrid(np.array([0.0]), 0.05))
    ensemble_average(spec, conf, SpectralGrid(np.array([0.0]), 0.0))
    with pytest.raises(ValueError):
        ensemble_average(spec, conf, SpectralGrid(np.array([0.0]), 0.02))


def test_config_validation():
    with pytest.raises(ValueError):
        EnsembleConfig(0, 1, CAUCHY, 0.05)
    with pytest.raises(ValueError):
        EnsembleConfig(10, 1, CAUCHY, 0.0)
    with pytest.raises(ValueError):
        EnsembleConfig(10, -1, CAUCHY, 0.05)
    with pytest.raises(ValueError):
        EnsembleConfig(10, 2 ** 64, CAUCHY, 0.05)


@pytest.mark.parametrize("eta", [float("nan"), float("inf")])
def test_config_rejects_non_finite_eta(eta):
    with pytest.raises(ValueError, match="eta"):
        EnsembleConfig(10, 1, CAUCHY, eta)


# ----------------------------------------------------------------- widths

def test_peak_width_of_sampled_lorentzian():
    omegas = np.linspace(-1, 1, 2001)
    dos = (0.1 / np.pi) / (omegas ** 2 + 0.01)
    width = estimate_peak_width(omegas, dos, (-1.0, 1.0))
    assert width == pytest.approx(0.2, abs=omegas[1] - omegas[0])


def test_peak_width_failure_modes():
    omegas = np.linspace(-1, 1, 201)
    rising = np.exp(omegas)  # maximum at the window edge
    with pytest.raises(PeakNotFound):
        estimate_peak_width(omegas, rising, (-1.0, 1.0))
    with pytest.raises(PeakNotFound):
        estimate_peak_width(omegas, rising, (0.0, 0.015))  # <3 samples
    # Peak present but the window clips both half-height crossings.
    dos = (0.1 / np.pi) / (omegas ** 2 + 0.01)
    with pytest.raises(UnresolvedWidth):
        estimate_peak_width(omegas, dos, (-0.05, 0.05))

"""Brute-force disorder averaging, the empirical check on the exact engine.

Draw explicit noise realizations, resolve each one exactly, and accumulate the
ensemble mean and standard error of the requested Green's-function elements.
Each realization is resolved by one of two routes, chosen from the structure of
h0 alone:

* Schur complement, when h0 has no hopping between disordered sites (its
  disordered block D is exactly diagonal) and at most one site is
  undisordered: the cavity, whose molecules couple only through the mode u.
  Then G_uu = 1/(z - h_uu - Sigma) with the self-energy
  Sigma = sum_i h_ui^2 / (z - h_ii - xi_i), and every other element follows
  from G_uu, with no eigensolver.
* Batched symmetric eigendecomposition of h0 + diag(xi) otherwise (the
  graphs), G_ij = sum_m V_im V_jm / (z - lambda_m).  It is also the oracle the
  Schur route is tested against.

Both routes reduce to sums of weights over real poles, which one real-arithmetic
kernel evaluates in cache-sized tiles.  Heavy Cauchy tails are safe without
truncation because every element is bounded by 1/eta at frequency w + i*eta,
so the estimator has finite variance even though the inputs do not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import SpectralGrid, _normalized_elements
from .errors import PeakNotFound, UnresolvedWidth
from .lattice import DisorderSpec, Distribution, HamiltonianSpec
from .quadrature import _validated_curve

# Chunk sizing targets, in array elements: keep the batched eigendecomposition
# and the per-chunk Green's-function blocks comfortably inside a few hundred MB.
_EIGH_BUDGET = int(1e7)
_STATS_BUDGET = int(1.5e6)
# Pole sums run over tiles of samples x frequencies whose real temporaries
# hold about this many cells each, so they stay in cache.
_TILE_BUDGET = 2 ** 15


@dataclass(frozen=True)
class EnsembleConfig:
    """Sampling plan: how many realizations, from which law, at which eta.

    Realizations have real spectra, so eta must be strictly positive for
    their resolvents to exist on the real axis.
    """

    n_samples: int
    seed: int
    distribution: DisorderSpec
    eta: float

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError(f"need at least one sample, got {self.n_samples}")
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"realizations have real spectra; eta must be finite "
                             f"and > 0, got {self.eta}")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class EnsembleResult:
    """Ensemble mean and component-wise standard error per (omega, element)."""

    omegas: np.ndarray
    eta: float
    elements: tuple[tuple[int, int], ...]
    mean_greens: np.ndarray   # (n_omega, n_elements) complex
    stderr_re: np.ndarray     # (n_omega, n_elements)
    stderr_im: np.ndarray
    n_samples: int


def make_rng(seed: int) -> np.random.Generator:
    """Philox counter-based generator: sample i is reproducible by seed alone,
    independent of threading or chunk boundaries."""
    return np.random.Generator(np.random.Philox(int(seed)))


def _draw(dist: DisorderSpec, shape, rng) -> np.ndarray:
    """I.i.d. draws from the disorder law.  Cauchy uses the inverse-CDF map
    xi = scale*tan(pi*(u - 1/2)) with u uniform on the open interval (0, 1)."""
    if dist.distribution is Distribution.CAUCHY:
        u = np.asarray(rng.random(shape), dtype=float)
        while True:  # u = 0 would map tan to the excluded endpoint
            bad = u == 0.0
            if not bad.any():
                break
            u[bad] = rng.random(int(bad.sum()))
        return dist.scale * np.tan(np.pi * (u - 0.5))
    if dist.distribution is Distribution.GAUSSIAN:
        return dist.scale * rng.standard_normal(shape)
    return rng.uniform(-dist.scale, dist.scale, shape)


def _merge_streams(count, mean, m2_re, m2_im, add_count, add_mean, add_m2_re, add_m2_im):
    # Exact pairwise combination of (count, mean, sum of squared deviations),
    # applied to the real and imaginary components separately.
    total = count + add_count
    delta = add_mean - mean
    mean = mean + delta * (add_count / total)
    scale = count * add_count / total
    m2_re = m2_re + add_m2_re + scale * delta.real ** 2
    m2_im = m2_im + add_m2_im + scale * delta.imag ** 2
    return total, mean, m2_re, m2_im


def _pole_sums(weights, poles, omegas, eta, out):
    """out[c, p, w] = sum_m weights[(c,) p, m] / (omegas[w] + i*eta - poles[c, m]).

    ``weights`` is (p, m), shared by every sample, or (c, p, m).  With
    d = w - pole and r = 1/(d^2 + eta^2) the real part is weights @ (d*r) and
    the imaginary part weights @ (-eta*r): two real matrix products per tile
    of samples x frequencies, each temporary about _TILE_BUDGET cells.
    """
    n_samples, m = poles.shape
    n_omega = omegas.size
    w_tile = min(n_omega, max(1, _TILE_BUDGET // max(1, m)))
    c_tile = max(1, _TILE_BUDGET // max(1, m * w_tile))
    # Two buffers serve every tile: with fresh temporaries per tile the
    # allocator handed their pages back to the system and faulted them in
    # again, which doubled the time at some tile widths.
    d_cells, r_cells = np.empty((2, c_tile * m * w_tile))
    for c0 in range(0, n_samples, c_tile):
        c1 = min(c0 + c_tile, n_samples)
        mix = weights if weights.ndim == 2 else weights[c0:c1]
        for w0 in range(0, n_omega, w_tile):
            w1 = min(w0 + w_tile, n_omega)
            shape = (c1 - c0, m, w1 - w0)
            d = d_cells[:math.prod(shape)].reshape(shape)
            r = r_cells[:d.size].reshape(shape)
            np.subtract(omegas[w0:w1], poles[c0:c1, :, None], out=d)
            np.multiply(d, d, out=r)
            r += eta * eta
            np.reciprocal(r, out=r)
            d *= r
            r *= -eta
            tile = out[c0:c1, :, w0:w1]
            tile.real = mix @ d
            tile.imag = mix @ r


def _eigh_chunk(spec, xi, pairs, omegas, eta):
    """Elements ``pairs`` of each realization's resolvent, (c, k, n_omega),
    from a batched eigendecomposition of h0 + diag(xi): the poles are the
    eigenvalues, the weights the eigenvector products V_im V_jm."""
    c, n = xi.shape
    h = np.broadcast_to(spec.h0, (c, n, n)).copy()
    h[:, np.arange(n), np.arange(n)] += xi
    evals, evecs = np.linalg.eigh(h)
    rows, cols = np.array(pairs, dtype=int).reshape(-1, 2).T
    out = np.empty((c, rows.size, omegas.size), dtype=complex)
    _pole_sums(evecs[:, rows, :] * evecs[:, cols, :], evals, omegas, eta, out)
    return out


def _schur_chunk(spec, xi, pairs, omegas, eta):
    """The same elements when no two disordered sites hop to each other and
    at most one site u is undisordered.

    Each disordered site i then couples only to u, so eliminating it gives
    G_uu = 1/(z - h_uu - sum_i h_ui^2 g_i) with g_i = 1/(z - a_i),
    a_i = h_ii + xi_i, and every element is G_ij = phi_i phi_j G_uu plus g_i
    when i = j is disordered, where phi_u = 1 and phi_i = h_iu g_i.  With no
    u, G_uu = 0 and G is the diagonal of g.
    """
    disordered = spec.disordered
    d_sites = np.flatnonzero(disordered)
    c, n_omega = xi.shape[0], omegas.size
    z = omegas + 1j * eta
    poles = np.diagonal(spec.h0)[d_sites] + xi[:, d_sites]          # (c, |D|)
    g_uu = np.zeros((c, 1, n_omega), dtype=complex)
    lead = np.zeros(spec.n_sites)                                   # h_su, 1 at u
    if not disordered.all():
        (u,) = np.flatnonzero(~disordered)
        lead = spec.h0[:, u].copy()
        lead[u] = 1.0
        _pole_sums(lead[None, d_sites] ** 2, poles, omegas, eta, g_uu)
        # Im(z - h_uu - Sigma) >= eta > 0, so the reciprocal always exists.
        np.subtract(z - spec.h0[u, u], g_uu, out=g_uu)
        np.reciprocal(g_uu, out=g_uu)

    ends = np.array(pairs, dtype=int).reshape(-1, 2)
    # g_s once for each site named in a pair; sample tiles keep it in cache.
    sites, at = np.unique(ends, return_inverse=True)
    at = at.reshape(ends.shape)
    on_d = disordered[sites]
    column = np.searchsorted(d_sites, sites[on_d])
    on_site = (ends[:, 0] == ends[:, 1]) & disordered[ends[:, 0]]
    out = np.empty((c, len(ends), n_omega), dtype=complex)
    step = max(1, _TILE_BUDGET // max(1, (len(ends) + sites.size) * n_omega))
    for c0 in range(0, c, step):
        g = np.ones((min(step, c - c0), sites.size, n_omega), dtype=complex)
        g[:, on_d] = np.reciprocal(z - poles[c0:c0 + step, column, None])
        phi = g * lead[sites, None]
        tile = out[c0:c0 + step]
        np.multiply(phi[:, at[:, 0]], phi[:, at[:, 1]], out=tile)
        tile *= g_uu[c0:c0 + step]
        tile[:, on_site] += g[:, at[on_site, 0]]
    return out


def _realization_route(spec):
    """The chunk solver for this h0: Schur when its disordered block is
    exactly diagonal and at most one site is undisordered, the batched
    eigendecomposition otherwise.  With two or more undisordered sites each
    sample and frequency would need a |U| x |U| inverse, and those made a
    Schur route up to 24 times slower than the eigendecomposition."""
    block = spec.h0[np.ix_(spec.disordered, spec.disordered)]
    hops = np.count_nonzero(block) > np.count_nonzero(np.diagonal(block))
    few_u = np.count_nonzero(~spec.disordered) <= 1
    return _schur_chunk if few_u and not hops else _eigh_chunk


def ensemble_average(spec: HamiltonianSpec, config: EnsembleConfig,
                     grid: SpectralGrid, elements=None) -> EnsembleResult:
    """Monte-Carlo mean of G_ij(w + i*eta) over explicit disorder realizations.

    Each sample, H = h0 + diag(xi * mask), is resolved exactly, through a
    Schur complement on the undisordered site when no two disordered sites
    hop to each other and at most one site is undisordered, and through its
    eigenmode sum otherwise; accumulation
    uses a numerically stable streaming mean/variance so nothing is stored
    per sample.  ``elements`` defaults to the full diagonal.  The probe eta
    comes from ``config``; a nonzero grid.eta must agree with it.
    """
    if grid.eta not in (0.0, config.eta):
        raise ValueError(f"grid.eta = {grid.eta} conflicts with ensemble eta = {config.eta}")
    n = spec.n_sites
    if elements is None:
        elements = tuple((i, i) for i in range(n))
    else:
        elements = _normalized_elements(elements, n)
    k = len(elements)
    nw = grid.omegas.size
    solve = _realization_route(spec)

    chunk_cap = max(1, min(
        max(32, min(8192, _EIGH_BUDGET // (n * n))),
        max(1, _STATS_BUDGET // (max(1, k) * nw)),
        config.n_samples))

    rng = make_rng(config.seed)
    count = 0
    mean = np.zeros((k, nw), dtype=complex)
    m2_re = np.zeros((k, nw))
    m2_im = np.zeros((k, nw))
    mask = spec.disordered.astype(float)

    remaining = config.n_samples
    while remaining > 0:
        c = min(chunk_cap, remaining)
        xi = _draw(config.distribution, (c, n), rng) * mask
        g = solve(spec, xi, elements, grid.omegas, config.eta)  # (c, k, nw)
        chunk_mean = g.mean(axis=0)
        g -= chunk_mean  # now the deviations from the chunk mean
        count, mean, m2_re, m2_im = _merge_streams(
            count, mean, m2_re, m2_im,
            c, chunk_mean, (g.real ** 2).sum(axis=0), (g.imag ** 2).sum(axis=0))
        remaining -= c

    if count > 1:
        stderr_re = np.sqrt(m2_re / (count - 1) / count)
        stderr_im = np.sqrt(m2_im / (count - 1) / count)
    else:
        stderr_re = np.zeros((k, nw))
        stderr_im = np.zeros((k, nw))
    return EnsembleResult(grid.omegas, config.eta, elements,
                          mean.T.copy(), stderr_re.T.copy(), stderr_im.T.copy(),
                          int(count))


def estimate_peak_width(omegas, dos, window) -> float:
    """FWHM of the tallest peak inside window = (lo, hi), by linear
    interpolation of the two half-height crossings around the maximum.

    The curve should sample the peak with at least ~20 points for the
    interpolation to be meaningful.  Raises PeakNotFound when the maximum
    sits on the window edge (no interior maximum), UnresolvedWidth when a
    half-height crossing is not bracketed inside the window.
    """
    xs, ys = _validated_curve(omegas, dos)
    lo, hi = float(window[0]), float(window[1])
    selected = np.nonzero((xs >= lo) & (xs <= hi))[0]
    if selected.size < 3:
        raise PeakNotFound(f"window [{lo}, {hi}] holds fewer than 3 samples")
    first, last = selected[0], selected[-1]
    peak = first + int(np.argmax(ys[first:last + 1]))
    if peak in (first, last):
        raise PeakNotFound("maximum sits on the window edge, not at an interior peak")
    half = 0.5 * ys[peak]

    left = None
    for i in range(peak - 1, first - 1, -1):
        if ys[i] <= half:
            frac = (half - ys[i]) / (ys[i + 1] - ys[i])
            left = xs[i] + frac * (xs[i + 1] - xs[i])
            break
    right = None
    for i in range(peak + 1, last + 1):
        if ys[i] <= half:
            frac = (half - ys[i - 1]) / (ys[i] - ys[i - 1])
            right = xs[i - 1] + frac * (xs[i] - xs[i - 1])
            break
    if left is None or right is None:
        raise UnresolvedWidth("half-height crossing falls outside the window")
    return float(right - left)

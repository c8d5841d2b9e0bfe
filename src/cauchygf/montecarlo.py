"""Brute-force disorder averaging, the empirical check on the exact engine.

Draw explicit noise realizations, resolve each one exactly through a batched
symmetric eigendecomposition, and accumulate the ensemble mean and standard
error of the requested Green's-function elements.  Heavy Cauchy tails are
safe without truncation because every element is bounded by 1/eta at
frequency w + i*eta, so the estimator has finite variance even though the
inputs do not.
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
# and the per-chunk resolvent blocks comfortably inside a few hundred MB.
_EIGH_BUDGET = int(1e7)
_STATS_BUDGET = int(1.5e6)
_RESOLVENT_BUDGET = int(2.5e6)


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


def sample_disorder(dist: DisorderSpec, n_sites: int, rng) -> np.ndarray:
    """One realization: n_sites i.i.d. draws from the disorder law.

    Cauchy uses the inverse-CDF map xi = scale*tan(pi*(u - 1/2)) with u
    uniform on the open interval (0, 1).
    """
    return _draw(dist, (int(n_sites),), rng)


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


def ensemble_average(spec: HamiltonianSpec, config: EnsembleConfig,
                     grid: SpectralGrid, elements=None) -> EnsembleResult:
    """Monte-Carlo mean of G_ij(w + i*eta) over explicit disorder realizations.

    For each sample, H = h0 + diag(xi * mask) is diagonalized and the
    requested elements are rebuilt from the eigenmode sum; accumulation uses
    a numerically stable streaming mean/variance so nothing is stored per
    sample.  ``elements`` defaults to the full diagonal.  The probe eta comes
    from ``config``; a nonzero grid.eta must agree with it.
    """
    if grid.eta not in (0.0, config.eta):
        raise ValueError(f"grid.eta = {grid.eta} conflicts with ensemble eta = {config.eta}")
    n = spec.n_sites
    if elements is None:
        elements = tuple((i, i) for i in range(n))
    else:
        elements = _normalized_elements(elements, n)
    k = len(elements)
    z = grid.omegas + 1j * config.eta
    nw = z.size

    chunk_cap = max(1, min(
        max(32, min(8192, _EIGH_BUDGET // (n * n))),
        max(1, _STATS_BUDGET // max(1, k * nw)),
        config.n_samples))
    omega_block = int(np.clip(_RESOLVENT_BUDGET // max(1, chunk_cap * n), 8, nw))

    rng = make_rng(config.seed)
    count = 0
    mean = np.zeros((k, nw), dtype=complex)
    m2_re = np.zeros((k, nw))
    m2_im = np.zeros((k, nw))
    site_index = np.arange(n)
    mask = spec.disordered.astype(float)

    remaining = config.n_samples
    while remaining > 0:
        c = min(chunk_cap, remaining)
        xi = _draw(config.distribution, (c, n), rng) * mask
        h = np.broadcast_to(spec.h0, (c, n, n)).copy()
        h[:, site_index, site_index] += xi
        evals, evecs = np.linalg.eigh(h)
        weights = np.stack([evecs[:, i, :] * evecs[:, j, :] for i, j in elements], axis=1)
        g = np.empty((c, k, nw), dtype=complex)
        for w0 in range(0, nw, omega_block):
            w1 = min(w0 + omega_block, nw)
            # In place throughout: the (c, n, block) and (c, k, nw) arrays
            # are the chunk's largest, so each exists once.
            modes = z[w0:w1][None, None, :] - evals[:, :, None]
            np.divide(1.0, modes, out=modes)
            np.einsum("ckn,cnw->ckw", weights, modes, out=g[:, :, w0:w1])
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

"""Brute-force disorder averaging, the empirical check on the exact engine.

Draw explicit noise realizations, resolve each one exactly, and accumulate the
ensemble mean and standard error of the requested Green's-function elements.
Each realization is resolved by one of two routes, chosen from the structure of
h0 and the elements asked for:

* Schur complement, when h0 has no hopping between disordered sites (its
  disordered block D is exactly diagonal), exactly one site u is
  undisordered and every element asked for is diagonal: the cavity's
  spectra, whose molecules couple only through the mode u.  Then
  G_uu = 1/(z - h_uu - Sigma) with the self-energy
  Sigma = sum_i h_ui^2 / (z - h_ii - xi_i), and each G_ii follows from
  G_uu, with no eigensolver.
* Batched symmetric eigendecomposition of h0 + diag(xi) otherwise (the
  graphs, isolated sites, off-diagonal elements),
  G_ij = sum_m V_im V_jm / (z - lambda_m).  It is also the oracle the Schur
  route is tested against.

Both routes reduce to sums of weights over real poles, which the package's one
real-arithmetic kernel, ``engine._pole_sums``, evaluates in cache-sized tiles
of samples x frequencies.  Each finished tile of G is folded into its block's
mean and variance while it is still in cache, so no array spans a block's
samples, elements and frequencies.  Heavy Cauchy tails are safe without
truncation because every element is bounded by 1/eta at frequency w + i*eta,
so the estimator has finite variance even though the inputs do not.

The samples are split into blocks whose size depends only on the shape of
the request: its sites, elements and frequencies.  Block b holds the b-th
segment of the seed's Philox stream and is folded from zero on its own, one
block per CPU the process may use at a time: the calling thread folds the
first of each group and a thread pool the others.  They merge into the total
in block order, so the means and standard errors are the same bits whatever
the core count.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .engine import _TILE_BUDGET, SpectralGrid, _normalized_elements, _pole_sums
from .errors import ConvergenceFailure
from .lattice import DisorderSpec, Distribution, HamiltonianSpec

# Block sizing target, in array elements: keep a block's batched
# eigendecomposition, its eigenvector products and its pole sums comfortably
# inside a few hundred MB.
_BLOCK_BUDGET = int(1e7)


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
        for name, value in (("n_samples", self.n_samples), ("seed", self.seed)):
            if not hasattr(type(value), "__index__"):  # as operator.index checks
                raise ValueError(f"{name} must be an integer, got {value!r}")
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

    elements: tuple[tuple[int, int], ...]
    mean_greens: np.ndarray   # (n_omega, n_elements) complex
    stderr_re: np.ndarray     # (n_omega, n_elements)
    stderr_im: np.ndarray
    n_samples: int


def make_rng(seed: int) -> np.random.Generator:
    """Philox counter-based generator: sample i is reproducible by seed alone,
    independent of threading or block boundaries."""
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
        # In place, the same roundings as scale * tan(pi * (u - 0.5)).
        u -= 0.5
        u *= np.pi
        np.tan(u, out=u)
        u *= dist.scale
        return u
    if dist.distribution is Distribution.GAUSSIAN:
        xi = rng.standard_normal(shape)
        xi *= dist.scale
        return xi
    return rng.uniform(-dist.scale, dist.scale, shape)


def _merge_streams(count, mean, m2, add_count, add_mean, add_m2):
    # Exact pairwise combination of (count, mean, sum of squared deviations)
    # per real component (Chan, Golub & LeVeque), into mean and m2 in place.
    delta = add_mean - mean
    mean += delta * (add_count / (count + add_count))
    delta *= delta
    delta *= count * add_count / (count + add_count)
    m2 += add_m2
    m2 += delta


def _eigh_chunk(spec, xi, pairs, omegas, eta):
    """Tiles of the elements ``pairs`` of each realization's resolvent, laid
    out as ``_pole_sums`` yields them, from a batched eigendecomposition of
    h0 + diag(xi): the poles are the eigenvalues, the weights the
    eigenvector products V_im V_jm."""
    c, n = xi.shape
    h = np.broadcast_to(spec.h0, (c, n, n)).copy()
    h[:, np.arange(n), np.arange(n)] += xi
    try:
        evals, evecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"batched symmetric eigensolver failed: {exc}") from exc
    rows, cols = np.array(pairs, dtype=int).reshape(-1, 2).T
    yield from _pole_sums(evecs[:, rows, :] * evecs[:, cols, :], evals, omegas, eta)


def _schur_chunk(spec, xi, pairs, omegas, eta):
    """The same tiles, each holding every frequency, for the diagonal
    requests that _realization_route sends here.  Each disordered site i
    couples only to the one undisordered site u, so eliminating it gives
    G_uu = 1/(z - h_uu - sum_i h_ui^2 g_i) with g_i = 1/(z - a_i),
    a_i = h_ii + xi_i, and G_ii = g_i (1 + h_ui^2 g_i G_uu).  G_uu and the
    g_i come from real arithmetic, G_uu = (a + ib)/(a^2 + b^2) and
    g_i = (d*r, -eta*r) with d = w - a_i, r = 1/(d^2 + eta^2).
    """
    d_sites = np.flatnonzero(spec.disordered)
    u = np.flatnonzero(~spec.disordered)[0]
    c, n_omega = xi.shape[0], omegas.size
    levels = np.diagonal(spec.h0)[d_sites]
    coupling = spec.h0[d_sites, u] ** 2
    sites = np.array(pairs, dtype=int).reshape(-1, 2)[:, 0]
    u_rows, d_rows = np.flatnonzero(sites == u), np.flatnonzero(sites != u)
    column = np.searchsorted(d_sites, sites[d_rows])               # i's place in D
    weight = coupling[column, None]
    shifted = omegas - spec.h0[u, u]

    # A step fills G_uu and the tile, 2 * (k + 1) * n_omega cells per
    # sample, with twice _TILE_BUDGET cells, as one of the kernel's tiles
    # holds.  With half that, a step at k = 7 held about ten samples, and its
    # numpy calls, which hold the interpreter lock that the block threads
    # share, cost more than its arithmetic.
    step = min(c, max(1, _TILE_BUDGET // ((sites.size + 1) * n_omega)))
    # Buffers reused by every tile, for the same reason as in engine._pole_sums.
    # The self-energy sums land where G_uu is then built in place: the tile's
    # first u row when u is asked for.
    tile = np.empty((step, 2, sites.size, n_omega))
    planes = tile[:, :, u_rows[0]] if u_rows.size else np.empty((step, 2, n_omega))
    norm = np.empty((step, n_omega))
    if d_rows.size:  # G_ii takes G_uu as a complex factor
        g_uu = np.empty((step, 1, n_omega), dtype=complex)
        d, r = np.empty((2, step, d_rows.size, n_omega))
        g, values = np.empty((2, step, d_rows.size, n_omega), dtype=complex)
    for c0 in range(0, c, step):
        s = min(step, c - c0)
        poles = levels + xi[c0:c0 + s, d_sites]                       # (s, |D|)
        shared = np.broadcast_to(coupling, (s, 1, d_sites.size))
        for t0, t1, w0, w1, sums in _pole_sums(shared, poles, omegas, eta):
            planes[t0:t1, :, w0:w1] = sums[:, :, 0]
        # G_uu = 1/(a - ib) = (a + ib)/(a^2 + b^2), where a - ib is
        # z - h_uu - Sigma and b = Im Sigma - eta <= -eta, so it exists.
        a, b = planes[:s, 0], planes[:s, 1]
        np.subtract(shifted, a, out=a)
        b -= eta
        np.einsum("cjw,cjw->cw", planes[:s], planes[:s], out=norm[:s])  # a*a + b*b, no temporary
        planes[:s] /= norm[:s, None]
        if u_rows.size > 1:
            tile[:s, :, u_rows[1:]] = planes[:s, :, None]
        if d_rows.size:
            g_uu.real[:s, 0], g_uu.imag[:s, 0] = a, b
            np.subtract(omegas, poles[:, column, None], out=d[:s])
            np.multiply(d[:s], d[:s], out=r[:s])
            r[:s] += eta * eta
            np.reciprocal(r[:s], out=r[:s])
            np.multiply(d[:s], r[:s], out=g.real[:s])
            np.multiply(r[:s], -eta, out=g.imag[:s])
            np.multiply(g[:s], g_uu[:s], out=values[:s])
            values[:s] *= weight
            values[:s] += 1.0
            values[:s] *= g[:s]
            tile[:s, 0, d_rows] = values.real[:s]
            tile[:s, 1, d_rows] = values.imag[:s]
        yield c0, c0 + s, 0, n_omega, tile[:s]


def _realization_route(spec, elements):
    """Schur when h0's disordered block is exactly diagonal, exactly one site
    is undisordered and every element is diagonal, else the batched
    eigendecomposition.  Two or more undisordered sites would need a
    |U| x |U| inverse per sample and frequency, up to 24 times slower than
    the eigendecomposition; with none, every site is isolated."""
    block = spec.h0[np.ix_(spec.disordered, spec.disordered)]
    hops = np.count_nonzero(block) > np.count_nonzero(np.diagonal(block))
    one_u = np.count_nonzero(~spec.disordered) == 1
    diagonal = all(i == j for i, j in elements)
    return _schur_chunk if one_u and not hops and diagonal else _eigh_chunk


def _block_size(n, k, n_omega):
    """Samples per block, from the shape alone: the eigh batch (c, n, n), its
    eigenvector products (c, k, n) and the pole sums over n poles at n_omega
    frequencies (c, n, n_omega) stay within _BLOCK_BUDGET cells.  So a few
    thousand samples already make more than one block to share out, and a
    request with many frequencies, whose pole sums are most of its work,
    makes smaller blocks: the cavity's N = 80 at 601 frequencies takes 205
    samples a block."""
    return max(32, min(2048, _BLOCK_BUDGET // (n * max(n, k, n_omega))))


def _usable_cpus():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _fold_block(solve, spec, xi, elements, omegas, eta):
    """(mean, m2) of one block of realizations, starting from zero: each
    tile's mean and the squared deviations from it, merged into the cells
    it covers (which have seen c0 of the block's samples) while it is still
    in cache."""
    k, nw = len(elements), omegas.size
    mean = np.zeros((2, k, nw))
    m2 = np.zeros((2, k, nw))
    for c0, c1, w0, w1, tile in solve(spec, xi, elements, omegas, eta):
        flat = tile.reshape(c1 - c0, -1)
        tile_mean = flat.mean(axis=0)
        flat -= tile_mean
        cells = np.s_[:, :, w0:w1]
        _merge_streams(c0, mean[cells], m2[cells], c1 - c0,
                       tile_mean.reshape(2, k, w1 - w0),
                       np.einsum("cx,cx->x", flat, flat).reshape(2, k, w1 - w0))
    return mean, m2


def ensemble_average(spec: HamiltonianSpec, config: EnsembleConfig,
                     grid: SpectralGrid, elements=None) -> EnsembleResult:
    """Monte-Carlo mean of G_ij(w + i*eta) over explicit disorder realizations.

    Each sample, H = h0 + diag(xi * mask), is resolved exactly, through a
    Schur complement on the one undisordered site when no two disordered
    sites hop to each other and every element is diagonal, and through its
    eigenmode sum otherwise.  The solver hands over tiles of samples x
    frequencies; each tile is reduced to its mean and squared deviations
    while it is still in cache and merged pairwise into its block's
    statistics (Chan, Golub & LeVeque), so no array holds a block's samples,
    elements and frequencies at once.  Blocks are folded one per usable CPU
    at a time, the first of each group on the calling thread (rather than on
    one more pool thread, which would only add memory) and the rest on a
    thread pool, and merged in block order, so the result does not depend on
    the core count.  ``elements`` defaults to the full diagonal.
    The probe eta comes from ``config``; a nonzero grid.eta must agree with
    it.  Raises ConvergenceFailure if a batched eigendecomposition fails.
    """
    if grid.eta not in (0.0, config.eta):
        raise ValueError(f"grid.eta = {grid.eta} conflicts with ensemble eta = {config.eta}")
    n = spec.n_sites
    if elements is None:
        elements = tuple((i, i) for i in range(n))
    else:
        elements = _normalized_elements(elements, n)
    k, nw = len(elements), grid.omegas.size
    solve = _realization_route(spec, elements)

    rng = make_rng(config.seed)
    mask = spec.disordered.astype(float)
    block = _block_size(n, k, nw)
    sizes = [min(block, config.n_samples - b0) for b0 in range(0, config.n_samples, block)]
    workers = min(_usable_cpus(), len(sizes))

    # Imported here: it loads logging, 8 ms that commands without ensembles skip.
    from concurrent.futures import ThreadPoolExecutor

    count = 0
    mean = np.zeros((2, k, nw))   # running (re, im) mean and squared deviations
    m2 = np.zeros((2, k, nw))
    with ThreadPoolExecutor(max(1, workers - 1)) as pool:
        for g0 in range(0, len(sizes), workers):
            # One block per worker, drawn here in stream order.
            counts = sizes[g0:g0 + workers]
            group = []
            for c in counts:
                xi = _draw(config.distribution, (c, n), rng)
                xi *= mask
                group.append((solve, spec, xi, elements, grid.omegas, config.eta))
            futures = [pool.submit(_fold_block, *args) for args in group[1:]]
            folded = [_fold_block(*group[0])] + [future.result() for future in futures]
            for c, stats in zip(counts, folded):
                _merge_streams(count, mean, m2, c, *stats)
                count += c

    stderr = np.sqrt(m2 / max(1, count - 1) / count)
    return EnsembleResult(elements, (mean[0] + 1j * mean[1]).T.copy(),
                          stderr[0].T.copy(), stderr[1].T.copy(), int(count))

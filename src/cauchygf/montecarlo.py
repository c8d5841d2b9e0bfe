"""Brute-force disorder averaging, the empirical check on the exact engine.

Draw explicit noise realizations, resolve each one exactly, and accumulate the
ensemble mean and standard error of the requested Green's-function elements.
Each realization is resolved by one of two routes, chosen from the structure of
h0 and the elements asked for:

* Schur complement, when h0 has no hopping between disordered sites (its
  disordered block D is exactly diagonal), exactly one site u is
  undisordered and every element asked for is G_uu: the cavity mode, whose
  molecules couple only through it.  Then G_uu = 1/(z - h_uu - Sigma) with
  the self-energy Sigma = sum_i h_ui^2 / (z - h_ii - xi_i), with no
  eigensolver, and the poles far from the frequency window are summed by a
  truncated series instead of one by one (``_schur_chunk``).
* Batched symmetric eigendecomposition of h0 + diag(xi) for every other
  request (the graphs, isolated sites, the molecules' elements, off-diagonal
  elements), G_ij = sum_m V_im V_jm / (z - lambda_m).  It is also the oracle
  the Schur route is tested against.  Each block is decomposed in
  sub-batches sized by the kernel's tile budget (``_eigh_chunk``).

Both routes reduce to sums of weights over real poles, which the package's one
real-arithmetic kernel, ``engine._pole_sums``, evaluates in cache-sized tiles
of samples x frequencies (all but the Schur route's far poles).  Each
finished tile is folded into its block's mean and variance while it is still
in cache, so no array spans a block's samples, elements and frequencies.
Heavy Cauchy tails are safe without truncation because every element is
bounded by 1/eta at frequency w + i*eta, so the estimator has finite variance
even though the inputs do not.

The samples are split into blocks whose size depends only on the shape of
the request: its sites, elements and frequencies.  Block b holds the b-th
segment of the seed's Philox stream and is folded from zero on its own.  On
Linux, when the caller is the process's only Python thread and there is more
than one block, the caller forks one worker process for each other CPU the
process may use (threads would share one interpreter lock, which the batched
eigh and every numpy call in the fold take).  Each of the w processes replays
the stream's draws in block order, a small cost beside a fold, and folds the
blocks b = j mod w; worker j sends each block's statistics, or the exception
that stopped it, to the caller through a pipe.  Otherwise the calling thread
folds every block, with the same calls.  The blocks merge into the total in
block order, so the means and standard errors are the same bits whatever the
core count and whether or not workers ran, and no worker outlives the call.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import sys
import threading
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .engine import (_TILE_BUDGET, SpectralGrid, _normalized_elements, _pole_sums,
                     _tile_shape)
from .errors import ConvergenceFailure
from .lattice import DisorderSpec, Distribution, HamiltonianSpec

# Block sizing target, in array elements: how the samples are split into
# blocks, which fixes the statistics' bits and the work shared among
# processes.  Memory is bounded by the kernel's tile budget instead.
_BLOCK_BUDGET = int(1e7)

# The Schur route's far field (_schur_chunk): a pole at least _FAR_RADII
# window radii from the window's midpoint is summed by a series of
# _SERIES_TERMS terms, each moment a product of a low and a high power.
_FAR_RADII = 4.0
_LOW_POWERS, _HIGH_POWERS = 9, 3
_SERIES_TERMS = _LOW_POWERS * _HIGH_POWERS


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
    out as ``_pole_sums`` yields them, from batched eigendecompositions of
    h0 + diag(xi): the poles are the eigenvalues, the weights the
    eigenvector products V_im V_jm.

    The samples are decomposed in sub-batches of the most whole sample tiles
    of ``_pole_sums`` whose (sub, n, n) batch fits in _TILE_BUDGET cells, and
    at least one tile, into buffers every sub-batch reuses.  So memory is set
    by the tile budget, not by the block, and the tiles, their products and
    the statistics' bits are those of one batch of the whole block.
    """
    c, n = xi.shape
    k = len(pairs)
    tile, _ = _tile_shape(c, n, k, 0, omegas.size)
    sub = min(c, tile * max(1, _TILE_BUDGET // (tile * n * n)))
    h = np.empty((sub, n, n))
    weights = np.empty((sub, k, n))
    rows, cols = np.array(pairs, dtype=int).reshape(-1, 2).T
    diagonal = np.arange(n)
    for s0 in range(0, c, sub):
        s1 = min(s0 + sub, c)
        batch = h[:s1 - s0]
        batch[...] = spec.h0
        batch[:, diagonal, diagonal] += xi[s0:s1]
        try:
            evals, evecs = np.linalg.eigh(batch)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceFailure(f"batched symmetric eigensolver failed: {exc}") from exc
        mix = np.multiply(evecs[:, rows, :], evecs[:, cols, :], out=weights[:s1 - s0])
        for c0, c1, w0, w1, sums in _pole_sums(mix, evals, omegas, eta):
            yield s0 + c0, s0 + c1, w0, w1, sums


def _series_powers(x, y):
    """(2, _SERIES_TERMS, n) table of the real and imaginary parts of
    (x + iy)^n, n = 0 .. _SERIES_TERMS - 1, by the real recurrence of one
    complex product per term: no complex temporaries."""
    powers = np.empty((2, _SERIES_TERMS, x.size))
    re, im = powers
    re[0], im[0] = 1, 0
    scratch = np.empty(x.size)
    for n in range(1, _SERIES_TERMS):
        np.multiply(re[n - 1], x, out=re[n])
        np.multiply(im[n - 1], y, out=scratch)
        re[n] -= scratch
        np.multiply(re[n - 1], y, out=im[n])
        np.multiply(im[n - 1], x, out=scratch)
        im[n] += scratch
    return powers


def _schur_chunk(spec, xi, pairs, omegas, eta):
    """The same tiles, each holding every frequency, for a request whose
    elements are all (u, u), u the one undisordered site: the only requests
    _realization_route sends here.  Each disordered site i couples only to
    u, so eliminating them gives G_uu = 1/(z - h_uu - Sigma) with the
    self-energy Sigma = sum_i c_i / (z - a_i), c_i = h_ui^2 and
    a_i = h_ii + xi_i, and no eigensolver.

    Sigma is split by the poles' distance from the window.  With w0 the
    midpoint of the frequencies and R = hypot(half-span, eta), every z has
    |z - w0| <= R, and a pole is far when |a - w0| >= 4R.  A far pole's
    term is the series -sum_n c (z - w0)^n / (a - w0)^(n+1), cut after
    _SERIES_TERMS = 27 terms: its ratio is at most 1/4, so the remainder is
    at most 4^-27 / (3/4) < 7.5e-17 of the term.  Written as
    -sum_n ((z - w0)/R)^n * c R^n / (a - w0)^(n+1), every factor is at most
    1, so nothing overflows however small eta or the window.  Each sample's
    27 moments come from products of 9 low and 3 high powers of
    R/(a - w0), the frequencies' powers from one table per call, and the far
    sum from two real matrix products per step.  The near poles go through
    _pole_sums, each sample's gathered with their weights and padded with
    its own far poles at zero weight, in calls of at most half the cells of
    an all-pole tile.  A step in which some sample has no far pole gains
    nothing from the split: it keeps one _pole_sums call over every pole.
    """
    d_sites = np.flatnonzero(spec.disordered)
    u = np.flatnonzero(~spec.disordered)[0]
    c, n_omega, k, m = xi.shape[0], omegas.size, len(pairs), d_sites.size
    levels = np.diagonal(spec.h0)[d_sites]
    coupling = spec.h0[d_sites, u] ** 2
    neg_coupling = -coupling
    shifted = omegas - spec.h0[u, u]

    # Row 0 of the tile holds G_uu.  A step of _TILE_BUDGET // ((k + 1) *
    # n_omega) samples keeps the tile and norm in cache with few numpy
    # calls, and it sets the tiles _fold_block merges, so it fixes the
    # statistics' last bits.
    step = min(c, max(1, _TILE_BUDGET // ((k + 1) * n_omega)))
    c_all, w_all = _tile_shape(step, m, 1, 0, n_omega)
    # Buffers reused by every tile, for the same reason as in engine._pole_sums.
    tile = np.empty((step, 2, k, n_omega))
    norm = np.empty((step, n_omega))
    low = np.empty((_LOW_POWERS, step, m))      # -c/(a - w0) * ratio^i
    high = np.empty((_HIGH_POWERS, step, m))    # ratio^(9j)
    center = 0.5 * (omegas[0] + omegas[-1])
    radius = math.hypot(0.5 * (omegas[-1] - omegas[0]), eta)
    powers = None                     # ((z - w0)/R)^n, built by the first far step
    offset = np.empty((step, m))      # a - w0
    far = np.empty((step, m), dtype=bool)
    ratio = np.empty((step, m))       # R/(a - w0) at far poles, else 0
    moments = np.empty((step, _HIGH_POWERS, _LOW_POWERS))
    for c0 in range(0, c, step):
        s = min(step, c - c0)
        poles = levels + xi[c0:c0 + s, d_sites]                       # (s, |D|)
        off, f, q = np.subtract(poles, center, out=offset[:s]), far[:s], ratio[:s]
        np.greater_equal(np.abs(off, out=q), _FAR_RADII * radius, out=f)
        width = m - int(f.sum(axis=1).min())  # the most near poles of one sample
        if width == m:
            for s0, s1, w0, w1, sums in _pole_sums(np.broadcast_to(coupling, (s, 1, m)),
                                                   poles, omegas, eta):
                tile[s0:s1, :, 0, w0:w1] = sums[:, :, 0]
        else:
            if powers is None:
                powers = _series_powers((omegas - center) / radius, eta / radius)
            q.fill(0)
            np.divide(radius, off, out=q, where=f)
            # moments[:, j, i] = -sum over far poles of c R^n / (a - w0)^(n+1), n = 9j + i
            lo, hi = low[:, :s], high[:, :s]
            lo[0] = 0
            np.divide(neg_coupling, off, out=lo[0], where=f)
            for i in range(1, _LOW_POWERS):
                np.multiply(lo[i - 1], q, out=lo[i])
            hi[0] = 1
            np.square(q, out=hi[1])
            hi[1] *= hi[1]
            hi[1] *= hi[1]
            hi[1] *= q                                                # ratio^9
            np.square(hi[1], out=hi[2])                               # ratio^18
            np.matmul(hi.transpose(1, 0, 2), lo.transpose(1, 2, 0), out=moments[:s])
            terms = moments[:s].reshape(s, -1)
            np.matmul(terms, powers[0], out=tile[:s, 0, 0])
            np.matmul(terms, powers[1], out=tile[:s, 1, 0])
            if width:
                order = np.argsort(f, axis=1, kind="stable")[:, :width]  # near first
                near = np.take_along_axis(poles, order, axis=1)
                weights = np.where(np.take_along_axis(f, order, axis=1), 0.0, coupling[order])
                # Calls of at most half the cells (poles and tile row) of an all-pole tile.
                cap = max(1, c_all * w_all * (m + 1) // (2 * (width + 1) * n_omega))
                for e0 in range(0, s, cap):
                    for s0, s1, w0, w1, sums in _pole_sums(weights[e0:e0 + cap, None],
                                                           near[e0:e0 + cap], omegas, eta):
                        tile[e0 + s0:e0 + s1, :, 0, w0:w1] += sums[:, :, 0]
        # G_uu = 1/(a - ib) = (a + ib)/(a^2 + b^2), where a - ib is
        # z - h_uu - Sigma and b = Im Sigma - eta <= -eta, so it exists.
        g_uu = tile[:s, :, 0]
        a, b = g_uu[:, 0], g_uu[:, 1]
        np.subtract(shifted, a, out=a)
        b -= eta
        np.einsum("cjw,cjw->cw", g_uu, g_uu, out=norm[:s])  # a*a + b*b, no temporary
        g_uu /= norm[:s, None]
        tile[:s, :, 1:] = g_uu[:, :, None]
        yield c0, c0 + s, 0, n_omega, tile[:s]


def _realization_route(spec, elements):
    """Schur when h0's disordered block is exactly diagonal, exactly one site
    u is undisordered and every element is (u, u); else the batched
    eigendecomposition.  Two or more undisordered sites would need a
    |U| x |U| inverse per sample and frequency, up to 24 times slower than
    the eigendecomposition; with none, every site is isolated.
    The molecules' G_ii, which no benchmark asks for, go to the
    eigendecomposition too."""
    u = np.flatnonzero(~spec.disordered)
    block = spec.h0[np.ix_(spec.disordered, spec.disordered)]
    hops = np.count_nonzero(block) > np.count_nonzero(np.diagonal(block))
    schur = u.size == 1 and not hops and all(i == j == u[0] for i, j in elements)
    return _schur_chunk if schur else _eigh_chunk


def _block_size(n, k, n_omega):
    """Samples per block, from the shape alone: c * n * max(n, k, n_omega)
    stays within _BLOCK_BUDGET, clamped to 32 through 2048 samples.  So a few
    thousand samples already make more than one block to share out, and a
    request with many frequencies, whose pole sums are most of its work,
    makes smaller blocks: the cavity's N = 80 at 601 frequencies takes 205
    samples a block.  The blocks fix the statistics' bits and the parallel
    split, not memory: both routes work through a block in steps of samples
    sized from the kernel's tile budget, whatever the block size."""
    return max(32, min(2048, _BLOCK_BUDGET // (n * max(n, k, n_omega))))


def _usable_cpus():
    """CPUs this process may run on (Linux only, as are the workers)."""
    return len(os.sched_getaffinity(0))


def _draws(dist, mask, seed, sizes):
    """Each block's noise in turn, drawn in the seed's stream order."""
    rng = make_rng(seed)
    for c in sizes:
        xi = _draw(dist, (c, mask.size), rng)
        xi *= mask
        yield xi


def _fork_worker(results):
    """Fork a worker process that sends each item of the iterator
    ``results``, then the exception that stopped it if one did, down a pipe
    and exits; return (pid, reader).  The worker never returns from here:
    it ends with os._exit, which runs none of the caller's exit handlers."""
    r, w = os.pipe()
    pid = os.fork()
    if pid:
        os.close(w)
        return pid, open(r, "rb")
    status = 1
    try:
        os.close(r)
        with open(w, "wb") as out:
            try:
                for item in results:
                    out.write(pickle.dumps(item, pickle.HIGHEST_PROTOCOL))
                    out.flush()
            except BaseException as exc:  # the caller raises it, in block order
                out.write(pickle.dumps(exc, pickle.HIGHEST_PROTOCOL))
                raise
        status = 0
    finally:
        os._exit(status)


def _receive(workers, j, block):
    """The next item worker j sent, which is block ``block``'s statistics;
    raises the exception the worker sent instead, or ChildProcessError,
    naming its exit status, if it ended without sending one (that worker is
    then reaped and dropped from ``workers``)."""
    pid, reader = workers[j]
    try:
        item = pickle.load(reader)
    except (EOFError, pickle.UnpicklingError):
        del workers[j]
        reader.close()
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        raise ChildProcessError(f"Monte-Carlo worker {pid} ended with exit status "
                                f"{status} before sending block {block}") from None
    if isinstance(item, BaseException):
        raise item
    return item


def _reap(workers):
    """Stop every worker that is left and wait for it to end.  One that has
    sent all it had to is done, so the signal cannot lose a result."""
    for pid, reader in workers:
        reader.close()
        os.kill(pid, signal.SIGKILL)  # it is not reaped yet, so the pid is still its own
        os.waitpid(pid, 0)


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

    Each sample, H = h0 + diag(xi * mask), is resolved exactly: by a Schur
    complement when only G_uu of the one undisordered site u is asked for
    and no two disordered sites hop to each other, by its eigenmode sum for
    every other request.  Each tile of samples x frequencies is folded into
    its block's statistics (Chan, Golub & LeVeque) while it is still in
    cache.  The blocks are folded in forked worker processes, one per usable
    CPU, when the caller is the only Python thread on Linux, else in the
    calling thread, and merge in block order, so the result does not depend
    on the core count.  ``elements`` defaults to the full diagonal; an empty
    request solves nothing.  The probe eta comes from ``config``; a nonzero
    grid.eta must agree with it.  Raises ConvergenceFailure if a batched
    eigendecomposition fails, and ChildProcessError if a worker process ends
    without sending its blocks.
    """
    if grid.eta not in (0.0, config.eta):
        raise ValueError(f"grid.eta = {grid.eta} conflicts with ensemble eta = {config.eta}")
    n = spec.n_sites
    if elements is None:
        elements = tuple((i, i) for i in range(n))
    else:
        elements = _normalized_elements(elements, n)
    k, nw = len(elements), grid.omegas.size
    if not k:
        empty = np.empty((nw, 0))
        return EnsembleResult(elements, empty.astype(complex), empty, empty.copy(),
                              int(config.n_samples))
    solve = _realization_route(spec, elements)

    mask = spec.disordered.astype(float)
    block = _block_size(n, k, nw)
    sizes = [min(block, config.n_samples - b0) for b0 in range(0, config.n_samples, block)]
    # A forked child holds only the thread that forked it, so a lock another
    # thread held at that moment would never be released in the child.
    alone = sys.platform == "linux" and threading.active_count() == 1
    n_proc = min(_usable_cpus(), len(sizes)) if alone else 1

    def folded(j):
        """The statistics of blocks j, j + n_proc, ... in turn."""
        share = islice(_draws(config.distribution, mask, config.seed, sizes), j, None, n_proc)
        return (_fold_block(solve, spec, xi, elements, grid.omegas, config.eta)
                for xi in share)

    count = 0
    mean = np.zeros((2, k, nw))   # running (re, im) mean and squared deviations
    m2 = np.zeros((2, k, nw))
    workers = []
    try:
        for j in range(1, n_proc):
            workers.append(_fork_worker(folded(j)))
        own = folded(0)
        for b, c in enumerate(sizes):
            j = b % n_proc
            stats = _receive(workers, j - 1, b) if j else next(own)
            _merge_streams(count, mean, m2, c, *stats)
            count += c
    finally:
        _reap(workers)

    stderr = np.sqrt(m2 / max(1, count - 1) / count)
    mean_greens = np.empty((nw, k), dtype=complex)
    mean_greens.real, mean_greens.imag = mean[0].T, mean[1].T
    return EnsembleResult(elements, mean_greens, stderr[0].T.copy(), stderr[1].T.copy(),
                          int(count))

"""Exact disorder-averaged Green's functions from one deterministic evaluation.

Averaging the resolvent over independent Cauchy noise on the marked diagonal
entries is exactly equivalent to deleting the noise and subtracting i*gamma
from those same entries.  The whole ensemble therefore collapses to a single
complex matrix, evaluated by one route, ``averaged_table``, for every
disorder mask and every request.

One real-symmetric eigendecomposition of h0 gives
G0(z) = V diag(1/(z + i*gamma - eps_m)) V^T, the answer when every site is
disordered (z = w + i*eta).  The few undisordered sites U (the cavity state;
none on the graphs) are put back by the rank-|U| Woodbury identity
G = G0 - G0[:, U] (i/gamma I + G0[U, U])^-1 G0[U, :], with the small matrix
reduced by elimination without pivoting, vectorized over frequencies, so no
LAPACK call runs per frequency.  Each entry of G0 is a sum of weights over
real poles, evaluated by ``_pole_sums``, the package's one cache-tiled kernel
(the Monte-Carlo realizations run it too), at one real matrix product per
frequency tile for Im and one more for Re.  The exact trace is Tr G0's
row of ones when every site is disordered, O(n) per frequency; with
undisordered sites it is the sum of the diagonal, carried through the same
Woodbury step, O(n^2) per frequency.

A request is the columns of a float table, each the real part, the
imaginary part or the density -Im/pi of one element or of the trace, and
``averaged_table`` writes them straight into the caller's table.  The real
plane of the pole sums is formed only when a column reads a real part or U
is not empty.  ``averaged_greens`` is the same route read as complex
numbers: the Re and Im columns of the requested elements, and of the trace
on request, as one (n_omega, n_elements) complex array.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, NonMonotonicGrid, SingularMatrix
from .lattice import HamiltonianSpec

PARTIAL_MASK_ETA_FACTOR = 1e-3

# Pole sums run over tiles of samples x frequencies whose two real
# temporaries and the tile hold at most four times this many cells
# together, so they stay in cache.
_TILE_BUDGET = 2 ** 15


@dataclass(frozen=True)
class SpectralGrid:
    """Strictly increasing real frequencies plus the probe regularizer eta >= 0."""

    omegas: np.ndarray
    eta: float = 0.0

    def __post_init__(self):
        omegas = np.atleast_1d(np.asarray(self.omegas, dtype=float))
        if omegas.size < 1:
            raise NonMonotonicGrid("grid needs at least one frequency")
        if not np.all(np.isfinite(omegas)):
            raise NonMonotonicGrid("frequencies must be finite")
        if omegas.size > 1 and not np.all(np.diff(omegas) > 0):
            raise NonMonotonicGrid("frequencies must be strictly increasing")
        if not (math.isfinite(self.eta) and self.eta >= 0):
            raise ValueError(f"eta must be finite and non-negative, got {self.eta}")
        omegas = omegas.copy()
        omegas.setflags(write=False)
        object.__setattr__(self, "omegas", omegas)

    @classmethod
    def uniform(cls, lo: float, hi: float, n_points: int) -> "SpectralGrid":
        """n_points evenly spaced frequencies from lo to hi, both included,
        with eta = 0."""
        for name, value in (("lo", lo), ("hi", hi)):
            if not math.isfinite(value):
                raise ValueError(f"window {name} must be finite, got {value}")
        if not lo < hi:
            raise ValueError(f"window needs lo < hi, got [{lo}, {hi}]")
        if not hasattr(type(n_points), "__index__") or n_points < 2:
            raise ValueError(f"window n_points must be an integer >= 2, got {n_points!r}")
        return cls(np.linspace(lo, hi, n_points))


def diagonalize(spec: HamiltonianSpec):
    """Full spectrum of the clean h0 via the dense symmetric eigensolver:
    ascending eigenvalues and the orthogonal matrix of column eigenvectors,
    both read-only.  Each spec is decomposed once; later calls return the
    same arrays."""
    try:
        return spec._eigensystem
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"symmetric eigensolver failed: {exc}") from exc


def default_eta(spec: HamiltonianSpec) -> float:
    """0 when every site is disordered (gamma already regularizes); else 1e-3*gamma."""
    return 0.0 if spec.disordered.all() else PARTIAL_MASK_ETA_FACTOR * spec.gamma


def _normalized_elements(elements, n):
    pairs = []
    for i, j in elements:
        try:
            pair = operator.index(i), operator.index(j)
        except TypeError:
            raise ValueError(f"element ({i!r}, {j!r}) indices must be integers") from None
        if not (0 <= pair[0] < n and 0 <= pair[1] < n):
            raise IndexError(f"element {pair} outside 0..{n - 1}")
        pairs.append(pair)
    return tuple(pairs)


def _element_pairs(elements, n):
    """The requested (i, j) pairs; None means every pair in row-major order,
    so ``result.reshape(-1, n, n)`` is the full matrix at each frequency."""
    if elements is None:
        return tuple((i, j) for i in range(n) for j in range(n))
    return _normalized_elements(elements, n)


def _tile_shape(n_samples, m, p, n_omega):
    """(c_tile, w_tile): the samples and frequencies of each ``_pole_sums``
    tile over n_samples samples of m poles, with p weight rows, at n_omega
    frequencies.

    A tile counts max(p, ceil((m + p)/2)) cells per (sample, frequency), so
    that d and r (m cells each) and the tile (2p) together hold at most
    4 * _TILE_BUDGET cells and the tile alone 2 * _TILE_BUDGET: max(m, p)
    when p >= m, and wider tiles when p < m, such as the Monte-Carlo
    self-energy (p = 1), whose frequencies then take fewer numpy calls.
    """
    width = max(1, p, -(-(m + p) // 2))
    w_tile = min(n_omega, max(1, _TILE_BUDGET // width))
    return min(n_samples, max(1, _TILE_BUDGET // (width * w_tile))), w_tile


def _pole_sums(weights, poles, omegas, eta, real=True):
    """Yield tiles (c0, c1, w0, w1, tile) of the pole sums
    S[c, p, w] = sum_m weights[c, p, m] / (omegas[w] + i*eta - poles[c, m])
    over samples c0:c1 and frequencies w0:w1, with tile[:, 0] = Re S and
    tile[:, 1] = Im S.  With d = w - pole and r = 1/(d^2 + eta^2) the real
    part is weights @ (d*r) and the imaginary part (-eta * weights) @ r:
    two real matrix products per tile, the second on each sample tile's
    weights scaled by -eta once, into a buffer every tile reuses.

    ``weights`` is (c, p, m); weights that every sample shares can come as
    an ``np.broadcast_to`` view.  With ``real=False`` the real plane is
    skipped, neither d*r nor its product is formed, and tile[:, 0] holds
    stale values: for readers of imaginary parts and densities alone.

    ``_tile_shape`` sizes the tiles.  Sample blocks come in order, each with
    all its frequency blocks, and every tile is a view of one buffer that the
    next tile overwrites.
    """
    n_samples, m = poles.shape
    p, n_omega = weights.shape[1], omegas.size
    c_tile, w_tile = _tile_shape(n_samples, m, p, n_omega)
    # Reused buffers: with fresh temporaries per tile the allocator handed
    # their pages back to the system and faulted them in again, which
    # doubled the time at some tile widths.  So the operands of the product
    # that forms d, rows (-pole, 1) against columns (1, omega), are carved
    # from the same buffer as d and r: two exact products and one rounding
    # give the bits of omega - pole in a single pass over d.
    cells = c_tile * m * w_tile
    scratch = np.empty(2 * cells + 2 * c_tile * m + 2 * w_tile)
    d_cells, r_cells = scratch[:cells], scratch[cells:2 * cells]
    rows = scratch[2 * cells:-2 * w_tile].reshape(c_tile, m, 2)
    columns = scratch[-2 * w_tile:].reshape(2, w_tile)
    rows[..., 1], columns[0] = 1, 1
    tile_cells = np.empty(c_tile * 2 * p * w_tile)
    im_cells = np.empty(c_tile * p * m)
    for c0 in range(0, n_samples, c_tile):
        c1 = min(c0 + c_tile, n_samples)
        mix = weights[c0:c1]
        im_mix = np.multiply(mix, -eta, out=im_cells[:mix.size].reshape(mix.shape))
        np.negative(poles[c0:c1], out=rows[:c1 - c0, :, 0])
        for w0 in range(0, n_omega, w_tile):
            w1 = min(w0 + w_tile, n_omega)
            shape = (c1 - c0, m, w1 - w0)
            d = d_cells[:math.prod(shape)].reshape(shape)
            r = r_cells[:d.size].reshape(shape)
            columns[1, :w1 - w0] = omegas[w0:w1]
            np.matmul(rows[:c1 - c0], columns[:, :w1 - w0], out=d)
            np.square(d, out=r)
            r += eta * eta
            np.reciprocal(r, out=r)
            tile = tile_cells[:(c1 - c0) * 2 * p * (w1 - w0)].reshape(c1 - c0, 2, p, w1 - w0)
            np.matmul(im_mix, r, out=tile[:, 1])
            if real:
                d *= r
                np.matmul(mix, d, out=tile[:, 0])
            yield c0, c1, w0, w1, tile


def _woodbury_step(kernel, lhs, rhs, result, omegas):
    """result -= lhs^T K^-1 rhs at every frequency, in place.

    ``kernel`` holds K as (u, u, b), complex symmetric; ``lhs`` and ``rhs``
    are (u, k, b) and ``result`` is (k, b), all frequency last.  Elimination
    without pivoting, vectorized over frequencies, factors K = L D L^T; the
    multipliers that reduce K reduce lhs and rhs too, so lhs^T K^-1 rhs =
    sum_s (L^-1 lhs)_s (L^-1 rhs)_s / D_s, each pivot used through its
    reciprocal.  All four arrays are overwritten.  Raises SingularMatrix,
    naming the first of the b ``omegas`` at which a pivot is exactly zero.
    """
    n_u = kernel.shape[0]
    singular = None
    for s in range(n_u):
        pivot = kernel[s, s]
        if not pivot.all():  # exactly zero somewhere: mark it, go on with 1
            zero = pivot == 0
            singular = zero if singular is None else singular | zero
            pivot[zero] = 1
        inverse = 1 / pivot
        for r in range(s + 1, n_u):
            factor = kernel[r, s] * inverse
            kernel[r, s + 1:] -= factor * kernel[s, s + 1:]
            lhs[r] -= factor * lhs[s]
            rhs[r] -= factor * rhs[s]
        rhs[s] *= inverse
        rhs[s] *= lhs[s]
        result -= rhs[s]
    if singular is not None:
        raise SingularMatrix(
            f"shifted matrix singular at omega = {omegas[int(np.argmax(singular))]}")


def averaged_table(spec: HamiltonianSpec, grid: SpectralGrid, columns, out):
    """Write averaged G(w + i*eta) into the float table ``out``, one row per
    frequency and one column per entry of ``columns``, and return ``out``.

    Each column is (part, element): part "re" or "im" reads that part of
    G_ij and "rho" the density -Im G_ij/pi; element (i, j) names the entry,
    and None the exact trace Tr G.  ``out`` is any float view of shape
    (n_omega, len(columns)), such as the columns of a wider table or a
    complex array's ``.view(float)``; with no columns it is returned as it is.

    The weight rows are one per distinct symmetric pair (G0 = G0^T) among
    the requested entries and, for the Woodbury correction, the rows and
    columns of the undisordered sites U.  The trace is Tr G0's row of ones
    when every site is disordered, and else the sum of the diagonal, whose
    n elements ride through the Woodbury step after the requested ones.
    That step works on each tile's complex columns, frequency last:
    K = G0[U, U] + (i/gamma) I is reduced without pivoting
    (``_woodbury_step``).  That is safe: -Im G0 <= I/(gamma + eta), so
    Im K >= eta/(gamma (gamma + eta)) I and no pivot vanishes when eta > 0.
    At eta = 0 a pivot that is exactly zero makes K singular -- an
    undisordered resonance -- and SingularMatrix names the first such
    frequency.
    """
    n = spec.n_sites
    parts = [part for part, _ in columns]
    if not set(parts) <= {"re", "im", "rho"}:
        raise ValueError(f"column parts must be re, im or rho, got {parts}")
    named = iter(_normalized_elements([e for _, e in columns if e is not None], n))
    requested = [None if e is None else next(named) for _, e in columns]
    if not requested:
        return out
    elements = list(dict.fromkeys(e for e in requested if e is not None))
    trace = None in requested
    eigenvalues, eigenvectors = diagonalize(spec)
    undisordered = np.flatnonzero(~spec.disordered).tolist()
    k, n_u, n_omega = len(elements), len(undisordered), grid.omegas.size
    corrected = elements + ([(i, i) for i in range(n)] if trace and n_u else [])

    # One row of G0 values per distinct symmetric pair (G0 = G0^T).
    rows = {}

    def row(a, b):
        return rows.setdefault((a, b) if a <= b else (b, a), len(rows))

    target = [row(i, j) for i, j in corrected]
    left = [[row(u, i) for i, _ in corrected] for u in undisordered]
    right = [[row(u, j) for _, j in corrected] for u in undisordered]
    square = [[row(u, v) for v in undisordered] for u in undisordered]
    keys = np.fromiter(itertools.chain.from_iterable(rows), np.intp, 2 * len(rows))
    weights = eigenvectors[keys[0::2]] * eigenvectors[keys[1::2]]  # (p, n)
    if trace and not n_u:
        target.append(len(rows))
        weights = np.vstack([weights, np.ones(n)])

    # Each column copies one row of a (2 * sources, b) block: the Re rows,
    # then the Im rows, of the tile's G0 rows when every site is disordered,
    # else of the Woodbury result's elements and trace.  The block is then
    # divided by each column's divisor: -pi for a density, exactly 1.0 else.
    p = len(weights)
    sources, slot = (k + trace, range(k + 1)) if n_u else (p, target)
    position = {element: c for c, element in enumerate(elements)} | {None: k}
    index = np.array([(part != "re") * sources + slot[position[element]]
                      for part, element in zip(parts, requested)], dtype=np.intp)
    divisor = np.where([part == "rho" for part in parts], -np.pi, 1.0)[:, None]

    target = np.array(target, dtype=np.intp)  # the elements, then the trace's rows
    left, right = (np.array(lists, dtype=np.intp).reshape(n_u, target.size)
                   for lists in (left, right))
    square = np.array(square, dtype=np.intp).reshape(n_u, n_u)

    # The Woodbury step runs on frequency blocks whose complex buffers (G0
    # rows, lhs, rhs, result) hold at most _TILE_BUDGET cells, so that they
    # stay in cache beside the kernel's tile: on 49 columns of cavity(N=24)
    # the whole 668-wide tile took half as long again.
    shapes = ((p,), left.shape, right.shape, target.shape)
    step = min(n_omega, max(1, _TILE_BUDGET // sum(map(math.prod, shapes)))) \
        if n_u else n_omega
    buffers = [np.empty(math.prod(shape) * step, dtype=complex) for shape in shapes] \
        if n_u else []
    eta = grid.eta + spec.gamma
    real = bool(n_u) or "re" in parts
    for _, _, w0, w1, tile in _pole_sums(weights[None], eigenvalues[None], grid.omegas,
                                         eta, real=real):
        re, im = tile[0]                                               # (p, b) each
        for s0 in range(w0, w1, step):
            s1 = min(s0 + step, w1)
            if not n_u:
                block = tile[0].reshape(2 * p, -1)[index]
            else:
                g0, lhs, rhs, result = (cells[:math.prod(shape) * (s1 - s0)].reshape(*shape, -1)
                                        for cells, shape in zip(buffers, shapes))
                part = np.s_[s0 - w0:s1 - w0]
                g0.real[:] = re[:, part]
                g0.imag[:] = im[:, part]
                # The indices are valid, and with mode="clip" take fills each buffer
                # directly instead of through a temporary.
                np.take(g0, left, axis=0, out=lhs, mode="clip")
                np.take(g0, right, axis=0, out=rhs, mode="clip")
                np.take(g0, target, axis=0, out=result, mode="clip")
                kernel = g0[square]                                        # (u, u, b)
                kernel.reshape(n_u * n_u, -1)[::n_u + 1] += 1j / spec.gamma  # its diagonal
                _woodbury_step(kernel, lhs, rhs, result, grid.omegas[s0:s1])
                if trace:
                    result[k] = np.sum(result[k:], axis=0)
                block = np.concatenate([result.real[:sources], result.imag[:sources]])[index]
            block /= divisor
            out[s0:s1] = block.T
    return out


def averaged_greens(spec: HamiltonianSpec, grid: SpectralGrid,
                    elements=None, *, trace=False):
    """Averaged G_ij(w + i*eta) for every frequency and requested element.

    Returns a complex array of shape (n_omega, n_elements), columns in the
    order of ``elements`` (default: every pair, row-major).  With
    ``trace=True`` it returns (greens, trace), where trace is the exact
    Tr G(w + i*eta) at each frequency.  Both are the Re and Im columns of
    one ``averaged_table`` call, read as complex numbers.
    """
    wanted = [*_element_pairs(elements, spec.n_sites)] + [None] * trace
    out = np.empty((grid.omegas.size, len(wanted)), dtype=complex)
    averaged_table(spec, grid, [(part, e) for e in wanted for part in ("re", "im")],
                   out.view(float))
    return (out[:, :-1], out[:, -1]) if trace else out

"""Exact disorder-averaged Green's functions from one deterministic evaluation.

Averaging the resolvent over independent Cauchy noise on the marked diagonal
entries is exactly equivalent to deleting the noise and subtracting i*gamma
from those same entries.  The whole ensemble therefore collapses to a single
complex matrix, evaluated by one route for every disorder mask:

* ``averaged_greens`` -- one real-symmetric eigendecomposition of h0 gives
  G0(z) = V diag(1/(z + i*gamma - eps_m)) V^T, the answer when every site is
  disordered (z = w + i*eta).  The few undisordered sites U (the cavity state;
  none on the graphs) are put back by the rank-|U| Woodbury identity
  G = G0 - G0[:, U] (i/gamma I + G0[U, U])^-1 G0[U, :].
* ``solve_greens`` -- a direct complex linear solve of
  (w + i*eta)I - h0 + i*gamma*D per frequency, where D is the disorder mask.
  It is kept only as the independent oracle the route above is checked
  against.

Both return one complex array of shape (n_omega, n_elements); densities of
states are the usual -Im/pi of its diagonal-element columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, NonMonotonicGrid, SingularMatrix
from .lattice import HamiltonianSpec

PARTIAL_MASK_ETA_FACTOR = 1e-3

# Frequencies are evaluated in blocks that keep the widest temporary at about
# this many complex cells, so memory stays flat however long the grid is.
_BLOCK_BUDGET = 2 ** 14


@dataclass(frozen=True)
class SpectralGrid:
    """Strictly increasing real frequencies plus the probe regularizer eta >= 0."""

    omegas: np.ndarray
    eta: float = 0.0

    def __post_init__(self):
        omegas = np.atleast_1d(np.asarray(self.omegas, dtype=float))
        if omegas.size < 1:
            raise NonMonotonicGrid("grid needs at least one frequency")
        if omegas.size > 1 and not np.all(np.diff(omegas) > 0):
            raise NonMonotonicGrid("frequencies must be strictly increasing")
        if not np.all(np.isfinite(omegas)):
            raise NonMonotonicGrid("frequencies must be finite")
        if not (math.isfinite(self.eta) and self.eta >= 0):
            raise ValueError(f"eta must be finite and non-negative, got {self.eta}")
        omegas = omegas.copy()
        omegas.setflags(write=False)
        object.__setattr__(self, "omegas", omegas)

    @classmethod
    def from_window(cls, window, eta: float = 0.0) -> "SpectralGrid":
        return cls(window.omegas(), eta)


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues and the orthogonal matrix of column eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def diagonalize(spec: HamiltonianSpec) -> EigenSystem:
    """Full spectrum of the clean h0 via the dense symmetric eigensolver."""
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(spec.h0)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"symmetric eigensolver failed: {exc}") from exc
    return EigenSystem(eigenvalues, eigenvectors)


def default_eta(spec: HamiltonianSpec) -> float:
    """0 when every site is disordered (gamma already regularizes); else 1e-3*gamma."""
    return 0.0 if spec.disordered.all() else PARTIAL_MASK_ETA_FACTOR * spec.gamma


def _normalized_elements(elements, n):
    pairs = []
    for i, j in elements:
        i, j = int(i), int(j)
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"element ({i}, {j}) outside 0..{n - 1}")
        pairs.append((i, j))
    return tuple(pairs)


def _element_pairs(elements, n):
    """The requested (i, j) pairs; None means every pair in row-major order,
    so ``result.reshape(-1, n, n)`` is the full matrix at each frequency."""
    if elements is None:
        return tuple((i, j) for i in range(n) for j in range(n))
    return _normalized_elements(elements, n)


def averaged_greens(spec: HamiltonianSpec, grid: SpectralGrid,
                    elements=None) -> np.ndarray:
    """Averaged G_ij(w + i*eta) for every frequency and requested element.

    Returns a complex array of shape (n_omega, n_elements), columns in the
    order of ``elements`` (default: every pair, row-major).  Every entry of G0
    that is needed -- the requested ones plus, for the Woodbury correction,
    the rows and columns of the undisordered sites -- is a fixed real mix of
    the eigenmode factors, sum_m V_am V_bm / (z + i*gamma - eps_m), so each
    frequency block costs one real matrix product and one batched |U| x |U|
    solve.  Raises SingularMatrix where that small matrix is exactly
    singular, i.e. an undisordered resonance probed at eta = 0.
    """
    n = spec.n_sites
    pairs = _element_pairs(elements, n)
    eig = diagonalize(spec)
    undisordered = np.flatnonzero(~spec.disordered).tolist()

    # One column of G0 values per distinct symmetric pair (G0 = G0^T).
    columns = {}

    def column(a, b):
        return columns.setdefault((a, b) if a <= b else (b, a), len(columns))

    k, n_u, n_omega = len(pairs), len(undisordered), grid.omegas.size
    target = [column(i, j) for i, j in pairs]
    left = np.array([[column(i, u) for u in undisordered] for i, _ in pairs],
                    dtype=int).reshape(k, n_u)
    right = np.array([[column(u, j) for u in undisordered] for _, j in pairs],
                     dtype=int).reshape(k, n_u)
    square = [[column(u, v) for v in undisordered] for u in undisordered]
    keys = np.array(list(columns), dtype=int).reshape(-1, 2)
    weights = eig.eigenvectors[keys[:, 0]] * eig.eigenvectors[keys[:, 1]]  # (p, n)

    block = max(1, _BLOCK_BUDGET // max(n, len(columns), k * max(n_u, 1)))
    z = grid.omegas + 1j * (grid.eta + spec.gamma)
    out = np.empty((n_omega, k), dtype=complex)
    for w0 in range(0, n_omega, block):
        w1 = min(w0 + block, n_omega)
        modes = 1.0 / (z[w0:w1] - eig.eigenvalues[:, None])          # (n, b)
        g0 = (weights @ modes.view(float)).view(complex).T            # (b, p)
        out[w0:w1] = g0[:, target]
        if n_u:
            kernel = g0[:, square] + (1j / spec.gamma) * np.eye(n_u)   # (b, u, u)
            try:
                solved = np.linalg.solve(kernel, g0[:, right].swapaxes(1, 2))  # (b, u, k)
            except np.linalg.LinAlgError as exc:
                # The LU factorization that failed has an exact zero pivot
                # there, so its determinant is exactly zero.
                first = w0 + int(np.argmax(np.linalg.det(kernel) == 0))
                raise SingularMatrix(
                    f"shifted matrix singular at omega = {grid.omegas[first]}") from exc
            out[w0:w1] -= np.einsum("bku,buk->bk", g0[:, left], solved)
    return out


def solve_greens(spec: HamiltonianSpec, grid: SpectralGrid,
                 elements=None) -> np.ndarray:
    """Direct oracle: solve ((w + i*eta)I - h0 + i*gamma*D) G = I columnwise.

    D is the diagonal disorder mask, so partial masks are handled exactly;
    this is the reference ``averaged_greens`` is checked against.  Same
    arguments and (n_omega, n_elements) result as ``averaged_greens``.
    """
    n = spec.n_sites
    pairs = _element_pairs(elements, n)
    columns = sorted({j for _, j in pairs})
    lookup = {j: c for c, j in enumerate(columns)}
    rows = [i for i, _ in pairs]
    cols = [lookup[j] for _, j in pairs]
    rhs = np.eye(n, dtype=complex)[:, columns]
    base = -spec.h0 + 1j * np.diag(np.where(spec.disordered, spec.gamma, 0.0))
    out = np.empty((grid.omegas.size, len(pairs)), dtype=complex)
    for w, omega in enumerate(grid.omegas):
        try:
            solution = np.linalg.solve(base + (omega + 1j * grid.eta) * np.eye(n), rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrix(f"shifted matrix singular at omega = {omega}") from exc
        out[w] = solution[rows, cols]
    return out

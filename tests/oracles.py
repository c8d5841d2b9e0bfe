"""Independent reference computations the tests check the program against,
and the peak finder that reads positions off the spectra they compare."""

import numpy as np

from cauchygf.engine import SpectralGrid, _element_pairs, _pole_sums
from cauchygf.errors import SingularMatrix
from cauchygf.lattice import HamiltonianSpec
from cauchygf.quadrature import _validated_curve

DEFAULT_PROMINENCE_FRACTION = 0.01


def solve_greens(spec: HamiltonianSpec, grid: SpectralGrid,
                 elements=None) -> np.ndarray:
    """Direct oracle: solve ((w + i*eta)I - h0 + i*gamma*D) G = I columnwise.

    D is the diagonal disorder mask, so partial masks are handled exactly;
    this is the reference ``engine.averaged_greens`` is checked against.
    Same arguments and (n_omega, n_elements) result as ``averaged_greens``.
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


def pole_sum_tile(weights, poles, omegas, eta, double, c0, c1, w0, w1):
    """Tile (c0, c1, w0, w1) of ``engine._pole_sums``, with d = omega - pole
    formed by a copy of the frequencies and a broadcast subtraction of the
    poles; every later step is the kernel's, on buffers of the same shapes,
    so the tile must match the kernel's bit for bit: Re S = weights @ (d*r)
    and Im S = (-eta * weights) @ r, and the double-pole rows likewise from
    pre-scaled weights."""
    p, q = weights.shape[1], 0 if double is None else double.shape[0]
    d = np.empty((c1 - c0, poles.shape[1], w1 - w0))
    np.copyto(d, omegas[w0:w1])
    d -= poles[c0:c1, :, None]
    r = np.square(d)
    r += eta * eta
    np.reciprocal(r, out=r)
    d *= r
    tile = np.empty((c1 - c0, 2, p + q, w1 - w0))
    np.matmul(weights[c0:c1], d, out=tile[:, 0, :p])
    np.matmul(weights[c0:c1] * -eta, r, out=tile[:, 1, :p])
    if q:
        np.matmul(double, r, out=tile[:, 0, p:])
        d *= r
        np.matmul(double * (-2 * eta), d, out=tile[:, 1, p:])
        r *= r
        tile[:, 0, p:] += np.matmul(double * (-2 * eta * eta), r)
    return tile


def whole_block_eigh_chunk(spec, xi, pairs, omegas, eta):
    """``montecarlo._eigh_chunk``'s tiles from one batched eigendecomposition
    of the whole block: h0 + diag(xi) for every sample at once, the
    eigenvector products of all of them, then one ``_pole_sums`` pass.  The
    sub-batched route must fold to the same bits."""
    c, n = xi.shape
    h = np.broadcast_to(spec.h0, (c, n, n)).copy()
    h[:, np.arange(n), np.arange(n)] += xi
    evals, evecs = np.linalg.eigh(h)
    rows, cols = np.array(pairs, dtype=int).reshape(-1, 2).T
    yield from _pole_sums(evecs[:, rows, :] * evecs[:, cols, :], evals, omegas, eta)


def reference_csv(header, columns) -> bytes:
    """The CSV bytes ``output.write_csv`` must write, one Python ``%`` per row.

    The header line, then one line per row with string columns as they are
    and every other column as ``"%.12e"``.
    """
    arrays = [np.asarray(c) for c in columns]
    arrays = [a if a.dtype.kind in "US" else np.asarray(a, dtype=float) for a in arrays]
    row_format = ",".join("%s" if a.dtype.kind in "US" else "%.12e" for a in arrays) + "\n"
    rows = zip(*[a.tolist() for a in arrays])
    text = ",".join(header) + "\n" + "".join(row_format % row for row in rows)
    return text.encode()


def _parabolic_refine(x0, x1, x2, y0, y1, y2):
    # Vertex of the quadratic through three points, in the middle interval.
    # Falls back to the grid point when the fit is degenerate or not concave.
    d21 = (y2 - y1) / (x2 - x1)
    d10 = (y1 - y0) / (x1 - x0)
    curv = (d21 - d10) / (x2 - x0)
    if not np.isfinite(curv) or curv >= 0:
        return x1, y1
    xv = 0.5 * (x0 + x1 - d10 / curv)
    xv = min(max(xv, x0), x2)
    # Newton form of the interpolating quadratic anchored at (x0, y0).
    yv = y0 + d10 * (xv - x0) + curv * (xv - x0) * (xv - x1)
    return float(xv), float(yv)


def find_peaks(xs, ys, min_prominence: float | None = None) -> list[tuple[float, float]]:
    """Local maxima of a sampled curve as (position, height) pairs.

    A peak is an interior sample strictly above both neighbours whose
    prominence -- height above the higher of the two flanking minima, walking
    outward until a taller sample or the edge is met -- reaches
    ``min_prominence`` (default: 1% of the global maximum).  Positions and
    heights are refined by a parabola through the peak sample and its
    neighbours.  Peaks are returned in increasing position order; an empty
    list is valid output.
    """
    xs, ys = _validated_curve(xs, ys)
    if min_prominence is None:
        min_prominence = DEFAULT_PROMINENCE_FRACTION * float(ys.max())
    if min_prominence <= 0:
        raise ValueError("min_prominence must be positive")

    inner = np.nonzero((ys[1:-1] > ys[:-2]) & (ys[1:-1] > ys[2:]))[0] + 1
    peaks = []
    for i in inner:
        # Walk left/right to the nearest strictly taller sample (or the edge);
        # the prominence reference is the higher of the two valley minima.
        left = ys[:i][::-1]
        taller = np.nonzero(left > ys[i])[0]
        lo_l = left[: taller[0]].min() if taller.size else left.min()
        right = ys[i + 1:]
        taller = np.nonzero(right > ys[i])[0]
        lo_r = right[: taller[0]].min() if taller.size else right.min()
        prominence = ys[i] - max(lo_l, lo_r)
        if prominence >= min_prominence:
            pos, height = _parabolic_refine(xs[i - 1], xs[i], xs[i + 1],
                                            ys[i - 1], ys[i], ys[i + 1])
            peaks.append((pos, height))
    return peaks

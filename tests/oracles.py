"""Independent reference computations the tests check the program against."""

import numpy as np

from cauchygf.engine import SpectralGrid, _element_pairs
from cauchygf.errors import SingularMatrix
from cauchygf.lattice import HamiltonianSpec


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

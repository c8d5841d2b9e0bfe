"""Hamiltonian assembly: named graph families, custom edge lists, cavity layouts.

All matrices are real symmetric and dense; the design envelope is molecule-scale
problems (a few thousand sites at most).  The hub of a star and the cavity
state are always index 0 so downstream CSV columns are stable.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .cavity import CavityParams
from .errors import InvalidEdge, InvalidSize


class Family(enum.Enum):
    CHAIN = "chain"
    RING = "ring"
    STAR = "star"
    COMPLETE = "complete"
    CUSTOM = "custom"


class Distribution(enum.Enum):
    CAUCHY = "cauchy"
    GAUSSIAN = "gaussian"
    UNIFORM = "uniform"


@dataclass(frozen=True)
class DisorderSpec:
    """On-site disorder law: distribution kind plus its scale parameter.

    ``scale`` is the Cauchy half-width gamma, the Gaussian standard deviation
    sigma, or the uniform half-range w; all three laws have location zero.
    """

    distribution: Distribution
    scale: float

    def __post_init__(self):
        try:
            object.__setattr__(self, "distribution", Distribution(self.distribution))
        except ValueError:
            raise ValueError(f"distribution must be one of "
                             f"{', '.join(d.value for d in Distribution)}, "
                             f"got {self.distribution!r}") from None
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"disorder scale must be finite and positive, got {self.scale}")


@dataclass(frozen=True)
class Topology:
    """A validated undirectional graph: family tag, site count, edge set."""

    kind: Family
    n_sites: int
    edges: tuple[tuple[int, int], ...]


def _canonical_edges(kind: Family, n: int) -> tuple[tuple[int, int], ...]:
    if kind is Family.CHAIN:
        return tuple((i, i + 1) for i in range(n - 1))
    if kind is Family.RING:
        return tuple((i, (i + 1) % n) for i in range(n))
    if kind is Family.STAR:
        return tuple((0, i) for i in range(1, n))
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))  # complete


def build_topology(kind, n_sites: int, edges=None) -> Topology:
    """Validated Topology for a named family or an explicit edge list.

    Named families generate their canonical edge sets (ring edges close the
    cycle through (n-1, 0)); Custom requires a non-empty list of 0-based index
    pairs with no self-loops and no duplicates in either orientation.
    """
    kind = Family(kind) if not isinstance(kind, Family) else kind
    if not hasattr(type(n_sites), "__index__") or n_sites < 1:
        raise InvalidSize(f"n_sites must be an integer >= 1, got {n_sites!r}")
    if kind is Family.RING and n_sites < 3:
        raise InvalidSize(f"a ring needs at least 3 sites, got {n_sites}")
    if kind is Family.STAR and n_sites < 2:
        raise InvalidSize(f"a star needs a hub and at least one leaf, got {n_sites}")

    if kind is not Family.CUSTOM:
        if edges is not None:
            raise InvalidEdge(f"{kind.value} generates its own edges; do not pass any")
        return Topology(kind, n_sites, _canonical_edges(kind, n_sites))

    if not edges:
        raise InvalidEdge("custom topology requires a non-empty edge list")
    seen = set()
    normalized = []
    for i, j in edges:
        try:
            i, j = operator.index(i), operator.index(j)
        except TypeError:
            raise InvalidEdge(f"edge ({i!r}, {j!r}) indices must be integers") from None
        if not (0 <= i < n_sites and 0 <= j < n_sites):
            raise InvalidEdge(f"edge ({i}, {j}) references a site outside 0..{n_sites - 1}")
        if i == j:
            raise InvalidEdge(f"self-loop at site {i}")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise InvalidEdge(f"duplicate edge ({i}, {j})")
        seen.add(key)
        normalized.append(key)
    return Topology(kind, n_sites, tuple(sorted(normalized)))


def adjacency(topology: Topology) -> np.ndarray:
    a = np.zeros((topology.n_sites, topology.n_sites))
    for i, j in topology.edges:
        a[i, j] = a[j, i] = 1.0
    return a


@dataclass(frozen=True)
class HamiltonianSpec:
    """Clean real-symmetric Hamiltonian plus its Cauchy disorder half-width.

    ``disordered`` marks the sites whose diagonal carries the random term (the
    cavity state does not).
    """

    h0: np.ndarray
    gamma: float
    disordered: np.ndarray = field(default=None)

    def __post_init__(self):
        h0 = np.asarray(self.h0, dtype=float)
        if h0.ndim != 2 or h0.shape[0] != h0.shape[1]:
            raise ValueError(f"h0 must be square, got shape {h0.shape}")
        if not np.all(np.isfinite(h0)):
            raise ValueError("h0 must be finite")
        if not np.array_equal(h0, h0.T):
            raise ValueError("h0 must be exactly symmetric")
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be finite and positive, got {self.gamma}")
        mask = self.disordered
        mask = np.ones(h0.shape[0], dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
        if mask.shape != (h0.shape[0],):
            raise ValueError("disordered mask must have one flag per site")
        h0 = h0.copy()
        h0.setflags(write=False)
        mask = mask.copy()
        mask.setflags(write=False)
        object.__setattr__(self, "h0", h0)
        object.__setattr__(self, "disordered", mask)

    @property
    def n_sites(self) -> int:
        return self.h0.shape[0]

    @functools.cached_property
    def _eigensystem(self):
        # h0 is read-only, so one decomposition serves every caller of
        # engine.diagonalize: a command's default window and its engine call.
        eigenvalues, eigenvectors = np.linalg.eigh(self.h0)
        eigenvalues.setflags(write=False)
        eigenvectors.setflags(write=False)
        return eigenvalues, eigenvectors


def assemble_huckel(topology: Topology, alpha: float, beta: float,
                    gamma: float) -> HamiltonianSpec:
    """Tight-binding matrix: alpha on the diagonal, beta at adjacent pairs.

    Every site is disordered.  The dimensionless convention of the worked
    examples is just alpha=0, beta=1 in eV.
    """
    for name, value in (("alpha", alpha), ("beta", beta)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    h0 = beta * adjacency(topology)
    np.fill_diagonal(h0, alpha)
    return HamiltonianSpec(h0, gamma, np.ones(topology.n_sites, dtype=bool))


def assemble_cavity(params: CavityParams) -> HamiltonianSpec:
    """(N+1)-state star matrix for the cavity model.

    Index 0 is the cavity state: diagonal epsilon_c, not disordered.  Sites
    1..N are molecules at epsilon_a, each coupled to the cavity by the
    uniform per-molecule element V, all carrying the Cauchy noise.
    """
    v = params.coupling  # finite: CavityParams checks it
    n = params.n_molecules
    h0 = np.zeros((n + 1, n + 1))
    h0[0, 0] = params.epsilon_c
    h0[1:, 1:] = params.epsilon_a * np.eye(n)
    h0[0, 1:] = h0[1:, 0] = v
    mask = np.ones(n + 1, dtype=bool)
    mask[0] = False
    return HamiltonianSpec(h0, params.gamma, mask)


def bright_spec(params: CavityParams) -> HamiltonianSpec:
    """Two-state bright matrix H_b of the cavity model: index 0 the cavity
    state at epsilon_c, not disordered, index 1 the symmetric combination of
    the N molecules at epsilon_a, disordered, coupled by sqrt(N)*V.  The
    cavity reaches none of the N - 1 dark combinations."""
    coupling = math.sqrt(params.n_molecules) * params.coupling
    h0 = np.array([[params.epsilon_c, coupling], [coupling, params.epsilon_a]])
    return HamiltonianSpec(h0, params.gamma, np.array([False, True]))

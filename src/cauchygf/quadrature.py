"""Shared numerics: trapezoidal sum rules and auto-widened windows.

Spectra in this package are smooth mixtures of Lorentzians, so a composite
trapezoid on a uniform grid is accurate and keeps CSV output directly
integrable.  The dominant sum-rule error is tail truncation: a unit Lorentzian
of half-width g integrated over +-pad*g misses 2/(pi*pad) of its mass, which
for the default pad of 40 is below 1.6%.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, NonMonotonicGrid

DEFAULT_PAD_FACTOR = 40.0
SUM_RULE_MIN_POINTS = 4001


@dataclass(frozen=True)
class Window:
    """Closed frequency interval [lo, hi] sampled at n_points uniform points."""

    lo: float
    hi: float
    n_points: int = SUM_RULE_MIN_POINTS

    def __post_init__(self):
        for name, value in (("lo", self.lo), ("hi", self.hi)):
            if not math.isfinite(value):
                raise ValueError(f"window {name} must be finite, got {value}")
        if not self.lo < self.hi:
            raise ValueError(f"window needs lo < hi, got [{self.lo}, {self.hi}]")
        if not hasattr(type(self.n_points), "__index__") or self.n_points < 2:
            raise ValueError(f"window n_points must be an integer >= 2, got {self.n_points!r}")

    def omegas(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n_points)


def _validated_curve(xs, ys):
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or ys.ndim != 1 or xs.shape != ys.shape:
        raise LengthMismatch(f"expected equal-length 1d arrays, got {xs.shape} and {ys.shape}")
    if xs.size < 2:
        raise LengthMismatch("need at least two samples")
    if not np.all(np.isfinite(xs)):
        raise NonMonotonicGrid("sample positions must be finite")
    if not np.all(np.diff(xs) > 0):
        raise NonMonotonicGrid("sample positions must be strictly increasing")
    if not np.all(np.isfinite(ys)):
        raise ValueError("sample values must be finite")
    return xs, ys


def integrate_trapezoid(xs, ys) -> float:
    """Composite trapezoid of ys over the strictly increasing grid xs."""
    xs, ys = _validated_curve(xs, ys)
    return float(np.trapezoid(ys, xs))


def auto_window(spectrum, gamma: float, pad_factor: float = DEFAULT_PAD_FACTOR,
                n_points: int = SUM_RULE_MIN_POINTS) -> Window:
    """Sum-rule window: the spectral range padded by pad_factor*gamma each side.

    ``spectrum`` is any collection of eigenvalues or pole locations; complex
    entries contribute their real parts.  The returned window always carries
    at least SUM_RULE_MIN_POINTS samples so trapezoid sum rules stay inside
    their quoted tolerances.
    """
    values = np.atleast_1d(np.asarray(spectrum))
    if values.size == 0:
        raise ValueError("empty spectrum")
    centers = values.real.astype(float)
    if not np.all(np.isfinite(centers)):
        raise ValueError("spectrum contains non-finite entries")
    for name, value in (("gamma", gamma), ("pad_factor", pad_factor)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    pad = pad_factor * gamma
    return Window(float(centers.min() - pad), float(centers.max() + pad),
                  max(int(n_points), SUM_RULE_MIN_POINTS))

"""Shared numerics: trapezoidal sum rules, peak widths and auto-widened grids.

Spectra in this package are smooth mixtures of Lorentzians, so a composite
trapezoid on a uniform grid is accurate and keeps CSV output directly
integrable.  The dominant sum-rule error is tail truncation: a unit Lorentzian
of half-width g integrated over +-pad*g misses 2/(pi*pad) of its mass, which
for the default pad of 40 is below 1.6%.
"""

from __future__ import annotations

import math

import numpy as np

from .engine import SpectralGrid
from .errors import LengthMismatch, NonMonotonicGrid, PeakNotFound, UnresolvedWidth

DEFAULT_PAD_FACTOR = 40.0
SUM_RULE_POINTS = 4001


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


def auto_window(spectrum, gamma: float, pad_factor: float = DEFAULT_PAD_FACTOR,
                n_points: int = SUM_RULE_POINTS) -> SpectralGrid:
    """Uniform grid of n_points over the spectral range padded by
    pad_factor*gamma each side, with eta = 0.

    ``spectrum`` is any collection of eigenvalues or pole locations; complex
    entries contribute their real parts.  The default SUM_RULE_POINTS samples
    keep trapezoid sum rules inside their quoted tolerances.
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
    return SpectralGrid.uniform(float(centers.min() - pad), float(centers.max() + pad),
                                n_points)

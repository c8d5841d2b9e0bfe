import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from cauchygf.errors import LengthMismatch, NonMonotonicGrid
from cauchygf.engine import SpectralGrid
from cauchygf.quadrature import auto_window, integrate_trapezoid
from oracles import find_peaks


def lorentzian(x, half_width, center=0.0):
    return (half_width / np.pi) / ((x - center) ** 2 + half_width ** 2)


def test_trapezoid_flat_segment():
    assert integrate_trapezoid([0.0, 1.0], [1.0, 1.0]) == 1.0


def test_trapezoid_lorentzian_tail_truncation():
    # Unit-mass Lorentzian of half-width 0.1 on [-4, 4]: the exact window
    # integral is (2/pi) * arctan(40); the missing mass is pure tail.
    xs = np.linspace(-4, 4, 4001)
    value = integrate_trapezoid(xs, lorentzian(xs, 0.1))
    exact = 2 / np.pi * np.arctan(40.0)
    assert abs(value - exact) < 1e-6
    assert abs(value - 0.984) < 1e-3
    reference, _ = quad(lorentzian, -4, 4, args=(0.1,))
    assert abs(value - reference) < 1e-6


def test_trapezoid_linear_in_integrand():
    rng = np.random.default_rng(7)
    xs = np.sort(rng.uniform(-2, 2, 301))
    xs += np.arange(301) * 1e-9  # guard against ties
    f = rng.standard_normal(301)
    g = rng.standard_normal(301)
    a, b = 1.7, -0.3
    combined = integrate_trapezoid(xs, a * f + b * g)
    split = a * integrate_trapezoid(xs, f) + b * integrate_trapezoid(xs, g)
    assert abs(combined - split) < 1e-12


@pytest.mark.parametrize("xs, ys, err", [
    ([0.0, 1.0], [1.0], LengthMismatch),
    ([0.0], [1.0], LengthMismatch),
    ([0.0, 1.0, 0.5], [1.0, 1.0, 1.0], NonMonotonicGrid),
    ([0.0, 0.0, 1.0], [1.0, 1.0, 1.0], NonMonotonicGrid),
    ([0.0, np.nan, 1.0], [1.0, 1.0, 1.0], NonMonotonicGrid),
    ([0.0, 1.0, np.inf], [1.0, 1.0, 1.0], NonMonotonicGrid),
    ([0.0, 1.0, 2.0], [0.0, np.nan, 1.0], ValueError),
    ([0.0, 1.0, 2.0], [0.0, -np.inf, 1.0], ValueError),
])
def test_trapezoid_rejects_bad_grids(xs, ys, err):
    with pytest.raises(err) as info:
        integrate_trapezoid(xs, ys)
    # A non-finite position is a bad grid, a non-finite value is not, and
    # either is reported as non-finite rather than as disorder or a result.
    assert type(info.value) is err
    if not np.all(np.isfinite(np.concatenate([xs, ys]))):
        assert "must be finite" in str(info.value)


def test_window_validation():
    with pytest.raises(ValueError):
        SpectralGrid.uniform(1.0, 1.0, 2)
    with pytest.raises(ValueError):
        SpectralGrid.uniform(0.0, 1.0, n_points=1)
    with pytest.raises(ValueError, match="n_points must be an integer"):
        SpectralGrid.uniform(0.0, 1.0, 2.5)
    assert SpectralGrid.uniform(0.0, 1.0, np.int64(3)).omegas.size == 3
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="window lo must be finite"):
            SpectralGrid.uniform(bad, 1.0, 2)
        with pytest.raises(ValueError, match="window hi must be finite"):
            SpectralGrid.uniform(0.0, bad, 2)
    grid = SpectralGrid.uniform(-1.0, 1.0, 5)
    assert_allclose(grid.omegas, [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert grid.eta == 0.0


def test_auto_window_arithmetic():
    w = auto_window([-1.0, 1.0], gamma=0.1, pad_factor=40).omegas
    assert_allclose([w[0], w[-1]], [-5.0, 5.0])
    assert w.size == 4001

    root6 = np.sqrt(6.0)
    w = auto_window([-root6, 0.0, root6], gamma=0.1).omegas
    assert_allclose([w[0], w[-1]], [-root6 - 4, root6 + 4])


def test_auto_window_accepts_complex_poles():
    poles = [2.237916554 - 0.01j, 1.962083446 - 0.01j]
    w = auto_window(poles, gamma=0.02).omegas
    assert_allclose([w[0], w[-1]], [1.962083446 - 0.8, 2.237916554 + 0.8])
    assert abs(w[0] - 1.16) < 0.01 and abs(w[-1] - 3.04) < 0.01


def test_auto_window_gives_exactly_n_points():
    for n in (2, 11, 201, np.int64(5000)):
        grid = auto_window([0.0], 0.1, 4.0, n)
        assert grid.omegas.size == n and grid.eta == 0.0
        assert_allclose([grid.omegas[0], grid.omegas[-1]], [-0.4, 0.4])
    with pytest.raises(ValueError, match="n_points must be an integer"):
        auto_window([0.0], 0.1, n_points=5000.7)


def test_auto_window_rejects_bad_input():
    with pytest.raises(ValueError):
        auto_window([], 0.1)
    with pytest.raises(ValueError):
        auto_window([0.0], -0.1)
    with pytest.raises(ValueError, match="gamma must be finite"):
        auto_window([0.0], np.nan)
    with pytest.raises(ValueError, match="pad_factor must be finite"):
        auto_window([0.0], 0.1, pad_factor=np.inf)


def test_find_peaks_single_lorentzian():
    xs = np.linspace(-2, 2, 801)
    peaks = find_peaks(xs, lorentzian(xs, 0.2, center=0.3))
    assert len(peaks) == 1
    pos, height = peaks[0]
    assert abs(pos - 0.3) < xs[1] - xs[0]
    assert abs(height - 1 / (np.pi * 0.2)) < 0.01


def test_find_peaks_grid_convergence():
    # Parabolic refinement: halving the step moves the position by < step^2.
    def locate(n):
        xs = np.linspace(-1.0, 1.0, n) + 0.0137  # center off the sample points
        return find_peaks(xs, lorentzian(xs, 0.3))[0][0]
    coarse_step = 2.0 / 400
    assert abs(locate(401) - locate(801)) < coarse_step ** 2


def test_find_peaks_mirror_symmetry():
    xs = np.linspace(-3, 3, 1201)
    ys = lorentzian(xs, 0.15, -1.1) + 0.5 * lorentzian(xs, 0.2, 0.7)
    forward = find_peaks(xs, ys)
    mirrored = find_peaks(xs, ys[::-1])
    assert len(forward) == len(mirrored) == 2
    for (p, h), (q, g) in zip(forward, mirrored[::-1]):
        assert abs(p + q) < 1e-9
        assert abs(h - g) < 1e-9


def test_find_peaks_prominence_filter():
    xs = np.linspace(-2, 2, 1601)
    tall = lorentzian(xs, 0.1, -0.8)
    bump = 0.002 * lorentzian(xs, 0.1, 0.9)
    both = find_peaks(xs, tall + bump, min_prominence=1e-6)
    assert len(both) == 2
    default = find_peaks(xs, tall + bump)  # 1% of max hides the bump
    assert len(default) == 1
    with pytest.raises(ValueError):
        find_peaks(xs, tall, min_prominence=0.0)


def test_find_peaks_empty_for_monotone_data():
    xs = np.linspace(0, 1, 50)
    assert find_peaks(xs, xs ** 2, min_prominence=1e-6) == []

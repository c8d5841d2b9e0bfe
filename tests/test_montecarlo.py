import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import cauchygf.montecarlo as mc
from cauchygf.cli import main
from cauchygf.engine import SpectralGrid
from cauchygf.errors import ConvergenceFailure, PeakNotFound, UnresolvedWidth
from cauchygf.cavity import CavityParams
from cauchygf.lattice import (DisorderSpec, HamiltonianSpec, assemble_cavity,
                              assemble_huckel, build_topology)
from cauchygf.montecarlo import EnsembleConfig, ensemble_average, make_rng
from cauchygf.quadrature import estimate_peak_width
from oracles import direct_schur_chunk, whole_block_eigh_chunk

CAUCHY = DisorderSpec("cauchy", 0.1)


def single_site(gamma=0.1):
    return HamiltonianSpec(np.zeros((1, 1)), gamma)


# ------------------------------------------------------------------ sampling

def test_cauchy_draws_have_matching_median_and_quartiles():
    xi = mc._draw(CAUCHY, (200_000,), make_rng(5))
    assert np.median(xi) == pytest.approx(0.0, abs=2e-3)
    # P(|xi| <= scale) = 1/2 for a Cauchy law of that half-width.
    assert np.mean(np.abs(xi) <= 0.1) == pytest.approx(0.5, abs=5e-3)
    # Heavy tails: draws beyond 100*scale appear at rate ~ 2/(100 pi).
    assert np.mean(np.abs(xi) > 10.0) == pytest.approx(2 / (100 * np.pi),
                                                       rel=0.25)


def test_gaussian_and_uniform_draws():
    rng = make_rng(6)
    g = mc._draw(DisorderSpec("gaussian", 0.3), (200_000,), rng)
    assert np.std(g) == pytest.approx(0.3, rel=0.01)
    assert np.mean(g) == pytest.approx(0.0, abs=0.005)
    u = mc._draw(DisorderSpec("uniform", 0.2), (200_000,), rng)
    assert u.min() >= -0.2 and u.max() <= 0.2
    assert np.mean(u) == pytest.approx(0.0, abs=0.002)
    assert np.std(u) == pytest.approx(0.2 / np.sqrt(3), rel=0.01)


@pytest.mark.parametrize("law", ["cauchy", "gaussian", "uniform"])
def test_draws_match_out_of_place_formula(law):
    # The in-place transforms round exactly as the expressions they replace.
    dist = DisorderSpec(law, 0.3)
    rng = make_rng(8)
    if law == "cauchy":
        want = 0.3 * np.tan(np.pi * (rng.random((257, 5)) - 0.5))
    elif law == "gaussian":
        want = 0.3 * rng.standard_normal((257, 5))
    else:
        want = rng.uniform(-0.3, 0.3, (257, 5))
    assert np.array_equal(mc._draw(dist, (257, 5), make_rng(8)), want)


def test_same_seed_reproduces_bitwise():
    spec = assemble_huckel(build_topology("chain", 4), 0.0, 1.0, 0.1)
    grid = SpectralGrid(np.linspace(-3, 3, 11), eta=0.05)
    conf = EnsembleConfig(500, 42, CAUCHY, 0.05)
    a = ensemble_average(spec, conf, grid)
    b = ensemble_average(spec, conf, grid)
    assert np.array_equal(a.mean_greens, b.mean_greens)
    assert np.array_equal(a.stderr_re, b.stderr_re)
    c = ensemble_average(spec, EnsembleConfig(500, 43, CAUCHY, 0.05), grid)
    assert not np.array_equal(a.mean_greens, c.mean_greens)


def test_merge_matches_two_pass_statistics():
    rng = np.random.default_rng(3)
    data = rng.standard_normal((1000, 4)) + 1j * rng.standard_normal((1000, 4))
    parts = np.stack([data.real, data.imag], axis=1)             # (1000, 2, 4)
    count, mean, m2 = 0, np.zeros((2, 4)), np.zeros((2, 4))
    for chunk in np.split(parts, [130, 131, 700]):  # ragged chunks incl. size 1
        add_mean = chunk.mean(axis=0)
        mc._merge_streams(count, mean, m2, len(chunk), add_mean,
                          ((chunk - add_mean) ** 2).sum(axis=0))
        count += len(chunk)
    assert count == 1000
    np.testing.assert_allclose(mean[0] + 1j * mean[1], data.mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(m2[0], data.real.var(axis=0) * 1000, rtol=1e-10)
    np.testing.assert_allclose(m2[1], data.imag.var(axis=0) * 1000, rtol=1e-10)


def test_zero_noise_rng_gives_clean_resolvent(monkeypatch):
    # A generator whose uniforms are all 1/2 maps to xi = 0 under the Cauchy
    # inverse CDF, so the single-sample mean must equal the noise-free
    # resolvent with zero spread.
    class Flat:
        def random(self, shape=None):
            return np.full(shape, 0.5) if shape is not None else 0.5

    monkeypatch.setattr(mc, "make_rng", lambda seed: Flat())
    spec = assemble_huckel(build_topology("chain", 3), 0.0, 1.0, 0.1)
    grid = SpectralGrid(np.linspace(-2, 2, 9), eta=0.03)
    out = ensemble_average(spec, EnsembleConfig(1, 0, CAUCHY, 0.03), grid)
    eye = np.eye(3, dtype=complex)
    for k, w in enumerate(grid.omegas):
        want = np.diagonal(np.linalg.solve((w + 0.03j) * eye - spec.h0, eye))
        np.testing.assert_allclose(out.mean_greens[k], want, atol=1e-12)
    assert np.all(out.stderr_re == 0) and np.all(out.stderr_im == 0)


# ------------------------------------------- tiles folded into the statistics

def two_pass_statistics(spec, config, grid, elements):
    """Oracle for ensemble_average: every realization from the same draws,
    solved directly, then np.mean and np.std(ddof=1)/sqrt(M) per component."""
    n, m = spec.n_sites, config.n_samples
    xi = mc._draw(config.distribution, (m, n), make_rng(config.seed)) * spec.disordered
    h = spec.h0 + xi[:, :, None] * np.eye(n)                          # (M, n, n)
    rows, cols = np.array(elements).T
    values = np.empty((m, grid.omegas.size, len(elements)), dtype=complex)
    for w, omega in enumerate(grid.omegas):
        g = np.linalg.solve((omega + 1j * config.eta) * np.eye(n) - h, np.eye(n))
        values[:, w] = g[:, rows, cols]
    if m == 1:
        return values[0], np.zeros(values.shape[1:]), np.zeros(values.shape[1:])
    return (values.mean(axis=0), values.real.std(axis=0, ddof=1) / np.sqrt(m),
            values.imag.std(axis=0, ddof=1) / np.sqrt(m))


ORACLE_SHAPES = {
    # every site disordered, hopping between them: batched eigh route
    "star-eigh": (assemble_huckel(build_topology("star", 7), 0.0, 1.0, 0.1),
                  [(i, i) for i in range(7)] + [(0, 3), (4, 2)]),
    # molecules coupled only through the undisordered mode: only the mode,
    # twice (G_uu built in its first tile row), takes the Schur route; the
    # diagonal out of site order, or only molecules, the batched eigh route
    "mode-schur": (assemble_cavity(CavityParams(0.0, 0.0, 0.1, 6, coupling=0.4)),
                   [(0, 0), (0, 0)]),
    "cavity-diagonal-eigh": (assemble_cavity(CavityParams(0.0, 0.0, 0.1, 6, coupling=0.4)),
                             [(4, 4), (0, 0), (1, 1), (6, 6), (3, 3)]),
    "molecules-eigh": (assemble_cavity(CavityParams(0.0, 0.0, 0.1, 6, coupling=0.4)),
                       [(5, 5), (2, 2)]),
    # the same cavity with off-diagonal elements: batched eigh route
    "cavity-eigh": (assemble_cavity(CavityParams(0.0, 0.0, 0.1, 6, coupling=0.4)),
                    [(0, 0), (1, 1), (0, 3), (2, 5), (4, 4), (6, 0)]),
}


def boundary_sample_counts(spec, elements, grid):
    """1, 2 and one tile plus one sample; one block minus one, one block,
    one block plus one sample, and two blocks plus five."""
    n = spec.n_sites
    block = mc._block_size(n, len(elements), grid.omegas.size)
    route = mc._realization_route(spec, elements)
    _, tile, *_ = next(route(spec, np.zeros((block, n)), elements, grid.omegas, grid.eta))
    return [1, 2, tile + 1, block - 1, block, block + 1, 2 * block + 5]


@pytest.mark.parametrize("shape", ORACLE_SHAPES)
def test_fused_statistics_match_two_pass_oracle(shape):
    spec, elements = ORACLE_SHAPES[shape]
    grid = SpectralGrid(np.linspace(-2.5, 2.5, 9), eta=0.05)
    route = mc._realization_route(spec, elements)
    assert route is (mc._eigh_chunk if shape.endswith("eigh") else mc._schur_chunk)
    counts = boundary_sample_counts(spec, elements, grid)
    assert all(a < b for a, b in zip(counts, counts[1:]))
    for m in counts:
        config = EnsembleConfig(m, 31 + m, CAUCHY, 0.05)
        out = ensemble_average(spec, config, grid, elements)
        want = two_pass_statistics(spec, config, grid, elements)
        assert out.n_samples == m
        for got, ref in zip((out.mean_greens, out.stderr_re, out.stderr_im), want):
            assert np.abs(got - ref).max() <= 1e-12 * max(np.abs(ref).max(), 1e-300), m


def sub_batch(spec, elements, grid, block):
    """(tile, sub): the kernel's sample tile in a block of ``block`` samples
    and the samples ``_eigh_chunk`` decomposes at once, a whole number of
    tiles."""
    n = spec.n_sites
    tile, _ = mc._tile_shape(block, n, len(elements), grid.omegas.size)
    return tile, min(block, tile * max(1, mc._TILE_BUDGET // (tile * n * n)))


@pytest.mark.parametrize("shape", ["star-diagonal", "ring-pairs", "cavity-diagonal"])
def test_sub_batched_eigh_folds_to_the_whole_block_bits(shape):
    # Every block's _fold_block statistics must equal, bit for bit, those of
    # the whole block decomposed in one batch (tests/oracles.py).  ring(12)'s
    # count ends partway into the second tile of its third sub-batch.
    if shape == "star-diagonal":
        spec = assemble_huckel(build_topology("star", 7), 0.0, 1.0, 0.1)
        elements, grid, m = None, SpectralGrid(np.linspace(-4, 4, 201), eta=0.02), 4000
    elif shape == "ring-pairs":
        spec = assemble_huckel(build_topology("ring", 12), 0.0, 1.0, 0.1)
        elements = [(i, i) for i in range(12)] + [(0, 1), (3, 7), (11, 5)]
        grid, m = SpectralGrid(np.linspace(-3, 3, 51), eta=0.05), None
    else:
        spec = assemble_cavity(CavityParams(2.1, 2.1, 0.02, 24, coupling=0.1 / np.sqrt(8)))
        elements, grid, m = None, SpectralGrid(np.linspace(1.9, 2.3, 101), eta=0.002), 700
    n = spec.n_sites
    elements = tuple((i, i) for i in range(n)) if elements is None else tuple(elements)
    assert mc._realization_route(spec, elements) is mc._eigh_chunk
    block = mc._block_size(n, len(elements), grid.omegas.size)
    tile, sub = sub_batch(spec, elements, grid, block)
    if m is None:
        assert 1 < tile and 2 * tile < sub and 3 * sub < block
        m = 2 * sub + tile + 3
    assert sub < min(block, m)
    sizes = [min(block, m - b0) for b0 in range(0, m, block)]
    for xi in mc._draws(CAUCHY, spec.disordered.astype(float), 17, sizes):
        got = mc._fold_block(mc._eigh_chunk, spec, xi, elements, grid.omegas, grid.eta)
        want = mc._fold_block(whole_block_eigh_chunk, spec, xi, elements, grid.omegas,
                              grid.eta)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


def mc_cavity_request():
    """The mc-cavity benchmark's shape: cavity(N=80), G_00 at 601 frequencies
    around the upper polariton, Cauchy disorder 0.02, eta 0.002."""
    params = CavityParams(2.1, 2.1, 0.02, 80, coupling=0.1 / np.sqrt(8))
    center = 2.1 + np.sqrt(params.nv2)
    grid = SpectralGrid(np.linspace(center - 0.04, center + 0.04, 601), eta=0.002)
    return assemble_cavity(params), [(0, 0)], grid, DisorderSpec("cauchy", 0.02)


@pytest.mark.parametrize("shape", ["star-eigh", "mode-schur", "mc-cavity"])
def test_results_do_not_depend_on_worker_count(shape, monkeypatch):
    # Three blocks, folded by one, two or three processes (more than this
    # host may have cores): the blocks are fixed by the shape and merged in
    # block order, so every run gives the same bits.  mc-cavity's 601
    # frequencies make blocks of 205 samples and a tile per sample.
    if shape == "mc-cavity":
        spec, elements, grid, law = mc_cavity_request()
    else:
        (spec, elements), law = ORACLE_SHAPES[shape], CAUCHY
        grid = SpectralGrid(np.linspace(-2.5, 2.5, 9), eta=0.05)
    block = mc._block_size(spec.n_sites, len(elements), grid.omegas.size)
    config = EnsembleConfig(2 * block + 5, 61, law, grid.eta)
    runs = []
    for workers in (1, 2, 3, 3):
        monkeypatch.setattr(mc, "_usable_cpus", lambda: workers)
        runs.append(ensemble_average(spec, config, grid, elements))
    for run in runs[1:]:
        for name in ("mean_greens", "stderr_re", "stderr_im"):
            assert np.array_equal(getattr(run, name), getattr(runs[0], name)), name


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_mc_cavity_request_is_shared_out_in_blocks(monkeypatch, tmp_path):
    # Its pole sums, 80 poles at 601 frequencies, size the blocks: by the
    # 81-site eigh batch alone all 1200 samples would make one block, which
    # one process folds.  Each process appends its pid and block size to a
    # file, in one write per block.
    spec, elements, grid, law = mc_cavity_request()
    fold, log = mc._fold_block, tmp_path / "blocks"

    def counting(solve, spec, xi, *rest):
        with open(log, "a") as out:
            out.write(f"{os.getpid()} {len(xi)}\n")
        return fold(solve, spec, xi, *rest)

    monkeypatch.setattr(mc, "_fold_block", counting)
    monkeypatch.setattr(mc, "_usable_cpus", lambda: 2)
    ensemble_average(spec, EnsembleConfig(1200, 5, law, grid.eta), grid, elements)
    blocks = [line.split() for line in log.read_text().splitlines()]
    assert len({pid for pid, _ in blocks}) >= 2
    assert sum(int(size) for _, size in blocks) == 1200
    assert_no_child_process()


def star_request():
    spec = assemble_huckel(build_topology("star", 7), 0.0, 1.0, 0.1)
    grid = SpectralGrid(np.linspace(-3, 3, 9), eta=0.05)
    return spec, grid, mc._block_size(7, 7, grid.omegas.size)


def test_eigh_failure_on_a_worker_is_convergence_failure(monkeypatch, tmp_path):
    # The batched eigensolver fails in block 1, which a worker process folds:
    # the caller gets ConvergenceFailure (mc-compare exits 5, not the 3 of a
    # ValueError such as LinAlgError), and no process outlives the call.
    spec, grid, block = star_request()
    eigh, caller, log = np.linalg.eigh, os.getpid(), tmp_path / "calls"

    def failing(h):
        with open(log, "a") as out:
            out.write(f"{len(h)} {os.getpid() == caller}\n")
        if len(h) == 5:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(h)

    monkeypatch.setattr(np.linalg, "eigh", failing)
    monkeypatch.setattr(mc, "_usable_cpus", lambda: 2)
    with pytest.raises(ConvergenceFailure, match="eigensolver failed"):
        ensemble_average(spec, EnsembleConfig(block + 5, 1, CAUCHY, 0.05), grid)
    assert_no_child_process()
    # The caller decomposes block 0 in sub-batches; the worker takes block 1.
    calls = [line.split() for line in log.read_text().splitlines()]
    assert sum(int(rows) for rows, own in calls if own == "True") == block
    assert [rows for rows, own in calls if own == "False"] == ["5"]

    cfg = tmp_path / "run.ini"
    cfg.write_text("[model]\nkind = star\nn_sites = 7\ngamma = 0.1\n"
                   f"[ensemble]\nsamples = {block + 5}\nseed = 1\neta = 0.05\n")
    assert main(["mc-compare", "--config", str(cfg), "--quiet", "--grid=-3:3:9",
                 "--out", str(tmp_path / "mc")]) == 5
    assert_no_child_process()


@pytest.mark.parametrize("failure, raised", [
    (np.linalg.LinAlgError, ConvergenceFailure), (KeyboardInterrupt, KeyboardInterrupt)],
    ids=["eigh-failure", "interrupt"])
def test_failure_in_the_callers_block_reaps_the_worker(failure, raised, monkeypatch,
                                                       tmp_path):
    # Block 0 fails in the caller, an eigensolver failure or an interrupt,
    # while the worker is still folding block 1, which would take a minute:
    # the error reaches the caller at once, and only after the worker has
    # been stopped and reaped.
    spec, grid, block = star_request()
    eigh, caller, started = np.linalg.eigh, os.getpid(), tmp_path / "started"

    def failing(h):
        if os.getpid() != caller:
            started.write_text(str(os.getpid()))
            time.sleep(60)
            return eigh(h)
        deadline = time.monotonic() + 10
        while not (started.exists() and started.read_text()):
            assert time.monotonic() < deadline, "the worker never started block 1"
            time.sleep(0.01)
        raise failure("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    monkeypatch.setattr(mc, "_usable_cpus", lambda: 2)
    begun = time.monotonic()
    with pytest.raises(raised):
        ensemble_average(spec, EnsembleConfig(block + 5, 1, CAUCHY, 0.05), grid)
    assert time.monotonic() - begun < 30
    assert_no_child_process()
    with pytest.raises(ProcessLookupError):
        os.kill(int(started.read_text()), 0)


def test_worker_that_ends_without_a_result_is_an_error(monkeypatch):
    # A worker that dies before sending its block is named with its exit
    # status; the caller neither waits for it forever nor merges the blocks
    # it has.
    spec, grid, block = star_request()
    fold, caller = mc._fold_block, os.getpid()

    def dying(*args):
        if os.getpid() != caller:
            os._exit(7)
        return fold(*args)

    monkeypatch.setattr(mc, "_fold_block", dying)
    monkeypatch.setattr(mc, "_usable_cpus", lambda: 2)
    with pytest.raises(ChildProcessError, match="exit status 7 before sending block 1"):
        ensemble_average(spec, EnsembleConfig(block + 5, 1, CAUCHY, 0.05), grid)
    assert_no_child_process()


def test_no_fork_while_another_thread_runs(monkeypatch):
    # A forked child holds only the thread that forked it, so beside another
    # Python thread the caller folds every block itself, to the same bits.
    spec, elements, grid, law = mc_cavity_request()
    config = EnsembleConfig(1200, 5, law, grid.eta)
    monkeypatch.setattr(mc, "_usable_cpus", lambda: 2)
    forked = ensemble_average(spec, config, grid, elements)

    def no_fork():
        raise AssertionError("forked beside another thread")

    monkeypatch.setattr(os, "fork", no_fork)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30,))
    other.start()
    try:
        serial = ensemble_average(spec, config, grid, elements)
    finally:
        release.set()
        other.join(10)
    assert not other.is_alive()
    for name in ("mean_greens", "stderr_re", "stderr_im"):
        assert np.array_equal(getattr(serial, name), getattr(forked, name)), name


def test_importing_the_cli_starts_no_thread_or_process():
    # Workers exist only while ensemble_average runs; importing the package
    # leaves the interpreter with its main thread and no child process.
    src = os.path.dirname(os.path.dirname(mc.__file__))
    probe = ("import os, threading, cauchygf.cli\n"
             "try:\n    os.waitpid(-1, os.WNOHANG)\nexcept ChildProcessError:\n"
             "    print(threading.active_count(), 'no child')\n")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60)
    assert out.stdout.strip() == "1 no child"


def test_statistics_hold_no_per_sample_array():
    # star(7), 4000 samples, 201 omega, full diagonal: G held as one
    # (samples, elements, omega) complex array takes 24 MB even for 1066
    # samples (90 MB for all 4000), while each eigh sub-batch and its
    # eigenvector products stay within the kernel's tile budget.
    spec = assemble_huckel(build_topology("star", 7), 0.0, 1.0, 0.1)
    grid = SpectralGrid(np.linspace(-4, 4, 201), eta=0.02)
    config = EnsembleConfig(4000, 7, CAUCHY, 0.02)
    tracemalloc.start()
    try:
        ensemble_average(spec, config, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_eigh_block_memory_is_set_by_the_tile_budget(monkeypatch):
    # ring(60), 300 samples, 201 omega, full diagonal, one process: one
    # batch of the whole block, with its eigenvectors and eigenvector
    # products, traced 44.3 MB; sub-batches of whole sample tiles within the
    # tile budget trace about 3 MB.
    spec = assemble_huckel(build_topology("ring", 60), 0.0, 1.0, 0.1)
    grid = SpectralGrid(np.linspace(-3, 3, 201), eta=0.02)
    monkeypatch.setattr(mc, "_usable_cpus", lambda: 1)
    tracemalloc.start()
    try:
        ensemble_average(spec, EnsembleConfig(300, 7, CAUCHY, 0.02), grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_two_worker_schur_ensemble_holds_no_more_than_one_block(monkeypatch):
    # The mc-cavity request on two workers: the caller's blocks of 205
    # samples, each with the kernel's 601-wide d and r and its step's tile,
    # and the worker's statistics it reads hold less than one block of all
    # 1200 samples would (3.19 MB traced).
    spec, elements, grid, law = mc_cavity_request()
    monkeypatch.setattr(mc, "_usable_cpus", lambda: 2)
    # A first call leaves whatever it caches out of the traced call.
    ensemble_average(spec, EnsembleConfig(1, 5, law, grid.eta), grid, elements)
    tracemalloc.start()
    try:
        ensemble_average(spec, EnsembleConfig(1200, 5, law, grid.eta), grid, elements)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.15e6


def test_empty_schur_request_holds_no_chunk_sized_tile(monkeypatch):
    # cavity(N=8), 8192 samples, 601 omega, no elements: a tile spanning the
    # whole draw chunk takes 238 MB, one sized by a single element 3 MB, and
    # G_uu, which nobody reads, took 186 ms; nothing is solved.
    spec = assemble_cavity(CavityParams(2.1, 2.1, 0.02, 8, coupling=0.1 / np.sqrt(8)))
    grid = SpectralGrid(np.linspace(2.0, 2.2, 601), eta=0.002)
    config = EnsembleConfig(8192, 3, DisorderSpec("cauchy", 0.02), 0.002)
    assert mc._realization_route(spec, []) is mc._schur_chunk

    def unread(*args):
        raise AssertionError("pole sums of an empty request")

    monkeypatch.setattr(mc, "_pole_sums", unread)
    tracemalloc.start()
    try:
        result = ensemble_average(spec, config, grid, elements=[])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.mean_greens.shape == (601, 0) and result.n_samples == 8192
    assert peak < 16e6


# ------------------------------------------- far-field series of the Schur route

UNIT_ROUNDOFF = 2.0 ** -53


def cavity_window(n, half_span=0.04, n_omega=601):
    """mc-cavity's request at N = n: cavity(n), G_00 around the upper
    polariton, Cauchy disorder 0.02, eta 0.002."""
    params = CavityParams(2.1, 2.1, 0.02, n, coupling=0.1 / np.sqrt(8))
    center = 2.1 + np.sqrt(params.nv2)
    omegas = np.linspace(center - half_span, center + half_span, n_omega)
    return assemble_cavity(params), omegas, 0.002, DisorderSpec("cauchy", 0.02)


def schur_tiles(solve, spec, xi, omegas, eta):
    """Every tile of a Schur solver over ``xi``, each a copy, with its
    (c0, c1) sample bounds."""
    tiles = []
    for c0, c1, w0, w1, tile in solve(spec, xi, ((0, 0),), omegas, eta):
        assert (w0, w1) == (0, omegas.size)
        tiles.append((c0, c1, tile.copy()))
    return tiles


def series_steps(spec, xi, omegas, eta, tiles):
    """Per tile, whether the far-field series serves it: every one of its
    samples has a pole at least 4R from the window's midpoint."""
    center = 0.5 * (omegas[0] + omegas[-1])
    radius = np.hypot(0.5 * (omegas[-1] - omegas[0]), eta)
    poles = np.diagonal(spec.h0)[spec.disordered] + xi[:, spec.disordered]
    far = np.abs(poles - center) >= 4 * radius
    return [bool(far[c0:c1].any(axis=1).all()) for c0, c1, _ in tiles]


def rounding_bound(spec, xi, omegas, eta, want):
    """How far two evaluations of G_uu may differ by rounding, per sample
    and frequency.  Each puts Sigma within (m + 64) u S of the exact sum,
    with S = sum_i c_i / |z - a_i| over the m poles (a recursive sum of m
    terms, plus the series' 27 terms and moments at a few roundings each),
    which moves G_uu = 1/(z - h_uu - Sigma) by |G|^2 times that to first
    order; the reciprocal adds a few roundings of |G|."""
    d = spec.disordered
    coupling = spec.h0[d, 0] ** 2
    poles = np.diagonal(spec.h0)[d] + xi[:, d]
    g = np.hypot(want[:, 0, 0], want[:, 1, 0])
    total = np.stack([(coupling[:, None] / np.hypot(omegas - a[:, None], eta)).sum(axis=0)
                      for a in poles])
    return UNIT_ROUNDOFF * (2 * (d.sum() + 64) * g * g * total + 8 * g)


@pytest.mark.parametrize("n", [8, 25, 80, 800])
def test_schur_far_field_matches_the_direct_oracle(n):
    # Three steps of mc-cavity's request at N = n against every pole through
    # _pole_sums (tests/oracles.py).  The first sample's poles all sit on
    # the window, so its step keeps the all-pole call and must give its
    # bits; a step whose every sample has a far pole goes through the
    # series and must agree within rounding_bound.  N = 8's poles are
    # mostly near, so its steps keep the bits; from N = 25 on the series
    # serves the second step.
    spec, omegas, eta, law = cavity_window(n)
    xi = next(mc._draws(law, spec.disordered.astype(float), 19 + n, [60]))
    xi[0, 1:] = omegas[300] - np.diagonal(spec.h0)[1:]
    got = schur_tiles(mc._schur_chunk, spec, xi, omegas, eta)
    want = schur_tiles(direct_schur_chunk, spec, xi, omegas, eta)
    series = series_steps(spec, xi, omegas, eta, want)
    assert [(c0, c1) for c0, c1, _ in got] == [(c0, c1) for c0, c1, _ in want]
    assert len(got) == 3 and not series[0] and (n == 8 or series[1])
    for (c0, c1, a), (_, _, b), far in zip(got, want, series):
        assert np.isfinite(a).all()
        if not far:
            assert np.array_equal(a, b)
        else:
            diff = np.hypot(*(a - b)[:, :, 0].transpose(1, 0, 2))
            assert (diff <= rounding_bound(spec, xi[c0:c1], omegas, eta, b)).all()


@pytest.mark.parametrize("n", [8, 25, 80, 800])
def test_schur_window_with_no_far_pole_keeps_the_direct_bits(n):
    # A window wider than twice every pole's distance from its midpoint
    # has no far pole, so each step makes the all-pole call.
    spec, omegas, eta, law = cavity_window(n)
    xi = next(mc._draws(law, spec.disordered.astype(float), 23 + n, [40]))
    poles = np.diagonal(spec.h0)[1:] + xi[:, 1:]
    center = 0.5 * (omegas[0] + omegas[-1])
    reach = np.abs(poles - center).max()
    wide = np.linspace(center - reach, center + reach, 101)
    assert not any(series_steps(spec, xi, wide, eta, [(0, 40, None)]))
    got = schur_tiles(mc._schur_chunk, spec, xi, wide, eta)
    want = schur_tiles(direct_schur_chunk, spec, xi, wide, eta)
    for (c0, c1, a), (d0, d1, b) in zip(got, want, strict=True):
        assert (c0, c1) == (d0, d1) and np.array_equal(a, b)


@pytest.mark.parametrize("grid", ["single frequency at eta 1e-150", "mc-cavity window"])
def test_schur_far_field_is_finite_at_extreme_geometry(grid):
    # One frequency at eta = 1e-150 makes R = 1e-150, so every pole is far
    # and each power of R/(a - w0) past the first underflows; a pole 1e12
    # away from the window makes R/(a - w0) = 4e-14.  The tiles must stay
    # finite, warn of nothing (the suite makes a RuntimeWarning an error)
    # and agree with the direct oracle.
    spec, omegas, eta, law = cavity_window(80)
    if grid.startswith("single"):
        omegas, eta = omegas[300:301], 1e-150
    xi = next(mc._draws(law, spec.disordered.astype(float), 29, [30]))
    xi[3, 7] = 1e12
    got = schur_tiles(mc._schur_chunk, spec, xi, omegas, eta)
    want = schur_tiles(direct_schur_chunk, spec, xi, omegas, eta)
    assert all(series_steps(spec, xi, omegas, eta, want))
    for (c0, c1, a), (_, _, b) in zip(got, want, strict=True):
        assert np.isfinite(a).all()
        diff = np.hypot(*(a - b)[:, :, 0].transpose(1, 0, 2))
        assert (diff <= rounding_bound(spec, xi[c0:c1], omegas, eta, b)).all()


# --------------------------------------------------- convergence to theorem

def test_single_site_mean_hits_cauchy_average_theorem():
    # <1/(w + i*eta - xi)> over Cauchy xi equals 1/(w + i(eta + gamma)):
    # check the MC mean at three frequencies against that closed form,
    # within 3 standard errors componentwise.
    spec = single_site(gamma=0.1)
    grid = SpectralGrid(np.array([-0.5, 0.0, 0.5]), eta=0.05)
    out = ensemble_average(spec, EnsembleConfig(100_000, 9, CAUCHY, 0.05), grid)
    want = 1 / (grid.omegas + 0.15j)
    got = out.mean_greens[:, 0]
    assert np.all(np.abs(got.real - want.real) < 3 * out.stderr_re[:, 0])
    assert np.all(np.abs(got.imag - want.imag) < 3 * out.stderr_im[:, 0])
    assert np.all(out.stderr_re > 0)


def test_gaussian_noise_is_not_the_cauchy_average():
    # Control experiment: with Gaussian disorder of the same scale the
    # -i*gamma substitution is NOT exact; at resonance the discrepancy
    # should exceed 5 standard errors comfortably.
    spec = single_site(gamma=0.1)
    grid = SpectralGrid(np.array([0.0]), eta=0.05)
    conf = EnsembleConfig(100_000, 9, DisorderSpec("gaussian", 0.1), 0.05)
    out = ensemble_average(spec, conf, grid)
    cauchy_form = 1 / 0.15j
    assert abs(out.mean_greens[0, 0].imag - cauchy_form.imag) \
        > 5 * out.stderr_im[0, 0]


def test_stderr_scales_inversely_with_sqrt_n():
    spec = single_site()
    grid = SpectralGrid(np.array([0.2]), eta=0.05)
    small = ensemble_average(spec, EnsembleConfig(1000, 17, CAUCHY, 0.05), grid)
    big = ensemble_average(spec, EnsembleConfig(16_000, 17, CAUCHY, 0.05), grid)
    ratio = small.stderr_im[0, 0] / big.stderr_im[0, 0]
    assert ratio == pytest.approx(4.0, rel=0.25)


def test_stderr_respects_resolvent_bound():
    # |G| <= 1/eta for every realization, so the sample variance obeys
    # var <= 1/eta^2 and stderr^2 * n cannot exceed it.
    spec = single_site()
    grid = SpectralGrid(np.linspace(-1, 1, 5), eta=0.05)
    out = ensemble_average(spec, EnsembleConfig(4000, 21, CAUCHY, 0.05), grid)
    bound = 1 / 0.05 ** 2
    assert np.all(out.stderr_re ** 2 * 4000 <= bound)
    assert np.all(out.stderr_im ** 2 * 4000 <= bound)


def test_elements_default_to_diagonal_and_accept_offdiagonal():
    spec = assemble_huckel(build_topology("star", 4), 0.0, 1.0, 0.1)
    grid = SpectralGrid(np.array([0.3]), eta=0.05)
    conf = EnsembleConfig(200, 11, CAUCHY, 0.05)
    out = ensemble_average(spec, conf, grid)
    assert out.elements == ((0, 0), (1, 1), (2, 2), (3, 3))
    off = ensemble_average(spec, conf, grid, elements=[(0, 2), (3, 3)])
    assert off.elements == ((0, 2), (3, 3))
    assert off.mean_greens.shape == (1, 2)
    # The same request twice gives the same bits.
    again = ensemble_average(spec, conf, grid, elements=[(0, 2), (3, 3)])
    assert np.array_equal(again.mean_greens, off.mean_greens)
    # Across requests only the summation order of the eigenvector products
    # differs (numpy's matmul picks dot, gemv or gemm by row count), so a
    # shared element agrees to rounding, not bit for bit.
    assert abs(off.mean_greens[0, 1] - out.mean_greens[0, 3]) \
        <= 1e-13 * abs(out.mean_greens[0, 3])
    # A fractional index is rejected by name, not truncated to (0, 2).
    with pytest.raises(ValueError, match="indices must be integers"):
        ensemble_average(spec, conf, grid, elements=[(0.7, 2)])
    numpy_ints = ensemble_average(spec, conf, grid, elements=[(np.int64(0), np.int32(2))])
    assert numpy_ints.elements == ((0, 2),)
    assert abs(numpy_ints.mean_greens[0, 0] - off.mean_greens[0, 0]) \
        <= 1e-13 * abs(off.mean_greens[0, 0])


def star_with_hub(disordered_hub, disordered_leaves=4):
    spec = assemble_huckel(build_topology("star", 5), 0.0, 1.0, 0.1)
    mask = [disordered_hub] + [True] * disordered_leaves + [False] * (4 - disordered_leaves)
    return HamiltonianSpec(spec.h0, 0.1, mask)


def test_route_follows_hopping_between_disordered_sites():
    # Schur when the disordered sites couple only through one undisordered
    # site u and only (u, u) is asked for, or nothing; the eigendecomposition
    # for any other element, as soon as two disordered sites hop, when two
    # sites are undisordered, or when none is (isolated sites).
    def route(spec, elements=None):
        if elements is None:
            elements = [(i, i) for i in range(spec.n_sites)]
        return mc._realization_route(spec, elements)

    cavity = assemble_cavity(CavityParams(2.1, 2.1, 0.02, 6, coupling=0.1))
    chain = assemble_huckel(build_topology("chain", 5), 0.0, 1.0, 0.1)
    chain_end = HamiltonianSpec(chain.h0, 0.1, [False] + [True] * 4)
    isolated = HamiltonianSpec(np.diag([0.0, 0.5, -0.3]), 0.1)
    for spec in (cavity, star_with_hub(False)):
        assert route(spec, [(0, 0)]) is mc._schur_chunk
        assert route(spec, [(0, 0), (0, 0)]) is mc._schur_chunk
        assert route(spec, []) is mc._schur_chunk
        assert route(spec) is mc._eigh_chunk
        for i in range(1, spec.n_sites):
            assert route(spec, [(i, i)]) is mc._eigh_chunk
            assert route(spec, [(0, 0), (i, i)]) is mc._eigh_chunk
            assert route(spec, [(0, i)]) is mc._eigh_chunk
            assert route(spec, [(i, 0)]) is mc._eigh_chunk
    for spec in (chain_end, star_with_hub(True), star_with_hub(False, 3),
                 single_site(), isolated):
        assert route(spec, [(0, 0)]) is mc._eigh_chunk


@pytest.mark.parametrize("disordered_hub", [False, True], ids=["schur", "eigh"])
def test_empty_element_list_gives_empty_columns(disordered_hub):
    grid = SpectralGrid(np.linspace(-1, 1, 7), eta=0.05)
    out = ensemble_average(star_with_hub(disordered_hub),
                           EnsembleConfig(50, 4, CAUCHY, 0.05), grid, elements=[])
    assert out.elements == ()
    for values in (out.mean_greens, out.stderr_re, out.stderr_im):
        assert values.shape == (7, 0)
    assert out.n_samples == 50


def test_grid_eta_must_match_config():
    spec = single_site()
    conf = EnsembleConfig(10, 1, CAUCHY, 0.05)
    ensemble_average(spec, conf, SpectralGrid(np.array([0.0]), 0.05))
    ensemble_average(spec, conf, SpectralGrid(np.array([0.0]), 0.0))
    with pytest.raises(ValueError):
        ensemble_average(spec, conf, SpectralGrid(np.array([0.0]), 0.02))


def test_config_validation():
    with pytest.raises(ValueError):
        EnsembleConfig(0, 1, CAUCHY, 0.05)
    with pytest.raises(ValueError):
        EnsembleConfig(10, 1, CAUCHY, 0.0)
    with pytest.raises(ValueError):
        EnsembleConfig(10, -1, CAUCHY, 0.05)
    with pytest.raises(ValueError):
        EnsembleConfig(10, 2 ** 64, CAUCHY, 0.05)
    with pytest.raises(ValueError, match="n_samples must be an integer"):
        EnsembleConfig(10.5, 1, CAUCHY, 0.05)
    with pytest.raises(ValueError, match="seed must be an integer"):
        EnsembleConfig(10, 1.7, CAUCHY, 0.05)
    assert EnsembleConfig(np.int64(10), np.uint64(2 ** 64 - 1), CAUCHY, 0.05).n_samples == 10


@pytest.mark.parametrize("eta", [float("nan"), float("inf")])
def test_config_rejects_non_finite_eta(eta):
    with pytest.raises(ValueError, match="eta"):
        EnsembleConfig(10, 1, CAUCHY, eta)


# ----------------------------------------------------------------- widths

def test_peak_width_of_sampled_lorentzian():
    omegas = np.linspace(-1, 1, 2001)
    dos = (0.1 / np.pi) / (omegas ** 2 + 0.01)
    width = estimate_peak_width(omegas, dos, (-1.0, 1.0))
    assert width == pytest.approx(0.2, abs=omegas[1] - omegas[0])


def test_peak_width_failure_modes():
    omegas = np.linspace(-1, 1, 201)
    rising = np.exp(omegas)  # maximum at the window edge
    with pytest.raises(PeakNotFound):
        estimate_peak_width(omegas, rising, (-1.0, 1.0))
    with pytest.raises(PeakNotFound):
        estimate_peak_width(omegas, rising, (0.0, 0.015))  # <3 samples
    # Peak present but the window clips both half-height crossings.
    dos = (0.1 / np.pi) / (omegas ** 2 + 0.01)
    with pytest.raises(UnresolvedWidth):
        estimate_peak_width(omegas, dos, (-0.05, 0.05))
    # One NaN sample is a bad input, not a width the window clips.
    dos[120] = np.nan
    with pytest.raises(ValueError, match="values must be finite"):
        estimate_peak_width(omegas, dos, (-1.0, 1.0))

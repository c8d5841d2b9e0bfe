"""Batch front end: dos | cavity | mc-compare | sum-rules.

Each run reads an INI config file, applies any flag overrides, computes, and
writes CSV/JSON artifacts whose bytes depend only on the effective
configuration (the seed covers the Monte-Carlo commands).  The effective
configuration, with every default resolved, is echoed into the JSON summary
so a run is reproducible from its artifacts alone.

Commands compute and write nothing: each returns its JSON fields and its
CSV table (header, rows, text column), or None for none.  ``main`` names the
artifacts after ``--out``, writes them, adds the ``command`` and
``artifacts`` keys to the JSON and prints the paths.

Exit codes: 0 success, 2 usage (argparse), 3 config file problems,
4 filesystem problems, 5 numerical failure (a singular shifted matrix, e.g. an
undisordered resonance probed at eta = 0, a non-converging eigensolver, a
NaN or infinite value in a result table, or a model too large for memory).
"""

from __future__ import annotations

import argparse
import configparser
import functools
import math
import os
import re
import sys

import numpy as np

from . import cavity as cavity_mod
from .cavity import CavityParams, polariton_poles
from .engine import (SpectralGrid, averaged_greens, averaged_table, default_eta,
                     diagonalize)
from .errors import ConfigParseError, NonFiniteResult
from .lattice import (DisorderSpec, Family, assemble_cavity, assemble_huckel,
                      bright_spec, build_topology)
from .montecarlo import EnsembleConfig, ensemble_average
from .output import write_csv, write_json
from .quadrature import auto_window, integrate_trapezoid

# Defaults, all overridable per run (see README for the full table).
DEFAULT_SEED = 1
DEFAULT_SAMPLES = 10_000
DEFAULT_MC_ETA = 0.02
DEFAULT_MC_PAD_FACTOR = 4.0
DEFAULT_MC_POINTS = 201
DELTA_RHO_T_LINE_FACTOR = 0.5  # bare-line width = this * gamma when eta == 0

EXIT_CONFIG = 3
EXIT_IO = 4
EXIT_NUMERICAL = 5

_REQUIRED = object()


def _load_config(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(path) as fh:
        try:
            parser.read_file(fh)
        except configparser.Error as exc:
            raise ConfigParseError(f"{path}: {exc}") from exc
    return parser


def _get(cfg, section, key, convert=str, default=_REQUIRED):
    if not cfg.has_option(section, key):
        if default is _REQUIRED:
            raise ConfigParseError(f"missing required key '{key}' in [{section}]")
        return default
    raw = cfg.get(section, key)
    try:
        return convert(raw)
    except Exception as exc:
        raise ConfigParseError(f"[{section}] {key} = {raw!r}: {exc}") from exc


def _parse_edges(raw: str):
    edges = []
    for token in raw.replace(",", " ").split():
        pieces = token.split("-")
        if len(pieces) != 2:
            raise ValueError(f"edge {token!r} is not of the form i-j")
        edges.append((int(pieces[0]), int(pieces[1])))
    return edges


def _resolve_model(cfg):
    """Read [model]; returns (model, echo).  ``model`` is the CavityParams
    for kind = cavity, whose closed forms need no matrix, else the assembled
    graph HamiltonianSpec."""
    kind = _get(cfg, "model", "kind").strip().lower()
    if kind == "cavity":
        params = CavityParams(
            epsilon_c=_get(cfg, "model", "epsilon_c", float),
            epsilon_a=_get(cfg, "model", "epsilon_a", float),
            gamma=_get(cfg, "model", "gamma", float),
            n_molecules=_get(cfg, "model", "n_molecules", int),
            v_tilde=_get(cfg, "model", "v_tilde", float, None),
            number_density=_get(cfg, "model", "number_density", float, None),
            coupling=_get(cfg, "model", "coupling", float, None),
            volume=_get(cfg, "model", "volume", float, None),
            mu_debye=_get(cfg, "model", "mu_debye", float, None),
        )
        echo = {
            "kind": "cavity",
            "epsilon_c": params.epsilon_c,
            "epsilon_a": params.epsilon_a,
            "gamma": params.gamma,
            "n_molecules": params.n_molecules,
            "coupling": params.coupling,
            "collective_coupling_sq": params.nv2,
            "mu_debye": params.mu_debye,
        }
        return params, echo

    try:
        family = Family(kind)
    except ValueError as exc:
        raise ConfigParseError(f"unknown model kind {kind!r}") from exc
    n_sites = _get(cfg, "model", "n_sites", int)
    edges = _get(cfg, "model", "edges", _parse_edges, None)
    alpha = _get(cfg, "model", "alpha", float, 0.0)
    beta = _get(cfg, "model", "beta", float, 1.0)
    gamma = _get(cfg, "model", "gamma", float)
    topology = build_topology(family, n_sites, edges)
    spec = assemble_huckel(topology, alpha, beta, gamma)
    echo = {
        "kind": family.value,
        "n_sites": n_sites,
        "alpha": alpha,
        "beta": beta,
        "gamma": gamma,
        "edges": [list(e) for e in topology.edges],
    }
    return spec, echo


def _parse_grid_flag(raw: str) -> SpectralGrid:
    pieces = raw.split(":")
    if len(pieces) != 3:
        raise ConfigParseError(f"--grid expects lo:hi:n, got {raw!r}")
    try:
        return SpectralGrid.uniform(float(pieces[0]), float(pieces[1]), int(pieces[2]))
    except ValueError as exc:
        raise ConfigParseError(f"--grid {raw!r}: {exc}") from exc


def _resolve_grid(cfg, args, fallback, eta_default: float):
    """Priority: --grid / --eta flags, then [grid] keys, then the grid that
    ``fallback()`` builds, which is called only when neither is given."""
    if getattr(args, "grid", None):
        window = _parse_grid_flag(args.grid)
    elif cfg.has_option("grid", "lo") or cfg.has_option("grid", "hi"):
        window = SpectralGrid.uniform(_get(cfg, "grid", "lo", float),
                                      _get(cfg, "grid", "hi", float),
                                      _get(cfg, "grid", "n", int, 2001))
    elif cfg.has_option("grid", "n"):
        raise ConfigParseError("[grid] n needs [grid] lo and hi")
    else:
        window = fallback()
    eta = args.eta if getattr(args, "eta", None) is not None else \
        _get(cfg, "grid", "eta", float, eta_default)
    grid = SpectralGrid(window.omegas, eta)
    echo = {"lo": grid.omegas[0], "hi": grid.omegas[-1], "n": grid.omegas.size, "eta": eta}
    return grid, echo


def _polariton_window(params, poles) -> SpectralGrid:
    """Auto window over both polaritons and the bare cavity and molecule lines."""
    return auto_window([poles.eps_plus, poles.eps_minus, params.epsilon_a,
                        params.epsilon_c], params.gamma)


_SITE_COLUMN = re.compile(r"^rho_site_(0|[1-9][0-9]*)$")
_G_COLUMN = re.compile(r"^(re|im)_G_(0|[1-9][0-9]*)_(0|[1-9][0-9]*)$")


def _dos_columns(cfg, n_sites):
    """The dos columns after omega, each as (name, part, element): the part
    of G it reads ("rho" is -Im / pi, "re" and "im" are G's parts) and the
    element, None for the trace, as ``averaged_table`` takes them."""
    raw = _get(cfg, "output", "columns", str, None)
    if raw is None:
        return [("rho_total", "rho", None)] + [
            (f"rho_site_{i}", "rho", (i, i)) for i in range(n_sites)]
    names = [tok.strip() for tok in raw.split(",") if tok.strip()]
    if not names:
        raise ConfigParseError("[output] columns is empty")
    columns = []
    for name in names:
        site = _SITE_COLUMN.match(name)
        pair = _G_COLUMN.match(name)
        if name == "rho_total":
            columns.append((name, "rho", None))
        elif site and int(site.group(1)) < n_sites:
            columns.append((name, "rho", (int(site.group(1)),) * 2))
        elif pair and int(pair.group(2)) < n_sites and int(pair.group(3)) < n_sites:
            columns.append((name, pair.group(1), (int(pair.group(2)), int(pair.group(3)))))
        else:
            raise ConfigParseError(f"unknown or out-of-range column {name!r}")
    return columns


def _dos_table(spec, grid, columns):
    """The dos table: omega, then the ``columns``, one row per frequency."""
    table = np.empty((grid.omegas.size, 1 + len(columns)))
    table[:, 0] = grid.omegas
    averaged_table(spec, grid, [(part, element) for _, part, element in columns],
                   table[:, 1:])
    return table


def _bright_table(params, grid, columns):
    """``_dos_table`` of the cavity ``params``, exact at any N without the
    (N+1)² matrix.  With B the averaged resolvent of its bright matrix H_b
    (``lattice.bright_spec``) and the dark line g_d = 1/(omega + i*(eta + gamma) - epsilon_a):
    G_00 = B_00, G_0i = G_i0 = B_01/sqrt(N), G_ij = (B_11 - g_d)/N + [i = j] g_d
    and Tr G = B_00 + B_11 + (N - 1) g_d."""
    n = params.n_molecules
    b00, b01, b11 = averaged_greens(bright_spec(params), grid, [(0, 0), (0, 1), (1, 1)]).T
    dark = 1 / (grid.omegas + 1j * (grid.eta + params.gamma) - params.epsilon_a)
    molecules = (b11 - dark) / n
    table = np.empty((grid.omegas.size, 1 + len(columns)))
    table[:, 0] = grid.omegas
    for c, (_, part, element) in enumerate(columns, 1):
        if element is None:
            value = b00 + b11 + (n - 1) * dark
        elif element == (0, 0):
            value = b00
        elif 0 in element:
            value = b01 / math.sqrt(n)
        else:
            value = molecules + dark if element[0] == element[1] else molecules
        table[:, c] = value.real if part == "re" else \
            value.imag if part == "im" else value.imag / -np.pi
    return table


def _cmd_dos(cfg, args):
    model, model_echo = _resolve_model(cfg)
    cavity = isinstance(model, CavityParams)
    # H_b's two eigenvalues bound the (N+1)² spectrum: the same default window.
    spec = bright_spec(model) if cavity else model
    grid, grid_echo = _resolve_grid(
        cfg, args, lambda: auto_window(diagonalize(spec)[0], spec.gamma),
        default_eta(spec))

    columns = _dos_columns(cfg, model.n_molecules + 1 if cavity else spec.n_sites)
    names = [name for name, _, _ in columns]
    table = _bright_table(model, grid, columns) if cavity else _dos_table(spec, grid, columns)
    summary = {"model": model_echo, "grid": grid_echo, "columns": names}
    return summary, (["omega"] + names, table, None)


def _cmd_cavity(cfg, args):
    params, model_echo = _resolve_model(cfg)
    if not isinstance(params, CavityParams):
        raise ConfigParseError("the cavity command needs [model] kind = cavity")
    poles = polariton_poles(params)
    grid, grid_echo = _resolve_grid(cfg, args, lambda: _polariton_window(params, poles), 0.0)

    w = grid.omegas
    eta = grid.eta
    # An overflow leaves inf or nan in the table, which write_csv refuses
    # by column and row, so numpy's warnings would only repeat it.
    with np.errstate(all="ignore"):
        header = ["omega", "rho_c", "delta_rho_m", "delta_rho_t"]
        series = [w, cavity_mod.rho_c(params, w, eta), cavity_mod.delta_rho_m(params, w, eta),
                  cavity_mod.delta_rho_t(params, w, eta)]
        if params.mu_debye is not None:
            alpha = cavity_mod.absorption(params, w, eta)
            top = float(alpha.max())
            series += [alpha, alpha / top if top > 0 else alpha]
            header += ["alpha_m2", "alpha_normalized"]

    summary = {
        "model": model_echo,
        "grid": grid_echo,
        "poles": {
            "eps_plus": poles.eps_plus,
            "eps_minus": poles.eps_minus,
            "rabi_splitting": poles.rabi_splitting,
        },
    }
    return summary, (header, np.column_stack(series), None)


def _resolve_ensemble(cfg, args, spec):
    samples = args.samples if args.samples is not None else \
        _get(cfg, "ensemble", "samples", int, DEFAULT_SAMPLES)
    seed = args.seed if args.seed is not None else \
        _get(cfg, "ensemble", "seed", int, DEFAULT_SEED)
    name = _get(cfg, "ensemble", "distribution", str, "cauchy").strip().lower()
    scale = _get(cfg, "ensemble", "scale", float, spec.gamma)
    eta = _get(cfg, "ensemble", "eta", float, DEFAULT_MC_ETA)
    try:
        law = DisorderSpec(name, scale)
        config = EnsembleConfig(samples, seed, law, eta)
    except ValueError as exc:
        raise ConfigParseError(f"[ensemble]: {exc}") from exc
    echo = {"samples": samples, "seed": seed, "distribution": name,
            "scale": scale, "eta": eta}
    return config, echo


def _cmd_mc_compare(cfg, args):
    spec, model_echo = _resolve_model(cfg)
    if isinstance(spec, CavityParams):
        spec = assemble_cavity(spec)  # realizations need the dense (N+1)² matrix
    ensemble, ensemble_echo = _resolve_ensemble(cfg, args, spec)
    grid, grid_echo = _resolve_grid(
        cfg, args, lambda: auto_window(diagonalize(spec)[0], spec.gamma,
                                       DEFAULT_MC_PAD_FACTOR, DEFAULT_MC_POINTS),
        ensemble.eta)
    if grid.eta != ensemble.eta:
        raise ConfigParseError(f"mc-compare probes at the [ensemble] eta = "
                               f"{ensemble.eta}, but the grid eta is {grid.eta}")

    result = ensemble_average(spec, ensemble, grid)
    ref = averaged_greens(spec, grid, result.elements)  # (n_omega, k)

    dev_re = np.abs(result.mean_greens.real - ref.real)
    dev_im = np.abs(result.mean_greens.imag - ref.imag)
    with np.errstate(divide="ignore", invalid="ignore"):
        units_re = np.where(dev_re == 0, 0.0, dev_re / result.stderr_re)
        units_im = np.where(dev_im == 0, 0.0, dev_im / result.stderr_im)
    worst = float(max(units_re.max(), units_im.max())) if result.n_samples > 1 else float("nan")
    within = float(np.mean((units_re <= 3.0) & (units_im <= 3.0)))

    # One block of rows per element, every frequency in each.
    labels = np.repeat([f"G_{i}_{j}" for i, j in result.elements], grid.omegas.size)
    table = np.column_stack([np.tile(grid.omegas, len(result.elements)),
                             result.mean_greens.real.T.ravel(), result.mean_greens.imag.T.ravel(),
                             result.stderr_re.T.ravel(), result.stderr_im.T.ravel()])
    summary = {
        "model": model_echo,
        "grid": grid_echo,
        "ensemble": ensemble_echo,
        "n_samples": result.n_samples,
        "seed": ensemble_echo["seed"],
        "max_deviation_stderr_units": worst,
        "fraction_within_3_stderr": within,
    }
    header = ["omega", "element", "re_mean", "im_mean", "re_stderr", "im_stderr"]
    return summary, (header, table, (1, labels))


def _cmd_sum_rules(cfg, args):
    model, model_echo = _resolve_model(cfg)
    if isinstance(model, CavityParams):
        params = model
        grid, grid_echo = _resolve_grid(
            cfg, args, lambda: _polariton_window(params, polariton_poles(params)), 0.0)
        w = grid.omegas
        lo, hi = params.epsilon_a - 5 * params.gamma, params.epsilon_a + 5 * params.gamma
        w_band = SpectralGrid.uniform(lo, hi, 4001).omegas
        line_eta = grid.eta if grid.eta > 0 else DELTA_RHO_T_LINE_FACTOR * params.gamma
        grid_echo["delta_rho_t_eta"] = line_eta
        band = cavity_mod.band_weight(params, lo, hi, grid.eta)
        # An underflow or overflow leaves inf or nan in a curve, which _check
        # refuses by name and frequency, so numpy's warnings would only repeat it.
        with np.errstate(all="ignore"):
            checks = [
                _check("rho_c_norm", w, cavity_mod.rho_c(params, w, grid.eta),
                       target=1.0, tolerance=0.02),
                _check("delta_rho_m_band", w_band,
                       cavity_mod.delta_rho_m(params, w_band, grid.eta),
                       target=band, tolerance=0.05),
                _check("delta_rho_t_wide", w, cavity_mod.delta_rho_t(params, w, line_eta),
                       target=0.0, tolerance=0.05)]
    else:
        spec = model
        grid, grid_echo = _resolve_grid(
            cfg, args, lambda: auto_window(diagonalize(spec)[0], spec.gamma), 0.0)
        rho_total = averaged_table(spec, grid, [("rho", None)],
                                   np.empty((grid.omegas.size, 1)))[:, 0]
        checks = [_check("total_dos_norm", grid.omegas, rho_total,
                         target=float(spec.n_sites), tolerance=0.02 * spec.n_sites)]

    summary = {
        "model": model_echo,
        "grid": grid_echo,
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }
    return summary, None


def _check(name, omegas, curve, target, tolerance):
    """The sum rule ``name``: the trapezoid of ``curve`` over ``omegas``
    against ``target``.  A NaN or infinite curve value is a numerical
    failure, named with its first frequency, and nothing is written."""
    bad = np.flatnonzero(~np.isfinite(curve))
    if bad.size:
        raise NonFiniteResult(f"sum rule {name} is {curve[bad[0]]} at omega = "
                              f"{omegas[bad[0]]}; no summary written")
    value = integrate_trapezoid(omegas, curve)
    return {
        "name": name,
        "value": value,
        "target": target,
        "tolerance": tolerance,
        "passed": bool(abs(value - target) <= tolerance),
    }


# Each command's function, the suffix its JSON adds to the --out stem, and
# its help line.  The --out base defaults to the command's name.
_COMMANDS = {
    "dos": (_cmd_dos, ".summary.json",
            "total/per-site density of states of a graph model"),
    "cavity": (_cmd_cavity, ".poles.json",
               "closed-form cavity spectra and polariton poles"),
    "mc-compare": (_cmd_mc_compare, ".summary.json",
                   "Monte-Carlo ensemble vs the deterministic engine"),
    "sum-rules": (_cmd_sum_rules, ".json",
                  "trapezoid sum rules with pass/fail verdicts"),
}


def _write_artifacts(command, out, summary, csv):
    """Write a run's artifacts and return their paths in order.  The table
    ``csv = (header, rows, text)``, unless None, goes to the ``--out`` base
    ``out`` (the command's name if None), with ``.csv`` for no extension or
    ``.json`` and any other extension kept; the JSON ``summary``, with the
    ``command`` and ``artifacts`` keys added, to the stem plus the
    command's suffix."""
    stem, ext = os.path.splitext(out or command)
    written = []
    if csv is not None:
        written.append(stem + (".csv" if ext in ("", ".json") else ext))
        write_csv(written[-1], *csv)
        summary["artifacts"] = {"csv": written[-1]}
    written.append(stem + _COMMANDS[command][1])
    write_json(written[-1], {"command": command, **summary})
    return written


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and every call of ``main`` gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="cauchygf",
        description="Exact disorder-averaged spectra for tight-binding graphs "
                    "and the single-mode cavity model with Cauchy site noise.",
        epilog="exit codes: 0 success, 2 usage, 3 config error, 4 i/o error, "
               "5 numerical failure")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="INI run configuration")
    common.add_argument("--out", help="output base path (extension-adjusted per artifact)")
    common.add_argument("--grid", help="frequency window lo:hi:n, overrides [grid]")
    common.add_argument("--eta", type=float, help="probe regularizer, overrides [grid] eta")
    common.add_argument("--quiet", action="store_true", help="do not print the 'wrote PATH' lines")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name, parents=[common], help=help_line)
                for name, (_, _, help_line) in _COMMANDS.items()}
    mc = commands["mc-compare"]
    mc.add_argument("--seed", type=int, help="ensemble seed, overrides [ensemble] seed")
    mc.add_argument("--samples", type=int, help="ensemble size, overrides [ensemble] samples")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        summary, csv = _COMMANDS[args.command][0](cfg, args)
        written = _write_artifacts(args.command, args.out, summary, csv)
    except ValueError as exc:  # ConfigParseError and all validation errors
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    # The numerical errors of errors.py, and a model too large for memory.
    except (ArithmeticError, RuntimeError, MemoryError) as exc:
        print(f"numerical error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_NUMERICAL
    if not args.quiet:
        for path in written:
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

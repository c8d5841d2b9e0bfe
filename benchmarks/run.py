"""Closed-loop benchmark of cauchygf's dos and Monte-Carlo paths.

    python3 benchmarks/run.py --workload dos-cavity --seed 1 --seconds 20 --trace 0

One caller runs one operation at a time, each starting when the previous
one returns, for ``--seconds`` seconds after an untimed warm-up.  The
workload's inputs come from ``--seed``.  The warm-up's artifacts are checked
against an oracle that does not use the engine route being timed, and every
timed operation must reproduce them byte for byte.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates untraced and traced
operations and reports per-layer metrics from the traced ones.  ``--smoke``
runs tiny sizes for the benchmark's own tests.

Human-readable lines (environment, oracle verdict, every metric with its
unit) come first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  The program is imported from
``src/`` of the checkout this file sits in; without it the run exits with
code 2 before printing a result.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR_PARENT = ROOT / ".bench_run"
SPEC = ROOT / "BENCHMARK.json"   # names the metrics the result line carries
SETUP_TRIALS = 5          # fresh interpreters timed per run; setup_s uses the median
TAIL_BEYOND = 10          # wall_s_tail: highest percentile with this many samples above
# A fresh interpreter's whole set-up: import, inputs, and the first (cold) operation.
SETUP_PROBE = ("import sys; sys.path[:0] = [{src!r}, {here!r}]; import workloads; "
               "workloads.WORKLOADS[{workload!r}]({seed}, {workdir!r}, {smoke}).operation()")
COMPUTED = ("engine.gflop_computed", "montecarlo.eigh_work", "output.csv_bytes")
# One BLAS thread, for this process and the set-up probes it spawns: at the
# workloads' matrix sizes a second thread bought no speed on 2 cores, and a
# threaded call stalls whenever another tenant holds either core.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: every code path and oracle in seconds")
    return parser.parse_args(argv)


def _blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import ctypes
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getattr(lib, symbol).restype = ctypes.c_int
                return getattr(lib, symbol)()
    return "unknown"


def _commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def environment():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "cauchygf").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
    }


def fresh_setup_seconds(args, workdir):
    """Wall time of a new interpreter from spawn to exit, running SETUP_PROBE.
    A probe that fails still counts its time; the warm-up reports the failure."""
    os.makedirs(workdir)
    code = SETUP_PROBE.format(src=str(SRC), here=str(Path(__file__).resolve().parent),
                              workload=args.workload, seed=args.seed,
                              workdir=str(workdir), smoke=args.smoke)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, timeout=120,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def peak_rss_mb():
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / 2 ** 20 if sys.platform == "darwin" else rss / 2 ** 10


def tail(walls):
    """Highest percentile with TAIL_BEYOND samples above it: (value, percentile)."""
    ordered = sorted(walls)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0
    index = len(ordered) - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


class Runner:
    """Runs operations of one workload case and keeps the failure tally."""

    def __init__(self, case):
        self.case = case
        self.attempted = 0
        self.failures = []
        self.reference = None

    def run(self, op):
        """One operation through ``op``; returns its wall time, or None if it
        raised or its artifacts differ from the reference bytes."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            op(self.case.operation)
        except Exception:  # any failure of the program is counted, not fatal
            self.failures.append(traceback.format_exc(limit=3))
            return None
        wall = time.perf_counter() - start
        digest = self.case.digest()
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            self.failures.append("artifacts differ from the first operation's bytes")
            return None
        return wall


def direct(operation):
    operation()


def end_to_end(walls, case, setup_s):
    value, pct = tail(walls)
    return {
        "wall_s_best": (min(walls), "s", f"fastest of {len(walls)} ops"),
        "wall_s": (statistics.median(walls), "s", f"median of {len(walls)} ops"),
        "wall_s_tail": (value, "s", f"p{pct:.0f} of {len(walls)} ops"
                                    + ("" if pct < 100 else " (too few for a tail: max)")),
        "gf_values_per_s": (case.values_per_op * len(walls) / sum(walls), "1/s",
                            f"{case.values_per_op} values per op, over the ops' "
                            "summed wall"),
        "setup_s": (setup_s, "s", f"median of {SETUP_TRIALS} fresh interpreters spread "
                                  "over the run: import, inputs, first op"),
        "peak_rss_mb": (peak_rss_mb(), "MB", "process high-water mark"),
    }


def per_layer(tracer, traced, untraced):
    ops = tracer.per_op()

    def med(values):
        return statistics.median(values) if values else 0.0

    def self_s(prefix):
        return [sum(v for k, v in op["self"].items() if k.startswith(prefix)) for op in ops]

    def count(name):
        return [op["counts"].get(name, 0) for op in ops]

    def rate(numerator, seconds):
        return sum(numerator) / sum(seconds) if sum(seconds) > 0 else 0.0

    solve, ensemble, csv_s = self_s("engine.solve_greens"), self_s("montecarlo."), \
        self_s("output.write_csv")
    gflop = count("engine.solve_greens.gflop")
    samples = count("montecarlo.ensemble_average.samples")
    csv_bytes = count("output.write_csv.bytes")
    root_self = sum(op["self"].get("op", 0.0) for op in ops)
    root_wall = sum(op["wall"] for op in ops)
    engine_values = [a + b for a, b in zip(count("engine.averaged_greens.values"),
                                           count("engine.solve_greens.values"))]
    return {
        "engine.solve_greens_s": (med(solve), "s"),
        "engine.gflop_computed": (med(gflop), "GFLOP"),
        "engine.gflops": (rate(gflop, solve), "GFLOP/s"),
        "engine.averaged_greens_s": (med(self_s("engine.averaged_greens")), "s"),
        "engine.diagonalize_s": (med(self_s("engine.diagonalize")), "s"),
        "engine.values": (med(engine_values), "count"),
        "output.write_csv_s": (med(csv_s), "s"),
        "output.csv_bytes": (med(csv_bytes), "bytes"),
        "output.csv_mb_per_s": (rate(csv_bytes, csv_s) / 1e6, "MB/s"),
        "output.write_json_s": (med(self_s("output.write_json")), "s"),
        "cli.self_s": (med(self_s("cli.main")), "s"),
        "montecarlo.ensemble_s": (med(ensemble), "s"),
        "montecarlo.samples": (med(samples), "count"),
        "montecarlo.samples_per_s": (rate(samples, ensemble), "1/s"),
        "montecarlo.values": (med(count("montecarlo.ensemble_average.values")), "count"),
        "montecarlo.eigh_work": (med(count("montecarlo.ensemble_average.eigh_work")),
                                 "count"),
        "lattice.assemble_s": (med(self_s("lattice.")), "s"),
        "quadrature.s": (med(self_s("quadrature.")), "s"),
        "trace.wall_s": (med([op["wall"] for op in ops]), "s"),
        "trace.overhead_frac": (med(traced) / med(untraced) - 1 if untraced else 0.0,
                                "ratio"),
        "trace.covered_frac": (1 - root_self / root_wall if root_wall > 0 else 0.0,
                               "ratio"),
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "cauchygf" / "__init__.py").is_file():
        print(f"error: no cauchygf sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cauchygf
    if Path(cauchygf.__file__).resolve().parent != SRC / "cauchygf":
        print(f"error: imported cauchygf from {cauchygf.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    print(f"# cauchygf benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} smoke={int(args.smoke)}")
    print("environment: " + json.dumps(environment(), sort_keys=True))
    WORKDIR_PARENT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR_PARENT)
    try:
        case = workloads.WORKLOADS[args.workload](args.seed, workdir, args.smoke)
        runner = Runner(case)
        warm = runner.run(direct)
        check = None
        if warm is not None:
            try:
                check = case.check()
            except workloads.OracleFailure as exc:
                runner.failures.append(f"oracle: {exc}")
        print(f"oracle: {check.detail if check else 'FAILED'}")

        tracer = Tracer() if args.trace else None
        walls, traced, untraced, setups = [], [], [], []

        def probe_setup():
            setups.append(fresh_setup_seconds(args, Path(workdir, f"setup-{len(setups)}")))
            return setups[-1]

        # The set-up probes are spread evenly over the run, so that their median
        # does not hang on one phase of the machine; their time is added to the
        # deadline, so operations still get --seconds.
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline:
            done = 1 - (deadline - time.perf_counter()) / args.seconds
            if len(setups) < SETUP_TRIALS and done >= len(setups) / SETUP_TRIALS:
                deadline += probe_setup()
            elif tracer is None:
                wall = runner.run(direct)
                if wall is not None:
                    walls.append(wall)
            else:
                wall = runner.run(direct)
                if wall is not None:
                    untraced.append(wall)
                wall = runner.run(tracer.traced_op)
                if wall is not None:
                    traced.append(wall)
        while len(setups) < SETUP_TRIALS:
            probe_setup()
        setup_s = statistics.median(setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(runner.failures)
    for failure in runner.failures[:3]:
        print(f"failure: {failure.strip()}")
    gated = [m["name"] for m in json.loads(SPEC.read_text())[
        "per_layer" if args.trace else "end_to_end"]]
    if tracer is None:
        if not walls:
            print("error: no operation succeeded", file=sys.stderr)
            return 1
        metrics = end_to_end(walls, case, setup_s)
        metrics.update({
            "failed_frac": (failed / runner.attempted, "ratio",
                            f"{failed} of {runner.attempted} ops (incl. warm-up)"),
            "oracle_err": (check.oracle_err if check else float("nan"), "abs",
                           "worst |deviation| from the pointwise oracle"),
            "mc_within_3se": (check.within_3se if check and check.within_3se is not None
                              else float("nan"), "ratio",
                              "cells within 3 stderr of exact (Monte Carlo only; "
                              "criterion-1 target 0.99)"),
        })
    else:
        if not traced:
            print("error: no traced operation succeeded", file=sys.stderr)
            return 1
        metrics = {name: (value, unit, "computed from sizes, not timed" if name in COMPUTED
                          else "") for name, (value, unit) in per_layer(
                              tracer, traced, untraced).items()}
        for name in tracer.absent:
            print(f"absent: {name} (not defined in this version; reported as 0)")
        for name, error in tracer.count_errors.items():
            print(f"uncounted: {name} ({error})")
    print("metric (* = in the result line)")
    for name, (value, unit, note) in metrics.items():
        print(f"{'*' if name in gated else ' '} {name:26s} {value:14.6g} {unit:8s} {note}")
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in gated},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke tests of the benchmark itself: python3 -m pytest benchmarks -q

Every workload runs at tiny sizes (--smoke) in both modes, so each code path
and oracle is exercised in seconds; the full sizes are too slow for a test.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd, workload, trace, *extra):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric_and_passes_its_oracle(workload, trace):
    proc = _run(ROOT, workload, trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 2
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert math.isfinite(entry["value"])
        if not trace:
            assert entry["value"] > 0
    if not trace:
        printed = {line[2:].split()[0] for line in proc.stdout.splitlines()
                   if line[:2] in ("* ", "  ")}
        assert {"wall_s", "wall_s_tail", "gf_values_per_s", "setup_s", "peak_rss_mb",
                "failed_frac", "oracle_err", "mc_within_3se"} <= printed


def test_same_seed_gives_same_inputs_and_bytes(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads
    digests = []
    for seed in (7, 7, 8):
        case = workloads.WORKLOADS["dos-cavity"](seed, tmp_path, smoke=True)
        case.operation()
        digests.append(case.digest())
    assert digests[0] == digests[1] != digests[2]


def test_missing_layer_is_reported_absent_and_self_times_cover_the_wall(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import tracing
    import cauchygf.cli
    import cauchygf.engine

    missing = tracing.LayerFunction("engine.removed", "cauchygf.engine", "no_such_route")
    tracer = tracing.Tracer(tracing.LAYER_FUNCTIONS + (missing,))
    assert tracer.absent == ["engine.removed"]
    original = cauchygf.engine.averaged_greens
    config = tmp_path / "ring.ini"
    config.write_text("[model]\nkind = ring\nn_sites = 6\ngamma = 0.1\n")
    argv = ["dos", "--config", str(config), "--out", str(tmp_path / "ring"), "--quiet"]
    assert tracer.traced_op(lambda: cauchygf.cli.main(argv)) == 0
    assert cauchygf.engine.averaged_greens is original  # wrappers removed again
    (op,) = tracer.per_op()
    assert {"cli.main", "engine.averaged_greens", "output.write_csv"} <= set(op["self"])
    assert sum(op["self"].values()) == pytest.approx(op["wall"], rel=1e-9)
    assert op["counts"]["engine.averaged_greens.values"] == 4001 * 6
    assert op["counts"]["output.write_csv.bytes"] == (tmp_path / "ring.csv").stat().st_size


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    sys.path.insert(0, str(HERE))
    import run
    value, pct = run.tail([float(i) for i in range(50)])
    assert value == 39.0 and pct == pytest.approx(80.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

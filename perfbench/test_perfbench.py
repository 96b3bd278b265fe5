"""Tests of the benchmark itself: exact counts, speed scaling, result line, missing source.

    python3 -m pytest perfbench/test_perfbench.py
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.bootstrap()

import calibration  # noqa: E402
import tracing  # noqa: E402  (needs the package on the path)
from workloads import WORKLOADS  # noqa: E402

EXACT = ("solver.iters", "solver.evals", "diagnostics.oracle_calls",
         "curvature.inf_branch_share", "curvature.secant_fallback_share",
         "solver.growth_branch_share")
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _traced(workload):
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        result = workload.op(tracer)
    assert result.error is None, result.error
    return run.traced_sample(workload, result, result, tracer)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_counts_repeat_exactly_across_runs_of_one_seed(name, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = _traced(WORKLOADS[name](3, tmp_path / "a"))
    second = _traced(WORKLOADS[name](3, tmp_path / "b"))
    assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}
    assert first["solver.evals"] == 1 + 2 * first["solver.iters"]


def test_wrappers_are_removed_after_a_traced_operation():
    import aagd.solver

    step = aagd.solver.step
    with tracing.installed(tracing.Tracer()):
        assert aagd.solver.step is not step
    assert aagd.solver.step is step


def test_self_time_subtracts_direct_children():
    spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1), ("b", 5.0, 6.0, 0)]
    table = tracing.SpanTable(spans)
    assert table.self_total("a") == 6.0
    assert table.self_total("b") == 3.0
    assert table.count("c", parent="b") == 1
    assert table.total_within("c", {"b"}) == 1.0


def test_gauge_scales_each_phase_by_the_samples_at_its_two_ends():
    gauge = calibration.Gauge(("interpreter", "array", "interpreter"), 0.0)
    gauge.mark()
    assert {len(t) for t in gauge.marks[0].values()} == {calibration.MIN_REPS}
    gauge.marks = [{"interpreter": [1.0], "array": [2.0]}, {"interpreter": [3.0], "array": [2.0]},
                   {"interpreter": [1.0], "array": [4.0]}, {"interpreter": [1.0], "array": [9.0]}]
    nominal = {name: ref[1] for name, ref in calibration.REFERENCES.items()}
    assert gauge.scales() == (nominal["interpreter"] / 2.0, nominal["array"] / 3.0,
                              nominal["interpreter"] / 1.0)


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_has_every_declared_metric(trace, section):
    proc = _bench(run.ROOT, "--workload", "quad-certified", "--seed", "2", "--seconds", "0",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "quad-certified", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

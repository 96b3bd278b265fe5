"""The package attributes that the benchmark's traced run wraps.

``perfbench/tracing.py`` installs span wrappers on module attributes of
the package and puts the originals back on exit. Deleting or renaming one
of those attributes makes installing fail here, in the package's own
suite, and not only in ``python3 perfbench/run.py --trace 1``.
"""
import importlib
from pathlib import Path

import aagd.baselines
import aagd.cli
import aagd.curvature
import aagd.diagnostics
import aagd.kernels
import aagd.solver
import aagd.traceio

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = (aagd.baselines, aagd.cli, aagd.curvature, aagd.diagnostics, aagd.kernels,
           aagd.solver, aagd.traceio)
PUBLIC_CHECKS = ("lyapunov_series", "check_monotone_psi", "check_corollary_bound",
                 "check_h_envelope", "lemma_suite", "check_eval_schedule", "run_certificates")


def test_traced_run_wraps_package_attributes_and_restores_each(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    before = [dict(vars(m)) for m in MODULES]
    with tracing.installed(tracing.Tracer()):
        inside = [dict(vars(m)) for m in MODULES]
    after = [dict(vars(m)) for m in MODULES]
    wrapped = {f"{m.__name__}.{name}" for m, b, i in zip(MODULES, before, inside)
               for name in b if i[name] is not b[name]}
    assert {"aagd.solver.step", "aagd.solver.local_curvature", "aagd.curvature.lambda_option1",
            "aagd.diagnostics.evaluate", "aagd.traceio.write_csv", "aagd.traceio.read_csv",
            "aagd.cli.build_problem"} | {f"aagd.diagnostics.{n}" for n in PUBLIC_CHECKS} <= wrapped
    for m, b, a in zip(MODULES, before, after):
        assert a.keys() == b.keys(), m.__name__
        assert [name for name in b if a[name] is not b[name]] == [], m.__name__


def test_cli_workload_passes_its_output_check_at_200_iterations(tmp_path, monkeypatch):
    # the benchmark's cli-logsumexp operation, shortened: a package change that
    # makes it report an incorrect output (a summary that no longer parses, a
    # failing aagd check, a CSV unlike the library run) fails here as well
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    text = workloads.EXPERIMENT
    assert text.count("max_iters = 2000\n") == 6
    monkeypatch.setattr(workloads, "EXPERIMENT",
                        text.replace("max_iters = 2000\n", "max_iters = 200\n"))
    monkeypatch.setattr(workloads.CliLogsumexp, "ITERS", 200)
    workload = workloads.CliLogsumexp(0, tmp_path)
    for _ in range(2):  # the first operation cross-checks, the second compares with it
        result = workload.op()
        assert result.error is None
        assert (result.iters, result.evals) == (1200, 1606)

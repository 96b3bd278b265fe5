"""Span recording for the traced benchmark run.

A span is (name, start, end, parent). Spans come only from this
directory: around each public call the benchmark makes, and around
wrappers installed at run time on module attributes of the package.
No file of the package is edited; :func:`installed` puts every original
attribute back when it exits.
"""
from __future__ import annotations

import contextlib
import dataclasses
import os
from time import perf_counter

import numpy as np

import aagd
import aagd.baselines
import aagd.cli
import aagd.curvature
import aagd.diagnostics
import aagd.kernels
import aagd.solver
import aagd.traceio


class Tracer:
    """In-memory span list for one traced operation.

    ``notes`` collects what wrappers observe besides time: return values
    and byte counts that the per-layer metrics need.
    """

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self._stack = []
        self.notes = {"inf_estimates": 0, "csv_written": 0, "csv_read": 0,
                      "baselines": [], "aagd_traces": []}

    def call(self, name, fn, /, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)

    def wrap(self, name, fn, observe=None):
        def wrapper(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if observe is not None:
                observe(self.notes, args, out)
            return out

        return wrapper


def call(tracer, name, fn, /, *args, **kwargs):
    """``fn(*args, **kwargs)``, inside a span when a tracer is given."""
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(name, fn, *args, **kwargs)


def timed(tracer, name, fn, /, *args, **kwargs):
    """(result, seconds) of one public call, traced when a tracer is given."""
    start = perf_counter()
    out = call(tracer, name, fn, *args, **kwargs)
    return out, perf_counter() - start


def timed_repeat(tracer, name, fn, repeats):
    """Like :func:`timed` for a phase of a few milliseconds. Untraced, the
    phase runs ``repeats`` times in one timed block and the time is the
    block's over ``repeats``: one call samples a single instant of the
    machine's load, the block averages over a window.
    """
    if tracer is not None:
        return timed(tracer, name, fn)
    start = perf_counter()
    for _ in range(repeats):
        out = fn()
    return out, (perf_counter() - start) / repeats


def shim_problem(tracer, problem):
    """The problem with its ``oracle.fn`` timed as span ``oracle.fn``."""
    o = problem.oracle
    oracle = aagd.Oracle(tracer.wrap("oracle.fn", o.fn), o.dim, label=o.label)
    return dataclasses.replace(problem, oracle=oracle)


def _count_inf(notes, args, lam):
    if lam == float("inf"):
        notes["inf_estimates"] += 1


def _written_bytes(notes, args, out):
    notes["csv_written"] += os.path.getsize(args[1])


def _read_bytes(notes, args, out):
    notes["csv_read"] += os.path.getsize(args[0])


def _baseline_result(notes, args, trace):
    notes["baselines"].append((args[0].kind, int(trace.evals_cum[-1])))


def _aagd_trace(notes, args, trace):
    notes["aagd_traces"].append(trace)


_DIAGNOSTIC_CHECKS = ("lyapunov_series", "check_monotone_psi", "check_corollary_bound",
                      "check_h_envelope", "lemma_suite", "check_eval_schedule",
                      "run_certificates")


@contextlib.contextmanager
def installed(tracer):
    """Install span wrappers on package attributes for the duration."""
    patches = [
        (aagd.solver, "run", "solver.run", _aagd_trace),
        (aagd.solver, "step", "solver.step", None),
        (aagd.solver, "evaluate", "solver.evaluate", None),
        (aagd.solver, "local_curvature", "curvature.local_curvature", _count_inf),
        (aagd.kernels, "step_update", "kernels.step_update", None),
        (aagd.curvature, "lambda_option1", "curvature.lambda_option1", None),
        (aagd.diagnostics, "evaluate", "diagnostics.evaluate", None),
        (aagd.traceio, "write_csv", "traceio.write_csv", _written_bytes),
        (aagd.traceio, "read_csv", "traceio.read_csv", _read_bytes),
        (aagd.baselines, "run_baseline", "baselines.run_baseline", _baseline_result),
        (aagd.cli, "parse_config", "config.parse_config", None),
    ]
    patches += [(aagd.diagnostics, n, f"diagnostics.{n}", None) for n in _DIAGNOSTIC_CHECKS]
    saved = []
    try:
        for module, attr, name, observe in patches:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, observe))
        build = aagd.cli.build_problem
        saved.append((aagd.cli, "build_problem", build))
        aagd.cli.build_problem = lambda *a, **kw: shim_problem(
            tracer, tracer.call("problems.build_problem", build, *a, **kw))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


class SpanTable:
    """Per-name totals, counts and self times over a finished span list."""

    def __init__(self, spans):
        self.spans = spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        self.self_time = [s[2] - s[1] - c for s, c in zip(spans, child)]

    def durations(self, name, parent=None):
        return [end - start for n, start, end, p in self.spans
                if n == name and (parent is None or (p >= 0 and self.spans[p][0] == parent))]

    def total(self, *names):
        return sum(sum(self.durations(n)) for n in names)

    def count(self, name, parent=None):
        return len(self.durations(name, parent))

    def mean(self, name):
        d = self.durations(name)
        return sum(d) / len(d) if d else 0.0

    def self_total(self, *names):
        return sum(t for s, t in zip(self.spans, self.self_time) if s[0] in names)

    def total_within(self, name, roots):
        """Time in spans ``name`` that lie inside any span named in ``roots``."""
        windows = [(s, e) for n, s, e, _ in self.spans if n in roots]
        return sum(e - s for n, s, e, _ in self.spans
                   if n == name and any(ws <= s and e <= we for ws, we in windows))


def layer_metrics(spans, notes, kernel, aagd_trace, solve_root, solve_s):
    """Per-layer metrics of one traced operation; 0 where a layer did not run.

    ``solve_root`` names the span that encloses the aagd solve ("solve"
    for library workloads, "solver.run" inside the CLI) and ``solve_s``
    is the solve time that per-iteration figures divide.
    """
    t = SpanTable(spans)
    iters = aagd_trace.n_iters
    solver_evals = int(aagd_trace.evals_cum[-1])
    eta = aagd_trace.eta
    growth = (1.0 + aagd_trace.params.gamma) * eta[:-1] == eta[1:]

    calls = t.count("oracle.fn")
    oracle_s = t.total_within("oracle.fn", {solve_root})
    n_evaluate = t.count("solver.evaluate") + t.count("diagnostics.evaluate")
    n_curv = t.count("curvature.local_curvature")
    passes = t.count("certify") + t.count("diagnostics.run_certificates")
    steps = t.durations("solver.step")
    written, read = notes["csv_written"], notes["csv_read"]
    write_s, read_s = t.total("traceio.write_csv"), t.total("traceio.read_csv")

    m = {
        "problems.dataset_s": t.mean("problems.make_classification_dataset"),
        "problems.problem_s": t.mean("problems.make_quadratic") + t.mean("problems.logistic_problem")
        + t.mean("problems.build_problem"),
        "config.parse_s": t.mean("config.parse_config"),
        "kernels.calls": calls,
        "kernels.us_per_call": 1e6 * t.total("oracle.fn") / calls if calls else 0.0,
        "kernels.flops_computed": calls * kernel["flops"],
        "kernels.bytes_computed": calls * kernel["bytes"],
        "oracle.overhead_us_per_call":
            1e6 * t.self_total("solver.evaluate", "diagnostics.evaluate") / n_evaluate
            if n_evaluate else 0.0,
        "curvature.local_curvature_us": 1e6 * t.mean("curvature.local_curvature"),
        "curvature.inf_branch_share": notes["inf_estimates"] / n_curv if n_curv else 0.0,
        # two estimates per local_curvature call; a fallback is a lambda_option1
        # call made from inside the solver's estimator
        "curvature.secant_fallback_share":
            t.count("curvature.lambda_option1", parent="curvature.local_curvature") / (2 * n_curv)
            if n_curv else 0.0,
        "solver.growth_branch_share": float(growth.mean()) if iters else 0.0,
        "solver.iters": iters,
        "solver.evals": solver_evals,
        "solver.us_per_iter": 1e6 * solve_s / iters,
        "solver.oracle_us_per_iter": 1e6 * oracle_s / iters,
        "solver.bookkeeping_us_per_iter": 1e6 * (solve_s - oracle_s) / iters,
        "solver.oracle_share": oracle_s / solve_s,
        "solver.step_us_p50": 1e6 * float(np.percentile(steps, 50)) if steps else 0.0,
        "solver.step_us_p99": 1e6 * float(np.percentile(steps, 99)) if steps else 0.0,
        "solver.step_update_us": 1e6 * t.mean("kernels.step_update"),
        "diagnostics.psi_s": t.total("diagnostics.lyapunov_series", "diagnostics.check_monotone_psi"),
        "diagnostics.corollary_s": t.total("diagnostics.check_corollary_bound"),
        "diagnostics.h_envelope_s": t.total("diagnostics.check_h_envelope"),
        "diagnostics.lemmas_s": t.total("diagnostics.lemma_suite"),
        "diagnostics.evals_s": t.total("diagnostics.check_eval_schedule"),
        "diagnostics.oracle_calls": t.count("diagnostics.evaluate"),
        "diagnostics.oracle_calls_per_solver_eval":
            t.count("diagnostics.evaluate") / (passes * solver_evals) if passes else 0.0,
        "traceio.write_s": write_s,
        "traceio.read_s": read_s,
        "traceio.bytes": written,
        "traceio.write_MBps": written / write_s / 1e6 if write_s else 0.0,
        "traceio.read_MBps": read / read_s / 1e6 if read_s else 0.0,
        "cli.self_s": t.self_total("cli.run", "cli.check"),
    }
    runs = dict(zip([k for k, _ in notes["baselines"]], t.durations("baselines.run_baseline")))
    evals = dict(notes["baselines"])
    for kind in BASELINES:
        m[f"baselines.{kind}.solve_s"] = runs.get(kind, 0.0)
        m[f"baselines.{kind}.evals"] = evals.get(kind, 0)
    return m


BASELINES = ("gd", "agd", "adgd", "adagrad", "bb")

LAYER_UNITS = {
    "problems.dataset_s": "s", "problems.problem_s": "s", "config.parse_s": "s",
    "kernels.calls": "count", "kernels.us_per_call": "us",
    "kernels.flops_computed": "flop", "kernels.bytes_computed": "B",
    "oracle.overhead_us_per_call": "us", "curvature.local_curvature_us": "us",
    "curvature.inf_branch_share": "ratio", "curvature.secant_fallback_share": "ratio",
    "solver.growth_branch_share": "ratio", "solver.iters": "count", "solver.evals": "count",
    "solver.us_per_iter": "us", "solver.oracle_us_per_iter": "us",
    "solver.bookkeeping_us_per_iter": "us", "solver.oracle_share": "ratio",
    "solver.step_us_p50": "us", "solver.step_us_p99": "us", "solver.step_update_us": "us",
    "diagnostics.psi_s": "s", "diagnostics.corollary_s": "s", "diagnostics.h_envelope_s": "s",
    "diagnostics.lemmas_s": "s", "diagnostics.evals_s": "s", "diagnostics.oracle_calls": "count",
    "diagnostics.oracle_calls_per_solver_eval": "ratio", "diagnostics.peak_mb": "MB",
    "traceio.write_s": "s", "traceio.read_s": "s", "traceio.bytes": "B",
    "traceio.write_MBps": "MB/s", "traceio.read_MBps": "MB/s", "cli.self_s": "s",
    **{f"baselines.{k}.solve_s": "s" for k in BASELINES},
    **{f"baselines.{k}.evals": "count" for k in BASELINES},
    "trace.overhead_s": "s",
}

"""The three benchmark workloads and the check of each operation's output.

Each workload makes its inputs from the seed alone and runs one
operation at a time through the package's public API (``aagd.*``) or
its command line (``aagd.cli.main``). An operation has three timed
phases, set-up, solve and certify, and ends with an output check whose
failure counts against ``fail_ratio``. Given a gauge (see
calibration.py), an operation marks it at the four phase boundaries.
Why each workload exists, and which layers it stresses, is in README.md
beside this file.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import aagd
import aagd.cli
import aagd.config
from tracing import call, shim_problem, timed, timed_repeat

SCALAR_COLUMNS = ("k", "eta", "H", "alpha", "beta", "lam", "f_bar", "f_tilde",
                  "grad_norm_tilde", "evals_cum")


@dataclass
class OpResult:
    setup_s: float
    solve_s: float
    certify_s: float
    iters: int
    evals: int
    error: str | None
    aagd_trace: object = None  # the aagd run's Trace, when the benchmark holds it
    digest: str = ""
    recertify: object = None  # repeats the certify phase, for the memory measurement
    # nominal over measured machine speed beside set-up, solve and certify
    scales: tuple = (1.0, 1.0, 1.0)


def _marker(gauge):
    return gauge.mark if gauge is not None else (lambda: None)


def trace_digest(trace) -> str:
    """sha256 over the scalar trace columns as float64, NaN canonicalised."""
    h = hashlib.sha256()
    for name in SCALAR_COLUMNS:
        col = np.asarray(getattr(trace, name), dtype=np.float64)
        h.update(np.where(np.isnan(col), np.nan, col).tobytes())
    return h.hexdigest()[:16]


def _check_solution(trace, iters, gap_tol, f_ref):
    """Diverged, stopped early, gap outside [-roundoff, gap_tol] or a broken eval schedule."""
    if trace.diverged:
        return f"run diverged: {trace.notes}"
    if trace.n_iters != iters:
        return f"run stopped after {trace.n_iters} iterations, want {iters}"
    gap = float(trace.f_bar[-1]) - f_ref
    floor = -1e-9 * (1.0 + abs(f_ref))
    if not floor <= gap <= gap_tol:
        return f"final gap {gap:.3e} outside the stated [{floor:.1e}, {gap_tol:.3e}]"
    if int(trace.evals_cum[-1]) != 1 + 2 * trace.n_iters:
        return f"evals {int(trace.evals_cum[-1])} != 1 + 2 * {trace.n_iters}"
    return None


def _check_report(report, families):
    """Every certificate passes and each family has at least its count of entries."""
    failed = [e.line() for e in report.entries if not e.passed]
    if failed:
        return "certificate FAIL: " + failed[0]
    for prefix, n in families.items():
        got = sum(e.name.startswith(prefix) for e in report.entries)
        if got < n:
            return f"certificate report has {got} {prefix} entries, want {n}"
    return None


# Flops and bytes per oracle call, computed from array sizes: one pass per
# array use, caches ignored. They are labelled "computed" wherever printed.
def quadratic_model(d):
    return {"flops": 2 * d * d + 5 * d, "bytes": 8 * (d * d + 4 * d)}


def logistic_model(n, d, nnz):
    # two CSR passes (margins, gradient) each reading data, indices and the
    # row index, plus the row index build and the length-n and length-d vectors
    return {"flops": 4 * nnz + 12 * n + 4 * d, "bytes": 56 * nnz + 80 * n + 32 * d}


def logsumexp_model(n, d):
    return {"flops": 4 * n * d + 5 * n, "bytes": 16 * n * d + 8 * (6 * n + 3 * d)}


class QuadCertified:
    """Dense quadratic, a fixed number of iterations, then fully certified in memory."""

    name = "quad-certified"
    # machine-speed reference of set-up, solve and certify, see calibration.py
    references = ("interpreter", "interpreter", "interpreter")
    DIM, COND, ETA0, ITERS = 100, 1e4, 1e-6, 2000
    # stated accuracy after ITERS iterations: (f - f*) / (f(x0) - f*) <= REL_GAP;
    # seeds 1-5 reach 1e-4 after 1900-2300 iterations
    REL_GAP = 1e-3
    SETUP_REPEATS = 10  # set-up takes about 2.5 ms
    FAMILIES = {"psi_monotone": 2, "corollary_bound": 2, "h_envelope": 1,
                "beta_f_bregman": 1, "eval_schedule": 1}

    def __init__(self, seed, workdir):
        self.seed = seed
        self.kernel = quadratic_model(self.DIM)

    def setup(self, tracer):
        return call(tracer, "problems.make_quadratic", aagd.make_quadratic,
                    self.seed, self.DIM, self.COND)

    def op(self, tracer=None, gauge=None) -> OpResult:
        mark = _marker(gauge)
        mark()
        problem, t_setup = timed_repeat(tracer, "setup", functools.partial(self.setup, tracer),
                                        self.SETUP_REPEATS)
        if tracer is not None:
            problem = shim_problem(tracer, problem)
        x0 = np.zeros(self.DIM)
        params = aagd.default_params(eta0=self.ETA0)
        mark()
        trace, t_solve = timed(tracer, "solve", aagd.run, problem.oracle, x0, params,
                               aagd.StopRule(max_iters=self.ITERS), store_iterates=True)
        certify = functools.partial(aagd.run_certificates, trace, problem.oracle, params,
                                    L=problem.L, x_refs={"xstar": problem.x_star, "x0": x0})
        mark()
        report, t_cert = timed(tracer, "certify", certify)
        mark()
        # f(0) = 0 for 0.5 x'Ax - b'x, so f(x0) - f* = -f*
        error = (_check_solution(trace, self.ITERS, self.REL_GAP * -problem.f_star, problem.f_star)
                 or _check_report(report, self.FAMILIES))
        return OpResult(t_setup, t_solve, t_cert, trace.n_iters, int(trace.evals_cum[-1]),
                        error, trace, trace_digest(trace), certify)


def newton_reference(dataset, reg):
    """Optimal value of the regularised mean logistic loss, by damped Newton.

    Independent of the package's kernels: the data are densified here and
    the loss, gradient and Hessian are written out directly.
    """
    n, d = dataset.n_samples, dataset.n_features
    A = np.zeros((n, d))
    A[np.repeat(np.arange(n), np.diff(dataset.indptr)), dataset.indices] = dataset.data
    y = dataset.labels

    def f(w):
        return float(np.mean(np.logaddexp(0.0, -y * (A @ w)))) + 0.5 * reg * float(w @ w)

    w = np.zeros(d)
    fw = f(w)
    for _ in range(100):
        t = y * (A @ w)
        s = np.exp(-np.logaddexp(0.0, t))  # sigmoid(-t)
        g = -(A.T @ (y * s)) / n + reg * w
        H = (A.T * (s * (1.0 - s))) @ A / n + reg * np.eye(d)
        step = np.linalg.solve(H, g)
        decrement = float(g @ step)
        if decrement < 1e-28:
            break
        tau = 1.0
        while f(w - tau * step) > fw - 0.25 * tau * decrement and tau > 1e-12:
            tau *= 0.5
        w = w - tau * step
        fw = f(w)
    return fw


class LogisticSparse:
    """Sparse CSR logistic regression, a fixed number of iterations; scalar certificates only."""

    name = "logistic-sparse"
    # set-up and solve are passes over the sparse data, certify is scalar checks
    references = ("array", "array", "interpreter")
    N, DIM, DENSITY, REG, ETA0, ITERS = 5000, 500, 0.05, 1e-3, 1e-3, 300
    # stated accuracy after ITERS iterations, relative to f(0) - f*;
    # seeds 1, 2 and 7 reach 1e-4 after about 290 iterations
    REL_GAP = 1e-3
    CERTIFY_REPEATS = 200  # the scalar checks take about 3 ms
    FAMILIES = {"h_envelope": 1, "eta_coupling": 1, "eval_schedule": 1}

    def __init__(self, seed, workdir):
        self.seed = seed
        data = aagd.make_classification_dataset(seed, self.N, self.DIM, density=self.DENSITY)
        self.f_ref = newton_reference(data, self.REG)
        self.kernel = logistic_model(self.N, self.DIM, data.nnz)

    def setup(self, tracer):
        data = call(tracer, "problems.make_classification_dataset",
                    aagd.make_classification_dataset, self.seed, self.N, self.DIM,
                    density=self.DENSITY)
        return call(tracer, "problems.logistic_problem", aagd.logistic_problem, data, reg=self.REG)

    def op(self, tracer=None, gauge=None) -> OpResult:
        mark = _marker(gauge)
        mark()
        problem, t_setup = timed(tracer, "setup", self.setup, tracer)
        if tracer is not None:
            problem = shim_problem(tracer, problem)
        params = aagd.default_params(eta0=self.ETA0)
        mark()
        trace, t_solve = timed(tracer, "solve", aagd.run, problem.oracle, np.zeros(self.DIM),
                               params, aagd.StopRule(max_iters=self.ITERS))
        certify = functools.partial(aagd.run_certificates, trace, problem.oracle, params,
                                    L=problem.L, checks=("h_envelope", "lemmas", "evals"))
        mark()
        report, t_cert = timed_repeat(tracer, "certify", certify, self.CERTIFY_REPEATS)
        mark()
        # f(0) = log 2 for the mean logistic loss plus a ridge term
        gap_tol = self.REL_GAP * (math.log(2.0) - self.f_ref)
        error = (_check_solution(trace, self.ITERS, gap_tol, self.f_ref)
                 or _check_report(report, self.FAMILIES))
        return OpResult(t_setup, t_solve, t_cert, trace.n_iters, int(trace.evals_cum[-1]),
                        error, trace, trace_digest(trace), certify)


EXPERIMENT = """\
[experiment]
seed = {seed}
outdir = {outdir}
checks = psi, corollary, h_envelope, lemmas, evals
x_ref = x0, random

[problem]
kind = logsumexp
dim = 40
terms = 100
smoothing = 0.1
x0 = random

[method aagd]
kind = aagd
eta0 = 1e-6
max_iters = 2000
store_iterates = true

[method gd]
kind = gd
eta = auto
max_iters = 2000

[method agd]
kind = agd
eta = auto
max_iters = 2000

[method adgd]
kind = adgd
eta0 = 1e-6
max_iters = 2000

[method adagrad]
kind = adagrad
eta = auto
max_iters = 2000

[method bb]
kind = bb
eta0 = 1e-6
max_iters = 2000
"""

_SUMMARY_LINE = re.compile(r"^(\S+)\s+iters=(\d+)\s+evals=(\d+)\s+f_final=(\S+)", re.M)
_CERT_LINE = re.compile(r"^\s*\S+\s+(pass|FAIL)\s+worst", re.M)


def _cli(argv):
    """``aagd.cli.main(argv)`` with its output captured: (exit code, stdout + stderr)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = aagd.cli.main(argv)
    return code, buf.getvalue()


class CliLogsumexp:
    """``aagd run`` of an INI experiment (aagd plus five baselines), then ``aagd check``."""

    name = "cli-logsumexp"
    references = ("interpreter", "interpreter", "interpreter")
    DIM, TERMS, SMOOTHING, ETA0, ITERS = 40, 100, 0.1, 1e-6, 2000
    METHODS = ("aagd", "gd", "agd", "adgd", "adagrad", "bb")
    CERT_LINES = 13  # at least: psi x2, corollary x2, h_envelope, 7 lemmas, eval_schedule
    SETUP_REPEATS = 20  # parse and build take about 1 ms

    def __init__(self, seed, workdir):
        self.seed = seed
        workdir = Path(workdir)
        self.ini = str(workdir / "experiment.ini")
        outdir = workdir / "out"
        Path(self.ini).write_text(EXPERIMENT.format(seed=seed, outdir=outdir), encoding="utf-8")
        label = f"logsumexp_d{self.DIM}_t{self.TERMS}_mu{self.SMOOTHING:g}_s{seed}"
        self.csv = str(outdir / f"{label}__aagd.csv")
        self.kernel = logsumexp_model(self.TERMS, self.DIM)
        self.reference = None  # (summary rows, digest) of the first operation

    def setup(self, tracer):
        cfg = call(tracer, "config.parse_config", aagd.config.parse_config, self.ini)
        return aagd.cli.build_problem(cfg.problem, cfg.seed)

    def op(self, tracer=None, gauge=None) -> OpResult:
        mark = _marker(gauge)
        mark()
        _, t_setup = timed_repeat(tracer, "setup", functools.partial(self.setup, tracer),
                                  self.SETUP_REPEATS)
        mark()
        (code_run, out_run), t_run = timed(tracer, "cli.run", _cli, ["run", self.ini])
        mark()
        (code_chk, out_chk), t_chk = timed(tracer, "cli.check", _cli,
                                           ["check", self.csv, "--config", self.ini])
        mark()
        rows = {m: (int(i), int(e), f) for m, i, e, f in _SUMMARY_LINE.findall(out_run)}
        iters = sum(r[0] for r in rows.values())
        evals = sum(r[1] for r in rows.values())
        error = self._check(code_run, out_run, code_chk, out_chk, rows)
        if error is None and self.reference is None:
            error = self._cross_check(rows)
        elif error is None and rows != self.reference[0]:
            error = "summary differs from the first operation's"
        digest = self.reference[1] if self.reference else ""
        check = functools.partial(_cli, ["check", self.csv, "--config", self.ini])
        return OpResult(t_setup, t_run, t_chk, iters, evals, error, digest=digest, recertify=check)

    def _check(self, code_run, out_run, code_chk, out_chk, rows):
        if code_run != 0 or code_chk != 0:
            return f"exit codes run={code_run} check={code_chk}: {(out_run + out_chk)[-300:]}"
        if "FAIL" in out_run or "FAIL" in out_chk or "DIVERGED" in out_run:
            return "certificate FAIL or divergence in CLI output"
        if tuple(rows) != self.METHODS:
            return f"summary lists methods {tuple(rows)}, want {self.METHODS}"
        if any(r[0] != self.ITERS for r in rows.values()):
            return f"a method stopped before {self.ITERS} iterations: {rows}"
        certs = _CERT_LINE.findall(out_chk)
        if len(certs) < self.CERT_LINES:
            return f"aagd check printed {len(certs)} certificate lines, want {self.CERT_LINES}"
        return None

    def _cross_check(self, rows):
        """The CLI's aagd trace equals a library run from the CSV's own start point."""
        stored = aagd.read_csv(self.csv)
        problem = aagd.logsumexp_problem(self.seed, self.DIM, self.TERMS, self.SMOOTHING)
        lib = aagd.run(problem.oracle, stored.x[0], aagd.make_params(theta=2.0, eta0=self.ETA0),
                       aagd.StopRule(max_iters=self.ITERS), store_iterates=True)
        digest = trace_digest(stored)
        if digest != trace_digest(lib):
            return "aagd CSV from the CLI differs from the library run"
        if rows["aagd"][2] != format(float(lib.f_bar[-1]), ".12e"):
            return "summary f_final differs from the library run"
        self.reference = (rows, digest)
        return None


WORKLOADS = {w.name: w for w in (QuadCertified, LogisticSparse, CliLogsumexp)}

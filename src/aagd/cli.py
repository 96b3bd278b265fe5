"""Command-line experiment runner.

Subcommands: ``run`` executes a config-driven experiment and writes one
trace CSV per (problem, method) cell, and a .npy of its stored iterates,
plus a summary; ``params`` solves and validates the solver constants
for a given extrapolation parameter; ``check`` replays the certificate
suite on a stored trace with the solver parameters the trace carries.

Exit codes: 0 success, 1 certificate failure, 2 config error, 3 run
divergence. Inputs that the config parser, the dataset reader, the
problem constructors, the method parameters, the certificates' input
rule (``diagnostics.check_inputs``: L > 0 for a check that reads it,
stored iterates for one that replays them) or the trace reader reject
are config errors: all raise ``ValueError``. So is a problem too large to
allocate (``MemoryError``). ``run`` refuses each of them, an oracle
failure at the start point and an outdir it cannot create before the
first method runs, so such a config error leaves no file behind; an
output file it cannot write (a CSV, its .npy or the summary) is a
config error too, and the CSVs written before it stay. ``check``
refuses iterates of another width than the problem's, and else only
what its checks refuse: ``diagnostics._replay`` gates stored iterates.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import baselines, diagnostics, problems, solver, traceio
from .config import ConfigError, MethodSpec, parse_config
from .oracle import OracleError, evaluate
from .params import make_params, max_gamma, validate

EXIT_OK = 0
EXIT_CERT_FAIL = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3

# the method keys of the stop rule, and those that make aagd's SolverParams
# with eta0; every other key of a method section goes to the method itself
_STOP_KEYS = ("max_iters", "grad_tol", "gap_tol")
_PARAM_KEYS = ("theta", "gamma")


def build_problem(spec: dict, default_seed: int) -> problems.Problem:
    kind = spec["kind"]
    seed = spec.get("seed", default_seed)
    if kind == "quadratic":
        return problems.make_quadratic(seed, spec["dim"], spec["cond"])
    if kind == "identity":
        return problems.identity_quadratic(spec["dim"])
    if kind == "logistic":
        if "path" in spec:
            data = problems.load_libsvm(spec["path"])
        else:
            data = problems.make_classification_dataset(seed, spec["n"], spec["dim"])
        return problems.logistic_problem(data, reg=spec.get("reg", 0.0))
    if kind == "logsumexp":
        return problems.logsumexp_problem(seed, spec["dim"], spec["terms"], spec["smoothing"])
    raise ConfigError(f"unknown problem kind {kind!r}")


def _stop_rule(opts: dict, problem: problems.Problem) -> solver.StopRule:
    gap_tol = opts.get("gap_tol")
    if gap_tol is not None and problem.f_star is None:
        raise ConfigError("gap_tol requires a problem with a known optimal value")
    return solver.StopRule(
        max_iters=opts["max_iters"],
        grad_tol=opts.get("grad_tol", 0.0),
        gap_tol=gap_tol,
        f_star=problem.f_star if gap_tol is not None else None,
    )


def _start_point(spec: dict, problem: problems.Problem, seed: int) -> np.ndarray:
    name = spec.get("x0", "zeros")
    if name == "ones":
        return np.ones(problem.dim)
    if name == "random":
        return np.random.default_rng(seed).standard_normal(problem.dim)
    return np.zeros(problem.dim)


def _method(spec: MethodSpec, problem: problems.Problem, checks, refs: dict):
    """Validate one method section and return a function that runs it from x0.

    Only the settings the section gives are passed on, so the defaults are
    those of the solver and of BaselineMethod; config's key table decides
    which settings a kind takes. An invalid setting raises ValueError here,
    before any method runs; so do ``eta = auto`` at L <= 0 and, for aagd,
    what its certificate ``checks`` at ``refs`` would refuse (``check_inputs``).
    """
    stop = _stop_rule(spec.options, problem)
    given = {key: value for key, value in spec.options.items() if key not in _STOP_KEYS}
    if spec.kind == "aagd":
        params = make_params(eta0=given.pop("eta0"),
                             **{key: given.pop(key) for key in _PARAM_KEYS if key in given})
        diagnostics.check_inputs(checks, problem.L, refs, given.get("store_iterates", False))
        return lambda x0: solver.run(problem.oracle, x0, params, stop, **given)
    if given.get("eta") == "auto":
        if not problem.L > 0.0:
            raise ConfigError(f"L = {problem.L:g} for this problem, but "
                              f"method {spec.name} (eta = auto) need L > 0")
        given["eta"] = 1.0 / problem.L
    if spec.kind == "polyak":
        given["f_star"] = problem.f_star
    method = baselines.BaselineMethod(kind=spec.kind, **given)
    return lambda x0: baselines.run_baseline(method, problem.oracle, x0, stop)


def _reference_points(names, problem: problems.Problem, x0: np.ndarray | None,
                      seed: int, notes: list):
    rng = np.random.default_rng(seed + 1)
    refs = {}
    for name in names:
        if name == "xstar":
            if problem.x_star is None:
                notes.append("x_ref xstar skipped: problem has no known optimum")
                continue
            refs["xstar"] = problem.x_star
        elif name == "x0":
            refs["x0"] = x0
        elif name == "random":
            refs["random"] = rng.standard_normal(problem.dim)
    return refs


def cmd_run(config_path: str) -> int:
    try:
        cfg = parse_config(config_path)
        if not cfg.methods:
            raise ConfigError("no [method ...] sections")
        if cfg.outdir is None:
            raise ConfigError("experiment: outdir is required for run")
        problem = build_problem(cfg.problem, cfg.seed)
        notes: list[str] = []
        x0 = _start_point(cfg.problem, problem, cfg.seed)
        evaluate(problem.oracle, x0)  # an oracle that fails here fails every method
        refs = (_reference_points(cfg.x_ref, problem, x0, cfg.seed, notes)
                if any(m.kind == "aagd" for m in cfg.methods) else {})
        runs = [_method(spec, problem, cfg.checks, refs) for spec in cfg.methods]
        outdir = Path(cfg.outdir)
        outdir.mkdir(parents=True, exist_ok=True)
    except (ValueError, OSError, OracleError, MemoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    summary: list[str] = [f"problem: {problem.label} (dim={problem.dim}, L={problem.L})"]
    any_diverged = False
    certs_passed = True

    try:  # an output that cannot be written ends the run; the files before it stay
        for spec, run in zip(cfg.methods, runs):
            trace = run(x0)
            csv_path = outdir / f"{problem.label}__{spec.name}.csv"
            traceio.write_csv(trace, csv_path)
            final_f = trace.f_bar[-1]
            line = (f"{spec.name:<16} iters={trace.n_iters:<6} evals={trace.evals_cum[-1]:<8} "
                    f"f_final={final_f:.12e}")
            if problem.f_star is not None:
                line += f" gap={final_f - problem.f_star:.6e}"
            if trace.diverged:
                line += "  DIVERGED"
                any_diverged = True
            summary.append(line)

            if spec.kind == "aagd" and not trace.diverged and cfg.checks:
                report = diagnostics.run_certificates(
                    trace, problem.oracle, None, L=problem.L, x_refs=refs, checks=cfg.checks)
                summary.extend("  " + ln for ln in report.lines())
                if not report.passed:
                    certs_passed = False

        summary.extend(notes)
        text = "\n".join(summary) + "\n"
        (outdir / "summary.txt").write_text(text, encoding="utf-8")
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(text, end="")
    if any_diverged:
        return EXIT_DIVERGED
    return EXIT_OK if certs_passed else EXIT_CERT_FAIL


def cmd_params(theta: float, gamma: float | None) -> int:
    try:
        params = make_params(theta=theta, gamma=gamma, eta0=1.0)
    except ValueError as exc:
        print(f"infeasible: {exc}")
        return EXIT_CONFIG
    print(f"theta      = {theta:.17g}")
    print(f"gamma_max  = {max_gamma(theta):.17g}")
    print(f"gamma      = {params.gamma:.17g}")
    print(f"nu         = {params.nu:.17g}")
    for line in validate(params).lines():
        print(line)
    return EXIT_OK


def cmd_check(trace_path: str, config_path: str) -> int:
    try:
        cfg = parse_config(config_path)
        problem = build_problem(cfg.problem, cfg.seed)
        trace = traceio.read_csv(trace_path)
        # h_envelope replays nothing, but a trace of another problem has another L
        if trace.has_iterates and trace.x.shape[1] != problem.dim:
            raise ConfigError(f"the trace stores iterates of dimension {trace.x.shape[1]}, "
                              f"the problem has dim = {problem.dim}")
        notes: list[str] = []
        x0 = trace.x[0] if trace.has_iterates else None  # read only by a replay
        refs = _reference_points(cfg.x_ref, problem, x0, cfg.seed, notes)
        report = diagnostics.run_certificates(
            trace, problem.oracle, None, L=problem.L, x_refs=refs, checks=cfg.checks)
    except (ValueError, OSError, OracleError, MemoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for line in report.lines():
        print(line)
    for note in notes:
        print(note)
    return EXIT_OK if report.passed else EXIT_CERT_FAIL


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="aagd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a config-driven experiment")
    p_run.add_argument("config", help="experiment config file")

    p_params = sub.add_parser("params", help="solve and validate solver constants")
    p_params.add_argument("--theta", type=float, required=True)
    p_params.add_argument("--gamma", type=float, default=None)

    p_check = sub.add_parser("check", help="replay certificates on a stored trace")
    p_check.add_argument("trace", help="trace CSV file")
    p_check.add_argument("--config", required=True, help="config with the problem spec")

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config)
    if args.command == "params":
        return cmd_params(args.theta, args.gamma)
    return cmd_check(args.trace, args.config)


if __name__ == "__main__":
    sys.exit(main())

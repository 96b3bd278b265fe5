"""Adaptive accelerated gradient descent with local-curvature stepsizes.

A first-order convex solver whose stepsize grows geometrically and is
capped by a per-iteration estimate of the inverse local gradient
Lipschitz constant, so no smoothness constant or line search is needed
and an arbitrarily small initial stepsize recovers quickly. Ships with
reference baselines, problem generators, and a diagnostics suite that
numerically certifies the solver's decay and rate guarantees along
recorded traces.
"""
from .baselines import BaselineMethod, run_baseline
from .curvature import GRAD_GUARD, bregman, lambda_option1, lambda_option2, local_curvature
from .diagnostics import (CertificateEntry, CertificateReport, ConvergedWindowError,
                          LyapunovSeries, MissingIteratesError, check_corollary_bound,
                          check_eval_schedule, check_h_envelope, check_monotone_psi,
                          fit_rate, lemma_suite, lyapunov_series, run_certificates)
from .kernels import BACKEND
from .oracle import (DimensionMismatchError, NonFiniteError, Oracle, OracleError, OracleResult,
                     evaluate, finite_diff_check)
from .params import (GOLDEN_RATIO, InfeasibleThetaError, InvalidParamsError, ParamReport,
                     RateConstants, SolverParams, default_params, make_params, max_gamma,
                     nu_from, rate_constants, validate)
from .problems import (DatasetFormatError, Problem, SparseDataset, identity_quadratic,
                       load_libsvm, logistic_problem, logsumexp_problem,
                       make_classification_dataset, make_quadratic, save_libsvm)
from .solver import IterState, StopRule, Trace, init, run, step
from .traceio import TraceSchemaError, read_csv, write_csv

__version__ = "0.1.0"

__all__ = [
    "BACKEND", "GOLDEN_RATIO", "GRAD_GUARD",
    "BaselineMethod", "CertificateEntry", "CertificateReport", "ConvergedWindowError",
    "DatasetFormatError", "DimensionMismatchError", "InfeasibleThetaError", "InvalidParamsError",
    "IterState", "LyapunovSeries", "MissingIteratesError", "NonFiniteError", "Oracle",
    "OracleError", "OracleResult", "ParamReport", "Problem", "RateConstants",
    "SolverParams", "SparseDataset", "StopRule", "Trace", "TraceSchemaError",
    "bregman", "check_corollary_bound", "check_eval_schedule", "check_h_envelope",
    "check_monotone_psi", "default_params", "evaluate", "finite_diff_check",
    "fit_rate", "identity_quadratic", "init", "lambda_option1", "lambda_option2",
    "lemma_suite", "load_libsvm", "local_curvature", "logistic_problem",
    "logsumexp_problem", "lyapunov_series", "make_classification_dataset",
    "make_params", "make_quadratic", "max_gamma", "nu_from", "rate_constants",
    "read_csv", "run", "run_baseline", "run_certificates", "save_libsvm", "step",
    "validate", "write_csv",
]

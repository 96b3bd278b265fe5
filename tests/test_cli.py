import math
import re
from pathlib import Path

import numpy as np
import pytest

import aagd.traceio
from aagd import config
from aagd.cli import main

QUAD_CFG = """
[experiment]
seed = 7
outdir = {out}
checks = psi, corollary, h_envelope, lemmas, evals
x_ref = xstar, x0

[problem]
kind = quadratic
dim = 20
cond = 100
x0 = ones

[method agraal]
kind = aagd
eta0 = 1e-3
max_iters = 200
store_iterates = true

[method gd]
kind = gd
eta = auto
max_iters = 200

[method agd]
kind = agd
eta = auto
max_iters = 200
"""

GOLDEN_CFG = """
[experiment]
seed = 0
outdir = {out}

[problem]
kind = identity
dim = 1
x0 = ones

[method agraal]
kind = aagd
eta0 = 0.1
max_iters = 50
store_iterates = true
"""


def write_cfg(tmp_path, text, name="cfg.ini", out="out"):
    path = tmp_path / name
    path.write_text(text.format(out=tmp_path / out))
    return path


def test_params_theta_two(capsys):
    assert main(["params", "--theta", "2"]) == 0
    out = capsys.readouterr().out
    assert "0.045454545454545" in out  # gamma = 1/22
    assert "0.0051984877" in out  # nu = 11/2116


def test_params_theta_two_is_the_library_default(capsys):
    assert main(["params", "--theta", "2"]) == 0
    assert "gamma      = 0.045454545454545456\n" in capsys.readouterr().out


def test_params_just_above_the_golden_ratio(capsys):
    theta = math.nextafter(aagd.GOLDEN_RATIO, 2.0)
    assert main(["params", "--theta", repr(theta)]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert "FAIL" not in captured.out


DEFAULT_AAGD_CFG = """
[experiment]
seed = 7
outdir = {out}
checks = evals

[problem]
kind = quadratic
dim = 20
cond = 100
x0 = ones

[method a]
kind = aagd
eta0 = 1e-3
max_iters = 200
store_iterates = true
"""


def test_run_without_theta_or_gamma_is_the_default_params_run(tmp_path):
    assert main(["run", str(write_cfg(tmp_path, DEFAULT_AAGD_CFG))]) == 0
    stored = aagd.traceio.read_csv(next((tmp_path / "out").glob("*__a.csv")))
    problem = aagd.make_quadratic(7, 20, 100.0)
    lib = aagd.run(problem.oracle, stored.x[0], aagd.default_params(eta0=1e-3),
                   aagd.StopRule(max_iters=200))
    for name in ("eta", "H", "alpha", "beta", "lam", "f_bar", "f_tilde", "grad_norm_tilde"):
        assert ([float(v).hex() for v in getattr(stored, name)]
                == [float(v).hex() for v in getattr(lib, name)]), name


def test_params_infeasible_theta(capsys):
    assert main(["params", "--theta", "1.5"]) == 2
    assert "infeasible" in capsys.readouterr().out


@pytest.mark.parametrize("theta", ["0", "-2", "nan"])
def test_params_nonpositive_theta_is_config_error(capsys, theta):
    assert main(["params", "--theta", theta]) == 2
    assert capsys.readouterr().out == "infeasible: theta must be positive\n"


def test_params_with_user_gamma(capsys):
    assert main(["params", "--theta", "2", "--gamma", "0.01"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out


@pytest.mark.parametrize("theta, exits", [("1e200", {"params": 0, "run": 3}),
                                           ("1e308", {"params": 2, "run": 2})],
                         ids=["1e200", "1e308"])
@pytest.mark.parametrize("command", ["params", "run"])
def test_huge_theta_exits_without_traceback(tmp_path, capsys, command, theta, exits):
    # theta**2 overflows above ~1.3e154; at 1e308 nu underflows to 0, which
    # fails validation before any method runs
    cfg = write_cfg(tmp_path, GOLDEN_CFG.replace("eta0 = 0.1", f"eta0 = 0.1\ntheta = {theta}"))
    argv = ["params", "--theta", theta] if command == "params" else ["run", str(cfg)]
    assert main(argv) == exits[command]
    if exits[command] == 2:
        captured = capsys.readouterr()
        assert "invalid solver parameters" in captured.out + captured.err
        assert not list(tmp_path.glob("out/*.csv"))


@pytest.mark.parametrize("option", [
    "eta0 = 5e-324",
    "eta0 = 1e-3\ngamma = 1e-300",
    "eta0 = 1e-40\ngamma = 1e-18",
], ids=["product_underflows", "c_underflows", "m_beyond_int64"])
def test_h_envelope_at_float_extremes_passes_in_run_and_check(tmp_path, capsys, option):
    cfg = write_cfg(tmp_path, "[experiment]\noutdir = {out}\n\n"
                              "[problem]\nkind = quadratic\ndim = 5\ncond = 10\n\n"
                              f"[method a]\nkind = aagd\n{option}\nmax_iters = 50\n"
                              "store_iterates = true\n")
    assert main(["run", str(cfg)]) == 0
    trace = next((tmp_path / "out").glob("*__a.csv"))
    assert main(["check", str(trace), "--config", str(cfg)]) == 0
    captured = capsys.readouterr()
    assert len(re.findall(r"^\s*h_envelope\s+pass", captured.out, re.M)) == 2
    assert "Traceback" not in captured.out + captured.err


def test_run_writes_csvs_and_summary(tmp_path, capsys):
    cfg = write_cfg(tmp_path, QUAD_CFG)
    assert main(["run", str(cfg)]) == 0
    outdir = tmp_path / "out"
    csvs = sorted(f.name for f in outdir.glob("*.csv"))
    assert len(csvs) == 3
    summary = (outdir / "summary.txt").read_text()
    assert "agraal" in summary and "gd" in summary and "agd" in summary
    assert "pass" in summary
    assert "FAIL" not in summary


def test_run_reruns_byte_identical(tmp_path):
    cfg1 = write_cfg(tmp_path, QUAD_CFG, name="a.ini", out="out1")
    cfg2 = write_cfg(tmp_path, QUAD_CFG, name="b.ini", out="out2")
    assert main(["run", str(cfg1)]) == 0
    assert main(["run", str(cfg2)]) == 0
    for f1 in sorted((tmp_path / "out1").glob("*.csv")):
        f2 = tmp_path / "out2" / f1.name
        assert f1.read_bytes() == f2.read_bytes()


def test_run_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[problem]\nkind = quadratic\n")
    assert main(["run", str(bad)]) == 2


def test_run_divergence_exit_code(tmp_path):
    cfg_text = """
[experiment]
outdir = {out}
checks =

[problem]
kind = quadratic
dim = 5
cond = 100

[method gd]
kind = gd
eta = 1e150
max_iters = 20
"""
    cfg = write_cfg(tmp_path, cfg_text)
    assert main(["run", str(cfg)]) == 3
    assert "DIVERGED" in (tmp_path / "out" / "summary.txt").read_text()


def test_check_golden_trace_passes(tmp_path, capsys):
    cfg = write_cfg(tmp_path, GOLDEN_CFG)
    assert main(["run", str(cfg)]) == 0
    trace = next((tmp_path / "out").glob("*agraal.csv"))
    assert main(["check", str(trace), "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "psi_monotone" in out


def test_check_detects_corrupted_eta(tmp_path, capsys):
    cfg = write_cfg(tmp_path, GOLDEN_CFG)
    assert main(["run", str(cfg)]) == 0
    trace = next((tmp_path / "out").glob("*agraal.csv"))
    lines = trace.read_text().splitlines()
    header = lines[0].split(",")
    k = 7
    row = lines[1 + k].split(",")
    row[header.index("eta")] = repr(float(row[header.index("eta")]) * 1.01)
    lines[1 + k] = ",".join(row)
    trace.write_text("\n".join(lines) + "\n")
    assert main(["check", str(trace), "--config", str(cfg)]) == 1
    out = capsys.readouterr().out
    assert "eta_coupling" in out
    assert "k=7" in out


def test_check_requires_iterates_for_psi(tmp_path, capsys):
    # produce a trace without iterates, then ask for the psi certificate
    run_text = (GOLDEN_CFG
                .replace("store_iterates = true", "store_iterates = false")
                .replace("seed = 0", "seed = 0\nchecks = lemmas, evals"))
    run_cfg = write_cfg(tmp_path, run_text, name="run.ini")
    assert main(["run", str(run_cfg)]) == 0
    trace = next((tmp_path / "out").glob("*agraal.csv"))
    check_cfg = write_cfg(tmp_path, GOLDEN_CFG, name="check.ini", out="out2")
    assert main(["check", str(trace), "--config", str(check_cfg)]) == 2
    err = capsys.readouterr().err
    assert "store_iterates required" in err


def test_run_psi_without_stored_iterates_is_config_error_before_any_run(tmp_path, capsys):
    # gd comes first: it must not run, and no CSV may be left behind
    cfg = write_cfg(tmp_path, """
[experiment]
outdir = {out}
checks = psi, corollary
x_ref = x0

[problem]
kind = quadratic
dim = 5
cond = 10

[method gd]
kind = gd
eta = auto
max_iters = 20

[method a]
kind = aagd
eta0 = 1e-3
max_iters = 20
""")
    assert main(["run", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: store_iterates required for this check\n"
    assert not list(tmp_path.glob("out/*.csv"))


def test_check_schema_mismatch(tmp_path, capsys):
    cfg = write_cfg(tmp_path, GOLDEN_CFG)
    bad = tmp_path / "junk.csv"
    bad.write_text("a,b\n1,2\n")
    assert main(["check", str(bad), "--config", str(cfg)]) == 2


def test_run_zero_iterations_certificates_not_applicable(tmp_path, capsys):
    # x0 = 0 is the minimizer of the identity quadratic: the run stops at k = 0
    text = (GOLDEN_CFG
            .replace("seed = 0", "seed = 0\nchecks = psi, corollary\nx_ref = xstar, x0")
            .replace("x0 = ones", "x0 = zeros"))
    cfg = write_cfg(tmp_path, text)
    assert main(["run", str(cfg)]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "iters=0 " in summary
    for name in ("psi_monotone[xstar]", "psi_monotone[x0]",
                 "corollary_bound[xstar]", "corollary_bound[x0]"):
        assert name in summary
    assert summary.count("not applicable") == 4
    assert "FAIL" not in summary


def test_check_infinite_curvature_with_nonzero_carry_over(tmp_path, capsys):
    # x_bar[3] = x_tilde[3] = x_tilde[2] makes the curvature estimate at k=3
    # infinite while the Bregman carry-over from k=2 stays nonzero
    cfg = write_cfg(tmp_path, GOLDEN_CFG.replace("dim = 1", "dim = 2")
                    .replace("max_iters = 50", "max_iters = 6"))
    assert main(["run", str(cfg)]) == 0
    trace = next((tmp_path / "out").glob("*agraal.csv"))
    lines = trace.read_text().splitlines()
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    for i in range(2):
        x = rows[2][header.index(f"xtilde_{i}")]
        rows[3][header.index(f"xtilde_{i}")] = rows[3][header.index(f"xbar_{i}")] = x
    trace.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")
    capsys.readouterr()
    assert main(["check", str(trace), "--config", str(cfg)]) == 1
    out = capsys.readouterr().out
    assert re.search(r"^psi_monotone\[x0\]\s+FAIL .* at k=3$", out, re.M), out


def test_run_reference_note_once(tmp_path):
    text = """
[experiment]
outdir = {out}
x_ref = xstar, x0

[problem]
kind = logsumexp
dim = 5
terms = 10
smoothing = 0.1

[method a]
kind = aagd
eta0 = 1e-3
max_iters = 20
store_iterates = true

[method b]
kind = aagd
eta0 = 1e-2
max_iters = 20
store_iterates = true
"""
    assert main(["run", str(write_cfg(tmp_path, text))]) == 0
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert summary.count("x_ref xstar skipped: problem has no known optimum") == 1
    assert summary.count("psi_monotone[x0]") == 2


TWO_AAGD_CFG = """
[experiment]
seed = 3
outdir = {out}

[problem]
kind = quadratic
dim = 10
cond = 100

[method a]
kind = aagd
theta = 2
eta0 = 1e-3
max_iters = 300
store_iterates = true

[method b]
kind = aagd
theta = 4
eta0 = 1e-3
max_iters = 300
store_iterates = true
"""


def test_check_takes_parameters_of_the_named_method(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TWO_AAGD_CFG)
    assert main(["run", str(cfg)]) == 0
    for name in ("a", "b"):
        trace = next((tmp_path / "out").glob(f"*__{name}.csv"))
        capsys.readouterr()
        assert main(["check", str(trace), "--config", str(cfg)]) == 0, name
        assert "FAIL" not in capsys.readouterr().out


def test_check_unmatched_csv_with_several_aagd_methods(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TWO_AAGD_CFG)
    assert main(["run", str(cfg)]) == 0
    trace = next((tmp_path / "out").glob("*__b.csv"))
    renamed = trace.with_name("renamed.csv")
    trace.rename(renamed)
    capsys.readouterr()
    assert main(["check", str(renamed), "--config", str(cfg)]) == 2
    assert "no aagd method section" in capsys.readouterr().err


ZERO_LOGISTIC_CFG = """
[experiment]
outdir = {out}
checks = {checks}

[problem]
kind = logistic
path = {data}
reg = 0

[method {method}]
kind = {method}
{step} = {eta}
max_iters = 5
"""


def _zero_logistic_cfg(tmp_path, name, data_text, method="aagd", checks="",
                       eta="1e-3"):
    data = tmp_path / f"{name}.txt"
    data.write_text(data_text)
    text = ZERO_LOGISTIC_CFG.format(out=tmp_path / "out", data=data, method=method,
                                    step="eta0" if method == "aagd" else "eta",
                                    eta=eta, checks=checks)
    path = tmp_path / f"{name}.ini"
    path.write_text(text)
    return path


@pytest.fixture
def zero_logistic_trace(tmp_path):
    # all-zero features with reg = 0: L = 0, but a run that checks only the
    # eval schedule needs no L and writes a trace to replay
    cfg = _zero_logistic_cfg(tmp_path, "trace", "1 1:0 2:0\n-1 2:0\n", checks="evals")
    assert main(["run", str(cfg)]) == 0
    return next((tmp_path / "out").glob("*__aagd.csv"))


@pytest.mark.parametrize("command", ["run", "check"])
@pytest.mark.parametrize("data_text,method,eta,message", [
    pytest.param("", "aagd", "1e-3", "empty dataset", id="empty_file"),
    pytest.param("1 1:nan\n", "aagd", "1e-3", "data values must be finite", id="nan_value"),
    pytest.param("1 1:0 2:0\n-1 2:0\n", "gd", "auto",
                 "L = 0 for this problem, but method gd (eta = auto) need L > 0",
                 id="zero_data_eta_auto"),
    pytest.param("1 1:0 2:0\n-1 2:0\n", "aagd", "1e-3",
                 "but check h_envelope, check lemmas need L > 0",
                 id="zero_data_default_checks"),
])
def test_degenerate_logistic_input_is_config_error(tmp_path, capsys, zero_logistic_trace,
                                                   command, data_text, method, eta, message):
    cfg = _zero_logistic_cfg(tmp_path, "degenerate", data_text, method=method, eta=eta)
    argv = (["run", str(cfg)] if command == "run"
            else ["check", str(zero_logistic_trace), "--config", str(cfg)])
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert message in err
    assert "Traceback" not in err


def test_check_header_only_trace_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, GOLDEN_CFG)
    assert main(["run", str(cfg)]) == 0
    trace = next((tmp_path / "out").glob("*agraal.csv"))
    trace.write_bytes(trace.read_bytes().split(b"\r\n")[0] + b"\r\n")
    capsys.readouterr()
    assert main(["check", str(trace), "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "config error: trace file has no rows\n"


def test_check_out_of_range_evaluation_count_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, GOLDEN_CFG)
    assert main(["run", str(cfg)]) == 0
    trace = next((tmp_path / "out").glob("*agraal.csv"))
    lines = trace.read_text().splitlines()
    row = lines[5].split(",")
    row[9] = "1e30"
    lines[5] = ",".join(row)
    trace.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["check", str(trace), "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error: row 6: evals_cum must be an integer" in captured.err


def test_run_writes_each_trace_through_traceio_once(tmp_path, monkeypatch):
    # perfbench times trace writing by wrapping the module attribute
    written = []
    real = aagd.traceio.write_csv

    def counting(trace, path):
        written.append(Path(path).name)
        real(trace, path)

    monkeypatch.setattr(aagd.traceio, "write_csv", counting)
    cfg = write_cfg(tmp_path, GOLDEN_CFG + "\n[method gd]\nkind = gd\neta = 0.5\nmax_iters = 20\n")
    assert main(["run", str(cfg)]) == 0
    assert sorted(written) == sorted(f.name for f in (tmp_path / "out").glob("*.csv"))
    assert len(written) == 2 and len(set(written)) == 2


def test_check_reads_the_trace_through_traceio_once(tmp_path, monkeypatch):
    # perfbench times trace reading by wrapping the module attribute
    read = []
    real = aagd.traceio.read_csv

    def counting(path):
        read.append(Path(path).name)
        return real(path)

    monkeypatch.setattr(aagd.traceio, "read_csv", counting)
    cfg = write_cfg(tmp_path, GOLDEN_CFG)
    assert main(["run", str(cfg)]) == 0
    assert read == []
    trace = next((tmp_path / "out").glob("*agraal.csv"))
    assert main(["check", str(trace), "--config", str(cfg)]) == 0
    assert read == [trace.name]


LOGSUMEXP_CFG = """
[experiment]
seed = 3
outdir = {out}

[problem]
kind = logsumexp
dim = DIM
terms = 12
smoothing = 0.5
x0 = random

[method aagd]
kind = aagd
eta0 = 1e-3
max_iters = 30
store_iterates = true
"""


def test_check_iterate_width_differs_from_problem_dim_is_config_error(tmp_path, capsys):
    run_cfg = write_cfg(tmp_path, LOGSUMEXP_CFG.replace("DIM", "5"), name="run.ini")
    assert main(["run", str(run_cfg)]) == 0
    trace = next((tmp_path / "out").glob("*__aagd.csv"))
    check_cfg = write_cfg(tmp_path, LOGSUMEXP_CFG.replace("DIM", "6"), name="check.ini")
    capsys.readouterr()
    assert main(["check", str(trace), "--config", str(check_cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("config error: the trace stores iterates of dimension 5, "
                            "the problem has dim = 6\n")


@pytest.mark.parametrize("column", ["x_0", "xbar_0", "xtilde_0"])
def test_check_empty_iterate_cell_is_config_error(tmp_path, capsys, column):
    cfg = write_cfg(tmp_path, GOLDEN_CFG)
    assert main(["run", str(cfg)]) == 0
    trace = next((tmp_path / "out").glob("*agraal.csv"))
    lines = trace.read_text().splitlines()
    row = lines[4].split(",")
    row[lines[0].split(",").index(column)] = ""
    lines[4] = ",".join(row)
    trace.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["check", str(trace), "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    block = column[:-2]
    assert captured.err == (f"config error: row 5: {block} has an empty or non-finite cell; "
                            "the solver stores only finite iterates\n")


@pytest.mark.parametrize("kind, option, message", [
    ("aagd", "eta0 = 1e-3\ntheta = 1.5", "theta=1.5 is infeasible"),
    ("aagd", "eta0 = 1e-3\ngamma = 0.5", "gamma=0.5 outside"),
    ("aagd", "eta0 = 0", "eta0 must be positive"),
    ("gd", "eta = -1", "gd requires a positive stepsize eta"),
], ids=["theta", "gamma", "eta0", "eta"])
def test_run_invalid_method_value_is_config_error_before_any_run(tmp_path, capsys, kind,
                                                                 option, message):
    # the invalid method comes second: the first one must not run either
    cfg = write_cfg(tmp_path, GOLDEN_CFG + f"\n[method bad]\nkind = {kind}\n{option}\n"
                                           "max_iters = 20\n")
    capsys.readouterr()
    assert main(["run", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ") and message in captured.err
    assert not list(tmp_path.glob("out/*.csv"))


@pytest.mark.parametrize("cell", ["0", ""])
def test_check_nonpositive_or_empty_first_stepsize_is_config_error(tmp_path, capsys, cell):
    cfg = write_cfg(tmp_path, GOLDEN_CFG)
    assert main(["run", str(cfg)]) == 0
    trace = next((tmp_path / "out").glob("*agraal.csv"))
    lines = trace.read_text().splitlines()
    row = lines[1].split(",")
    row[lines[0].split(",").index("eta")] = cell
    lines[1] = ",".join(row)
    trace.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["check", str(trace), "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: eta0 must be positive\n"


def test_check_cell_over_the_csv_field_limit_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, GOLDEN_CFG)
    assert main(["run", str(cfg)]) == 0
    trace = next((tmp_path / "out").glob("*agraal.csv"))
    lines = trace.read_text().splitlines()
    row = lines[3].split(",")
    row[lines[0].split(",").index("x_0")] = "1" * 140001
    lines[3] = ",".join(row)
    trace.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["check", str(trace), "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: row 4: field larger than field limit")


@pytest.mark.parametrize("problem", [
    "kind = quadratic\ndim = 5\ncond = nan",
    "kind = quadratic\ndim = 5\ncond = inf",
    "kind = logistic\nn = 20\ndim = 4\nreg = nan",
    "kind = logistic\nn = 20\ndim = 4\nreg = inf",
    "kind = logsumexp\ndim = 4\nterms = 6\nsmoothing = inf",
], ids=["cond_nan", "cond_inf", "reg_nan", "reg_inf", "smoothing_inf"])
def test_run_non_finite_problem_constant_is_config_error(tmp_path, capsys, problem):
    cfg = write_cfg(tmp_path, "[experiment]\noutdir = {out}\nchecks = evals\n\n"
                              f"[problem]\n{problem}\n\n"
                              "[method a]\nkind = aagd\neta0 = 1e-3\nmax_iters = 20\n")
    capsys.readouterr()
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    # one line of report, no traceback
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert "finite" in err
    assert not list(tmp_path.glob("out/*.csv"))


@pytest.mark.parametrize("method, eta", [("aagd", "1e-3"), ("gd", "auto")])
def test_run_logistic_data_whose_gram_norm_overflows_is_config_error(tmp_path, capsys,
                                                                     method, eta):
    # entries near 1e160 square past the float range, so L cannot be formed
    cfg = _zero_logistic_cfg(tmp_path, "huge", "1 1:1e160 2:3e159\n-1 1:-2e160 2:5e159\n",
                             method=method, eta=eta, checks="evals")
    capsys.readouterr()
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "config error: logistic smoothness constant L = inf is not finite: the data's Gram"
        " norm overflows (largest |a_ij| = 2.000e+160)\n")
    assert not list(tmp_path.glob("out/*.csv"))


@pytest.mark.parametrize("shape, message", [
    ("n = 0\ndim = 3", "n_samples must be >= 1"),
    ("n = 5\ndim = 0", "n_features must be >= 1"),
], ids=["n_zero", "dim_zero"])
def test_run_empty_synthetic_logistic_is_config_error(tmp_path, capsys, shape, message):
    cfg = write_cfg(tmp_path, "[experiment]\noutdir = {out}\nchecks = evals\n\n"
                              f"[problem]\nkind = logistic\n{shape}\n\n"
                              "[method a]\nkind = aagd\neta0 = 1e-3\nmax_iters = 20\n")
    capsys.readouterr()
    assert main(["run", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {message}\n"
    assert not list(tmp_path.glob("out/*.csv"))


@pytest.mark.parametrize("method, message", [
    ("kind = aagd\neta0 = 1e-3\ngrad_tol = nan", "grad_tol must be nonnegative"),
    ("kind = aagd\neta0 = 1e-3\ngap_tol = nan", "gap_tol must be nonnegative"),
    ("kind = gd\neta = inf", "gd requires a positive stepsize eta"),
    ("kind = adagrad\neta = inf", "adagrad requires a positive stepsize eta"),
    ("kind = aagd\neta0 = inf", "eta0 must be finite"),
    ("kind = bb\neta0 = inf", "bb requires a positive initial stepsize eta0"),
], ids=["grad_tol_nan", "gap_tol_nan", "gd_eta_inf", "adagrad_eta_inf", "aagd_eta0_inf",
        "bb_eta0_inf"])
def test_run_non_finite_tolerance_or_stepsize_is_config_error(tmp_path, capsys, method, message):
    # the invalid method comes second: the first one must not run either
    cfg = write_cfg(tmp_path, GOLDEN_CFG + f"\n[method bad]\n{method}\nmax_iters = 20\n")
    capsys.readouterr()
    assert main(["run", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ") and message in captured.err
    assert not list(tmp_path.glob("out/*.csv"))


# a valid value for every method key of config's table
METHOD_VALUES = {
    "max_iters": "20", "grad_tol": "0", "gap_tol": "1e-9", "eta0": "1e-3", "eta": "auto",
    "theta": "2", "gamma": "0.04", "growth_cap": "true", "store_iterates": "true",
    "nu": "0.5", "option2": "true",
}


@pytest.mark.parametrize("kind", sorted(config._METHOD))
def test_run_passes_every_method_key_to_its_method(tmp_path, kind):
    # the CLI passes a section's keys on by name: a key the table admits but
    # no constructor takes would end in a TypeError here
    required, optional = config._METHOD[kind]
    keys = "".join(f"{key} = {METHOD_VALUES[key]}\n" for key in required + optional)
    cfg = write_cfg(tmp_path, "[experiment]\noutdir = {out}\nchecks = evals\n\n"
                              "[problem]\nkind = quadratic\ndim = 5\ncond = 10\n\n"
                              f"[method m]\nkind = {kind}\n{keys}")
    assert main(["run", str(cfg)]) == 0
    assert len(list(tmp_path.glob("out/*__m.csv"))) == 1


@pytest.mark.parametrize("method", ["kind = aagd\neta0 = 1e-3", "kind = gd\neta = auto"],
                         ids=["aagd", "gd"])
def test_run_gap_tol_without_known_optimum_is_config_error(tmp_path, capsys, method):
    cfg = write_cfg(tmp_path, "[experiment]\noutdir = {out}\nchecks = evals\n\n"
                              "[problem]\nkind = logistic\nn = 20\ndim = 4\n\n"
                              f"[method a]\n{method}\nmax_iters = 20\ngap_tol = 1e-9\n")
    capsys.readouterr()
    assert main(["run", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("config error: gap_tol requires a problem with a known "
                            "optimal value\n")
    assert not list(tmp_path.glob("out/*.csv"))

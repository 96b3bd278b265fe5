import math
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import aagd
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


def test_module_entry_point_runs_main():
    # python -m aagd.cli, in a child that inherits this environment
    out = subprocess.run([sys.executable, "-m", "aagd.cli", "params", "--theta", "2"],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert "gamma      = 0.045454545454545456\n" in out.stdout


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


def test_run_outdir_naming_a_file_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, GOLDEN_CFG)
    (tmp_path / "out").write_text("not a directory")
    capsys.readouterr()
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert (tmp_path / "out").read_text() == "not a directory"
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("name, blocked, kept", [
    ("g" * 300, None, False),
    ("gd", "identity_d3__gd.csv", False),
    ("gd", "identity_d3__gd.csv.npy", True),
    ("gd", "summary.txt", True),
], ids=["name_too_long", "csv_is_a_directory", "npy_is_a_directory", "summary_is_a_directory"])
def test_run_output_that_cannot_be_written_is_config_error(tmp_path, capsys, name, blocked, kept):
    # the .npy is unlinked for a trace without iterates; kept: the CSV written before the failure
    cfg = write_cfg(tmp_path, "[experiment]\noutdir = {out}\n\n"
                              "[problem]\nkind = identity\ndim = 3\nx0 = ones\n\n"
                              f"[method {name}]\nkind = gd\neta = 0.5\nmax_iters = 5\n")
    out = tmp_path / "out"
    (out / (blocked or "")).mkdir(parents=True)
    capsys.readouterr()
    assert main(["run", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: [Errno ") and captured.out == ""
    assert (out / "identity_d3__gd.csv").is_file() == kept


def test_a_failure_inside_the_method_loop_is_config_error(tmp_path, capsys, monkeypatch):
    # the second method cannot allocate its run: main maps that to exit 2,
    # and the first method's CSV stays the only file in the outdir
    cfg = write_cfg(tmp_path, "[experiment]\noutdir = {out}\n\n"
                              "[problem]\nkind = identity\ndim = 3\nx0 = ones\n\n"
                              "[method gd1]\nkind = gd\neta = 0.5\nmax_iters = 5\n\n"
                              "[method gd2]\nkind = gd\neta = 0.5\nmax_iters = 5\n")
    runs = []
    real = aagd.baselines.run_baseline

    def second_fails(*args, **kwargs):
        runs.append(args)
        if len(runs) == 2:
            raise MemoryError("Unable to allocate 1 TiB")
        return real(*args, **kwargs)

    monkeypatch.setattr(aagd.baselines, "run_baseline", second_fails)
    capsys.readouterr()
    assert main(["run", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "config error: Unable to allocate 1 TiB\n")
    assert [f.name for f in (tmp_path / "out").iterdir()] == ["identity_d3__gd1.csv"]


def test_check_trace_with_rows_deleted_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[experiment]\noutdir = {out}\n\n"
                              "[problem]\nkind = quadratic\nseed = 1\ndim = 5\ncond = 10\n\n"
                              "[method a]\nkind = aagd\neta0 = 1e-3\nmax_iters = 40\n"
                              "store_iterates = true\n")
    assert main(["run", str(cfg)]) == 0
    path = next((tmp_path / "out").glob("*__a.csv"))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:11] + lines[21:]) + "\n")  # rows k = 10..19
    capsys.readouterr()
    assert main(["check", str(path), "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "config error: row 12: k must be 10, got 20\n"


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


def test_check_needs_no_method_section(tmp_path, capsys):
    # check reads the problem, the checks and the reference points from its config
    cfg = write_cfg(tmp_path, GOLDEN_CFG)
    assert main(["run", str(cfg)]) == 0
    trace = next((tmp_path / "out").glob("*agraal.csv"))
    capsys.readouterr()
    assert main(["check", str(trace), "--config", str(cfg)]) == 0
    want = capsys.readouterr().out
    problem_only = write_cfg(tmp_path, GOLDEN_CFG.split("[method agraal]")[0], name="check.ini")
    assert main(["check", str(trace), "--config", str(problem_only)]) == 0
    assert capsys.readouterr().out == want
    assert "corollary_bound[xstar]" in want


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


def test_check_of_a_run_stopped_at_its_start_requires_iterates_for_psi(tmp_path, capsys):
    # x0 = 0 is the minimizer: the K = 0 trace takes the common path and its error
    run_text = (GOLDEN_CFG
                .replace("store_iterates = true", "store_iterates = false")
                .replace("seed = 0", "seed = 0\nchecks = lemmas, evals")
                .replace("x0 = ones", "x0 = zeros"))
    run_cfg = write_cfg(tmp_path, run_text, name="run.ini")
    assert main(["run", str(run_cfg)]) == 0
    assert "iters=0 " in (tmp_path / "out" / "summary.txt").read_text()
    trace = next((tmp_path / "out").glob("*agraal.csv"))
    check_cfg = write_cfg(tmp_path, GOLDEN_CFG, name="check.ini", out="out2")
    capsys.readouterr()
    assert main(["check", str(trace), "--config", str(check_cfg)]) == 2
    assert capsys.readouterr().err == "config error: store_iterates required for this check\n"


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


def test_run_validates_every_aagd_method_before_the_first_runs(tmp_path, capsys):
    # only the second aagd method lacks the iterates psi replays at x0
    cfg = write_cfg(tmp_path, """
[experiment]
outdir = {out}
checks = psi
x_ref = x0

[problem]
kind = quadratic
dim = 5
cond = 10

[method a]
kind = aagd
eta0 = 1e-3
max_iters = 20
store_iterates = true

[method b]
kind = aagd
eta0 = 1e-3
max_iters = 20
""")
    assert main(["run", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: store_iterates required for this check\n"
    assert not list(tmp_path.glob("out/*"))


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


@pytest.mark.parametrize("K, vacuous", [
    (0, ["psi_monotone[xstar]", "psi_monotone[x0]", "corollary_bound[xstar]",
         "corollary_bound[x0]", "eta_growth", "h_growth", "lambda_floor", "beta_f_value",
         "beta_f_bregman"]),
    (1, ["psi_monotone[xstar]", "psi_monotone[x0]", "beta_f_value", "beta_f_bregman"]),
], ids=["K0", "K1"])
def test_run_and_check_of_a_short_trace_name_the_entries_that_compare_nothing(
        tmp_path, capsys, K, vacuous):
    cfg = write_cfg(tmp_path, QUAD_CFG.replace("max_iters = 200\nstore_iterates",
                                               f"max_iters = {K}\nstore_iterates"))
    assert main(["run", str(cfg)]) == 0
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert f"agraal           iters={K} " in summary
    lines = [ln[2:] for ln in summary.splitlines() if ln.startswith("  ")]
    assert [ln.split()[0] for ln in lines
            if ln.endswith("  [not applicable: no rows to compare]")] == vacuous
    trace = next((tmp_path / "out").glob("*__agraal.csv"))
    capsys.readouterr()
    assert main(["check", str(trace), "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.splitlines()[:len(lines)] == lines


def test_check_infinite_curvature_with_nonzero_carry_over(tmp_path, capsys):
    # x_bar[3] = x_tilde[3] = x_tilde[2] makes the curvature estimate at k=3
    # infinite while the Bregman carry-over from k=2 stays nonzero
    cfg = write_cfg(tmp_path, GOLDEN_CFG.replace("dim = 1", "dim = 2")
                    .replace("max_iters = 50", "max_iters = 6"))
    assert main(["run", str(cfg)]) == 0
    trace = next((tmp_path / "out").glob("*agraal.csv"))
    npy = aagd.traceio.iterates_path(trace)
    x, x_bar, x_tilde = blocks = np.load(npy)
    x_tilde[3] = x_bar[3] = x_tilde[2]
    np.save(npy, blocks)
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


def test_check_takes_the_parameters_the_trace_carries(tmp_path, capsys):
    # the theta = 4 trace, renamed, against a config whose only aagd section
    # has theta = 2: checked with theta = 2, its eta_growth lemma fails
    assert main(["run", str(write_cfg(tmp_path, TWO_AAGD_CFG))]) == 0
    trace = next((tmp_path / "out").glob("*__b.csv"))
    renamed = trace.with_name("renamed.csv")
    trace.rename(renamed)
    Path(aagd.traceio.iterates_path(trace)).rename(aagd.traceio.iterates_path(renamed))
    theta_two = write_cfg(tmp_path, TWO_AAGD_CFG.split("[method b]")[0], name="a.ini")
    capsys.readouterr()
    assert main(["check", str(renamed), "--config", str(theta_two)]) == 0
    out = capsys.readouterr().out
    assert "eta_growth" in out and "FAIL" not in out


ZERO_LOGISTIC_CFG = """
[experiment]
outdir = {out}
{checks}

[problem]
kind = logistic
path = {data}
reg = 0

[method {method}]
kind = {method}
{step} = {eta}
max_iters = 5
"""


def _zero_logistic_cfg(tmp_path, name, data_text, method="aagd", checks=None,
                       eta="1e-3"):
    data = tmp_path / f"{name}.txt"
    data.write_text(data_text)
    text = ZERO_LOGISTIC_CFG.format(out=tmp_path / "out", data=data, method=method,
                                    step="eta0" if method == "aagd" else "eta",
                                    eta=eta, checks="" if checks is None else f"checks = {checks}")
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


ZERO_DATA = "1 1:0 2:0\n-1 2:0\n"
ETA_AUTO_AT_ZERO_L = "L = 0 for this problem, but method gd (eta = auto) need L > 0"
L_READERS_AT_ZERO_L = ("a positive smoothness constant L is required by "
                       "check h_envelope, check lemmas; got L = 0.0")


@pytest.mark.parametrize("command", ["run", "check"])
@pytest.mark.parametrize("data_text,method,eta,checks,message", [
    pytest.param("", "aagd", "1e-3", None, "empty dataset", id="empty_file"),
    pytest.param("1 1:nan\n", "aagd", "1e-3", None, "line 1: non-finite value '1:nan'",
                 id="nan_value"),
    # run refuses the gd section it would run; check reads no method section
    pytest.param(ZERO_DATA, "gd", "auto", None,
                 {"run": ETA_AUTO_AT_ZERO_L, "check": L_READERS_AT_ZERO_L},
                 id="zero_data_eta_auto"),
    pytest.param(ZERO_DATA, "aagd", "1e-3", None, L_READERS_AT_ZERO_L,
                 id="zero_data_default_checks"),
    # None: nothing the command runs reads L, so it exits 0
    pytest.param(ZERO_DATA, "gd", "auto", "evals", {"run": ETA_AUTO_AT_ZERO_L, "check": None},
                 id="zero_data_eta_auto_evals_only"),
    pytest.param(ZERO_DATA, "gd", "0.1", "h_envelope, lemmas",
                 {"run": None, "check": L_READERS_AT_ZERO_L}, id="zero_data_checks_that_read_L"),
])
def test_degenerate_logistic_input_is_config_error(tmp_path, capsys, zero_logistic_trace,
                                                   command, data_text, method, eta, checks,
                                                   message):
    cfg = _zero_logistic_cfg(tmp_path, "degenerate", data_text, method=method, eta=eta,
                             checks=checks)
    argv = (["run", str(cfg)] if command == "run"
            else ["check", str(zero_logistic_trace), "--config", str(cfg)])
    message = message[command] if isinstance(message, dict) else message
    capsys.readouterr()
    code = main(argv)
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if message is None:
        assert (code, err) == (0, "")
        if command == "check":  # the one check it was asked for
            assert [ln.split()[:2] for ln in out.splitlines() if not ln.startswith("x_ref")] == [
                ["eval_schedule", "pass"]]
        return
    assert code == 2
    assert err.startswith("config error: ")
    assert message in err


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
    # h_envelope and evals replay no iterate, but a trace of another problem has another L
    for checks in ("", "checks = h_envelope, evals\n"):
        check_cfg = write_cfg(tmp_path, LOGSUMEXP_CFG.replace("DIM", "6").replace(
            "seed = 3\n", "seed = 3\n" + checks), name="check.ini")
        capsys.readouterr()
        assert main(["check", str(trace), "--config", str(check_cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: the trace stores iterates of dimension 5, "
                                "the oracle has dim = 6\n")


@pytest.mark.parametrize("column", ["x_0", "xbar_0", "xtilde_0"])
def test_check_empty_iterate_cell_is_config_error(tmp_path, capsys, column):
    cfg = write_cfg(tmp_path, GOLDEN_CFG)
    assert main(["run", str(cfg)]) == 0
    trace = next((tmp_path / "out").glob("*agraal.csv"))
    # k = 3 of one block of the iterate file
    npy = aagd.traceio.iterates_path(trace)
    blocks = np.load(npy)
    index = ("x_0", "xbar_0", "xtilde_0").index(column)
    blocks[index, 3, 0] = np.nan
    np.save(npy, blocks)
    capsys.readouterr()
    assert main(["check", str(trace), "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    block = ("x", "x_bar", "x_tilde")[index]
    assert captured.err == (f"config error: {block} at k = 3 has a non-finite entry; "
                            "the solver stores only finite iterates\n")


def test_check_non_finite_iterate_passes_the_checks_that_replay_none(tmp_path, capsys):
    # only the checks that run decide what the trace must hold
    cfg = write_cfg(tmp_path, GOLDEN_CFG)
    assert main(["run", str(cfg)]) == 0
    trace = next((tmp_path / "out").glob("*agraal.csv"))
    npy = aagd.traceio.iterates_path(trace)
    blocks = np.load(npy)
    blocks[2, 3, 0] = np.nan
    np.save(npy, blocks)
    check_cfg = write_cfg(tmp_path, GOLDEN_CFG.replace(
        "seed = 0\n", "seed = 0\nchecks = h_envelope, evals\n"), name="check.ini")
    capsys.readouterr()
    assert main(["check", str(trace), "--config", str(check_cfg)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert [line.split()[:2] for line in lines] == [["h_envelope", "pass"], ["eval_schedule", "pass"]]


def test_check_damaged_iterate_file_is_config_error(tmp_path, capsys, iterate_damage):
    cfg = write_cfg(tmp_path, GOLDEN_CFG)
    assert main(["run", str(cfg)]) == 0
    trace = next((tmp_path / "out").glob("*agraal.csv"))
    message = iterate_damage(Path(aagd.traceio.iterates_path(trace)))
    capsys.readouterr()
    assert main(["check", str(trace), "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {message}\n"


def test_check_trace_in_the_layout_with_iterate_columns_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, GOLDEN_CFG)
    assert main(["run", str(cfg)]) == 0
    trace = next((tmp_path / "out").glob("*agraal.csv"))
    lines = trace.read_text().splitlines()
    x, x_bar, x_tilde = np.load(aagd.traceio.iterates_path(trace))
    lines[0] += ",x_0,xbar_0,xtilde_0"
    for r in range(1, len(lines) - 1):  # the last line holds the parameters
        lines[r] += f",{x[r - 1, 0]:.17g},{x_bar[r - 1, 0]:.17g},{x_tilde[r - 1, 0]:.17g}"
    trace.write_text("\r\n".join(lines) + "\r\n")
    capsys.readouterr()
    assert main(["check", str(trace), "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("config error: 3 columns after evals_cum: iterates are stored in "
                            f"{trace.name}.npy beside the CSV, not in its columns\n")


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
    assert not list(tmp_path.glob("out/*.npy"))


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
    row[lines[0].split(",").index("f_bar")] = "1" * 140001
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


def test_run_numerically_singular_cond_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[experiment]\noutdir = {out}\nchecks = evals\n\n"
                              "[problem]\nkind = quadratic\ndim = 5\ncond = 1e20\n\n"
                              "[method a]\nkind = aagd\neta0 = 1e-3\nmax_iters = 20\n")
    capsys.readouterr()
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "config error: cond must be finite, >= 1 and < 1/eps = 2**52 (about 4.5e15)\n")
    assert not list(tmp_path.glob("out/*.csv"))


@pytest.mark.parametrize("problem", ["kind = identity\ndim = 1000000000000000",
                                     "kind = quadratic\ndim = 100000000\ncond = 10"],
                         ids=["identity_7PiB", "quadratic_80PB"])
@pytest.mark.parametrize("command", ["run", "check"])
def test_problem_too_large_to_allocate_is_config_error(tmp_path, capsys, problem, command):
    # each fails at its first allocation, beyond a 47-bit address space under any overcommit
    cfg = write_cfg(tmp_path, "[experiment]\noutdir = {out}\nchecks = evals\n\n"
                              f"[problem]\n{problem}\n\n"
                              "[method a]\nkind = gd\neta = 0.5\nmax_iters = 5\n")
    capsys.readouterr()
    argv = (["run", str(cfg)] if command == "run"
            else ["check", str(tmp_path / "trace.csv"), "--config", str(cfg)])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: Unable to allocate ") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


def test_run_overflowing_trace_fails_certificates_without_warnings(tmp_path, capsys):
    # from eta0 = 1e200 the replay overflows: its FAILs stand, with no float warning
    cfg = write_cfg(tmp_path, "[experiment]\noutdir = {out}\nx_ref = x0\n\n"
                              "[problem]\nkind = logsumexp\nseed = 0\ndim = 3\nterms = 4\n"
                              "smoothing = 0.1\n\n"
                              "[method a]\nkind = aagd\neta0 = 1e200\nmax_iters = 50\n"
                              "store_iterates = true\n")
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert re.search(r"^\s*psi_monotone\[x0\]\s+FAIL", captured.out, re.M)
    assert re.search(r"^\s*corollary_bound\[x0\]\s+FAIL", captured.out, re.M)


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


@pytest.mark.parametrize("method, step", [("aagd", "eta0 = 1e-3"), ("gd", "eta = auto")])
def test_run_logsumexp_smoothing_whose_L_overflows_is_config_error(tmp_path, capsys,
                                                                  method, step):
    cfg = write_cfg(tmp_path, "[experiment]\noutdir = {out}\nchecks = evals\n\n"
                              "[problem]\nkind = logsumexp\ndim = 3\nterms = 4\n"
                              "smoothing = 1e-308\n\n"
                              f"[method a]\nkind = {method}\n{step}\nmax_iters = 20\n")
    capsys.readouterr()
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "config error: logsumexp smoothness constant L = inf is not finite: "
        "max_i ||a_i||^2 / mu overflows (mu = 1e-308)\n")
    assert not list(tmp_path.glob("out/*.csv"))


def test_run_oracle_failure_at_the_start_point_is_config_error(tmp_path, capsys):
    # L = 8.9e307 is finite, but the oracle's value at x0 = 0 is not
    cfg = write_cfg(tmp_path, "[experiment]\nseed = 7\noutdir = {out}\nchecks = evals\n\n"
                              "[problem]\nkind = logsumexp\ndim = 1\nterms = 2\n"
                              "smoothing = 1e-309\n\n"
                              "[method a]\nkind = aagd\neta0 = 1e-3\nmax_iters = 20\n")
    capsys.readouterr()
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "config error: oracle 'logsumexp(seed=7,dim=1,terms=2,mu=1e-309)' "
        "returned non-finite output\n")
    assert not list(tmp_path.glob("out/*.csv"))


def test_check_oracle_failure_at_a_stored_iterate_is_config_error(tmp_path, capsys):
    # finite averaged iterates near the float maximum: the fresh replay's
    # oracle output at that row is not finite
    cfg = write_cfg(tmp_path, "[experiment]\noutdir = {out}\nx_ref = x0\n\n"
                              "[problem]\nkind = logsumexp\ndim = 3\nterms = 4\n"
                              "smoothing = 0.1\n\n"
                              "[method a]\nkind = aagd\neta0 = 1e-3\nmax_iters = 10\n"
                              "store_iterates = true\n")
    assert main(["run", str(cfg)]) == 0
    trace = next((tmp_path / "out").glob("*__a.csv"))
    npy = aagd.traceio.iterates_path(trace)
    blocks = np.load(npy)
    blocks[1, 3] = 1.7e308  # x_bar at k = 3
    np.save(npy, blocks)
    capsys.readouterr()
    assert main(["check", str(trace), "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("config error: oracle 'logsumexp(seed=0,dim=3,terms=4,mu=0.1)' "
                            "returned non-finite output\n")


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
    assert captured.err == "config error: gap_tol requires f_star, a known optimal value\n"
    assert not list(tmp_path.glob("out/*.csv"))


GUARD_CFG = """
[experiment]
seed = 1
outdir = {out}
checks = psi, corollary, h_envelope, lemmas, evals
x_ref = x0

[problem]
kind = logsumexp
dim = 40
terms = 100
smoothing = 0.1
x0 = random

[method aagd]
kind = aagd
eta0 = 1e-6
max_iters = 300
store_iterates = true
"""

CERT_LINE = re.compile(r"^\s*(\S+\s+(?:pass|FAIL)\s+worst.*)$", re.M)


def test_guard_rows_round_trip_as_inf_through_run_and_check(tmp_path, capsys):
    cfg = write_cfg(tmp_path, GUARD_CFG)
    assert main(["run", str(cfg)]) == 0
    ran = CERT_LINE.findall(capsys.readouterr().out)
    path = next((tmp_path / "out").glob("*__aagd.csv"))
    stored = aagd.traceio.read_csv(path)
    problem = aagd.logsumexp_problem(1, 40, 100, 0.1)
    lib = aagd.run(problem.oracle, stored.x[0], aagd.make_params(theta=2.0, eta0=1e-6),
                   aagd.StopRule(max_iters=300))
    guard = np.isinf(lib.lam)
    assert guard.sum() > 100
    cells = [line.split(",")[5] for line in path.read_text().splitlines()[1:-1]]
    assert [c == "inf" for c in cells] == guard.tolist()
    assert cells[0] == "" and np.isnan(stored.lam[0])
    assert np.array_equal(stored.lam, lib.lam, equal_nan=True)
    assert main(["check", str(path), "--config", str(cfg)]) == 0
    checked = CERT_LINE.findall(capsys.readouterr().out)
    assert len(ran) == 11 and checked == ran


def test_stepsize_underflow_to_zero_ends_the_run(tmp_path, capsys):
    # nu * H_prev = 4.7e-202 * 1e-200 underflows: eta_1 = beta_1 = 0, from
    # which the next step would divide by alpha_2 * H_2 = 0
    problem = aagd.logsumexp_problem(0, 3, 4, 0.1)
    trace = aagd.run(problem.oracle, np.zeros(3), aagd.make_params(theta=1e200, eta0=1e-200),
                     aagd.StopRule(max_iters=50))
    assert trace.n_iters == 1 and trace.eta[-1] == 0.0 and not trace.diverged
    cfg = write_cfg(tmp_path, "[experiment]\noutdir = {out}\n"
                              "checks = psi, corollary, h_envelope, lemmas, evals\n"
                              "x_ref = x0\n\n"
                              "[problem]\nkind = logsumexp\ndim = 3\nterms = 4\n"
                              "smoothing = 0.1\nx0 = zeros\n\n"
                              "[method a]\nkind = aagd\ntheta = 1e200\neta0 = 1e-200\n"
                              "max_iters = 50\nstore_iterates = true\n")
    # beta_1 = 0 lies outside the certificates' hypotheses: a reported FAIL
    assert main(["run", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert re.search(r"^a\s+iters=1\s", captured.out, re.M)
    assert re.search(r"^\s*alpha_beta_range\s+FAIL\s+worst \S+ at k=1$", captured.out, re.M)
    stored = aagd.traceio.read_csv(next((tmp_path / "out").glob("*__a.csv")))
    assert np.array_equal(stored.eta, trace.eta)


RANDOM_REF_CFG = """
[experiment]
seed = 4
outdir = {out}
checks = psi, corollary
x_ref = xstar, random

[problem]
kind = logsumexp
dim = 5
terms = 10
smoothing = 0.1

[method a]
kind = aagd
eta0 = 1e-3
max_iters = 30
store_iterates = true
"""


def test_run_and_check_report_the_same_random_reference_entries(tmp_path, capsys):
    cfg = write_cfg(tmp_path, RANDOM_REF_CFG)
    assert main(["run", str(cfg)]) == 0
    summary = (tmp_path / "out" / "summary.txt").read_text()
    ran = [ln.strip() for ln in summary.splitlines() if "[random]" in ln]
    assert [ln.split()[0] for ln in ran] == ["psi_monotone[random]", "corollary_bound[random]"]
    capsys.readouterr()
    trace = next((tmp_path / "out").glob("*__a.csv"))
    assert main(["check", str(trace), "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert [ln for ln in out.splitlines() if "[random]" in ln] == ran
    # logsumexp has no known optimum: check notes the skipped xstar as run does
    assert out.endswith("x_ref xstar skipped: problem has no known optimum\n")


def test_run_corollary_without_psi_sweeps_every_iterate(tmp_path, capsys):
    cfg = write_cfg(tmp_path, QUAD_CFG.replace("psi, corollary, h_envelope, lemmas, evals",
                                               "corollary"))
    assert main(["run", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert re.search(r"^agraal\s+iters=200\s", out, re.M)
    lines = [ln.strip() for ln in out.splitlines() if ln.startswith("  ")]
    assert [ln.split()[:2] for ln in lines] == [["corollary_bound[xstar]", "pass"],
                                                ["corollary_bound[x0]", "pass"]]
    stored = aagd.traceio.read_csv(next((tmp_path / "out").glob("*__agraal.csv")))
    problem = aagd.make_quadratic(7, 20, 100.0)
    lib = aagd.run_certificates(stored, problem.oracle, None, L=problem.L,
                                x_refs={"xstar": problem.x_star, "x0": np.ones(20)},
                                checks=("corollary",))
    assert lines == lib.lines()


@pytest.mark.parametrize("text, message", [
    ("[problem]\nkind = identity\ndim = 2\n\n[method a]\nkind = aagd\neta0 = 0.1\n"
     "max_iters = 5\n", "experiment: outdir is required for run"),
    ("[experiment]\noutdir = {out}\n\n[method a]\nkind = aagd\neta0 = 0.1\nmax_iters = 5\n",
     "missing [problem] section"),
    ("[experiment]\noutdir = {out}\n\n[problem]\nkind = cubic\ndim = 2\n\n"
     "[method a]\nkind = aagd\neta0 = 0.1\nmax_iters = 5\n",
     "problem: kind must be one of ['identity', 'logistic', 'logsumexp', 'quadratic'], "
     "got 'cubic'"),
    ("[experiment]\noutdir = {out}\n\n[problem]\nkind = identity\ndim = 2\n\n"
     "[problem]\nkind = identity\ndim = 3\n",
     "cannot parse config: While reading from {cfg!r} [line  8]: "
     "section 'problem' already exists"),
], ids=["no_outdir", "no_problem", "unknown_problem_kind", "duplicate_section"])
def test_run_malformed_config_is_config_error(tmp_path, capsys, text, message):
    cfg = write_cfg(tmp_path, text)
    assert main(["run", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: " + message.format(cfg=str(cfg)) + "\n"
    assert not (tmp_path / "out").exists()


def test_build_problem_rejects_an_unknown_kind():
    # config's key table rejects the kind first; the builder still names it
    with pytest.raises(config.ConfigError, match="^unknown problem kind 'cubic'$"):
        aagd.cli.build_problem({"kind": "cubic"}, 0)


def test_check_needs_no_aagd_method_section(tmp_path, capsys):
    cfg = write_cfg(tmp_path, GOLDEN_CFG)
    assert main(["run", str(cfg)]) == 0
    trace = next((tmp_path / "out").glob("*__agraal.csv"))
    gd_only = GOLDEN_CFG.split("[method agraal]")[0] + "[method g]\nkind = gd\neta = 0.1\n"
    other = write_cfg(tmp_path, gd_only + "max_iters = 5\n", name="gd.ini")
    capsys.readouterr()
    assert main(["check", str(trace), "--config", str(other)]) == 0
    captured = capsys.readouterr()
    assert "psi_monotone" in captured.out and "FAIL" not in captured.out
    assert captured.err == ""


@pytest.mark.parametrize("line, message", [
    ("# theta=2", "row {row}: parameter line '# theta=2', want '# theta=<float> gamma=<float>'"),
    ("# gamma=0.04", "row {row}: parameter line '# gamma=0.04', "
                     "want '# theta=<float> gamma=<float>'"),
    ("# theta=2 gamma=0.04 nu=0.005", "row {row}: parameter line '# theta=2 gamma=0.04 "
                                      "nu=0.005', want '# theta=<float> gamma=<float>'"),
    ("# theta=2 gamma=x", "row {row}: could not convert string to float: 'x'"),
    # values that make_params refuses
    ("# theta=1.5 gamma=0.01", "theta=1.5 is infeasible: need theta > (1+sqrt(5))/2 ~ 1.618034"),
    ("# theta=2 gamma=0.5", "gamma=0.5 outside (0, gamma_max(theta)=0.0454545]"),
], ids=["missing_gamma", "missing_theta", "extra_key", "not_a_float", "theta", "gamma"])
def test_check_malformed_or_infeasible_parameter_line_is_config_error(tmp_path, capsys, line,
                                                                      message):
    cfg = write_cfg(tmp_path, GOLDEN_CFG)
    assert main(["run", str(cfg)]) == 0
    trace = next((tmp_path / "out").glob("*agraal.csv"))
    lines = trace.read_text().splitlines()
    trace.write_text("\n".join(lines[:-1] + [line]) + "\n")
    capsys.readouterr()
    assert main(["check", str(trace), "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {message.format(row=len(lines))}\n"


def test_check_row_after_the_parameter_line_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, GOLDEN_CFG)
    assert main(["run", str(cfg)]) == 0
    trace = next((tmp_path / "out").glob("*agraal.csv"))
    lines = trace.read_text().splitlines()
    trace.write_text("\n".join(lines + lines[-2:-1]) + "\n")
    capsys.readouterr()
    assert main(["check", str(trace), "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: row {len(lines) + 1}: a row after the parameter line\n"


@pytest.mark.parametrize("which", ["baseline", "aagd_without_parameter_line"])
def test_check_of_a_trace_without_parameters_is_config_error(tmp_path, capsys, which):
    cfg = write_cfg(tmp_path, GOLDEN_CFG + "\n[method g]\nkind = gd\neta = 0.1\nmax_iters = 5\n")
    assert main(["run", str(cfg)]) == 0
    if which == "baseline":
        trace = next((tmp_path / "out").glob("*__g.csv"))
    else:
        trace = next((tmp_path / "out").glob("*__agraal.csv"))
        trace.write_text("\n".join(trace.read_text().splitlines()[:-1]) + "\n")
    capsys.readouterr()
    assert main(["check", str(trace), "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: solver parameters required (trace carries none)\n"

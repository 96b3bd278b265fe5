import pytest

from aagd.cli import main
from aagd.config import ConfigError, parse_config

FULL = """
[experiment]
seed = 7
outdir = out
checks = psi, lemmas
x_ref = xstar, random

[problem]
kind = quadratic
dim = 30
cond = 1e4
x0 = ones

[method agraal]
kind = aagd
eta0 = 1e-4
theta = 2
max_iters = 500
store_iterates = true
growth_cap = false

[method gd]
kind = gd
eta = auto
max_iters = 500
"""


def write(tmp_path, text):
    path = tmp_path / "cfg.ini"
    path.write_text(text)
    return path


def test_parse_full_config(tmp_path):
    cfg = parse_config(write(tmp_path, FULL))
    assert cfg.seed == 7
    assert cfg.outdir == "out"
    assert cfg.checks == ("psi", "lemmas")
    assert cfg.x_ref == ("xstar", "random")
    assert cfg.problem == {"kind": "quadratic", "dim": 30, "cond": 1e4, "x0": "ones"}
    assert [m.name for m in cfg.methods] == ["agraal", "gd"]
    agraal = cfg.methods[0]
    assert agraal.kind == "aagd"
    assert agraal.options["eta0"] == 1e-4
    assert agraal.options["store_iterates"] is True
    assert agraal.options["growth_cap"] is False
    assert cfg.methods[1].options["eta"] == "auto"


def test_unknown_key_rejected_with_path(tmp_path):
    bad = FULL.replace("cond = 1e4", "cond = 1e4\nwhatever = 3")
    with pytest.raises(ConfigError, match="problem.*whatever"):
        parse_config(write(tmp_path, bad))


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config(write(tmp_path, FULL + "\n[extra]\nfoo = 1\n"))


def test_unknown_method_key_rejected(tmp_path):
    bad = FULL.replace("eta = auto", "eta = auto\nmomentum = 0.9")
    with pytest.raises(ConfigError, match="method gd.*momentum"):
        parse_config(write(tmp_path, bad))


def test_missing_problem_section(tmp_path):
    text = "\n".join(ln for ln in FULL.splitlines() if "kind = quadratic" not in ln)
    text = text.replace("[problem]\n", "")
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, text))


def test_missing_methods(tmp_path):
    head = FULL.split("[method agraal]")[0]
    with pytest.raises(ConfigError, match="method"):
        parse_config(write(tmp_path, head))


def test_required_method_options(tmp_path):
    bad = FULL.replace("eta0 = 1e-4\n", "")
    with pytest.raises(ConfigError, match="aagd needs eta0"):
        parse_config(write(tmp_path, bad))


def test_bad_checks_entry(tmp_path):
    bad = FULL.replace("checks = psi, lemmas", "checks = psi, nonsense")
    with pytest.raises(ConfigError, match="nonsense"):
        parse_config(write(tmp_path, bad))


def test_bad_x0_entry(tmp_path):
    bad = FULL.replace("x0 = ones", "x0 = sideways")
    with pytest.raises(ConfigError, match="x0"):
        parse_config(write(tmp_path, bad))


def test_bad_numeric_value(tmp_path):
    bad = FULL.replace("dim = 30", "dim = thirty")
    with pytest.raises(ConfigError, match="dim"):
        parse_config(write(tmp_path, bad))


def test_defaults_applied(tmp_path):
    minimal = """
[problem]
kind = identity
dim = 5

[method a]
kind = aagd
eta0 = 0.1
max_iters = 10
"""
    cfg = parse_config(write(tmp_path, minimal))
    assert cfg.seed == 0
    assert cfg.checks == ("psi", "corollary", "h_envelope", "lemmas", "evals")
    assert cfg.x_ref == ("xstar", "x0")


def test_missing_file():
    with pytest.raises(ConfigError):
        parse_config("/nonexistent/place/cfg.ini")


def test_repeated_method_name_rejected(tmp_path):
    # both spellings name method "agraal"; the second CSV would replace the first
    dup = FULL.replace("[method gd]", "[method.agraal]")
    with pytest.raises(ConfigError, match="'agraal' is already used"):
        parse_config(write(tmp_path, dup))
    assert main(["run", str(write(tmp_path, dup))]) == 2

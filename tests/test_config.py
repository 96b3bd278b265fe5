import re
from pathlib import Path

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
gamma = 0.04
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
    assert agraal.options["gamma"] == 0.04  # aagd's gamma; adgd rejects the key
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
    # drop the whole block: orphaned keys would land in [experiment] and fail there
    head, rest = FULL.split("[problem]\n")
    text = head + rest.split("\n\n", 1)[1]
    with pytest.raises(ConfigError, match=r"^missing \[problem\] section$"):
        parse_config(write(tmp_path, text))


def test_missing_methods(tmp_path, monkeypatch, capsys):
    # run refuses a config without methods; check reads none (tests/test_cli.py)
    monkeypatch.chdir(tmp_path)  # the config's outdir is relative
    head = FULL.split("[method agraal]")[0]
    assert main(["run", str(write(tmp_path, head))]) == 2
    assert capsys.readouterr().err == "config error: no [method ...] sections\n"
    assert not (tmp_path / "out").exists()


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


def test_method_section_without_name_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown section 'method '"):
        parse_config(write(tmp_path, FULL.replace("[method gd]", "[method ]")))


def test_missing_file():
    with pytest.raises(ConfigError):
        parse_config("/nonexistent/place/cfg.ini")


def test_repeated_method_name_rejected(tmp_path):
    # both spellings name method "agraal"; the second CSV would replace the first
    dup = FULL.replace("[method gd]", "[method  agraal]")
    with pytest.raises(ConfigError, match="'agraal' is already used"):
        parse_config(write(tmp_path, dup))
    assert main(["run", str(write(tmp_path, dup))]) == 2


@pytest.mark.parametrize("name", ["sub/dir", "sub\\dir"])
def test_method_name_with_a_path_separator_rejected(tmp_path, capsys, name):
    # the name ends the CSV's file name: run would fail after writing earlier CSVs
    text = ("[experiment]\noutdir = {out}\n\n[problem]\nkind = identity\ndim = 3\n\n"
            "[method ok]\nkind = gd\neta = 0.5\nmax_iters = 5\n\n"
            f"[method {name}]\nkind = gd\neta = 0.5\nmax_iters = 5\n")
    path = write(tmp_path, text.format(out=tmp_path / "out"))
    message = f"method {name}: method name {name!r} contains a path separator"
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(path)
    capsys.readouterr()
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not list(tmp_path.rglob("*.csv"))


def test_method_name_with_a_nul_byte_rejected(tmp_path, capsys):
    # open() refuses a NUL in a file name: run would end in a traceback at the CSV
    text = ("[experiment]\noutdir = {out}\n\n[problem]\nkind = identity\ndim = 2\n\n"
            "[method g\0d]\nkind = gd\neta = 0.5\nmax_iters = 5\n")
    path = write(tmp_path, text.format(out=tmp_path / "out"))
    message = "method name 'g\\x00d' contains a NUL byte"
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(path)
    capsys.readouterr()
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_readme_example_config_parses(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    cfg = parse_config(write(tmp_path, example))
    assert cfg.problem == {"kind": "quadratic", "dim": 100, "cond": 1e4, "x0": "ones"}
    assert cfg.methods[0].options == {"eta0": 1e-4, "max_iters": 2000, "store_iterates": True}
    assert cfg.methods[1].options == {"eta": "auto", "max_iters": 2000}


def test_inline_comment_needs_leading_whitespace(tmp_path):
    text = ("[problem]\nkind = logistic   # a comment\npath = data#1.svm ; a comment\n\n"
            "[method m]\nkind = polyak\nmax_iters = 10\n")
    assert parse_config(write(tmp_path, text)).problem == {"kind": "logistic",
                                                           "path": "data#1.svm"}


# a complete section of each kind: the table's required keys and nothing else
REQUIRED = {
    ("problem", "quadratic"): {"dim": "5", "cond": "10"},
    ("problem", "identity"): {"dim": "5"},
    ("problem", "logsumexp"): {"dim": "4", "terms": "6", "smoothing": "0.1"},
    ("method m", "aagd"): {"max_iters": "10", "eta0": "0.1"},
    ("method m", "gd"): {"max_iters": "10", "eta": "auto"},
    ("method m", "agd"): {"max_iters": "10", "eta": "0.1"},
    ("method m", "adagrad"): {"max_iters": "10", "eta": "1"},
    ("method m", "adgd"): {"max_iters": "10", "eta0": "0.1"},
    ("method m", "bb"): {"max_iters": "10", "eta0": "0.1"},
    ("method m", "polyak"): {"max_iters": "10"},
}


def _config(problem="kind = identity\ndim = 5", method="kind = aagd\neta0 = 0.1\nmax_iters = 10"):
    return f"[problem]\n{problem}\n\n[method m]\n{method}\n"


def _section_body(kind, keys):
    return "\n".join([f"kind = {kind}"] + [f"{key} = {value}" for key, value in keys.items()])


@pytest.mark.parametrize("section, kind, key", [
    (section, kind, key) for (section, kind), keys in REQUIRED.items() for key in keys])
def test_missing_required_key_names_section_kind_and_key(tmp_path, section, kind, key):
    keys = REQUIRED[section, kind]
    slot = "problem" if section == "problem" else "method"
    parse_config(write(tmp_path, _config(**{slot: _section_body(kind, keys)})))
    partial = {k: v for k, v in keys.items() if k != key}
    with pytest.raises(ConfigError) as exc:
        parse_config(write(tmp_path, _config(**{slot: _section_body(kind, partial)})))
    assert str(exc.value) == f"{section}: {kind} needs {key}"


@pytest.mark.parametrize("body", ["kind = logistic\nreg = 0.1", "kind = logistic\nn = 20"])
def test_logistic_needs_path_or_n_and_dim(tmp_path, body):
    with pytest.raises(ConfigError, match=re.escape("problem: logistic needs path or (n, dim)")):
        parse_config(write(tmp_path, _config(problem=body)))


@pytest.mark.parametrize("problem, method, key, raw", [
    ("kind = identity\ndim = 2.5", None, "dim", "2.5"),
    (None, "kind = aagd\neta0 = 0.1\nmax_iters = 10\nstore_iterates = maybe",
     "store_iterates", "maybe"),
    ("kind = identity\ndim = 5\nx0 = sideways", None, "x0", "sideways"),
    (None, "kind = gd\neta = fast\nmax_iters = 10", "eta", "fast"),
], ids=["int", "flag", "x0", "eta"])
def test_bad_value_for_each_key_parser(tmp_path, problem, method, key, raw):
    given = {name: body for name, body in (("problem", problem), ("method", method)) if body}
    section = "problem" if problem else "method m"
    with pytest.raises(ConfigError) as exc:
        parse_config(write(tmp_path, _config(**given)))
    assert str(exc.value) == f"{section}: key {key!r} has invalid value {raw!r}"


@pytest.mark.parametrize("key", ["checks", "x_ref"])
def test_empty_list_key_means_none(tmp_path, key):
    # an absent key keeps its default (test_defaults_applied); an empty one selects nothing
    cfg = parse_config(write(tmp_path, f"[experiment]\n{key} =\n\n" + _config()))
    assert getattr(cfg, key) == ()


def test_run_with_empty_checks_prints_no_certificate(tmp_path, capsys):
    text = ("[experiment]\noutdir = {out}\nchecks =\n\n" + _config()).format(out=tmp_path / "out")
    assert main(["run", str(write(tmp_path, text))]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1].startswith("m ")
    assert len(out.splitlines()) == 2  # the problem line and the method line


@pytest.mark.parametrize("key, raw", [("gamma", "1.0"), ("nu", "0.5"), ("option2", "true")])
def test_adgd_growth_constants_are_not_config_keys(tmp_path, capsys, key, raw):
    # adgd runs its published rule with fixed constants
    method = f"kind = adgd\neta0 = 0.1\nmax_iters = 10\n{key} = {raw}"
    text = ("[experiment]\noutdir = {out}\n\n" + _config(method=method)).format(
        out=tmp_path / "out")
    assert main(["run", str(write(tmp_path, text))]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: method m: unknown key '{key}'\n"
    assert not list(tmp_path.glob("out/*.csv"))

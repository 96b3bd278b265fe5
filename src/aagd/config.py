"""Experiment configuration: an INI-style key=value document.

Sections::

    [experiment]
    seed = 7                  # integer, defaults to 0
    outdir = results          # required by the run command
    checks = psi, corollary, h_envelope, lemmas, evals   # optional
    x_ref = xstar, x0, random # reference points for psi/corollary checks

    [problem]
    kind = quadratic          # quadratic | identity | logistic | logsumexp
    x0 = zeros                # start point: zeros | ones | random
    # quadratic:  dim, cond (seed defaults to the experiment seed)
    # identity:   dim
    # logistic:   reg, plus either path=<libsvm file> or n, dim (synthetic)
    # logsumexp:  dim, terms, smoothing

    [method NAME]             # one section per method, NAME labels outputs
    kind = aagd               # aagd | gd | agd | adgd | adagrad | bb | polyak
    max_iters = 2000          # required
    grad_tol = 0              # optional
    gap_tol =                 # optional, needs a problem with known optimum
    # aagd:    eta0 (required), theta, gamma, store_iterates, growth_cap
    # gd/agd/adagrad: eta = <float> or auto (1/L)
    # adgd:    eta0, gamma, nu, option2
    # bb:      eta0
    # polyak:  no extras (optimal value comes from the problem)

Unknown sections or keys are rejected with their path.
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass, field


class ConfigError(ValueError):
    pass


_EXPERIMENT_KEYS = {"seed", "outdir", "checks", "x_ref"}
_PROBLEM_KEYS = {
    "quadratic": {"kind", "dim", "cond", "seed", "x0"},
    "identity": {"kind", "dim", "x0"},
    "logistic": {"kind", "reg", "path", "n", "dim", "seed", "x0"},
    "logsumexp": {"kind", "dim", "terms", "smoothing", "seed", "x0"},
}
_X0_NAMES = {"zeros", "ones", "random"}
_METHOD_KEYS = {
    "aagd": {"kind", "max_iters", "grad_tol", "gap_tol", "eta0", "theta", "gamma",
             "store_iterates", "growth_cap"},
    "gd": {"kind", "max_iters", "grad_tol", "gap_tol", "eta"},
    "agd": {"kind", "max_iters", "grad_tol", "gap_tol", "eta"},
    "adagrad": {"kind", "max_iters", "grad_tol", "gap_tol", "eta"},
    "adgd": {"kind", "max_iters", "grad_tol", "gap_tol", "eta0", "gamma", "nu", "option2"},
    "bb": {"kind", "max_iters", "grad_tol", "gap_tol", "eta0"},
    "polyak": {"kind", "max_iters", "grad_tol", "gap_tol"},
}
_CHECK_NAMES = {"psi", "corollary", "h_envelope", "lemmas", "evals"}
_XREF_NAMES = {"xstar", "x0", "random"}


@dataclass
class MethodSpec:
    name: str
    kind: str
    options: dict = field(default_factory=dict)


@dataclass
class ExperimentConfig:
    seed: int
    outdir: str | None
    checks: tuple
    x_ref: tuple
    problem: dict
    methods: list


def _typed(section: str, key: str, raw: str, kind: type):
    try:
        if kind is bool:
            low = raw.strip().lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{section}: key {key!r} has invalid value {raw!r}")


def _check_keys(section: str, present, allowed):
    unknown = set(present) - allowed
    if unknown:
        raise ConfigError(f"{section}: unknown key {sorted(unknown)[0]!r}")


def parse_config(path) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}")
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")

    seed = 0
    outdir = None
    checks: tuple = ()
    x_ref: tuple = ()
    problem: dict | None = None
    methods: list[MethodSpec] = []

    for section in parser.sections():
        items = dict(parser.items(section))
        if section == "experiment":
            _check_keys(section, items, _EXPERIMENT_KEYS)
            if "seed" in items:
                seed = _typed(section, "seed", items["seed"], int)
            outdir = items.get("outdir")
            if "checks" in items:
                checks = _split_list(section, "checks", items["checks"], _CHECK_NAMES)
            if "x_ref" in items:
                x_ref = _split_list(section, "x_ref", items["x_ref"], _XREF_NAMES)
        elif section == "problem":
            problem = _parse_problem(section, items)
        elif section.startswith("method ") or section.startswith("method."):
            name = (section.split(None, 1) if " " in section else section.split(".", 1))[1].strip()
            if any(m.name == name for m in methods):
                raise ConfigError(f"{section}: method name {name!r} is already used")
            methods.append(_parse_method(section, name, items))
        else:
            raise ConfigError(f"unknown section {section!r}")

    if problem is None:
        raise ConfigError("missing [problem] section")
    if not methods:
        raise ConfigError("no [method ...] sections")
    if not checks:
        checks = ("psi", "corollary", "h_envelope", "lemmas", "evals")
    if not x_ref:
        x_ref = ("xstar", "x0")
    return ExperimentConfig(seed=seed, outdir=outdir, checks=checks, x_ref=x_ref,
                            problem=problem, methods=methods)


def _split_list(section: str, key: str, raw: str, allowed: set) -> tuple:
    names = tuple(tok.strip() for tok in raw.split(",") if tok.strip())
    for n in names:
        if n not in allowed:
            raise ConfigError(f"{section}: {key} entry {n!r} not in {sorted(allowed)}")
    return names


def _parse_problem(section: str, items: dict) -> dict:
    kind = items.get("kind")
    if kind not in _PROBLEM_KEYS:
        raise ConfigError(f"{section}: kind must be one of {sorted(_PROBLEM_KEYS)}, got {kind!r}")
    _check_keys(section, items, _PROBLEM_KEYS[kind])
    out = {"kind": kind}
    for key, val in items.items():
        if key == "kind":
            continue
        if key in ("dim", "n", "terms", "seed"):
            out[key] = _typed(section, key, val, int)
        elif key in ("cond", "reg", "smoothing"):
            out[key] = _typed(section, key, val, float)
        elif key == "x0":
            if val not in _X0_NAMES:
                raise ConfigError(f"{section}: x0 must be one of {sorted(_X0_NAMES)}")
            out[key] = val
        else:
            out[key] = val
    if kind == "quadratic" and ("dim" not in out or "cond" not in out):
        raise ConfigError(f"{section}: quadratic needs dim and cond")
    if kind == "identity" and "dim" not in out:
        raise ConfigError(f"{section}: identity needs dim")
    if kind == "logistic" and "path" not in out and ("n" not in out or "dim" not in out):
        raise ConfigError(f"{section}: logistic needs path or (n, dim)")
    if kind == "logsumexp" and not {"dim", "terms", "smoothing"} <= out.keys():
        raise ConfigError(f"{section}: logsumexp needs dim, terms, smoothing")
    return out


def _parse_method(section: str, name: str, items: dict) -> MethodSpec:
    kind = items.get("kind")
    if kind not in _METHOD_KEYS:
        raise ConfigError(f"{section}: kind must be one of {sorted(_METHOD_KEYS)}, got {kind!r}")
    _check_keys(section, items, _METHOD_KEYS[kind])
    if "max_iters" not in items:
        raise ConfigError(f"{section}: max_iters is required")
    opts: dict = {}
    for key, val in items.items():
        if key == "kind":
            continue
        if key == "max_iters":
            opts[key] = _typed(section, key, val, int)
        elif key in ("store_iterates", "growth_cap", "option2"):
            opts[key] = _typed(section, key, val, bool)
        elif key == "eta" and val.strip().lower() == "auto":
            opts[key] = "auto"
        else:
            opts[key] = _typed(section, key, val, float)
    if kind == "aagd" and "eta0" not in opts:
        raise ConfigError(f"{section}: aagd needs eta0")
    if kind in ("gd", "agd", "adagrad") and "eta" not in opts:
        raise ConfigError(f"{section}: {kind} needs eta (a float or auto)")
    if kind in ("adgd", "bb") and "eta0" not in opts:
        raise ConfigError(f"{section}: {kind} needs eta0")
    return MethodSpec(name=name, kind=kind, options=opts)

"""Experiment configuration: an INI-style key=value document.

Sections::

    [experiment]
    seed = 7                  # integer, defaults to 0
    outdir = results          # required by the run command
    checks = psi, corollary, h_envelope, lemmas, evals   # absent: all; empty: none
    x_ref = xstar, x0, random # psi/corollary points; absent: xstar, x0; empty: none

    [problem]
    kind = quadratic          # quadratic | identity | logistic | logsumexp
    x0 = zeros                # start point: zeros | ones | random
    # quadratic:  dim, cond (seed defaults to the experiment seed)
    # identity:   dim
    # logistic:   reg, plus either path=<libsvm file> or n, dim (synthetic)
    # logsumexp:  dim, terms, smoothing

    [method NAME]             # one per method (run needs one), NAME labels outputs (no / or \\)
    kind = aagd               # aagd | gd | agd | adgd | adagrad | bb | polyak
    max_iters = 2000          # required
    grad_tol = 0              # optional
    gap_tol =                 # optional, needs a problem with known optimum
    # aagd:    eta0 (required), theta, gamma, store_iterates, growth_cap
    # gd/agd/adagrad: eta = <float> or auto (1/L)
    # adgd:    eta0; growth sqrt(1 + eta_k/eta_{k-1}), cap 1/2 secant (fixed)
    # bb:      eta0
    # polyak:  no extras (optimal value comes from the problem)

Unknown sections or keys are rejected with their path. A ``;`` or ``#``
after whitespace starts an inline comment, as in the lines above.
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass, field

from .diagnostics import CHECKS


class ConfigError(ValueError):
    pass


def _flag(raw):
    return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]


def _one_of(*allowed):
    def parse(raw):
        if raw not in allowed:
            raise ValueError(raw)
        return raw
    return parse


def _list_of(*allowed):
    one = _one_of(*allowed)
    return lambda raw: tuple(one(tok.strip()) for tok in raw.split(",") if tok.strip())


# how each key's value is read; any key not named here is a float
_PARSERS = {
    "seed": int, "dim": int, "n": int, "terms": int, "max_iters": int,
    "store_iterates": _flag, "growth_cap": _flag,
    "x0": _one_of("zeros", "ones", "random"),
    "eta": lambda raw: "auto" if raw.lower() == "auto" else float(raw),
    "outdir": str, "path": str,
    "checks": _list_of(*CHECKS),
    "x_ref": _list_of("xstar", "x0", "random"),
}

# per section, kind -> (required keys, optional keys); [experiment] has no kind
_STOP = ("grad_tol", "gap_tol")
_EXPERIMENT = {None: ((), ("seed", "outdir", "checks", "x_ref"))}
_PROBLEM = {
    "quadratic": (("dim", "cond"), ("seed", "x0")),
    "identity": (("dim",), ("x0",)),
    "logistic": ((), ("reg", "path", "n", "dim", "seed", "x0")),  # path or (n, dim)
    "logsumexp": (("dim", "terms", "smoothing"), ("seed", "x0")),
}
_METHOD = {
    "aagd": (("max_iters", "eta0"), _STOP + ("theta", "gamma", "store_iterates", "growth_cap")),
    "gd": (("max_iters", "eta"), _STOP),
    "agd": (("max_iters", "eta"), _STOP),
    "adagrad": (("max_iters", "eta"), _STOP),
    "adgd": (("max_iters", "eta0"), _STOP),
    "bb": (("max_iters", "eta0"), _STOP),
    "polyak": (("max_iters",), _STOP),
}


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


def _section(section: str, items: dict, kinds: dict) -> tuple:
    """Check a section against its kind's keys; return (kind, typed values)."""
    kind = None if None in kinds else items.pop("kind", None)
    if kind not in kinds:
        raise ConfigError(f"{section}: kind must be one of {sorted(kinds)}, got {kind!r}")
    required, optional = kinds[kind]
    unknown = [key for key in items if key not in required and key not in optional]
    if unknown:
        raise ConfigError(f"{section}: unknown key {min(unknown)!r}")
    missing = [key for key in required if key not in items]
    if missing:
        raise ConfigError(f"{section}: {kind} needs {', '.join(missing)}")
    values = {}
    for key, raw in items.items():
        try:
            values[key] = _PARSERS.get(key, float)(raw)
        except (KeyError, ValueError):
            raise ConfigError(f"{section}: key {key!r} has invalid value {raw!r}")
    return kind, values


def parse_config(path) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";", "#"))
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}")
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")

    experiment: dict = {}
    problem: dict | None = None
    methods: list[MethodSpec] = []
    for section in parser.sections():
        items = dict(parser.items(section))
        head, _, name = section.partition(" ")
        name = name.strip()
        if section == "experiment":
            experiment = _section(section, items, _EXPERIMENT)[1]
        elif section == "problem":
            kind, values = _section(section, items, _PROBLEM)
            problem = {"kind": kind, **values}
            if kind == "logistic" and "path" not in problem and not {"n", "dim"} <= problem.keys():
                raise ConfigError(f"{section}: logistic needs path or (n, dim)")
        elif head == "method" and name:
            if any(m.name == name for m in methods):
                raise ConfigError(f"{section}: method name {name!r} is already used")
            if "/" in name or "\\" in name:  # the name is part of a file name
                raise ConfigError(f"{section}: method name {name!r} contains a path separator")
            if "\0" in name:
                raise ConfigError(f"method name {name!r} contains a NUL byte")
            kind, options = _section(section, items, _METHOD)
            methods.append(MethodSpec(name=name, kind=kind, options=options))
        else:
            raise ConfigError(f"unknown section {section!r}")

    if problem is None:
        raise ConfigError("missing [problem] section")
    return ExperimentConfig(
        seed=experiment.get("seed", 0), outdir=experiment.get("outdir"),
        checks=experiment.get("checks", CHECKS), x_ref=experiment.get("x_ref", ("xstar", "x0")),
        problem=problem, methods=methods)

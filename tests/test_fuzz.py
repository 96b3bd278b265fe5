"""Seeded corruption fuzz at the input boundary of the command line.

One K = 30, d = 5 logsumexp run with stored iterates is written once.
Each case makes 1 to 4 seeded edits to the trace CSV, its .npy iterate
file or the config, cycling over the three: a byte replaced by a random
byte, an inserted token, or a deleted range of 1 to 8 bytes. It then
calls ``aagd check`` on the trace, or ``aagd run`` on the config. No case
may raise out of ``cli.main`` or print a traceback: every damaged input
ends in a defined exit code.

A second, unseeded sweep sets single cells of a K = 20, d = 5 quadratic
trace CSV, at rows k in {0, 1, 5, K} of every column, to each of ten
edge values, with every warning an error: ``aagd check`` must end each
case in exit code 0, 1 or 2, without a float warning.
"""
import dataclasses
import itertools
import shutil
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

from aagd import Trace, read_csv
from aagd.cli import main
from aagd.config import parse_config
from aagd.traceio import iterates_path

CFG = b"""
[experiment]
seed = 3
outdir = out

[problem]
kind = logsumexp
dim = 5
terms = 12
smoothing = 0.5
x0 = random

[method aagd]
kind = aagd
eta0 = 1e-3
max_iters = 30
store_iterates = true
"""

TOKENS = (b"nan", b"#", b",", b"1e308", b"\n", b"\r\n", b"[method x]", b"(", b")", b"inf",
          b"-", b"'", b"{", b"}")
CASES = 600
# CSV or .npy mutants that exit 0 although they decode to another trace
# than the one written: no certificate ties the stored rows to the
# solver's update yet, so they pass uncaught, not as a success
EXPECTED_UNCAUGHT = 29

CELL_CFG = b"""
[experiment]
seed = 1
outdir = out

[problem]
kind = quadratic
dim = 5
cond = 10

[method aagd]
kind = aagd
eta0 = 1e-3
max_iters = 20
store_iterates = true
"""
CELL_ROWS = (0, 1, 5, 20)
CELL_VALUES = (b"-1", b"0", b"inf", b"-inf", b"", b"1e308", b"-1e308", b"5e-324", b"1e300",
               b"-0")
# single-cell mutants that exit 0 although they decode to another trace
# (by bits, as for EXPECTED_UNCAUGHT: a -0 over a stored 0 counts): lambda 21,
# f_bar 18, f_tilde 31 and grad_norm_tilde 40
EXPECTED_UNCAUGHT_CELLS = 110


def _mutate(rng, data: bytes) -> bytes:
    data = bytearray(data)
    for _ in range(rng.integers(1, 5)):
        at, edit = int(rng.integers(len(data))), rng.integers(3)
        if edit == 0:
            data[at] = rng.integers(256)
        elif edit == 1:
            data[at:at] = TOKENS[rng.integers(len(TOKENS))]
        else:
            del data[at:at + rng.integers(1, 9)]
    return bytes(data)


def _bits(trace: Trace) -> list:
    return [v.tobytes() + repr(v.shape).encode() if isinstance(v, np.ndarray) else v
            for v in (getattr(trace, f.name) for f in dataclasses.fields(trace))]


def test_damaged_inputs_end_in_an_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the config's outdir is relative
    Path("run.ini").write_bytes(CFG)
    assert main(["run", "run.ini"]) == 0
    written = next(Path("out").glob("*__aagd.csv"))
    original = {"csv": written.read_bytes(), "npy": Path(iterates_path(written)).read_bytes(),
                "config": CFG}
    want = _bits(read_csv(written))
    rng = np.random.default_rng(23)
    escapes, codes, uncaught = [], Counter(), 0
    for i in range(CASES):
        target = ("csv", "npy", "config")[i % 3]
        files = dict(original, **{target: _mutate(rng, original[target])})
        Path("case.csv").write_bytes(files["csv"])
        Path(iterates_path("case.csv")).write_bytes(files["npy"])
        Path("case.ini").write_bytes(files["config"])
        if target == "config":
            try:
                outdir = parse_config("case.ini").outdir
            except ValueError:
                outdir = None  # run refuses it before it writes
            # a mutant may not write outside this directory
            assert outdir is None or Path(outdir).resolve().is_relative_to(tmp_path), outdir
        argv = (["run", "case.ini"] if target == "config"
                else ["check", "case.csv", "--config", "run.ini"])
        capsys.readouterr()
        try:
            code = main(argv)
        except Exception as exc:
            escapes.append((i, target, repr(exc)))
            continue
        err = capsys.readouterr().err
        if "Traceback" in err:
            escapes.append((i, target, err))
        codes[code] += 1
        uncaught += code == 0 and target != "config" and _bits(read_csv("case.csv")) != want
    assert escapes == []
    assert set(codes) <= {0, 1, 2, 3}
    assert uncaught == EXPECTED_UNCAUGHT, codes


def test_damaged_cells_end_in_an_exit_code_without_a_warning(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the config's outdir is relative
    Path("run.ini").write_bytes(CELL_CFG)
    assert main(["run", "run.ini"]) == 0
    written = next(Path("out").glob("*__aagd.csv"))
    shutil.copyfile(iterates_path(written), iterates_path("case.csv"))
    lines = written.read_bytes().split(b"\r\n")
    header, want = lines[0].split(b","), _bits(read_csv(written))
    escapes, codes, uncaught = [], Counter(), Counter()
    for k, column, value in itertools.product(CELL_ROWS, range(len(header)), CELL_VALUES):
        cells = lines[1 + k].split(b",")
        cells[column] = value
        Path("case.csv").write_bytes(b"\r\n".join([*lines[:1 + k], b",".join(cells),
                                                    *lines[2 + k:]]))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(["check", "case.csv", "--config", "run.ini"])
        except Exception as exc:
            escapes.append((k, header[column], value, repr(exc)))
            continue
        codes[code] += 1
        if code == 0 and _bits(read_csv("case.csv")) != want:
            uncaught[header[column]] += 1
    assert escapes == []
    assert set(codes) <= {0, 1, 2}
    assert sum(uncaught.values()) == EXPECTED_UNCAUGHT_CELLS, (codes, uncaught)

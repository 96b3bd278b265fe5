"""Trace serialization: scalar columns to CSV, iterates to a .npy beside it.

The CSV's columns, in order: k, eta, H, alpha, beta, lambda, f_bar,
f_tilde, grad_norm_tilde, evals_cum. Floats are written with 17
significant digits so a parse of an emitted file reproduces every
non-nan value bit-exactly: a nan (lambda at k=0, the columns a baseline
does not use) is an empty cell, and +-inf (lambda where the estimator's
guard fired) is written as inf or -inf. Lines end in \r\n. A trace with
params (an aagd trace) ends with ``# theta=<theta> gamma=<gamma>``, which
the reader turns back into params with eta0 = eta[0].

A trace with iterates also writes ``<path>.npy``: one C-order float64
(3, K+1, d) array of x, x_bar and x_tilde, exact by construction. A trace
without them deletes that file, so none is left from an earlier write.

The reader parses the CSV with csv.reader and float(); the row numbers
of its messages skip blank lines, k must read 0, 1, ..., K, and no row
may follow the parameter line. It then checks the .npy file's header and
size against the CSV's rows before it reads the data; a header numpy cannot
parse is a schema error. A CSV with iterate columns, the layout before
the .npy file, is refused.
"""
from __future__ import annotations

import csv
import math
import os
import re
import tokenize
from operator import itemgetter
from pathlib import Path

import numpy as np

from .params import make_params
from .solver import _COLUMNS, _INT_COLUMNS, Trace

# the header names of the trace's scalar columns; only lam is renamed
SCALAR_COLUMNS = tuple("lambda" if name == "lam" else name for name in _COLUMNS)
# a row's integer cells, as text, in _INT_COLUMNS order
_int_cells = itemgetter(*(_COLUMNS.index(name) for name in _INT_COLUMNS))
_ITERATES = np.dtype("<f8")
_PARAMETER_LINE = re.compile(r"# theta=(\S*) gamma=(\S*)")


class TraceSchemaError(ValueError):
    pass


def iterates_path(path) -> str:
    """The file beside the trace CSV ``path`` that holds its iterates."""
    return os.fspath(path) + ".npy"


def write_csv(trace: Trace, path) -> None:
    # one format per row; only a nan formats as "nan", so deleting that
    # token empties exactly the nan cells
    line = ",".join("%d" if name in _INT_COLUMNS else "%.17g" for name in _COLUMNS) + "\r\n"
    rows = zip(*(getattr(trace, name).tolist() for name in _COLUMNS))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(SCALAR_COLUMNS) + "\r\n")
        for row in rows:
            fh.write((line % row).replace("nan", ""))
        if trace.params is not None:
            fh.write("# theta=%.17g gamma=%.17g\r\n" % (trace.params.theta, trace.params.gamma))
    if not trace.has_iterates:
        Path(iterates_path(path)).unlink(missing_ok=True)
        return
    with open(iterates_path(path), "wb") as fh:
        np.lib.format.write_array_header_1_0(fh, {
            "descr": _ITERATES.str, "fortran_order": False, "shape": (3, *trace.x.shape)})
        for block in (trace.x, trace.x_bar, trace.x_tilde):
            fh.write(np.ascontiguousarray(block, dtype=_ITERATES))


def _read_iterates(path, rows: int):
    """The (3, rows, d) array of the iterate file ``path``, or None if there is none."""
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return None
    with fh:
        try:  # np.save writes format 1.0 for a float64 array
            np.lib.format.read_magic(fh)
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
        except (ValueError, tokenize.TokenError) as exc:  # a damaged header (TokenError: unbalanced)
            raise TraceSchemaError(f"{path}: not an .npy array: {exc}")
        if dtype != _ITERATES:
            raise TraceSchemaError(f"{path}: dtype {dtype.str}, want {_ITERATES.str}")
        if fortran:
            raise TraceSchemaError(f"{path}: Fortran order, want C order")
        if len(shape) != 3 or shape[:2] != (3, rows):
            raise TraceSchemaError(f"{path}: shape {shape}, want (3, {rows}, d) "
                                   f"for the CSV's {rows} rows")
        count = math.prod(shape)
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != count * _ITERATES.itemsize:
            raise TraceSchemaError(f"{path}: {size} data bytes, want "
                                   f"{count * _ITERATES.itemsize} for shape {shape}")
        return np.fromfile(fh, dtype=_ITERATES, count=count).reshape(shape)


def _parameter_line(text: str) -> tuple[float, float]:
    match = _PARAMETER_LINE.fullmatch(text)
    if match is None:
        raise ValueError(f"parameter line {text!r}, want '# theta=<float> gamma=<float>'")
    return float(match[1]), float(match[2])


def read_csv(path) -> Trace:
    width = len(SCALAR_COLUMNS)
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TraceSchemaError("empty trace file")
        except csv.Error as exc:
            raise TraceSchemaError(f"row 1: {exc}")
        if tuple(header[:width]) != SCALAR_COLUMNS:
            raise TraceSchemaError(
                f"unexpected columns {header[:width]}, want {list(SCALAR_COLUMNS)}")
        if len(header) > width:
            raise TraceSchemaError(
                f"{len(header) - width} columns after evals_cum: iterates are stored in "
                f"{os.path.basename(iterates_path(path))} beside the CSV, not in its columns")
        # each row becomes a list of floats as it is read; only the integer
        # columns' text is kept, for the error message below
        rows, int_cells, theta_gamma = [], [], None
        try:
            for row in reader:
                if not row:
                    continue
                if len(row) != width:
                    if row[0].startswith("#"):
                        theta_gamma = _parameter_line(",".join(row))
                        if any(reader):  # a row that is not blank
                            raise ValueError("a row after the parameter line")
                        break
                    raise ValueError(f"expected {width} cells, got {len(row)}")
                rows.append([math.nan if c == "" else float(c) for c in row])
                int_cells.append(_int_cells(row))
        except (ValueError, csv.Error) as exc:  # csv.Error: a cell over csv.field_size_limit()
            raise TraceSchemaError(f"row {len(rows) + 2 + (theta_gamma is not None)}: {exc}")
    if not rows:
        raise TraceSchemaError("trace file has no rows")

    table = np.array(rows)
    cols = {name: table[:, j].copy() for j, name in enumerate(_COLUMNS)}
    for j, name in enumerate(_INT_COLUMNS):
        v = cols[name]
        bad = ~((np.abs(v) < 2.0**53) & (v == np.trunc(v)))
        if bad.any():
            r = int(bad.argmax())
            raise TraceSchemaError(f"row {r + 2}: {name} must be an integer below 2**53 in "
                                   f"magnitude, got {int_cells[r][j]!r}")
        cols[name] = v.astype(np.int64)
    off = cols["k"] != np.arange(len(table))
    if off.any():
        r = int(off.argmax())
        raise TraceSchemaError(f"row {r + 2}: k must be {r}, got {cols['k'][r]}")
    blocks = _read_iterates(iterates_path(path), len(table))
    x, x_bar, x_tilde = (None, None, None) if blocks is None else blocks
    params = None if theta_gamma is None else make_params(*theta_gamma, eta0=float(cols["eta"][0]))
    return Trace(**cols, x=x, x_bar=x_bar, x_tilde=x_tilde, params=params)

"""Trace serialization to CSV.

Columns, in order: k, eta, H, alpha, beta, lambda, f_bar, f_tilde,
grad_norm_tilde, evals_cum, then x_0..x_{d-1}, xbar_0.., xtilde_0..
when the trace stores iterates. Floats are written with 17 significant
digits so a parse of an emitted file reproduces every non-nan value
bit-exactly: a nan (lambda at k=0, the columns a baseline does not use)
is an empty cell, and +-inf (lambda where the estimator's guard fired,
an overflowed iterate) is written as inf or -inf. Lines end in \r\n,
as csv.writer writes them.

The reader streams: it checks the header first, then parses each row as
csv.reader yields it into one float64 array, and stacks those arrays
into the columns at the end. It never holds the file's cells as text,
except the k and evals_cum cells that its integer-column error quotes.
The k column must read 0, 1, ..., K, one row per iteration.
"""
from __future__ import annotations

import csv
import math
from operator import itemgetter

import numpy as np

from .solver import _COLUMNS, _INT_COLUMNS, Trace

# the header names of the trace's scalar columns; only lam is renamed
SCALAR_COLUMNS = tuple("lambda" if name == "lam" else name for name in _COLUMNS)
# a row's integer cells, as text, in _INT_COLUMNS order
_int_cells = itemgetter(*(_COLUMNS.index(name) for name in _INT_COLUMNS))


class TraceSchemaError(ValueError):
    pass


def write_csv(trace: Trace, path) -> None:
    d = trace.x.shape[1] if trace.has_iterates else 0
    header = list(SCALAR_COLUMNS) + [f"{block}_{i}" for block in ("x", "xbar", "xtilde")
                                     for i in range(d)]
    # one format per row; only a nan formats as "nan", so deleting that
    # token empties exactly the nan cells
    line = (",".join("%d" if name in _INT_COLUMNS else "%.17g" for name in _COLUMNS)
            + ",%.17g" * (3 * d) + "\r\n")
    rows = zip(*(getattr(trace, name).tolist() for name in _COLUMNS))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for r, row in enumerate(rows):
            if d:
                row += (*trace.x[r].tolist(), *trace.x_bar[r].tolist(),
                        *trace.x_tilde[r].tolist())
            fh.write((line % row).replace("nan", ""))


def read_csv(path) -> Trace:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TraceSchemaError("empty trace file")
        except csv.Error as exc:
            raise TraceSchemaError(f"row 1: {exc}")
        if tuple(header[: len(SCALAR_COLUMNS)]) != SCALAR_COLUMNS:
            raise TraceSchemaError(
                f"unexpected columns {header[:len(SCALAR_COLUMNS)]}, "
                f"want {list(SCALAR_COLUMNS)}"
            )
        extra = header[len(SCALAR_COLUMNS):]
        d, width = len(extra) // 3, len(header)
        if extra:
            if len(extra) % 3 != 0:
                raise TraceSchemaError("iterate columns must come in three blocks")
            if extra != [f"{block}_{i}" for block in ("x", "xbar", "xtilde") for i in range(d)]:
                raise TraceSchemaError("unexpected iterate column names")
        # each row becomes one float64 array as it is read; only the integer
        # columns' text is kept, for the error message below
        rows, int_cells = [], []
        try:
            for row in reader:
                if not row:
                    continue
                if len(row) != width:
                    raise ValueError(f"expected {width} cells, got {len(row)}")
                rows.append(np.array([math.nan if c == "" else float(c) for c in row]))
                int_cells.append(_int_cells(row))
        except (ValueError, csv.Error) as exc:  # csv.Error: a cell over csv.field_size_limit()
            raise TraceSchemaError(f"row {len(rows) + 2}: {exc}")
    if not rows:
        raise TraceSchemaError("trace file has no rows")

    table = np.vstack(rows)
    del rows  # free the row arrays before the columns are copied out
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
    base = len(SCALAR_COLUMNS)
    x, x_bar, x_tilde = ((table[:, base + i * d:base + (i + 1) * d].copy() for i in range(3))
                         if extra else (None, None, None))

    return Trace(**cols, x=x, x_bar=x_bar, x_tilde=x_tilde)

"""Trace serialization to CSV.

Columns, in order: k, eta, H, alpha, beta, lambda, f_bar, f_tilde,
grad_norm_tilde, evals_cum, then x_0..x_{d-1}, xbar_0.., xtilde_0..
when the trace stores iterates. Floats are written with 17 significant
digits so a parse of an emitted file reproduces every non-nan value
bit-exactly: a nan (lambda at k=0, the columns a baseline does not use)
is an empty cell, and +-inf (lambda where the estimator's guard fired,
an overflowed iterate) is written as inf or -inf. Lines end in \r\n,
as csv.writer writes them.

The reader streams: after the header, np.loadtxt's C parser, which
rounds like float(), reads the data rows one line at a time into one
float64 table. Per line the reader only skips blanks, counts cells,
writes nan into empty cells and keeps the k and evals_cum text that its
integer-column error quotes; csv.reader splits a line with a quote or
over csv.field_size_limit(). Row numbers and messages are those of
csv.reader and float(), but the spellings only float() takes (1_0,
non-ASCII digits) are refused, and loadtxt strips the control characters
0x1c-0x1f around a number, which float() refuses. The k column must
read 0, 1, ..., K, one row per iteration.
"""
from __future__ import annotations

import csv
import re
from itertools import chain
from operator import itemgetter

import numpy as np

from .solver import _COLUMNS, _INT_COLUMNS, Trace

# the header names of the trace's scalar columns; only lam is renamed
SCALAR_COLUMNS = tuple("lambda" if name == "lam" else name for name in _COLUMNS)
# a row's integer cells, as text, in _INT_COLUMNS order
_int_cells = itemgetter(*(_COLUMNS.index(name) for name in _INT_COLUMNS))
# a csv cell as loadtxt text: a comma, never part of a float, still fails to
# convert, and a line break is whitespace, which both float() and loadtxt strip
_LOADTXT_CELL = str.maketrans({",": "x", "\r": " ", "\n": " "})
# the 1-based column that loadtxt names when a cell does not convert
_COLUMN = re.compile(r"column (\d+)")


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
        limit = csv.field_size_limit()
        int_cells = []  # the integer columns' text, for the error message below
        last = None  # the file row and text of the line loadtxt was given last

        def lines():
            """Each data row as one loadtxt line; loadtxt pulls a line only when it
            parses it, so the rows are checked in file order."""
            nonlocal last
            row = 2
            try:
                for line in fh:
                    if '"' in line or len(line) > limit:
                        # quoting, a record over several lines and the field limit stay csv's
                        raw = cells = next(csv.reader(chain((line,), fh)))
                        n = len(cells)
                        text = ",".join(c.translate(_LOADTXT_CELL) or "nan" for c in cells)
                    else:
                        raw = text = line.rstrip("\r\n")
                        if not text:
                            continue
                        n = text.count(",") + 1
                        cells = text.split(",", len(SCALAR_COLUMNS))
                        padded = f",{text},"
                        if ",," in padded:  # empty cells; the second pass fills what a run leaves
                            text = padded.replace(",,", ",nan,").replace(",,", ",nan,")[1:-1]
                    if n != width:
                        raise ValueError(f"expected {width} cells, got {n}")
                    int_cells.append(_int_cells(cells))
                    last = row, raw
                    yield text
                    row += 1
            except (ValueError, csv.Error) as exc:  # csv.Error: a cell over the field limit
                raise TraceSchemaError(f"row {row}: {exc}")

        body = lines()
        first = next(body, None)  # loadtxt warns when it gets no line at all
        if first is None:
            raise TraceSchemaError("trace file has no rows")
        try:
            table = np.loadtxt(chain((first,), body), delimiter=",", comments=None, ndmin=2)
        except TraceSchemaError:  # from lines(): the row that ended the read
            raise
        except ValueError as exc:  # a cell that loadtxt names by its column
            row, raw = last
            cells = raw.split(",") if isinstance(raw, str) else raw
            cell = cells[int(_COLUMN.search(str(exc))[1]) - 1]
            raise TraceSchemaError(f"row {row}: could not convert string to float: {cell!r}")

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

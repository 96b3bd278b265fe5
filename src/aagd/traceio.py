"""Trace serialization to CSV.

Columns, in order: k, eta, H, alpha, beta, lambda, f_bar, f_tilde,
grad_norm_tilde, evals_cum, then x_0..x_{d-1}, xbar_0.., xtilde_0..
when the trace stores iterates. Floats are written with 17 significant
digits so a parse of an emitted file reproduces every finite value
bit-exactly. Every non-finite value (lambda on the estimator's infinite
branch or at k=0, the columns a baseline does not use, an overflowed
iterate) is an empty cell, so nan and +-inf all read back as nan. Lines
end in \r\n, as csv.writer writes them.
"""
from __future__ import annotations

import csv
import math

import numpy as np

from .solver import Trace

SCALAR_COLUMNS = ("k", "eta", "H", "alpha", "beta", "lambda", "f_bar",
                  "f_tilde", "grad_norm_tilde", "evals_cum")
_INT_COLUMNS = ("k", "evals_cum")


class TraceSchemaError(ValueError):
    pass


def write_csv(trace: Trace, path) -> None:
    d = trace.x.shape[1] if trace.has_iterates else 0
    header = list(SCALAR_COLUMNS) + [f"{block}_{i}" for block in ("x", "xbar", "xtilde")
                                     for i in range(d)]
    # one format per row; a finite %.17g never contains "inf" or "nan", so
    # deleting those tokens empties exactly the non-finite cells
    line = "%d" + ",%.17g" * 8 + ",%d" + ",%.17g" * (3 * d) + "\r\n"
    rows = zip(trace.k.tolist(), trace.eta.tolist(), trace.H.tolist(), trace.alpha.tolist(),
               trace.beta.tolist(), trace.lam.tolist(), trace.f_bar.tolist(),
               trace.f_tilde.tolist(), trace.grad_norm_tilde.tolist(), trace.evals_cum.tolist())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for r, row in enumerate(rows):
            if d:
                row += (*trace.x[r].tolist(), *trace.x_bar[r].tolist(),
                        *trace.x_tilde[r].tolist())
            fh.write((line % row).replace("-inf", "").replace("inf", "").replace("nan", ""))


def _parse_float(cell: str) -> float:
    return math.nan if cell == "" else float(cell)


def read_csv(path) -> Trace:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TraceSchemaError("empty trace file")
        rows = [row for row in reader if row]

    if tuple(header[: len(SCALAR_COLUMNS)]) != SCALAR_COLUMNS:
        raise TraceSchemaError(
            f"unexpected columns {header[:len(SCALAR_COLUMNS)]}, "
            f"want {list(SCALAR_COLUMNS)}"
        )
    extra = header[len(SCALAR_COLUMNS):]
    d, has_iterates = len(extra) // 3, bool(extra)
    if extra:
        if len(extra) % 3 != 0:
            raise TraceSchemaError("iterate columns must come in three blocks")
        if extra != [f"{block}_{i}" for block in ("x", "xbar", "xtilde") for i in range(d)]:
            raise TraceSchemaError("unexpected iterate column names")
    if not rows:
        raise TraceSchemaError("trace file has no rows")

    n = len(rows)
    cols = {name: np.empty(n) for name in SCALAR_COLUMNS}
    x = np.empty((n, d)) if has_iterates else None
    x_bar = np.empty((n, d)) if has_iterates else None
    x_tilde = np.empty((n, d)) if has_iterates else None
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise TraceSchemaError(f"row {r + 2}: expected {len(header)} cells, got {len(row)}")
        try:
            for j, name in enumerate(SCALAR_COLUMNS):
                cols[name][r] = _parse_float(row[j])
            if has_iterates:
                base = len(SCALAR_COLUMNS)
                x[r] = [_parse_float(c) for c in row[base:base + d]]
                x_bar[r] = [_parse_float(c) for c in row[base + d:base + 2 * d]]
                x_tilde[r] = [_parse_float(c) for c in row[base + 2 * d:base + 3 * d]]
        except ValueError as exc:
            raise TraceSchemaError(f"row {r + 2}: {exc}")
    for name in _INT_COLUMNS:
        v, j = cols[name], SCALAR_COLUMNS.index(name)
        bad = ~((np.abs(v) < 2.0**53) & (v == np.trunc(v)))
        if bad.any():
            r = int(bad.argmax())
            raise TraceSchemaError(f"row {r + 2}: {name} must be an integer below 2**53 in "
                                   f"magnitude, got {rows[r][j]!r}")
        cols[name] = v.astype(np.int64)

    return Trace(
        k=cols["k"], eta=cols["eta"], H=cols["H"], alpha=cols["alpha"], beta=cols["beta"],
        lam=cols["lambda"], f_bar=cols["f_bar"], f_tilde=cols["f_tilde"],
        grad_norm_tilde=cols["grad_norm_tilde"], evals_cum=cols["evals_cum"],
        x=x, x_bar=x_bar, x_tilde=x_tilde,
    )

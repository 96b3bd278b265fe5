import dataclasses
import hashlib
import math
import os
import re
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from aagd import (GOLDEN_RATIO, BaselineMethod, StopRule, Trace, default_params,
                  identity_quadratic, lemma_suite, logsumexp_problem, make_params, read_csv, run,
                  run_baseline, run_certificates, write_csv)
from aagd.traceio import SCALAR_COLUMNS, TraceSchemaError, _read_iterates, iterates_path


def _assert_scalar_equal(a, b):
    assert np.array_equal(a, b, equal_nan=True)


def test_round_trip_bit_exact_with_iterates(tmp_path):
    p = identity_quadratic(4)
    tr = run(p.oracle, np.ones(4), default_params(eta0=0.1),
             StopRule(max_iters=60), store_iterates=True)
    path = tmp_path / "t.csv"
    write_csv(tr, path)
    back = read_csv(path)
    for name in ("eta", "H", "alpha", "beta", "lam", "f_bar", "f_tilde",
                 "grad_norm_tilde"):
        _assert_scalar_equal(getattr(back, name), getattr(tr, name))
    assert np.array_equal(back.k, tr.k)
    assert np.array_equal(back.evals_cum, tr.evals_cum)
    assert np.array_equal(back.x, tr.x)
    assert np.array_equal(back.x_bar, tr.x_bar)
    assert np.array_equal(back.x_tilde, tr.x_tilde)


def test_round_trip_baseline_trace(tmp_path):
    p = identity_quadratic(3)
    tr = run_baseline(BaselineMethod(kind="gd", eta=0.3), p.oracle, np.ones(3),
                      StopRule(max_iters=20))
    path = tmp_path / "b.csv"
    write_csv(tr, path)
    back = read_csv(path)
    for name in ("eta", "H", "alpha", "beta", "lam", "f_bar", "f_tilde",
                 "grad_norm_tilde"):
        _assert_scalar_equal(getattr(back, name), getattr(tr, name))


def test_header_and_empty_lambda_cell(tmp_path):
    p = identity_quadratic(2)
    tr = run(p.oracle, np.ones(2), default_params(eta0=0.1), StopRule(max_iters=3))
    path = tmp_path / "t.csv"
    write_csv(tr, path)
    lines = path.read_text().splitlines()
    assert lines[0].split(",")[:10] == list(SCALAR_COLUMNS)
    # lambda is undefined at k=0: empty cell
    assert lines[1].split(",")[5] == ""


def test_seventeen_digit_round_trip(tmp_path):
    # an unfriendly float must survive exactly
    p = identity_quadratic(1)
    tr = run(p.oracle, np.array([0.1 + 1e-17]), default_params(eta0=1.0 / 3.0),
             StopRule(max_iters=2), store_iterates=True)
    path = tmp_path / "t.csv"
    write_csv(tr, path)
    back = read_csv(path)
    assert back.eta[0] == 1.0 / 3.0
    assert np.array_equal(back.x, tr.x)


def test_schema_rejects_wrong_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(TraceSchemaError):
        read_csv(path)


def test_schema_rejects_ragged_rows(tmp_path):
    p = identity_quadratic(2)
    tr = run(p.oracle, np.ones(2), default_params(eta0=0.1), StopRule(max_iters=2))
    path = tmp_path / "t.csv"
    write_csv(tr, path)
    lines = path.read_text().splitlines()
    lines[1] += ",42"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceSchemaError):
        read_csv(path)


def test_schema_rejects_bad_iterate_block(tmp_path):
    # a CSV in the old layout, iterate cells and all, with a misnamed iterate
    # column is refused by the column count before any name is looked at
    path, lines = _small_csv(tmp_path, store_iterates=False)
    lines[0] += ",x_0,x_1,xbar_0,xbar_1,xtilde_0,oops_1"
    lines[1:] = [line + ",1,1,1,1,1,1" for line in lines[1:]]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceSchemaError, match="^6 columns after evals_cum: "):
        read_csv(path)


def test_schema_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(TraceSchemaError):
        read_csv(path)


# sha256 of the bytes write_csv emits, recorded with the csv.writer-based
# writer ("special" since +-inf cells are written as inf and -inf, "aagd"
# and "special" since the iterates went to the .npy file beside the CSV,
# whose bytes PINNED_ITERATE_BYTES pins, "aagd" since it ends with its
# parameter line); like the trace pins in
# test_driver.py they assume numpy 2.4 with its bundled OpenBLAS on x86-64
PINNED_BYTES = {
    "aagd":
        "a0ea87521f0857e07174681c17add9901a5c5326539988f91f8838821eb91ede",
    "gd":
        "ca864fe6dc2845aa5d9c72dc6de39ff10ddeb7a883b42a6c23bbf4101f41f81b",
    "agd":
        "a1244cfa9d3180502e95bbabce76b63f26f78632de21aef28e190d4ea27066ae",
    "adgd":
        "51182981ade9864dde7055895268d837d6c05b89675a5ce4f4270d226a5f3884",
    "adagrad":
        "b75ee94779f53d47f1beafc0c8b08d3d75255376551182bc101425bde5ceb0cc",
    "bb":
        "76f79066579d5507ea4a4e77baea767b33acd0070355cd6605aaed9d98c8a5a5",
    "special":
        "12e44e1679ea879cde2ff2bdcf312aaca5b8a67a107d0eb8d099826cabb53d9e",
}
PINNED_ITERATE_BYTES = {
    "aagd":
        "f409d7383c5a1912e419add6ab1fd769814c3fed3dbc13e0dd7dd41b2eaa81ab",
    "special":
        "9ae6b1011803b744b743bc3de95abf91475befa270511fcc99448ae69e4227e2",
}

SPECIAL = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e308, 0.1 + 1e-17]


def special_trace():
    """Every scalar and iterate column cycles through SPECIAL."""
    n, d = len(SPECIAL), 3
    col = np.array(SPECIAL)
    block = np.array([[SPECIAL[(r + 2 * j) % n] for j in range(d)] for r in range(n)])
    return Trace(k=np.arange(n), eta=col, H=np.roll(col, 1), alpha=np.roll(col, 2),
                 beta=np.roll(col, 3), lam=np.roll(col, 4), f_bar=np.roll(col, 5),
                 f_tilde=np.roll(col, 6), grad_norm_tilde=-col,
                 evals_cum=2 * np.arange(n) + 1, x=block, x_bar=-block,
                 x_tilde=block[::-1].copy())


def pinned_bytes_trace(name):
    if name == "special":
        return special_trace()
    p = logsumexp_problem(1, 40, 100, 0.1)
    x0 = np.ones(40)
    stop = StopRule(max_iters=300)
    if name == "aagd":
        return run(p.oracle, x0, default_params(eta0=1e-6), stop, store_iterates=True)
    method = {
        "gd": BaselineMethod(kind="gd", eta=1.0 / p.L),
        "agd": BaselineMethod(kind="agd", eta=1.0 / p.L),
        "adgd": BaselineMethod(kind="adgd", eta0=1e-6),
        "adagrad": BaselineMethod(kind="adagrad", eta=1.0),
        "bb": BaselineMethod(kind="bb", eta0=1e-6),
    }[name]
    return run_baseline(method, p.oracle, x0, stop)


@pytest.mark.parametrize("name", sorted(PINNED_BYTES))
def test_written_bytes_pinned(tmp_path, name):
    path = tmp_path / "t.csv"
    write_csv(pinned_bytes_trace(name), path)
    data = path.read_bytes()
    assert data.endswith(b"\r\n")
    assert hashlib.sha256(data).hexdigest() == PINNED_BYTES[name]
    assert os.path.exists(iterates_path(path)) == (name in PINNED_ITERATE_BYTES)


@pytest.mark.parametrize("name", sorted(PINNED_ITERATE_BYTES))
def test_iterate_bytes_pinned(tmp_path, name):
    # the streamed file is the one np.save writes for the stacked blocks
    path = tmp_path / "t.csv"
    tr = pinned_bytes_trace(name)
    write_csv(tr, path)
    with open(iterates_path(path), "rb") as fh:
        data = fh.read()
    assert hashlib.sha256(data).hexdigest() == PINNED_ITERATE_BYTES[name]
    np.save(tmp_path / "stacked.npy", np.stack([tr.x, tr.x_bar, tr.x_tilde]))
    assert (tmp_path / "stacked.npy").read_bytes() == data


def test_nan_cells_are_empty_and_inf_cells_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    tr = special_trace()
    write_csv(tr, path)
    text = path.read_text()
    assert "nan" not in text and ",inf," in text and ",-inf," in text
    back = read_csv(path)
    for name in ("eta", "H", "alpha", "beta", "lam", "f_bar", "f_tilde",
                 "grad_norm_tilde"):
        want = getattr(tr, name)
        got = getattr(back, name)
        assert np.array_equal(got, want, equal_nan=True)
        # -0.0, the subnormal and +-inf keep their bits; an empty cell reads as +nan
        assert np.array_equal(np.signbit(got), np.signbit(want) & ~np.isnan(want))
    for name in ("x", "x_bar", "x_tilde"):
        # the .npy file keeps every bit, the sign of a nan included
        assert getattr(back, name).tobytes() == getattr(tr, name).tobytes()


def test_trace_without_iterates_deletes_the_old_iterate_file(tmp_path):
    path, _ = _small_csv(tmp_path)
    assert read_csv(path).has_iterates
    p = identity_quadratic(2)
    gd = run_baseline(BaselineMethod(kind="gd", eta=0.3), p.oracle, np.ones(2),
                      StopRule(max_iters=4))
    write_csv(gd, path)
    assert not os.path.exists(iterates_path(path))
    back = read_csv(path)
    assert not back.has_iterates
    _assert_scalar_equal(back.eta, gd.eta)


def test_damaged_iterate_file_is_a_schema_error(tmp_path, iterate_damage):
    path, _ = _small_csv(tmp_path)
    message = iterate_damage(tmp_path / "t.csv.npy")
    with pytest.raises(TraceSchemaError, match=f"^{re.escape(message)}$"):
        read_csv(path)


def test_write_csv_streams_rows(tmp_path):
    # one float64 copy of the three iterate blocks is the limit: a writer
    # that builds the whole table or the whole file in memory exceeds it
    K, d = 2000, 40
    rng = np.random.default_rng(0)
    scalars = rng.standard_normal((8, K + 1))
    tr = Trace(k=np.arange(K + 1), eta=scalars[0], H=scalars[1], alpha=scalars[2],
               beta=scalars[3], lam=scalars[4], f_bar=scalars[5], f_tilde=scalars[6],
               grad_norm_tilde=scalars[7], evals_cum=2 * np.arange(K + 1) + 1,
               x=rng.standard_normal((K + 1, d)), x_bar=rng.standard_normal((K + 1, d)),
               x_tilde=rng.standard_normal((K + 1, d)))
    tracemalloc.start()
    try:
        write_csv(tr, tmp_path / "big.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * K * d * 8


def test_write_csv_of_strided_iterates(tmp_path):
    # a run's iterates are strided views of one (K+1, 3, d) buffer: the
    # writer gives the bytes of contiguous copies and copies one block at a time
    K, d = 2000, 40
    tr = run(logsumexp_problem(1, d, 100, 0.1).oracle, np.ones(d), default_params(eta0=1e-6),
             StopRule(max_iters=K), store_iterates=True)
    assert tr.n_iters == K and not tr.x.flags.c_contiguous
    tracemalloc.start()
    try:
        write_csv(tr, tmp_path / "views.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * K * d * 8
    copies = dataclasses.replace(tr, **{name: np.ascontiguousarray(getattr(tr, name))
                                        for name in ("x", "x_bar", "x_tilde")})
    write_csv(copies, tmp_path / "copies.csv")
    for suffix in ("csv", "csv.npy"):
        assert ((tmp_path / f"views.{suffix}").read_bytes()
                == (tmp_path / f"copies.{suffix}").read_bytes()), suffix


def test_header_only_file_has_no_rows(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(",".join(SCALAR_COLUMNS) + "\r\n")
    with pytest.raises(TraceSchemaError, match="^trace file has no rows$"):
        read_csv(path)


@pytest.mark.parametrize("column", [0, 9])
@pytest.mark.parametrize("cell", ["", "3.7", "1e30", "-1e30", "9007199254740992", "inf"])
def test_integer_columns_reject_non_integers(tmp_path, column, cell):
    p = identity_quadratic(2)
    tr = run(p.oracle, np.ones(2), default_params(eta0=0.1), StopRule(max_iters=4))
    path = tmp_path / "t.csv"
    write_csv(tr, path)
    lines = path.read_text().splitlines()
    row = lines[3].split(",")
    row[column] = cell
    lines[3] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    name = SCALAR_COLUMNS[column]
    with pytest.raises(TraceSchemaError, match=f"^row 4: {name} must be an integer") as info:
        read_csv(path)
    assert repr(cell) in str(info.value)


def test_integer_columns_accept_large_exact_integers(tmp_path):
    p = identity_quadratic(2)
    tr = run(p.oracle, np.ones(2), default_params(eta0=0.1), StopRule(max_iters=2))
    tr.evals_cum[:] = [2**53 - 1, -(2**53 - 1), 0]
    path = tmp_path / "t.csv"
    write_csv(tr, path)
    assert np.array_equal(read_csv(path).evals_cum, tr.evals_cum)


def _small_csv(tmp_path, store_iterates=True):
    """A d=2 aagd trace of four iterations and its CSV lines."""
    p = identity_quadratic(2)
    tr = run(p.oracle, np.ones(2), default_params(eta0=0.1), StopRule(max_iters=4),
             store_iterates=store_iterates)
    path = tmp_path / "t.csv"
    write_csv(tr, path)
    return path, path.read_text().splitlines()


def _edit_cell(lines, line, column, cell):
    row = lines[line].split(",")
    row[column] = cell
    lines[line] = ",".join(row)


def _assert_traces_equal(a, b):
    for name in ("k", "eta", "H", "alpha", "beta", "lam", "f_bar", "f_tilde",
                 "grad_norm_tilde", "evals_cum", "x", "x_bar", "x_tilde"):
        u, v = getattr(a, name), getattr(b, name)
        assert u.dtype == v.dtype and u.shape == v.shape
        assert np.array_equal(u, v, equal_nan=True)
        assert np.array_equal(np.signbit(u), np.signbit(v))


def _schema_case(tmp_path, case):
    path, lines = _small_csv(tmp_path)
    header = ",".join(SCALAR_COLUMNS)
    if case == "empty file":
        path.write_text("")
    elif case == "wrong columns":
        path.write_text("a,b,c\n1,2,3\n")
    elif case == "old layout":
        lines[0] += ",x_0,x_1,xbar_0,xbar_1,xtilde_0,xtilde_1"
        path.write_text("\n".join(lines) + "\n")
    elif case == "blocks not in threes":
        path.write_text(header + ",x_0,x_1\n")
    elif case == "wrong iterate names":
        lines[0] += ",x_0,x_1,xbar_0,xbar_1,xtilde_0,oops_1"
        path.write_text("\n".join(lines) + "\n")
    elif case == "ragged row":
        lines[2] += ",42"
        path.write_text("\n".join(lines) + "\n")
    elif case == "non-numeric cell":
        _edit_cell(lines, 3, 6, "abc")
        path.write_text("\n".join(lines) + "\n")
    elif case == "no rows":
        path.write_text(header + "\r\n")
    elif case == "bad integer column":
        _edit_cell(lines, 4, 0, "3.7")
        path.write_text("\n".join(lines) + "\n")
    return path


SCHEMA_MESSAGES = {
    "empty file": "empty trace file",
    "wrong columns": f"unexpected columns ['a', 'b', 'c'], want {list(SCALAR_COLUMNS)}",
    "old layout": "6 columns after evals_cum: iterates are stored in t.csv.npy "
                  "beside the CSV, not in its columns",
    # iterate columns of the old layout are refused whatever their count or names
    "blocks not in threes": "2 columns after evals_cum: iterates are stored in "
                            "t.csv.npy beside the CSV, not in its columns",
    "wrong iterate names": "6 columns after evals_cum: iterates are stored in "
                           "t.csv.npy beside the CSV, not in its columns",
    "ragged row": "row 3: expected 10 cells, got 11",
    "non-numeric cell": "row 4: could not convert string to float: 'abc'",
    "no rows": "trace file has no rows",
    "bad integer column":
        "row 5: k must be an integer below 2**53 in magnitude, got '3.7'",
}


@pytest.mark.parametrize("case", sorted(SCHEMA_MESSAGES))
def test_schema_error_messages_pinned(tmp_path, case):
    path = _schema_case(tmp_path, case)
    with pytest.raises(TraceSchemaError, match=f"^{re.escape(SCHEMA_MESSAGES[case])}$"):
        read_csv(path)


@pytest.mark.parametrize("edit,message", [
    (lambda lines: lines[:3] + lines[4:], "row 4: k must be 2, got 3"),
    (lambda lines: lines[:4] + lines[3:], "row 5: k must be 3, got 2"),
    (lambda lines: lines[:1] + lines[2:], "row 2: k must be 0, got 1"),
], ids=["gap", "repeat", "first_k_1"])
def test_k_column_must_count_the_rows(tmp_path, edit, message):
    path, lines = _small_csv(tmp_path)
    path.write_text("\n".join(edit(lines)) + "\n")
    with pytest.raises(TraceSchemaError, match=f"^{message}$"):
        read_csv(path)


def test_rows_are_checked_in_file_order(tmp_path):
    # a ragged row before a non-numeric one is reported, and a bad integer
    # column is reported only after every row has parsed
    path, lines = _small_csv(tmp_path)
    _edit_cell(lines, 4, 6, "abc")
    lines[3] += ",1"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceSchemaError, match="^row 4: expected 10 cells, got 11$"):
        read_csv(path)
    path, lines = _small_csv(tmp_path)
    _edit_cell(lines, 2, 9, "3.7")
    _edit_cell(lines, 5, 6, "abc")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceSchemaError, match="^row 6: could not convert"):
        read_csv(path)


def test_header_is_checked_before_any_row(tmp_path):
    path, lines = _small_csv(tmp_path)
    lines[0] += ",x_0"
    lines[2] += ",42"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceSchemaError, match="^1 columns after evals_cum"):
        read_csv(path)


def test_newline_endings_read_as_crlf(tmp_path):
    path, lines = _small_csv(tmp_path)
    want = read_csv(path)
    path.write_text("\n".join(lines) + "\n")
    assert b"\r" not in path.read_bytes()
    _assert_traces_equal(read_csv(path), want)


def test_blank_lines_are_skipped_and_not_counted(tmp_path):
    path, lines = _small_csv(tmp_path)
    want = read_csv(path)
    spaced = [lines[0], ""] + [s for line in lines[1:] for s in (line, "")]
    path.write_text("\r\n".join(spaced) + "\r\n")
    _assert_traces_equal(read_csv(path), want)
    _edit_cell(spaced, 6, 6, "abc")  # the third data row
    path.write_text("\r\n".join(spaced) + "\r\n")
    with pytest.raises(TraceSchemaError, match="^row 4: could not convert"):
        read_csv(path)


def test_quoted_numeric_cell_reads_as_its_value(tmp_path):
    path, lines = _small_csv(tmp_path)
    want = read_csv(path)
    row = lines[2].split(",")
    row[0], row[1], row[6] = f'"{row[0]}"', f'"{row[1]}"', f'"{row[6]}"'
    lines[2] = ",".join(row)
    path.write_text("\r\n".join(lines) + "\r\n")
    _assert_traces_equal(read_csv(path), want)


def test_read_csv_streams_rows(tmp_path):
    # the reader holds one float64 array per row and then the returned
    # columns: a reader that keeps every cell as a string exceeds 3x
    K, d = 2000, 40
    rng = np.random.default_rng(0)
    scalars = rng.standard_normal((8, K + 1))
    tr = Trace(k=np.arange(K + 1), eta=scalars[0], H=scalars[1], alpha=scalars[2],
               beta=scalars[3], lam=scalars[4], f_bar=scalars[5], f_tilde=scalars[6],
               grad_norm_tilde=scalars[7], evals_cum=2 * np.arange(K + 1) + 1,
               x=rng.standard_normal((K + 1, d)), x_bar=rng.standard_normal((K + 1, d)),
               x_tilde=rng.standard_normal((K + 1, d)))
    path = tmp_path / "big.csv"
    write_csv(tr, path)
    tracemalloc.start()
    try:
        back = read_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _assert_traces_equal(back, tr)
    returned = sum(getattr(back, name).nbytes for name in (
        "k", "eta", "H", "alpha", "beta", "lam", "f_bar", "f_tilde", "grad_norm_tilde",
        "evals_cum", "x", "x_bar", "x_tilde"))
    assert peak < 3 * returned


@pytest.mark.parametrize("line", [0, 3])
def test_cell_over_the_csv_field_limit_is_a_schema_error(tmp_path, line):
    # csv.reader refuses a cell over csv.field_size_limit() (131072 characters)
    path, lines = _small_csv(tmp_path)
    _edit_cell(lines, line, 6, "1" * 140001)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceSchemaError, match=f"^row {line + 1}: field larger than field limit"):
        read_csv(path)


# spellings float() accepts; a trace cell holding one must read to float(cell)'s bits
FLOAT_SPELLINGS = [" 1.5", "1.5 ", "+1.5", "1.", ".5", "1E5", "Infinity", "-0", "1e500",
                   "-1e-400", "4.9406564584124654e-324", '"2.5"', "1_0", "\u0661"]


@pytest.mark.parametrize("cell", FLOAT_SPELLINGS)
def test_cell_spellings_read_to_the_bits_of_float(tmp_path, cell):
    path, lines = _small_csv(tmp_path)
    _edit_cell(lines, 3, 6, cell)
    path.write_text("\r\n".join(lines) + "\r\n", encoding="utf-8")
    got = read_csv(path).f_bar[2]
    assert got.tobytes() == np.float64(float(cell.strip('"'))).tobytes()


@pytest.mark.parametrize("cell,shown", [
    ("1#5", "1#5"), (" ", " "), ("0x10", "0x10"), ('"1,5"', "1,5"), ('"1\r\n5"', "1\r\n5"),
    ('"\n"', "\n"), ('"1""5"', '1"5'), ("1\x005", "1\x005"), ("\x1c1.5", "\x1c1.5"),
    ("1.5\x1f", "1.5\x1f"),
])
def test_cells_that_are_not_floats_are_named(tmp_path, cell, shown):
    # a comment sign, a quoted separator or line break, a quote and a NUL
    # are plain text inside one cell, and float() strips no control
    # character 0x1c-0x1f around a number
    path, lines = _small_csv(tmp_path)
    _edit_cell(lines, 3, 6, cell)
    path.write_text("\r\n".join(lines) + "\r\n", encoding="utf-8")
    message = f"row 4: could not convert string to float: {shown!r}"
    with pytest.raises(TraceSchemaError, match=f"^{re.escape(message)}$"):
        read_csv(path)


def test_quoted_record_over_several_lines_is_one_row(tmp_path):
    # float() strips the line breaks around the number; the rows after the
    # record keep csv's count
    path, lines = _small_csv(tmp_path)
    want = read_csv(path)
    _edit_cell(lines, 3, 6, '"\r\n0.25\n"')
    path.write_text("\r\n".join(lines) + "\r\n")
    got = read_csv(path)
    assert got.f_bar[2] == 0.25
    got.f_bar[2] = want.f_bar[2]
    _assert_traces_equal(got, want)
    _edit_cell(lines, 5, 6, "abc")
    path.write_text("\r\n".join(lines) + "\r\n")
    with pytest.raises(TraceSchemaError, match="^row 6: could not convert string to float: 'abc'"):
        read_csv(path)


_COLUMN_ORDER = ("k", "eta", "H", "alpha", "beta", "lam", "f_bar", "f_tilde",
                 "grad_norm_tilde", "evals_cum")


def _row(trace, r):
    """Row r of a trace, one value per CSV cell."""
    return np.hstack([getattr(trace, name)[r] for name in _COLUMN_ORDER])


def test_runs_of_empty_cells_read_as_nan(tmp_path):
    path, lines = _small_csv(tmp_path)
    want = read_csv(path)
    empty = {2: [1, 2, 3, 5], 3: [6, 7, 8], 4: [1, 3, 4, 5, 6, 7, 8]}
    for line, columns in empty.items():
        for column in columns:
            _edit_cell(lines, line, column, "")
    path.write_text("\r\n".join(lines) + "\r\n")
    got = read_csv(path)
    for line, columns in empty.items():
        u, v = _row(got, line - 1), _row(want, line - 1)
        assert np.flatnonzero(np.isnan(u)).tolist() == columns
        assert not np.isnan(v).any() and np.array_equal(u[~np.isnan(u)], v[~np.isnan(u)])


def test_ragged_row_after_a_bad_cell_reports_the_bad_cell(tmp_path):
    # rows are parsed in file order: an error on an earlier row is
    # never hidden behind a later row that stopped the read
    path, lines = _small_csv(tmp_path)
    _edit_cell(lines, 2, 6, "abc")
    lines[5] += ",1"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceSchemaError, match="^row 3: could not convert string to float: 'abc'"):
        read_csv(path)


def test_header_and_blank_lines_only_has_no_rows(tmp_path):
    path, lines = _small_csv(tmp_path)
    path.write_text(lines[0] + "\r\n" + "\r\n" * 3 + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TraceSchemaError, match="^trace file has no rows$"):
            read_csv(path)


def time_read(rounds=11):
    """Print the median [q1, q3] ms of ``write_csv``, of ``read_csv`` and of the
    iterate file's share of the read on the K=2000, d=40 shape of the streaming
    tests, the three alternating in each round, with the size of each file.

        PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \\
            import test_traceio as t; t.time_read()"
    """
    K, d = 2000, 40
    rng = np.random.default_rng(0)
    scalars = rng.standard_normal((8, K + 1))
    tr = Trace(k=np.arange(K + 1), eta=scalars[0], H=scalars[1], alpha=scalars[2],
               beta=scalars[3], lam=scalars[4], f_bar=scalars[5], f_tilde=scalars[6],
               grad_norm_tilde=scalars[7], evals_cum=2 * np.arange(K + 1) + 1,
               x=rng.standard_normal((K + 1, d)), x_bar=rng.standard_normal((K + 1, d)),
               x_tilde=rng.standard_normal((K + 1, d)))
    ms = {"write_csv": [], "read_csv": [], "read of the .npy": []}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "big.csv")
        npy = iterates_path(path)
        for _ in range(rounds):
            for name, call in (("write_csv", lambda: write_csv(tr, path)),
                               ("read_csv", lambda: read_csv(path)),
                               ("read of the .npy", lambda: _read_iterates(npy, K + 1))):
                start = time.perf_counter()
                call()
                ms[name].append(1e3 * (time.perf_counter() - start))
        print(f"CSV {os.path.getsize(path) / 1e6:.2f} MB, .npy {os.path.getsize(npy) / 1e6:.2f} MB")
    for name, vals in ms.items():
        q1, med, q3 = np.percentile(vals, [25, 50, 75])
        print(f"{name}: {med:.2f} [{q1:.2f}, {q3:.2f}] ms")


@pytest.mark.parametrize("theta", [2.0, float(np.nextafter(GOLDEN_RATIO, 2.0)), 10.0],
                         ids=["two", "above_golden_ratio", "ten"])
def test_parameters_round_trip(tmp_path, theta):
    p = identity_quadratic(3)
    tr = run(p.oracle, np.ones(3), make_params(theta=theta, eta0=0.1), StopRule(max_iters=20))
    path = tmp_path / "t.csv"
    write_csv(tr, path)
    assert path.read_text().splitlines()[-1] == (
        f"# theta={tr.params.theta:.17g} gamma={tr.params.gamma:.17g}")
    back = read_csv(path).params
    assert back == tr.params
    assert back.nu.hex() == tr.params.nu.hex()


def test_baseline_trace_reads_back_without_parameters(tmp_path):
    p = identity_quadratic(3)
    tr = run_baseline(BaselineMethod(kind="gd", eta=0.3), p.oracle, np.ones(3),
                      StopRule(max_iters=5))
    path = tmp_path / "b.csv"
    write_csv(tr, path)
    assert not path.read_text().splitlines()[-1].startswith("#")
    assert read_csv(path).params is None


@pytest.mark.parametrize("name", ["aagd", "gd"])
def test_read_then_write_is_byte_identical(tmp_path, name):
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    write_csv(pinned_bytes_trace(name), first)
    write_csv(read_csv(first), second)
    assert second.read_bytes() == first.read_bytes()
    assert os.path.exists(iterates_path(second)) == (name == "aagd")
    if name == "aagd":
        assert (Path(iterates_path(second)).read_bytes()
                == Path(iterates_path(first)).read_bytes())
    assert read_csv(second).params == read_csv(first).params


# parameter lines that read_csv refuses, with the message after "row 7: "
MALFORMED_PARAMETER_LINES = {
    "missing_gamma": ("# theta=2", "parameter line '# theta=2', "
                                   "want '# theta=<float> gamma=<float>'"),
    "extra_key": ("# theta=2 gamma=0.04 nu=0.005",
                  "parameter line '# theta=2 gamma=0.04 nu=0.005', "
                  "want '# theta=<float> gamma=<float>'"),
    "repeated_key": ("# theta=2 theta=3", "parameter line '# theta=2 theta=3', "
                                          "want '# theta=<float> gamma=<float>'"),
    "no_keys": ("#", "parameter line '#', want '# theta=<float> gamma=<float>'"),
    "comma": ("# theta=2,gamma=0.04", "parameter line '# theta=2,gamma=0.04', "
                                      "want '# theta=<float> gamma=<float>'"),
    "not_a_float": ("# theta=two gamma=0.04", "could not convert string to float: 'two'"),
    "no_value": ("# theta=2 gamma=", "could not convert string to float: ''"),
    "no_equals_sign": ("# theta=2 gamma", "parameter line '# theta=2 gamma', "
                                          "want '# theta=<float> gamma=<float>'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PARAMETER_LINES))
def test_malformed_parameter_line_is_a_schema_error(tmp_path, case):
    line, message = MALFORMED_PARAMETER_LINES[case]
    path, lines = _small_csv(tmp_path)
    path.write_text("\n".join(lines[:-1] + [line]) + "\n")
    with pytest.raises(TraceSchemaError, match=f"^row 7: {re.escape(message)}$"):
        read_csv(path)


def test_row_after_the_parameter_line_is_a_schema_error(tmp_path):
    path, lines = _small_csv(tmp_path)
    path.write_text("\n".join(lines + ["", lines[1]]) + "\n")
    with pytest.raises(TraceSchemaError, match="^row 8: a row after the parameter line$"):
        read_csv(path)
    path.write_text("\n".join(lines + ["", ""]) + "\n")  # blank lines may follow it
    assert read_csv(path).params == default_params(eta0=0.1)


def test_checks_run_with_the_parameters_the_file_carries(tmp_path):
    p = identity_quadratic(3)
    tr = run(p.oracle, np.ones(3), make_params(theta=4.0, eta0=0.1), StopRule(max_iters=40),
             store_iterates=True)
    path = tmp_path / "t.csv"
    write_csv(tr, path)
    back = read_csv(path)
    want = [e.line() for e in lemma_suite(tr, tr.params, L=p.L, oracle=p.oracle)]
    assert [e.line() for e in lemma_suite(back, L=p.L, oracle=p.oracle)] == want
    refs = {"xstar": p.x_star, "x0": tr.x[0]}
    report = run_certificates(back, p.oracle, None, L=p.L, x_refs=refs)
    assert report.passed
    assert report.lines() == run_certificates(tr, p.oracle, tr.params, L=p.L,
                                              x_refs=refs).lines()

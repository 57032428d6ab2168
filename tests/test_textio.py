"""Tests for the artifact text codec: its writer against a per-value
reference loop, byte for byte."""

import numpy as np
import pytest

from mechrom.evaluate import ErrorSeries, save_error_series
from mechrom.snapshots import write_matrix_csv
from mechrom.textio import write_table

# Values whose text form is easy to get wrong.
SPECIAL = [-0.0, 5e-324, 1e308, -1e308, np.inf, -np.inf, np.nan]


def values(rng, shape):
    """Random doubles over many decades with every SPECIAL value in the
    first entries."""
    A = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    A.flat[:len(SPECIAL)] = SPECIAL
    return A


def write_by_loop(path, header, rows):
    """Reference writer: one ``%.17g`` field per value, row by row."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join("%.17g" % v for v in row) + "\n")


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_snapshot_block_bytes_match_the_value_loop(rng, tmp_path):
    times = values(rng, 12)
    A = values(rng, (3, 12))
    write_matrix_csv(tmp_path / "block.csv", times, A, "x")
    write_by_loop(tmp_path / "ref.csv", "t,x_1,x_2,x_3",
                  [[t, *A[:, j]] for j, t in enumerate(times)])
    assert read(tmp_path / "block.csv") == read(tmp_path / "ref.csv")


@pytest.mark.parametrize("header, integral_first", [
    ("index,sigma", True),
    ("iteration,objective,primal_residual,dual_residual", True),
    ("lambda,train_residual,validation_error,operator_norm", False),
])
def test_table_bytes_match_the_value_loop(rng, tmp_path, header,
                                          integral_first):
    width = header.count(",") + 1
    rows = values(rng, (10, width))
    rows[:len(SPECIAL), -1] = SPECIAL
    if integral_first:
        # indices and iteration counts, written as integers
        rows[:, 0] = np.arange(1, 11)
        ref = [[int(row[0]), *row[1:]] for row in rows]
    else:
        ref = rows
    write_table(tmp_path / "table.csv", header, rows)
    write_by_loop(tmp_path / "ref.csv", header, ref)
    assert read(tmp_path / "table.csv") == read(tmp_path / "ref.csv")


def write_by_savetxt(path, header, rows, labels=None):
    """Reference writer: ``numpy.savetxt`` at the same format, the label
    column stacked beside the numbers as objects."""
    fmt = ",".join(["%.17g"] * rows.shape[1])
    if labels is not None:
        rows = np.column_stack([rows.astype(object), labels])
        fmt += ",%s"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        np.savetxt(fh, rows, fmt=fmt, header=header, comments="")


@pytest.mark.parametrize("labelled", [False, True], ids=["bare", "labels"])
@pytest.mark.parametrize("shape", [(0, 3), (1, 1), (3, 1), (500, 1001)])
def test_table_bytes_match_savetxt(rng, tmp_path, shape, labelled):
    rows = values(rng, shape)
    labels = None
    if labelled:
        labels = np.where(rng.uniform(size=shape[0]) < 0.5, "train", "test")
    write_table(tmp_path / "table.csv", "a,b\nc", rows, labels=labels)
    write_by_savetxt(tmp_path / "ref.csv", "a,b\nc", rows, labels=labels)
    assert read(tmp_path / "table.csv") == read(tmp_path / "ref.csv")


@pytest.mark.parametrize("split", [None, 0.5])
def test_error_series_bytes_match_the_value_loop(rng, tmp_path, split):
    times = np.concatenate([SPECIAL, np.linspace(0.1, 1.0, 10)])
    eps = values(rng, times.size)
    save_error_series(ErrorSeries(times, eps, float(np.nanmax(eps)), split),
                      tmp_path / "errors.csv")
    with open(tmp_path / "ref.csv", "w", encoding="ascii", newline="\n") as fh:
        fh.write("t,eps,phase\n")
        for t, e in zip(times, eps):
            train = split is not None and t <= split + 1e-9 * max(1.0, abs(split))
            fh.write(f"{'%.17g' % t},{'%.17g' % e},"
                     f"{'train' if train else 'test'}\n")
    assert read(tmp_path / "errors.csv") == read(tmp_path / "ref.csv")

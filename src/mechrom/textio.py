"""The text codec of every artifact: trajectory blocks, tables and
operator files.

Each is ASCII with ``\\n`` line ends: a header of one or more lines, then
one row per line, its fields separated by a comma (CSV) or whitespace
(``.mtx``), every number at 17 significant digits. On reading, empty
lines are skipped and every other line is a row. Callers name and check
the header and what the numbers mean.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import FormatError

__all__ = ["FLOAT_FORMAT", "write_table", "read_header", "read_table",
           "row_line"]

# 17 significant digits round-trip IEEE doubles exactly, which the staged
# pipeline relies on; whole numbers such as indices print as integers.
FLOAT_FORMAT = "%.17g"

# (wrong number of fields, field not a number) messages of a bad row.
_DEFAULT_MESSAGES = (("expected {width} fields, found {found}",
                      "non-numeric field"),)


def write_table(path, header, rows, delimiter=",", labels=None) -> None:
    """Write ``header`` (lines joined by ``\\n``), then one line per row
    of the 2-D array ``rows``, every number at :data:`FLOAT_FORMAT`.
    ``labels``, one string per row, is appended to each row as its last
    field."""
    rows = np.asarray(rows, dtype=float)
    fmt = delimiter.join([FLOAT_FORMAT] * rows.shape[1])
    # Each row is formatted from Python floats, which print as numpy's
    # do, and written before the next is formatted: the block is never
    # held as one string.
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header + "\n")
        if labels is None:
            fmt += "\n"
            fh.writelines(fmt % tuple(row.tolist()) for row in rows)
        else:
            fmt += delimiter + "%s\n"
            fh.writelines(fmt % (*row.tolist(), label)
                          for row, label in zip(rows, labels, strict=True))


def read_header(path) -> str | None:
    """The first line of a text artifact without its line end; None for
    an empty file."""
    with open(path, "r", encoding="ascii") as fh:
        line = fh.readline()
    return line.rstrip("\n") if line else None


def read_table(path, width, delimiter=",", max_rows=None,
               messages=_DEFAULT_MESSAGES) -> np.ndarray:
    """The rows after the header line as a ``(rows, width)`` float array.

    ``delimiter=None`` splits fields at whitespace. With ``max_rows``,
    only the first ``max_rows`` rows are read.

    A row with other than ``width`` fields, or with a field that is not
    a number, raises :class:`FormatError` naming its line. ``messages``
    holds one (wrong width, not a number) message pair per row; the
    last pair serves every later row. ``loadtxt`` reads the file, and
    only a file it rejects is scanned line by line for the bad row.
    """
    with open(path, "r", encoding="ascii") as fh:
        fh.readline()
        try:
            with warnings.catch_warnings():
                # A file without rows, and empty lines inside the
                # ``max_rows`` prefix, are both expected here.
                warnings.filterwarnings(
                    "ignore", r"(loadtxt: input|Input line \d+) contained no data",
                    UserWarning)
                table = np.loadtxt(fh, delimiter=delimiter, comments=None,
                                   ndmin=2, max_rows=max_rows)
        except ValueError:
            table = None
    if table is not None and table.shape[0] == 0:
        return np.empty((0, width))
    if table is not None and table.shape[1] == width:
        return table
    for row, (lineno, line) in enumerate(_rows(path, delimiter)):
        if line is None or row == max_rows:
            break
        wrong_width, not_a_number = messages[min(row, len(messages) - 1)]
        found = len(line.split(delimiter))
        if found != width:
            raise FormatError(wrong_width.format(width=width, found=found),
                              path=path, line=lineno)
        try:
            np.loadtxt([line], delimiter=delimiter, comments=None)
        except ValueError:
            raise FormatError(not_a_number, path=path, line=lineno)
    raise FormatError("unreadable table", path=path)


def _rows(path, delimiter):
    """``(line number, line)`` of every row after the header line, then
    ``(number of lines in the file, None)``."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    for lineno, line in enumerate(lines[1:], start=2):
        if line.split(delimiter) not in ([], [""]):
            yield lineno, line
    yield len(lines), None


def row_line(path, row, delimiter=",") -> int:
    """The 1-based line number of row ``row`` (0-based, after the header
    line) of a table file; with ``row=None``, or past the last row, the
    number of the file's last line."""
    for index, (lineno, line) in enumerate(_rows(path, delimiter)):
        if index == row or line is None:
            return lineno

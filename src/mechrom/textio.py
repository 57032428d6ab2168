"""The text codec of every artifact: trajectory blocks, tables and
operator files.

Each is ASCII with ``\\n`` line ends: a header of one or more lines, then
one row per line, its fields separated by a comma (CSV) or whitespace
(``.mtx``), every number at 17 significant digits. On reading, empty
lines are skipped and every other line is a row; a byte outside ASCII
is decoded as a lone surrogate, which fails the header's check or the
row's number parse. Callers name and check the header and what the
numbers mean.

Writing produces the bytes of ``"%.17g" % value`` for every field, from
a numpy kernel rather than one ``%`` call per value. Each finite nonzero
value is scaled by a power of ten held as a double-double, with Dekker's
error-free product (Numer. Math. 18, 1971), to the 17-digit integer of
its significand; digits then come from a table of all 4-digit groups,
and the ``%g`` layouts (fixed notation for exponents -4 to 16, else
``d.ddde+XX``, trailing zeros stripped) are assembled as a byte matrix
with one precomputed mask per layout, as in the table-driven printing of
Adams, *Ryu revisited* (OOPSLA 2019). A value goes to ``%`` itself when
it is not finite, when its scaled fraction lies within 1e-9 of a half,
or when it lies within about 1e-16 of a power of ten. A row's trailing
run of ``+0.0`` is written as one literal, and the kernel formats the
other fields about 4,096 at a time (a row with more alone).
"""

from __future__ import annotations

import functools
import warnings
from types import SimpleNamespace

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
    field. ``delimiter`` is one character, and ``rows`` has at least one
    column.

    The bytes are those of ``FLOAT_FORMAT % value`` field by field (see
    the module notes for how they are made).
    """
    rows = np.asarray(rows, dtype=float)
    n_rows, width = rows.shape
    if width == 0:
        raise ValueError("a table needs at least one column")
    if labels is not None:
        labels = [str(label) for label in labels]
        if len(labels) != n_rows:
            raise ValueError(f"{len(labels)} labels for {n_rows} rows")
    sep = delimiter.encode("ascii")
    if len(sep) != 1:
        raise ValueError(f"delimiter must be one character, got {delimiter!r}")
    # Each row's trailing run of +0.0 (all bits clear), which never
    # takes in the first field.
    formatted = rows.view(np.uint64) != 0
    formatted[:, 0] = True
    run = np.argmax(formatted[:, ::-1], axis=1)
    # A chunk is the rows whose first formatted field falls in one span
    # of _CHUNK_FIELDS of them; a row with more goes alone.
    kept = width - run
    span = (kept.cumsum() - kept) // _CHUNK_FIELDS
    cut = (span[1:] != span[:-1]) | (kept[1:] > _CHUNK_FIELDS)
    starts = [0, *(cut.nonzero()[0] + 1).tolist()][:n_rows]
    with open(path, "wb") as fh:
        fh.write((header + "\n").encode("ascii"))
        for start, stop in zip(starts, starts[1:] + [n_rows]):
            tails = None if labels is None else [
                sep + label.encode("ascii") for label in labels[start:stop]]
            fh.write(_row_text(rows[start:stop], run[start:stop], sep, tails))


def _row_text(block, run, sep, tails):
    """The text of the rows of ``block``, less each row's trailing run
    of ``run`` fields of +0.0, which goes in as a literal; ``tails[i]``,
    if given, ends row ``i`` before its line end."""
    n_rows, width = block.shape
    seps = np.full(block.shape, sep[0], dtype=np.uint8)
    seps[np.arange(n_rows), width - 1 - run] = ord("\n")
    if run.any():
        kept = np.arange(width) < (width - run)[:, None]
        text = _encode(block[kept], seps[kept])
    else:
        text = _encode(block.ravel(), seps.ravel())
        if tails is None:
            return text
    # Each row's zero run and tail go in before its line end, which is
    # the separator of its last formatted field. The pieces are bytes:
    # thousands of live memoryviews, which the garbage collector tracks,
    # set off its full collections.
    line_ends = np.flatnonzero(np.frombuffer(text, dtype=np.uint8)
                               == ord("\n")).tolist()
    zero_run = (sep + b"0") * width
    pieces = []
    begin = 0
    for row in range(n_rows) if tails else np.flatnonzero(run).tolist():
        end = line_ends[row]
        pieces += (text[begin:end], zero_run[:2 * run[row]],
                   tails[row] if tails else b"")
        begin = end
    pieces.append(text[begin:])
    return b"".join(pieces)


# Fields formatted at once by one _encode call, trailing +0.0 runs not
# counted; a row with more is one call.
_CHUNK_FIELDS = 4096
# Rows of the mask table per layout: 18 digit counts by 2 signs.
_PER_LAYOUT = 36

# Columns of a field in _encode's byte matrix (four 8-byte words): the
# sign, the "0.000" of fixed notation below 1, the body (17 digits with a
# decimal point after the first, or after the last integer digit in fixed
# notation from 10), "e+ddd", the separator and two pad bytes.
_PREFIX, _BODY, _SUFFIX, _SEP, _COLUMNS = 1, 6, 24, 29, 32
# Range of the binary exponent b of a nonzero double, x = m * 2**b with
# 0.5 <= m < 1.
_B_MIN, _B_MAX = -1073, 1024
# Veltkamp's splitting constant 2**27 + 1: c*x - (c*x - x) is the upper
# 26 bits of the significand of x.
_SPLIT = 134217729.0


def _encode(x, seps):
    """``FLOAT_FORMAT % v`` of every value of the 1-D array ``x``, each
    followed by its separator byte from ``seps``, as ASCII bytes.

    A finite nonzero ``|x| = m * 2**b`` is scaled to ``S = |x| *
    10**(16 - e)``, which lies in ``[10**16, 10**17)`` when ``e`` is the
    decimal exponent of ``x``: ``m`` times the double-double ``2**b *
    10**(16 - e)`` by Dekker's exact product, correct to about 1e-14 in
    ``S``. ``e`` is guessed per binade and checked on ``S`` itself, not
    on its rounded value. The 17 significant digits are ``S`` rounded to
    the nearest integer. A value goes to the ``%`` operator instead when
    it is not finite, when the fraction of ``S`` is within 1e-9 of a
    half, and when ``S`` does not lie in ``[10**16 + 1, 10**17 - 1/2)``:
    a wrong guess, or a value within about 1e-16 of a power of ten.
    """
    t = _tables()
    neg = np.signbit(x)
    ax = np.abs(x)
    regular = (ax > 0.0) & (ax < np.inf)
    if not regular.all():
        ax[~regular] = 1.0
    m, b = np.frexp(ax)
    b -= _B_MIN
    # One table row per binade and guess of e; the guess is one higher
    # from the m at which x reaches the next power of ten.
    row = 2 * b + (m >= t.upper[b])
    # S = m * (hi + lo) as p + r: p = fl(m * hi), r = the rounding error
    # of p (exact, Dekker) plus m * lo.
    hi, head, tail = t.scale_hi[row], t.scale_head[row], t.scale_tail[row]
    c = _SPLIT * m
    m_head = c - (c - m)
    m_tail = m - m_head
    p = m * hi
    r = (((m_head * head - p) + m_head * tail + m_tail * head)
         + m_tail * tail) + m * t.scale_lo[row]
    whole = np.floor(r)
    r -= whole
    # floor(S); p is an integer here, as every double >= 2**53 is.
    S = p.astype(np.int64) + whole.astype(np.int64)
    digits = S + (r > 0.5)
    bad = ~((S > 10**16) & (digits < 10**17) & (np.abs(r - 0.5) > 1e-9)
            & regular)
    # Zeros and the values left to ``%`` take the layout of 0 (row of 1).
    if bad.any():
        digits[bad] = 0
        row[bad] = 2 * (1 - _B_MIN)
    # The leading digit, then four groups of four.
    high = digits // 10**8
    groups = np.empty((x.size, 4), dtype=np.int64)
    groups[:, 3] = digits - high * 10**8
    lead = high // 10**8
    groups[:, 1] = high - lead * 10**8
    groups[:, 0] = groups[:, 1] // 10**4
    groups[:, 1] -= groups[:, 0] * 10**4
    groups[:, 2] = groups[:, 3] // 10**4
    groups[:, 3] -= groups[:, 2] * 10**4
    # Significant digits shown: 17 less the trailing zeros of the digits,
    # those of each group counting while every later group is zero. Only
    # the fields whose last group is zero look past it.
    kept = 17 - t.trailing[groups[:, 3]]
    short = np.flatnonzero(groups[:, 3] == 0)
    if short.size:
        g = groups[short]
        zeros, empty = t.trailing[g], g == 0
        kept[short] -= zeros[:, 2] + empty[:, 2] * (
            zeros[:, 1] + empty[:, 1] * zeros[:, 0])
    out = np.empty((x.size, _COLUMNS), dtype=np.uint8)
    words = out.view(np.uint64)
    words[:, 0] = t.head
    out.view(np.uint16)[:, _BODY // 2] = t.lead[lead]
    out.view(np.uint32)[:, 2:6] = t.quad[groups]
    words[:, 3] = t.suffix[row]
    out[:, _SEP] = seps
    layout = t.layout[row]
    # From 10 up to the end of fixed notation the point follows digit e:
    # digits 1 to e move left over it.
    integral = np.flatnonzero((layout > 4 * _PER_LAYOUT)
                              & (layout <= 20 * _PER_LAYOUT))
    if integral.size:
        point = layout[integral] // _PER_LAYOUT - 4
        for k in np.flatnonzero(np.bincount(point)).tolist():
            rows = integral[point == k]
            out[rows, _BODY + 1:_BODY + 1 + k] = out[rows, _BODY + 2:_BODY + 2 + k]
            out[rows, _BODY + 1 + k] = ord(".")
    # Clear the bytes a field does not show; they are dropped below.
    words &= np.take(t.mask, layout + 2 * kept + neg, axis=0)
    if bad.any():
        odd = np.flatnonzero(bad & (x != 0.0))
        text = b"".join((FLOAT_FORMAT % v).encode("ascii").ljust(_SEP, b"\0")
                        for v in x[odd].tolist())
        out[odd, :_SEP] = np.frombuffer(text, dtype=np.uint8).reshape(-1, _SEP)
    return out.tobytes().translate(None, b"\0")


@functools.cache
def _tables():
    """The constant tables of :func:`_encode`, built on first use."""
    # Per binade b and guess e in {E, E + 1}, E the decimal exponent of
    # 2**(b - 1), one row: the double-double 2**b * 10**(16 - e) (its
    # head split in two), and the layout and exponent text of e.
    b = np.repeat(np.arange(_B_MIN, _B_MAX + 1), 2)
    e = np.floor((b - 1) * np.log10(2.0)).astype(np.int64) + [0, 1] * (b.size // 2)
    # 10**k ~ M * 2**q for k = 16 - e, M a 128-bit integer (exact for
    # k >= 0 up to the cut at 2**-127).
    mant, mant_lo, power = [], [], []
    for k in range(16 - e.max(), 17 - e.min()):
        if k >= 0:
            q = (10**k).bit_length() - 128
            M = 10**k >> q if q >= 0 else 10**k << -q
        else:
            q = -127 - (10**-k).bit_length()
            M = (1 << -q) // 10**-k
        mant.append(float(M))
        mant_lo.append(float(M - int(float(M))))
        power.append(q)
    k = e.max() - e
    q = (np.asarray(power)[k] + b).astype(np.int32)
    scale_hi = np.ldexp(np.asarray(mant)[k], q)
    c = _SPLIT * scale_hi
    scale_head = c - (c - scale_hi)
    mag = np.abs(e)
    suffix = np.zeros((e.size, 8), dtype=np.int64)
    suffix[:, 0] = ord("e")
    suffix[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    suffix[:, 2:5] = np.stack([mag // 100, mag // 10 % 10, mag % 10], 1) + ord("0")
    # Layouts 0 to 20: fixed notation for e = -4..16; 21 and 22: the
    # exponent form with two and with three exponent digits.
    layout = np.where((e >= -4) & (e <= 16), e + 4, np.where(mag < 100, 21, 22))

    # Which columns each layout shows, by (layout, digits kept, sign),
    # as 0xff (shown) and 0 bytes.
    E = np.append(np.arange(-4, 18), 100)[:, None, None, None]
    fixed = E <= 16
    kept = np.arange(18)[None, :, None, None]
    sign = np.arange(2)[None, None, :, None]
    col = np.arange(_COLUMNS)[None, None, None, :]
    c = col - _BODY
    # Fixed notation from 10 shows every integer digit, then the point
    # and the other digits kept; otherwise the body is d.ddd.
    run = np.where(kept > E + 1, kept + 1, E + 1)
    body = np.where(fixed & (E >= 1), c < run,
                    (c == 0) | ((c == 1) & ~(fixed & (E < 0)) & (kept > 1))
                    | ((c >= 2) & (c - 1 < kept)))
    mask = (
        ((col == 0) & (sign == 1))
        | ((col >= _PREFIX) & (col < _BODY) & fixed & (E < 0)
           & (col - _PREFIX < 1 - E))
        | ((col >= _BODY) & (col < _SUFFIX) & body)
        | ((col >= _SUFFIX) & (col < _SEP) & ~fixed
           & ((col != _SUFFIX + 2) | (E >= 100)))
        | (col == _SEP)
    )

    def words(chars, dtype):
        """Each row of the byte codes ``chars`` as one ``dtype`` word."""
        return np.ascontiguousarray(chars, dtype=np.uint8).view(dtype)[:, 0]

    v = np.arange(10**4)
    lead = np.full((10, 2), ord("."))
    lead[:, 0] = np.arange(10) + ord("0")
    return SimpleNamespace(
        upper=1e17 / scale_hi[0::2],
        scale_hi=scale_hi,
        scale_lo=np.ldexp(np.asarray(mant_lo)[k], q),
        scale_head=scale_head,
        scale_tail=scale_hi - scale_head,
        layout=_PER_LAYOUT * layout,
        suffix=words(suffix, np.uint64),
        head=words([list(b"-0.000\0\0")], np.uint64)[0],
        lead=words(lead, np.uint16),
        quad=words(np.stack([v // 1000, v // 100 % 10, v // 10 % 10, v % 10],
                            axis=1) + ord("0"), np.uint32),
        trailing=sum((v % 10**i == 0).astype(np.int64) for i in range(1, 5)),
        mask=(255 * mask.reshape(-1, _COLUMNS)).astype(np.uint8).view(np.uint64),
    )


def read_header(path) -> str | None:
    """The first line of a text artifact without its line end; None for
    an empty file. FormatError when the line is not ASCII."""
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        line = fh.readline()
    if not line.isascii():
        raise FormatError("header is not ASCII text", path=path, line=1)
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
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
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
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
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

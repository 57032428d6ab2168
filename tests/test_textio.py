"""Tests for the artifact text codec: its writer against a per-value
reference loop, byte for byte."""

import numpy as np
import pytest

from mechrom import textio
from mechrom.errors import FormatError
from mechrom.evaluate import save_error_series
from mechrom.model import save_matrix
from mechrom.snapshots import _write_block
from mechrom.textio import _CHUNK_FIELDS, write_table

# Values whose text form is easy to get wrong.
SPECIAL = [-0.0, 5e-324, 1e308, -1e308, np.inf, -np.inf, np.nan]


def values(rng, shape):
    """Random doubles over many decades with every SPECIAL value in the
    first entries."""
    A = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    A.flat[:len(SPECIAL)] = SPECIAL
    return A


def write_by_loop(path, header, rows, delimiter=","):
    """Reference writer: one ``%.17g`` field per value, row by row."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(delimiter.join("%.17g" % v for v in row) + "\n")


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_snapshot_block_bytes_match_the_value_loop(rng, tmp_path):
    times = values(rng, 12)
    A = values(rng, (3, 12))
    # save_csv's block writer: a TrajectoryData would reject these times.
    _write_block(tmp_path / "block.csv", times, A, "x")
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
    # ``split`` is the share of rows in the training phase; None gives
    # none.
    times = np.concatenate([SPECIAL, np.linspace(0.1, 1.0, 10)])
    eps = values(rng, times.size)
    train = 0 if split is None else int(split * times.size)
    save_error_series(tmp_path / "errors.csv", times, eps, train)
    with open(tmp_path / "ref.csv", "w", encoding="ascii", newline="\n") as fh:
        fh.write("t,eps,phase\n")
        for i, (t, e) in enumerate(zip(times, eps)):
            fh.write(f"{'%.17g' % t},{'%.17g' % e},"
                     f"{'train' if i < train else 'test'}\n")
    assert read(tmp_path / "errors.csv") == read(tmp_path / "ref.csv")


def assert_matches_the_value_loop(tmp_path, values, width=8):
    """``write_table`` of ``values``, in rows of ``width`` (the last row
    padded with ones), gives the reference loop's bytes."""
    values = np.asarray(values, dtype=float).ravel()
    rows = np.ones(-(-values.size // width) * width)
    rows[:values.size] = values
    rows = rows.reshape(-1, width)
    write_table(tmp_path / "table.csv", "v", rows)
    write_by_loop(tmp_path / "ref.csv", "v", rows)
    assert read(tmp_path / "table.csv") == read(tmp_path / "ref.csv")


def encode_sizes(monkeypatch, tmp_path, rows):
    """The number of fields of each ``textio._encode`` call that
    ``write_table`` makes for ``rows``."""
    sizes = []
    encode = textio._encode

    def counted(x, seps):
        sizes.append(x.size)
        return encode(x, seps)

    monkeypatch.setattr(textio, "_encode", counted)
    write_table(tmp_path / "counted.csv", "h", rows)
    monkeypatch.undo()
    return sizes


def with_neighbours(x):
    """``x``, the next double below and above each, and their negatives."""
    x = np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)])
    return np.concatenate([x, -x])


class TestExactDigits:
    """The writer's digits and exponent against ``%.17g`` on the values
    where a digit kernel goes wrong: decade and binade edges, integers,
    ties and the extremes of the format."""

    def test_powers_of_ten(self, tmp_path):
        # the double nearest 10**k for every k a double reaches; the one
        # below 1e-12 prints as 9.9999999999999998e-13, not 1e-12
        assert_matches_the_value_loop(tmp_path, with_neighbours(
            np.array([float(f"1e{k}") for k in range(-323, 309)])))

    def test_powers_of_two(self, tmp_path):
        assert_matches_the_value_loop(tmp_path, with_neighbours(
            np.ldexp(1.0, np.arange(-1074, 1024))))

    def test_integers(self, rng, tmp_path):
        # index and iteration columns, and integers past 2**53
        assert_matches_the_value_loop(tmp_path, np.concatenate([
            np.arange(300_001.0),
            rng.integers(2**52, 2**60, 100_000).astype(float),
        ]))

    def test_special_values(self, tmp_path):
        subnormal = np.ldexp(1.0, np.arange(-1074, -1022))
        assert_matches_the_value_loop(tmp_path, np.concatenate([
            [0.0, -0.0, np.inf, -np.inf, np.nan, np.finfo(float).max,
             np.finfo(float).tiny, 2.0**-25, 0.5, 1e16, 1e17],
            with_neighbours(subnormal),
            with_neighbours(subnormal * 3.0),
        ]))

    def test_random_bit_patterns(self, rng, tmp_path):
        bits = rng.integers(0, 2**64, 1_000_000, dtype=np.uint64)
        assert_matches_the_value_loop(tmp_path, bits.view(np.float64),
                                      width=1000)


def wave_front(rng):
    """600 rows of 1001 fields, row i nonzero in its first ``1 + 7i mod
    1001`` fields only, like a wave that has not reached the far nodes;
    four rows are all zero, and one has a -0.0 before its zero run."""
    rows = values(rng, (600, 1001))
    keep = 1 + 7 * np.arange(600) % 1001
    rows[np.arange(1001) >= keep[:, None]] = 0.0
    rows[[0, 299, 300, 599]] = 0.0
    rows[450, keep[450] - 1] = -0.0
    return rows


def force_like(rng):
    """5000 rows of 41 fields, nonzero in column 1 only, like the force
    block of a chain driven at one node."""
    rows = np.zeros((5000, 41))
    rows[:, 1] = values(rng, 5000)
    return rows


def error_series_rows(rng):
    """``(t, eps)`` rows whose eps is +0.0 over stretches that chunk
    edges fall in."""
    times = np.linspace(0.0, 1.0, 3 * _CHUNK_FIELDS)
    eps = values(rng, times.size)
    for start in (1500, 5000, 9000):
        eps[start:start + 2000] = 0.0
    eps[6000::5] = 0.0
    return np.column_stack([times, eps])


def formatted_fields(rows):
    """Fields of each row before its trailing run of +0.0, the first
    field always counted."""
    return np.array([max(1, 1 + max(np.flatnonzero(row.view(np.uint64)),
                                    default=0)) for row in rows])


class TestLayout:
    """Chunk edges, zero runs, labels and delimiters against the
    reference loop."""

    @pytest.mark.parametrize("make, labelled", [
        (lambda rng: values(rng, (_CHUNK_FIELDS // 41 + 1, 41)), False),
        (lambda rng: values(rng, (1, _CHUNK_FIELDS + 1)), False),
        (lambda rng: values(rng, (3, _CHUNK_FIELDS + 1)), False),
        (wave_front, False),
        (force_like, False),
        (error_series_rows, True),
        (lambda rng: values(rng, (_CHUNK_FIELDS // 41 + 1, 41)), True),
    ], ids=["row-past-chunk", "row-wider-than-chunk", "rows-wider-than-chunk",
            "wave-front", "force-like", "labelled-error-series",
            "labelled-row-past-chunk"])
    def test_chunk_edges(self, rng, tmp_path, make, labelled):
        rows = make(rng)
        labels = (np.where(rows[:, 0] <= 0.5, "train", "test") if labelled
                  else None)
        write_table(tmp_path / "table.csv", "h", rows, labels=labels)
        write_by_savetxt(tmp_path / "ref.csv", "h", rows, labels=labels)
        assert read(tmp_path / "table.csv") == read(tmp_path / "ref.csv")

    @pytest.mark.parametrize("make", [wave_front, force_like,
                                      error_series_rows],
                             ids=["wave-front", "force-like", "error-series"])
    def test_chunks_count_formatted_fields(self, rng, tmp_path, monkeypatch,
                                           make):
        # Chunks are sized by the fields formatted, not by row width: a
        # block mostly in trailing zero runs takes few kernel calls.
        rows = make(rng)
        sizes = encode_sizes(monkeypatch, tmp_path, rows)
        formatted = formatted_fields(rows)
        assert sum(sizes) == formatted.sum()
        assert len(sizes) <= -(-formatted.sum() // _CHUNK_FIELDS) + 1
        assert max(sizes) < _CHUNK_FIELDS + formatted.max()

    def test_dense_rows_keep_their_chunk_count(self, rng, tmp_path,
                                               monkeypatch):
        sizes = encode_sizes(monkeypatch, tmp_path, values(rng, (4001, 41)))
        by_width = -(-4001 // (_CHUNK_FIELDS // 41))
        assert abs(len(sizes) - by_width) <= 1

    def test_row_wider_than_a_chunk_goes_alone(self, rng, tmp_path,
                                               monkeypatch):
        rows = values(rng, (5, _CHUNK_FIELDS + 1))
        rows[[0, 1, 3, 4], 10:] = 0.0
        assert encode_sizes(monkeypatch, tmp_path, rows) == [
            20, _CHUNK_FIELDS + 1, 20]

    def test_zero_runs(self, rng, tmp_path):
        rows = rng.standard_normal((12, 9))
        rows[0] = 0.0                # an all-zero row
        rows[1, 3:] = 0.0            # a trailing run
        rows[2, 3:] = 0.0
        rows[2, 6] = -0.0            # a -0 inside the run ends it
        rows[3, -1] = -0.0           # a trailing -0 alone
        rows[4, 1:-1] = 0.0          # zeros that do not trail
        rows[5, 0] = -0.0
        rows[5, 1:] = 0.0
        rows[6, 0] = 0.0             # zeros from the first field on
        rows[6, 1:] = 0.0
        rows[6, 4] = np.nan
        write_table(tmp_path / "table.csv", "h", rows)
        write_by_loop(tmp_path / "ref.csv", "h", rows)
        text = read(tmp_path / "table.csv")
        assert text == read(tmp_path / "ref.csv")
        assert text.splitlines()[3].split(b",")[6:] == [b"-0", b"0", b"0"]

    def test_labelled_rows(self, rng, tmp_path):
        times = np.linspace(0.0, 1.0, 2 * _CHUNK_FIELDS + 3)
        eps = values(rng, times.size)
        eps[::7] = 0.0
        eps[1::11] = -0.0
        # The training rows end past the first chunk.
        train = _CHUNK_FIELDS + 1
        save_error_series(tmp_path / "errors.csv", times, eps, train)
        with open(tmp_path / "ref.csv", "w", encoding="ascii",
                  newline="\n") as fh:
            fh.write("t,eps,phase\n")
            for i, (t, e) in enumerate(zip(times, eps)):
                phase = "train" if i < train else "test"
                fh.write(f"{'%.17g' % t},{'%.17g' % e},{phase}\n")
        assert read(tmp_path / "errors.csv") == read(tmp_path / "ref.csv")

    def test_matrix_file_uses_the_space_delimiter(self, rng, tmp_path):
        A = rng.standard_normal((40, 40)) * 10.0 ** rng.integers(-300, 300,
                                                                 (40, 40))
        A[rng.uniform(size=A.shape) < 0.3] = 0.0
        save_matrix(tmp_path / "A.mtx", A)
        i, j = np.nonzero(A)
        head = read(tmp_path / "A.mtx").split(b"\n", 2)[:2]
        write_by_loop(tmp_path / "ref.mtx", b"\n".join(head).decode(),
                      np.column_stack([i + 1, j + 1, A[i, j]]), delimiter=" ")
        assert read(tmp_path / "A.mtx") == read(tmp_path / "ref.mtx")


@pytest.mark.parametrize("kwargs, message", [
    ({"labels": ["a", "b"]}, "2 labels for 3 rows"),
    ({"delimiter": ", "}, "delimiter must be one character"),
])
def test_write_table_rejects_bad_arguments(tmp_path, kwargs, message):
    with pytest.raises(ValueError, match=message):
        write_table(tmp_path / "table.csv", "h", np.zeros((3, 2)), **kwargs)
    assert not (tmp_path / "table.csv").exists()


@pytest.mark.parametrize("header, labels, message", [
    ("t,\u03b5", None, "^header 't,\u03b5' is not ASCII$"),
    ("t,eps", ["train", "\u00e9t\u00e9", "test"],
     "'\u00e9t\u00e9' is not ASCII"),
    ("t,eps", ["a,b", "a", "b"], "'a,b' is not ASCII, or holds the delimiter"),
    ("t,eps", ["a", "b\nc", "d"], "holds the delimiter or a line end"),
    ("t,eps", ["a", "b", "c\r"], "holds the delimiter or a line end"),
], ids=["header", "label", "label-delimiter", "label-line-feed",
        "label-carriage-return"])
def test_write_table_rejects_bad_text_before_opening(tmp_path, header, labels,
                                                      message):
    # Opening the target would empty it: an existing file keeps its bytes.
    path = tmp_path / "table.csv"
    path.write_bytes(b"t,eps\n1,2\n")
    with pytest.raises(ValueError, match=message):
        write_table(path, header, np.ones((3, 2)), labels=labels)
    assert path.read_bytes() == b"t,eps\n1,2\n"


@pytest.mark.parametrize("text, line, message", [
    ("a,b\n1,2\x0c3,4\n", 2, "expected 2 fields, found 3"),
    ("a,b\n1,2\x0c\n1,x\n", 3, "non-numeric field"),
], ids=["wrong-width", "after-a-form-feed"])
def test_read_table_lines_end_at_line_feeds(tmp_path, text, line, message):
    # A form feed is inside its line, as the reader sees it.
    path = tmp_path / "table.csv"
    path.write_text(text)
    with pytest.raises(FormatError) as exc:
        textio.read_table(path, 2)
    assert str(exc.value) == f"{path}:{line}: {message}"


@pytest.mark.parametrize("labels", [None, ["a", "b", "c"]])
def test_write_table_rejects_a_table_without_columns(tmp_path, labels):
    # A row of no fields has no text: labelled it would start with a
    # separator, unlabelled it would be a blank line that no reader keeps.
    with pytest.raises(ValueError, match="^a table needs at least one column$"):
        write_table(tmp_path / "table.csv", "h", np.zeros((3, 0)), labels=labels)
    assert not (tmp_path / "table.csv").exists()

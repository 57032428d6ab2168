import os

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from mechrom import (
    SecondOrderSystem,
    build_mass_spring_chain,
    load_matrix,
    load_system,
    rayleigh_damping,
    save_matrix,
    save_system,
)
from mechrom.errors import (
    FormatError,
    InvalidInputError,
    InvalidParameterError,
)

from ._helpers import random_spd


def test_single_mass_chain():
    sys_ = build_mass_spring_chain(1, [1.0], [1.0, 1.0], 0.0, 0.0, (0,))
    np.testing.assert_allclose(sys_.mass.toarray(), [[1.0]])
    np.testing.assert_allclose(sys_.stiffness.toarray(), [[2.0]])
    np.testing.assert_allclose(sys_.damping.toarray(), [[0.0]])
    np.testing.assert_allclose(sys_.input_map, [[1.0]])


def test_two_mass_chain_spectrum():
    sys_ = build_mass_spring_chain(2, [1.0, 1.0], [1.0, 1.0, 1.0], 0.0, 0.0, (0,))
    np.testing.assert_allclose(sys_.stiffness.toarray(), [[2.0, -1.0], [-1.0, 2.0]])
    # 2x2 eigenvalues by hand: trace 4, det 3
    w = np.linalg.eigvalsh(sys_.stiffness.toarray())
    assert w == pytest.approx([1.0, 3.0], abs=1e-12)
    assert w.min() > 0


def test_three_mass_chain_definiteness():
    sys_ = build_mass_spring_chain(3, [2.0] * 3, [5.0] * 4, 0.01, 0.001, (1,))
    for A in (sys_.mass, sys_.stiffness):
        assert np.linalg.eigvalsh(A.toarray()).min() > 0
    assert np.linalg.eigvalsh(sys_.damping.toarray()).min() >= -1e-12
    assert sys_.n == 3 and sys_.m == 1


@pytest.mark.parametrize("n", [1, 2, 7, 300])
def test_chain_operators_are_csr(n, rng):
    masses = rng.uniform(0.5, 2.0, n)
    springs = rng.uniform(1.0, 5.0, n + 1)
    sys_ = build_mass_spring_chain(n, masses, springs, 0.1, 0.01, (0,))
    for A in (sys_.mass, sys_.damping, sys_.stiffness):
        assert sp.issparse(A) and A.format == "csr"
    assert sys_.stiffness.nnz == 3 * n - 2
    assert sys_.mass.nnz == n
    assert isinstance(sys_.input_map, np.ndarray)
    K = np.diag(springs[:-1] + springs[1:])
    K -= np.diag(springs[1:-1], 1) + np.diag(springs[1:-1], -1)
    assert np.array_equal(sys_.stiffness.toarray(), K)
    assert np.array_equal(sys_.mass.toarray(), np.diag(masses))
    assert np.array_equal(sys_.damping.toarray(), 0.1 * np.diag(masses) + 0.01 * K)


def test_chain_rejects_bad_parameters():
    with pytest.raises(InvalidParameterError):
        build_mass_spring_chain(2, [1.0, -1.0], [1.0] * 3, 0.0, 0.0, (0,))
    with pytest.raises(InvalidParameterError):
        build_mass_spring_chain(2, [1.0, 1.0], [1.0, 0.0, 1.0], 0.0, 0.0, (0,))
    with pytest.raises(InvalidParameterError):
        build_mass_spring_chain(2, [1.0, 1.0], [1.0] * 3, 0.0, 0.0, (2,))


def test_rayleigh_zero_coefficients():
    M = np.eye(3)
    K = 2.0 * np.eye(3)
    assert rayleigh_damping(M, K, 0.0, 0.0) == pytest.approx(np.zeros((3, 3)))


def test_rayleigh_pure_stiffness_damping(rng):
    K = random_spd(rng, 4)
    E = rayleigh_damping(np.eye(4), K, 0.0, 1e-6)
    assert E == pytest.approx(1e-6 * K, rel=1e-14)


def test_rayleigh_scalar_value():
    E = rayleigh_damping(np.array([[2.0]]), np.array([[3.0]]), 0.01, 1e-4)
    np.testing.assert_allclose(E, [[0.0203]], atol=1e-18)


def test_rayleigh_shape_mismatch():
    with pytest.raises(InvalidParameterError):
        rayleigh_damping(np.eye(2), np.eye(3), 0.1, 0.1)


@given(
    a1=st.floats(0, 10, allow_nan=False),
    a2=st.floats(0, 10, allow_nan=False),
    b=st.floats(0, 10, allow_nan=False),
)
@settings(deadline=None, max_examples=50)
def test_rayleigh_linear_in_coefficients(a1, a2, b):
    rng = np.random.default_rng(7)
    M = random_spd(rng, 3)
    K = random_spd(rng, 3)
    left = rayleigh_damping(M, K, a1 + a2, b)
    right = rayleigh_damping(M, K, a1, b) + rayleigh_damping(M, K, a2, 0.0)
    assert left == pytest.approx(right, abs=1e-10)


def test_construction_stores_operators_as_given():
    A = np.array([[1.0, 1e-13], [0.0, 1.0]])
    sys_ = SecondOrderSystem(
        mass=A, damping=np.zeros((2, 2)), stiffness=np.eye(2),
    )
    assert np.array_equal(sys_.mass, A)
    assert sys_.input_map is None and sys_.m == 0
    assert sys_.label == ""


def test_construction_rejects_bad_operators():
    with pytest.raises(InvalidInputError, match="damping must be 2x2"):
        SecondOrderSystem(np.eye(2), np.eye(3), np.eye(2))
    with pytest.raises(InvalidInputError, match="damping must be a 2-D"):
        SecondOrderSystem(np.eye(2), None, np.eye(2))
    with pytest.raises(InvalidInputError, match="non-finite"):
        SecondOrderSystem(np.eye(2), np.eye(2), np.diag([1.0, np.inf]))
    with pytest.raises(InvalidInputError, match="input_map"):
        SecondOrderSystem(np.eye(2), np.eye(2), np.eye(2), np.ones((3, 1)))


@pytest.mark.parametrize("storage", [np.asarray, sp.csr_array],
                         ids=["dense", "csr"])
def test_model_of_dimension_zero_is_rejected(capfd, storage):
    # Accepted, such a model reached LAPACK in simulate, which printed
    # its illegal-parameter message to stderr before f2py's ValueError.
    empty = storage(np.zeros((0, 0)))
    with pytest.raises(InvalidInputError,
                       match="^mass must be at least 1x1, got 0x0$"):
        SecondOrderSystem(empty, empty, empty, np.zeros((0, 1)))
    assert capfd.readouterr() == ("", "")


def test_sparse_operators_are_stored_as_csr():
    sys_ = SecondOrderSystem(
        sp.coo_array(np.eye(3)), sp.csc_array((3, 3)),
        sp.dia_array(2.0 * np.eye(3)), sp.csr_array(np.ones((3, 1))),
    )
    for A in (sys_.mass, sys_.damping, sys_.stiffness):
        assert sp.issparse(A) and A.format == "csr"
    assert isinstance(sys_.input_map, np.ndarray)
    assert np.array_equal(sys_.stiffness.toarray(), 2.0 * np.eye(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sparse_operator_with_non_finite_entry_is_rejected(bad):
    K = sp.csr_array(np.diag([1.0, bad, 1.0]))
    with pytest.raises(InvalidInputError, match="stiffness contains non-finite"):
        SecondOrderSystem(sp.csr_array(np.eye(3)), sp.csr_array((3, 3)), K)


def test_sparse_operator_shape_mismatch_is_rejected():
    with pytest.raises(InvalidInputError, match="damping must be 2x2"):
        SecondOrderSystem(sp.csr_array(np.eye(2)), sp.csr_array((3, 3)),
                          sp.csr_array(np.eye(2)))


def test_mass_normalized_with_sparse_mass():
    eye = sp.csr_array(np.eye(3))
    assert SecondOrderSystem(eye, eye, eye).mass_normalized
    # an explicitly stored zero does not change the matrix
    padded = sp.csr_array((np.array([1.0, 0.0, 1.0, 1.0]),
                           np.array([0, 2, 1, 2]), np.array([0, 2, 3, 4])))
    assert SecondOrderSystem(padded, eye, eye).mass_normalized
    for M in (np.diag([1.0, 1.0, 1.0 + 1e-15]), np.eye(3) + np.eye(3, k=1),
              np.diag([1.0, 1.0, 0.0])):
        assert not SecondOrderSystem(sp.csr_array(M), eye, eye).mass_normalized


def test_mass_normalized_means_exact_identity():
    assert SecondOrderSystem(np.eye(2), np.eye(2), np.eye(2)).mass_normalized
    near = np.eye(2) + 1e-15
    assert not SecondOrderSystem(near, np.eye(2), np.eye(2)).mass_normalized


# ---------------------------------------------------------------- matrix files


def test_matrix_roundtrip_general(rng, tmp_path):
    A = rng.standard_normal((4, 3))
    path = os.path.join(tmp_path, "a.mtx")
    save_matrix(path, A, symmetry="general")
    back = load_matrix(path)
    assert back == pytest.approx(A, rel=1e-15, abs=1e-300)


def test_matrix_roundtrip_symmetric(rng, tmp_path):
    A = random_spd(rng, 5)
    path = os.path.join(tmp_path, "s.mtx")
    save_matrix(path, A, symmetry="symmetric")
    # lower triangle only on disk
    with open(path) as fh:
        body = fh.read().splitlines()[2:]
    for line in body:
        i, j, _ = line.split()
        assert int(i) >= int(j)
    assert load_matrix(path) == pytest.approx(A, rel=1e-15)


def test_matrix_skips_exact_zeros(tmp_path):
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    path = os.path.join(tmp_path, "z.mtx")
    save_matrix(path, A, symmetry="general")
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[1].split()[2] == "1"
    assert load_matrix(path) == pytest.approx(A)


def save_matrix_by_loop(path, A, symmetry):
    """Reference writer: every entry of the dense array, row by row."""
    rows, cols = A.shape
    entries = []
    for i in range(rows):
        jmax = i + 1 if symmetry == "symmetric" else cols
        for j in range(jmax):
            v = A[i, j]
            if v != 0.0:
                entries.append((i + 1, j + 1, v))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"%%matrix coordinate real {symmetry}\n")
        fh.write(f"{rows} {cols} {len(entries)}\n")
        for i, j, v in entries:
            fh.write(f"{i} {j} {'%.17g' % v}\n")


@pytest.mark.parametrize("symmetry, cols", [("general", 12), ("symmetric", 9)])
def test_save_matrix_bytes_match_the_entry_loop(rng, tmp_path, symmetry, cols):
    A = rng.standard_normal((9, cols)) * 10.0 ** rng.integers(-300, 300, (9, cols))
    A[rng.random((9, cols)) < 0.6] = 0.0
    A[0, 0], A[4, 2], A[2, 4], A[3, 1] = -0.0, 5e-324, -1.0, 0.0
    def read(name):
        with open(os.path.join(tmp_path, name), "rb") as fh:
            return fh.read()
    save_matrix_by_loop(os.path.join(tmp_path, "ref.mtx"), A, symmetry)
    save_matrix(os.path.join(tmp_path, "dense.mtx"), A, symmetry=symmetry)
    # a CSR input with unsorted column indices, a duplicate pair that
    # cancels where A is zero, and a stored zero
    C = sp.coo_array(A)
    row = np.concatenate([C.row, [3, 3, 6]])
    col = np.concatenate([C.col, [1, 1, 0]])
    val = np.concatenate([C.data, [2.0, -2.0, 0.0]])
    order = np.lexsort((rng.permutation(row.size), row))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(row, minlength=9))])
    csr = sp.csr_array((val[order], col[order], indptr), shape=A.shape)
    assert not csr.has_canonical_format
    save_matrix(os.path.join(tmp_path, "csr.mtx"), sp.csr_array(A),
                symmetry=symmetry)
    save_matrix(os.path.join(tmp_path, "messy.mtx"), csr, symmetry=symmetry)
    assert not csr.has_canonical_format  # the caller's array is not sorted in place
    assert read("dense.mtx") == read("ref.mtx")
    assert read("csr.mtx") == read("ref.mtx")
    assert read("messy.mtx") == read("ref.mtx")


@pytest.mark.parametrize("A, symmetry, message", [
    (np.eye(2), "banded", "unknown symmetry tag 'banded'"),
    (np.ones((2, 3)), "symmetric", "symmetric storage requires a square matrix"),
], ids=["banded", "2x3 symmetric"])
def test_save_matrix_rejects_bad_storage(tmp_path, A, symmetry, message):
    path = os.path.join(tmp_path, "A.mtx")
    with pytest.raises(InvalidParameterError, match=f"^{message}$"):
        save_matrix(path, A, symmetry=symmetry)
    assert not os.path.exists(path)


def test_matrix_duplicate_entries_summed(tmp_path):
    path = os.path.join(tmp_path, "d.mtx")
    with open(path, "w") as fh:
        fh.write("%%matrix coordinate real general\n2 2 2\n")
        fh.write("1 1 1.5\n1 1 2.5\n")
    assert load_matrix(path)[0, 0] == pytest.approx(4.0)


def test_matrix_parse_errors_carry_line_numbers(tmp_path):
    path = os.path.join(tmp_path, "bad.mtx")
    cases = [
        ("general", "1 junk 1.0", "could not parse entry"),
        ("general", "1 1.5 1.0", "could not parse entry"),
        ("general", "1 2", "entry must be 'row col value'"),
        ("general", "3 1 1.0", r"index \(3, 1\) outside 2x2"),
        ("general", "1 0 1.0", r"index \(1, 0\) outside 2x2"),
        ("symmetric", "1 2 1.0", "upper-triangle entry"),
    ]
    # Empty lines before the bad entry are skipped but still counted.
    for gap in ("", "\n", "\n  \n"):
        line = 4 + gap.count("\n")
        for symmetry, entry, message in cases:
            with open(path, "w") as fh:
                fh.write(f"%%matrix coordinate real {symmetry}\n2 2 2\n"
                         f"1 1 1.0\n{gap}{entry}\n")
            with pytest.raises(FormatError, match=message) as err:
                load_matrix(path)
            assert f":{line}:" in str(err.value)
    # Header and size-line errors: the whole file, the message, its line.
    head = "%%matrix coordinate real"
    files = [
        ("", "empty matrix file", 1),
        ("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1.0\n",
         "expected header starting with '%%matrix coordinate real'", 1),
        (f"{head} hermitian\n1 1 1\n1 1 1.0\n",
         "unknown symmetry tag 'hermitian'", 1),
        (f"{head} general\n", "missing size line", 2),
        (f"{head} general\n2 2\n", "size line must be 'rows cols nnz'", 2),
        (f"{head} general\n2 x 1\n1 1 1.0\n",
         "size line must hold three integers", 2),
        (f"{head} general\n2 2.5 1\n1 1 1.0\n",
         "size line must hold three integers", 2),
        (f"{head} general\n0 2 0\n", "invalid matrix dimensions", 2),
        (f"{head} general\n2 2 -1\n", "invalid matrix dimensions", 2),
        (f"{head} symmetric\n2 3 1\n1 1 1.0\n",
         "symmetric matrix must be square", 2),
        (f"{head} general\n2 2 3\n1 1 1.0\n2 2 1.0\n",
         "expected 3 entries, found 2", 4),
    ]
    for text, message, line in files:
        with open(path, "w") as fh:
            fh.write(text)
        with pytest.raises(FormatError) as err:
            load_matrix(path)
        assert str(err.value) == f"{path}:{line}: {message}"


def test_matrix_symmetric_rejects_upper_triangle(tmp_path):
    path = os.path.join(tmp_path, "up.mtx")
    with open(path, "w") as fh:
        fh.write("%%matrix coordinate real symmetric\n2 2 1\n1 2 3.0\n")
    with pytest.raises(FormatError):
        load_matrix(path)


def test_system_roundtrip(tmp_path, rng):
    sys_ = build_mass_spring_chain(
        6, list(rng.uniform(0.5, 2.0, 6)), list(rng.uniform(1.0, 5.0, 7)),
        0.02, 1e-3, (0, 3),
    )
    paths = {
        f"{key}_path": os.path.join(tmp_path, f"{key}.mtx")
        for key in ("mass", "damping", "stiffness", "input")
    }
    save_system(sys_, **paths)
    back = load_system(**paths)
    for name in ("mass", "damping", "stiffness"):
        assert getattr(back, name).toarray() == pytest.approx(
            getattr(sys_, name).toarray(), rel=1e-15
        )
    assert back.input_map == pytest.approx(sys_.input_map, rel=1e-15)


def test_load_system_scalar_files(tmp_path):
    for name in ("mass", "damping", "stiffness", "input"):
        with open(os.path.join(tmp_path, f"{name}.mtx"), "w") as fh:
            fh.write("%%matrix coordinate real general\n1 1 1\n1 1 1.0\n")
    sys_ = load_system(
        os.path.join(tmp_path, "mass.mtx"),
        os.path.join(tmp_path, "damping.mtx"),
        os.path.join(tmp_path, "stiffness.mtx"),
        os.path.join(tmp_path, "input.mtx"),
    )
    for A in (sys_.mass, sys_.damping, sys_.stiffness):
        np.testing.assert_allclose(A.toarray(), [[1.0]])
    np.testing.assert_allclose(sys_.input_map, [[1.0]])


def test_load_system_symmetrizes_general_files(tmp_path, rng):
    paths = {
        f"{key}_path": os.path.join(tmp_path, f"{key}.mtx")
        for key in ("mass", "damping", "stiffness", "input")
    }
    skewed = {key: random_spd(rng, 3) + rng.standard_normal((3, 3))
              for key in ("mass", "damping", "stiffness")}
    for key, A in skewed.items():
        save_matrix(paths[f"{key}_path"], A, symmetry="general")
    save_matrix(paths["input_path"], np.ones((3, 1)), symmetry="general")
    sys_ = load_system(**paths)
    for key, A in skewed.items():
        S = getattr(sys_, key).toarray()
        assert np.array_equal(S, S.T)
        assert np.array_equal(S, 0.5 * (A + A.T))


@pytest.mark.parametrize("symmetry", ["symmetric", "general"])
def test_load_system_is_csr_equal_to_symmetrized_load_matrix(tmp_path, rng,
                                                              symmetry):
    n = 12
    paths = {
        f"{key}_path": os.path.join(tmp_path, f"{key}.mtx")
        for key in ("mass", "damping", "stiffness", "input")
    }
    for key in ("mass", "damping", "stiffness"):
        A = random_spd(rng, n)
        if symmetry == "general":
            A = A + rng.standard_normal((n, n))  # a skew part
        A[rng.random((n, n)) < 0.5] = 0.0
        save_matrix(paths[f"{key}_path"], A, symmetry=symmetry)
    save_matrix(paths["input_path"], rng.standard_normal((n, 2)))
    sys_ = load_system(**paths)
    for key in ("mass", "damping", "stiffness"):
        S = getattr(sys_, key)
        assert sp.issparse(S) and S.format == "csr"
        D = load_matrix(paths[f"{key}_path"])
        assert np.array_equal(S.toarray(), 0.5 * (D + D.T))
    assert np.array_equal(sys_.input_map, load_matrix(paths["input_path"]))


def test_load_system_dimension_mismatch(tmp_path):
    sizes = {"mass": 3, "damping": 3, "stiffness": 4, "input": 3}
    for name, n in sizes.items():
        path = os.path.join(tmp_path, f"{name}.mtx")
        with open(path, "w") as fh:
            fh.write(f"%%matrix coordinate real general\n{n} {n} 1\n1 1 1.0\n")
    with pytest.raises(InvalidInputError):
        load_system(
            os.path.join(tmp_path, "mass.mtx"),
            os.path.join(tmp_path, "damping.mtx"),
            os.path.join(tmp_path, "stiffness.mtx"),
            os.path.join(tmp_path, "input.mtx"),
        )

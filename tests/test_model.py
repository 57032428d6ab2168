import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mechrom import (
    SecondOrderSystem,
    build_mass_spring_chain,
    force_at,
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
    np.testing.assert_allclose(sys_.mass, [[1.0]])
    np.testing.assert_allclose(sys_.stiffness, [[2.0]])
    np.testing.assert_allclose(sys_.damping, [[0.0]])
    np.testing.assert_allclose(sys_.input_map, [[1.0]])


def test_two_mass_chain_spectrum():
    sys_ = build_mass_spring_chain(2, [1.0, 1.0], [1.0, 1.0, 1.0], 0.0, 0.0, (0,))
    np.testing.assert_allclose(sys_.stiffness, [[2.0, -1.0], [-1.0, 2.0]])
    # 2x2 eigenvalues by hand: trace 4, det 3
    w = np.linalg.eigvalsh(sys_.stiffness)
    assert w == pytest.approx([1.0, 3.0], abs=1e-12)
    assert w.min() > 0


def test_three_mass_chain_definiteness():
    sys_ = build_mass_spring_chain(3, [2.0] * 3, [5.0] * 4, 0.01, 0.001, (1,))
    for A in (sys_.mass, sys_.stiffness):
        assert np.linalg.eigvalsh(A).min() > 0
    assert np.linalg.eigvalsh(sys_.damping).min() >= -1e-12
    assert sys_.n == 3 and sys_.m == 1


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


def test_force_at_zero_input():
    sys_ = build_mass_spring_chain(1, [1.0], [1.0, 1.0], 0.0, 0.0, (0,))
    assert force_at(sys_, [0.0]) == pytest.approx([0.0])


def test_force_at_unit_column():
    sys_ = SecondOrderSystem(
        mass=np.eye(2),
        damping=np.zeros((2, 2)),
        stiffness=np.eye(2),
        input_map=np.array([[1.0], [0.0]]),
    )
    assert force_at(sys_, [3.0]) == pytest.approx([3.0, 0.0])


def test_force_at_against_triple_loop(rng):
    B = rng.standard_normal((5, 3))
    u = rng.standard_normal(3)
    sys_ = SecondOrderSystem(
        mass=np.eye(5), damping=np.zeros((5, 5)), stiffness=np.eye(5),
        input_map=B,
    )
    out = force_at(sys_, u)
    oracle = np.zeros(5)
    for i in range(5):
        for j in range(3):
            oracle[i] += B[i, j] * u[j]
    assert out == pytest.approx(oracle, abs=1e-14)


def test_force_at_length_mismatch():
    sys_ = build_mass_spring_chain(2, [1.0, 1.0], [1.0] * 3, 0.0, 0.0, (0,))
    with pytest.raises(InvalidParameterError):
        force_at(sys_, [1.0, 2.0])


def test_construction_stores_operators_as_given():
    A = np.array([[1.0, 1e-13], [0.0, 1.0]])
    sys_ = SecondOrderSystem(
        mass=A, damping=np.zeros((2, 2)), stiffness=np.eye(2),
    )
    assert np.array_equal(sys_.mass, A)
    assert sys_.input_map is None and sys_.m == 0
    assert sys_.basis is None and sys_.label == ""


def test_construction_rejects_bad_operators():
    with pytest.raises(InvalidInputError, match="damping must be 2x2"):
        SecondOrderSystem(np.eye(2), np.eye(3), np.eye(2))
    with pytest.raises(InvalidInputError, match="damping must be a 2-D"):
        SecondOrderSystem(np.eye(2), None, np.eye(2))
    with pytest.raises(InvalidInputError, match="non-finite"):
        SecondOrderSystem(np.eye(2), np.eye(2), np.diag([1.0, np.inf]))
    with pytest.raises(InvalidInputError, match="input_map"):
        SecondOrderSystem(np.eye(2), np.eye(2), np.eye(2), np.ones((3, 1)))


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


def test_matrix_duplicate_entries_summed(tmp_path):
    path = os.path.join(tmp_path, "d.mtx")
    with open(path, "w") as fh:
        fh.write("%%matrix coordinate real general\n2 2 2\n")
        fh.write("1 1 1.5\n1 1 2.5\n")
    assert load_matrix(path)[0, 0] == pytest.approx(4.0)


def test_matrix_parse_errors_carry_line_numbers(tmp_path):
    path = os.path.join(tmp_path, "bad.mtx")
    with open(path, "w") as fh:
        fh.write("%%matrix coordinate real general\n2 2 1\n1 junk 1.0\n")
    with pytest.raises(FormatError) as err:
        load_matrix(path)
    assert ":3:" in str(err.value)


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
    for name in ("mass", "damping", "stiffness", "input_map"):
        assert getattr(back, name) == pytest.approx(
            getattr(sys_, name), rel=1e-15
        )


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
    for A in (sys_.mass, sys_.damping, sys_.stiffness, sys_.input_map):
        np.testing.assert_allclose(A, [[1.0]])


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
        S = getattr(sys_, key)
        assert np.array_equal(S, S.T)
        assert np.array_equal(S, 0.5 * (A + A.T))


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

"""Tests for basis computation, best-approximation error, and the
projection-based reduction oracle."""

import numpy as np
import pytest

from mechrom.errors import (
    DegenerateInputError,
    InvalidInputError,
    InvalidParameterError,
)
from mechrom import pod
from mechrom.model import SecondOrderSystem, build_mass_spring_chain
from mechrom.pod import (
    PodBasis,
    compute_basis,
    intrusive_reduce,
    projection_error,
)

from tests._helpers import random_spd


def constructed_snapshots(rng, sigma, n=None, N=None):
    """X = Q @ diag(sigma) @ P.T with random orthonormal factors, so the
    singular values of X are exactly ``sigma``."""
    sigma = np.asarray(sigma, dtype=float)
    k = sigma.size
    n = n or k
    N = N or k
    Q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    P, _ = np.linalg.qr(rng.standard_normal((N, k)))
    return Q @ np.diag(sigma) @ P.T


class TestPodBasisType:
    def test_orthonormality_enforced(self, rng):
        bad = rng.standard_normal((4, 2))
        with pytest.raises(InvalidInputError, match="orthonormal"):
            PodBasis(modes=bad, singular_values=np.ones(4))

    def test_sigma_must_not_be_empty(self):
        with pytest.raises(InvalidInputError, match="spectrum is empty"):
            PodBasis(modes=np.eye(2), singular_values=[])

    def test_sigma_must_be_nonincreasing(self):
        with pytest.raises(InvalidInputError):
            PodBasis(modes=np.eye(2), singular_values=[1.0, 2.0])

    def test_sigma_must_be_nonnegative(self):
        with pytest.raises(InvalidInputError):
            PodBasis(modes=np.eye(2), singular_values=[1.0, -0.5])

    @pytest.mark.parametrize("sigma", [[1.0, np.nan, 0.5], [np.inf, 1.0, 0.5]],
                             ids=["nan", "inf"])
    def test_sigma_must_be_finite(self, sigma):
        with pytest.raises(InvalidInputError, match="finite"):
            PodBasis(modes=np.eye(3)[:, :2], singular_values=sigma)

    def test_more_modes_than_rows_rejected(self):
        with pytest.raises(InvalidParameterError,
                           match="^rank 3 exceeds state dimension 2$"):
            PodBasis(modes=np.ones((2, 3)), singular_values=np.ones(3))

    def test_rank_and_n(self):
        basis = PodBasis(modes=np.eye(3)[:, :2], singular_values=[3.0, 1.0, 0.5])
        assert basis.n == 3
        assert basis.rank == 2


class TestComputeBasis:
    def test_rank_one_example(self):
        basis = compute_basis(np.array([[1.0, 0.0], [0.0, 0.0]]), rank=1)
        np.testing.assert_allclose(basis.singular_values, [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(basis.modes, [[1.0], [0.0]], atol=1e-15)

    def test_constructed_spectrum(self, rng):
        X = constructed_snapshots(rng, [3.0, 2.0, 1.0], n=6, N=5)
        basis = compute_basis(X, rank=3)
        np.testing.assert_allclose(
            basis.singular_values[:3], [3.0, 2.0, 1.0], rtol=1e-12
        )
        np.testing.assert_allclose(
            basis.singular_values[3:], 0.0, atol=1e-12
        )

    def test_columns_are_orthonormal(self, rng):
        X = rng.standard_normal((8, 20))
        basis = compute_basis(X, rank=5)
        gram = basis.modes.T @ basis.modes
        assert np.linalg.norm(gram - np.eye(5)) <= 1e-12

    def test_sign_convention(self, rng):
        X = rng.standard_normal((7, 12))
        basis = compute_basis(X, rank=4)
        for j in range(4):
            col = basis.modes[:, j]
            assert col[np.argmax(np.abs(col))] >= 0.0

    def test_tolerance_selects_rank_four(self, rng):
        # Spectrum with a clean drop below 1e-2 after the fourth value.
        sigma = [1.0, 0.3, 0.08, 0.03, 5e-3, 1e-3, 2e-4]
        X = constructed_snapshots(rng, sigma, n=10, N=9)
        basis = compute_basis(X, tol=1e-2)
        assert basis.rank == 4

    def test_tolerance_beyond_spectrum_treated_as_zero(self, rng):
        X = constructed_snapshots(rng, [1.0, 0.5])
        assert compute_basis(X, tol=0.6).rank == 1
        # sigma_3 does not exist; it counts as 0, so full rank suffices.
        assert compute_basis(X, tol=0.1).rank == 2

    def test_energy_selector(self, rng):
        # Squared values (9, 4, 1); 13/14 of the energy needs two modes.
        X = constructed_snapshots(rng, [3.0, 2.0, 1.0], n=5, N=4)
        assert compute_basis(X, energy=0.9).rank == 2
        assert compute_basis(X, energy=0.99).rank == 3

    def test_exactly_one_selector(self, rng):
        X = rng.standard_normal((3, 3))
        with pytest.raises(InvalidParameterError, match="exactly one"):
            compute_basis(X)
        with pytest.raises(InvalidParameterError, match="exactly one"):
            compute_basis(X, rank=1, tol=0.5)

    def test_rank_out_of_range(self, rng):
        X = rng.standard_normal((3, 5))
        with pytest.raises(InvalidParameterError):
            compute_basis(X, rank=0)
        with pytest.raises(InvalidParameterError):
            compute_basis(X, rank=4)

    @pytest.mark.parametrize("rank", [2.5, 3.0, np.float64(3.0), True, "3"],
                             ids=["2.5", "3.0", "float64", "True", "str"])
    def test_rank_must_be_an_integer(self, rng, rank):
        X = rng.standard_normal((4, 5))
        with pytest.raises(InvalidParameterError, match="integer"):
            compute_basis(X, rank=rank)

    def test_numpy_integer_rank_accepted(self, rng):
        X = rng.standard_normal((4, 5))
        assert compute_basis(X, rank=np.int64(3)).rank == 3

    def test_tol_out_of_range(self, rng):
        X = rng.standard_normal((3, 5))
        for tol in (0.0, 1.0, -0.1):
            with pytest.raises(InvalidParameterError):
                compute_basis(X, tol=tol)

    @pytest.mark.parametrize("selector", [
        {}, {"rank": 0}, {"rank": 6}, {"rank": 2.0}, {"tol": 1.0},
        {"energy": 0.0}, {"rank": 2, "energy": 0.5},
    ])
    def test_selector_checked_before_the_decomposition(self, rng, monkeypatch,
                                                       selector):
        def decomposed(*args, **kwargs):
            raise AssertionError("the selector was checked after the SVD")

        monkeypatch.setattr(pod.la, "svd", decomposed)
        with pytest.raises(InvalidParameterError):
            compute_basis(rng.standard_normal((5, 7)), **selector)

    def test_zero_matrix_rejected(self):
        with pytest.raises(DegenerateInputError, match="zero"):
            compute_basis(np.zeros((4, 4)), rank=1)

    @pytest.mark.parametrize("X", [np.ones(4), np.empty((3, 0)),
                                   np.empty((0, 3))],
                             ids=["1-D", "no columns", "no rows"])
    def test_snapshot_matrix_must_be_2d_and_nonempty(self, X):
        with pytest.raises(InvalidInputError,
                           match="^snapshot matrix must be 2-D and nonempty$"):
            compute_basis(X, rank=1)

    def test_non_finite_rejected(self):
        X = np.ones((3, 3))
        X[1, 1] = np.nan
        with pytest.raises(InvalidInputError, match="non-finite"):
            compute_basis(X, rank=1)


class TestProjectionError:
    def test_full_rank_basis_gives_zero(self, rng):
        X = rng.standard_normal((5, 8))
        basis = compute_basis(X, rank=5)
        assert projection_error(X, basis) <= 1e-12 * np.linalg.norm(X)

    def test_sqrt_five_example(self, rng):
        X = constructed_snapshots(rng, [3.0, 2.0, 1.0], n=6, N=5)
        basis = compute_basis(X, rank=1)
        assert projection_error(X, basis) == pytest.approx(np.sqrt(5.0), rel=1e-12)

    def test_matches_tail_singular_values(self, rng):
        # Best rank-r approximation error is the root of the tail energy.
        for _ in range(5):
            X = rng.standard_normal((7, 9))
            s = np.linalg.svd(X, compute_uv=False)
            for r in (1, 3, 5):
                basis = compute_basis(X, rank=r)
                expected = np.sqrt(np.sum(s[r:] ** 2))
                assert projection_error(X, basis) == pytest.approx(
                    expected, rel=1e-10
                )

    def test_shape_mismatch(self, rng):
        X = rng.standard_normal((4, 6))
        basis = compute_basis(X, rank=2)
        with pytest.raises(InvalidInputError):
            projection_error(rng.standard_normal((5, 6)), basis)

    def test_rank_zero_unrepresentable(self):
        with pytest.raises(InvalidParameterError):
            PodBasis(modes=np.empty((3, 0)), singular_values=np.ones(3))


def random_system(rng, n, m=1):
    return SecondOrderSystem(
        mass=random_spd(rng, n),
        damping=random_spd(rng, n, eigmin=0.0),
        stiffness=random_spd(rng, n),
        input_map=rng.standard_normal((n, m)),
    )


def random_basis(rng, n, r):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return PodBasis(modes=Q[:, :r], singular_values=np.linspace(2.0, 1.0, n))


class TestIntrusiveReduce:
    def test_identity_basis_is_noop(self, rng):
        sys5 = random_system(rng, 5, m=2)
        basis = PodBasis(modes=np.eye(5), singular_values=np.ones(5))
        red = intrusive_reduce(sys5, basis)
        np.testing.assert_allclose(red.mass, sys5.mass, atol=1e-14)
        np.testing.assert_allclose(red.damping, sys5.damping, atol=1e-14)
        np.testing.assert_allclose(red.stiffness, sys5.stiffness, atol=1e-14)
        np.testing.assert_allclose(red.input_map, sys5.input_map, atol=1e-14)

    def test_definiteness_preserved(self, rng):
        for _ in range(5):
            sys8 = random_system(rng, 8)
            red = intrusive_reduce(sys8, random_basis(rng, 8, 3))
            assert np.linalg.eigvalsh(red.mass).min() > 0.0
            assert np.linalg.eigvalsh(red.stiffness).min() > 0.0
            assert np.linalg.eigvalsh(red.damping).min() >= -1e-12

    def test_coordinate_extraction(self, rng):
        sys4 = random_system(rng, 4)
        e1 = np.zeros((4, 1))
        e1[0, 0] = 1.0
        basis = PodBasis(modes=e1, singular_values=np.ones(4))
        red = intrusive_reduce(sys4, basis)
        assert red.mass.shape == (1, 1)
        assert red.mass[0, 0] == pytest.approx(sys4.mass[0, 0], rel=1e-14)
        assert red.stiffness[0, 0] == pytest.approx(sys4.stiffness[0, 0], rel=1e-14)

    def test_matches_congruence_oracle(self, rng):
        sys6 = random_system(rng, 6, m=2)
        basis = random_basis(rng, 6, 2)
        red = intrusive_reduce(sys6, basis)
        V = basis.modes
        np.testing.assert_allclose(red.mass, V.T @ sys6.mass @ V, atol=1e-13)
        np.testing.assert_allclose(red.input_map, V.T @ sys6.input_map, atol=1e-13)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(InvalidInputError, match="does not match"):
            intrusive_reduce(random_system(rng, 5), random_basis(rng, 4, 2))

    def test_exactly_symmetric(self, rng):
        sys9 = random_system(rng, 9)
        basis = random_basis(rng, 9, 4)
        red = intrusive_reduce(sys9, basis)
        V = basis.modes
        for name in ("mass", "damping", "stiffness"):
            A = getattr(red, name)
            assert np.array_equal(A, A.T)
            P = V.T @ getattr(sys9, name) @ V
            assert np.array_equal(A, 0.5 * (P + P.T))

    def test_sparse_model_reduces_like_its_dense_form(self, rng):
        chain = build_mass_spring_chain(
            40, rng.uniform(0.5, 2.0, 40), rng.uniform(1.0, 5.0, 41),
            alpha_r=0.05, beta_r=1e-3, input_nodes=(0, 20),
        )
        dense = SecondOrderSystem(chain.mass.toarray(), chain.damping.toarray(),
                                  chain.stiffness.toarray(), chain.input_map)
        basis = random_basis(rng, 40, 6)
        red = intrusive_reduce(chain, basis)
        ref = intrusive_reduce(dense, basis)
        for name in ("mass", "damping", "stiffness", "input_map"):
            got, want = getattr(red, name), getattr(ref, name)
            assert isinstance(got, np.ndarray) and got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

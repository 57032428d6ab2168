"""Tests for trajectory error metrics and pencil stability checks."""

import numpy as np
import pytest

from mechrom.copinf import infer_constrained
from mechrom.errors import (
    DegenerateInputError,
    InsufficientDataError,
    InvalidInputError,
    SingularOperatorError,
)
from mechrom.evaluate import (
    STABILITY_TOL,
    is_stable,
    pencil_spectrum,
    relative_error,
    save_error_series,
)
from mechrom.model import SecondOrderSystem, build_mass_spring_chain

from tests._helpers import random_spd


class TestRelativeError:
    def test_identical_trajectories(self, rng):
        X = rng.standard_normal((4, 7))
        eps = relative_error(X, X)
        assert isinstance(eps, np.ndarray)
        np.testing.assert_array_equal(eps, np.zeros(7))
        assert eps.max() == 0.0

    def test_definition_unrolled(self):
        # reference column norms (1, 2); zero approximation.
        X_ref = np.array([[1.0, 0.0], [0.0, 2.0]])
        eps = relative_error(X_ref, np.zeros((2, 2)))
        np.testing.assert_allclose(eps, [0.5, 1.0], atol=1e-15)
        assert eps.max() == pytest.approx(1.0)

    def test_scalar_loop_oracle(self, rng):
        X_ref = rng.standard_normal((5, 9))
        X_rom = rng.standard_normal((5, 9))
        eps = relative_error(X_ref, X_rom)
        denom = 0.0
        for j in range(9):
            norm = sum(X_ref[i, j] ** 2 for i in range(5)) ** 0.5
            denom = max(denom, norm)
        for j in range(9):
            diff = sum((X_ref[i, j] - X_rom[i, j]) ** 2 for i in range(5)) ** 0.5
            assert eps[j] == pytest.approx(diff / denom, rel=1e-13)

    def test_scale_invariance(self, rng):
        X_ref = rng.standard_normal((3, 6))
        X_rom = rng.standard_normal((3, 6))
        base = relative_error(X_ref, X_rom)
        for c in (1e-7, 3.5, -2.0, 1e8):
            scaled = relative_error(c * X_ref, c * X_rom)
            np.testing.assert_allclose(scaled, base, rtol=1e-12)

    def test_shape_mismatch_names_both(self, rng):
        with pytest.raises(InvalidInputError) as exc:
            relative_error(np.ones((3, 5)), np.ones((3, 6)))
        assert "(3, 5)" in str(exc.value) and "(3, 6)" in str(exc.value)

    def test_zero_reference(self):
        with pytest.raises(DegenerateInputError, match="zero"):
            relative_error(np.zeros((2, 4)), np.ones((2, 4)))

    def test_empty_window(self):
        with pytest.raises(InsufficientDataError, match="no snapshots"):
            relative_error(np.ones((3, 0)), np.ones((3, 0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_reference(self, rng, bad):
        X_ref = rng.standard_normal((3, 5))
        X_ref[1, 2] = bad
        with pytest.raises(InvalidInputError, match="reference"):
            relative_error(X_ref, np.zeros((3, 5)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_approximation_keeps_its_error(self, rng, bad):
        # A diverged replay still gets its errors, whose maximum the
        # command line's divergence report follows.
        X_ref = rng.standard_normal((3, 5))
        X_rom = X_ref.copy()
        X_rom[0, 3:] = bad
        eps = relative_error(X_ref, X_rom)
        np.testing.assert_array_equal(eps[:3], np.zeros(3))
        assert not np.any(np.isfinite(eps[3:]))
        assert not np.isfinite(eps.max())

    def test_times_length_checked(self, rng, tmp_path):
        # The times meet the errors in the export, which checks them.
        X = rng.standard_normal((2, 5))
        with pytest.raises(InvalidInputError, match="got 2 and 5"):
            save_error_series(tmp_path / "errors.csv", [0.1, 0.2],
                              relative_error(X, X), 0)


class TestPencilSpectrum:
    def test_undamped_oscillator(self):
        model = SecondOrderSystem([[1.0]], [[0.0]], [[1.0]])
        eig = pencil_spectrum(model)
        np.testing.assert_allclose(sorted(eig.imag), [-1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(eig.real, 0.0, atol=1e-12)
        assert is_stable(model)

    def test_scalar_quadratic_roots(self):
        # s^2 + 3 s + 2 = (s + 1)(s + 2)
        eig = pencil_spectrum(SecondOrderSystem([[1.0]], [[3.0]], [[2.0]]))
        np.testing.assert_allclose(sorted(eig.real), [-2.0, -1.0], atol=1e-10)
        np.testing.assert_allclose(eig.imag, 0.0, atol=1e-12)

    def test_indefinite_stiffness_unstable(self):
        model = SecondOrderSystem([[1.0]], [[0.0]], [[-1.0]])
        eig = pencil_spectrum(model)
        np.testing.assert_allclose(sorted(eig.real), [-1.0, 1.0], atol=1e-10)
        assert not is_stable(model)

    @pytest.mark.parametrize("growth", [0.5 * STABILITY_TOL, 2.0 * STABILITY_TOL])
    def test_stability_threshold(self, growth):
        # s^2 - 2 g s + 1 has the roots g +- i sqrt(1 - g^2).
        model = SecondOrderSystem([[1.0]], [[-2.0 * growth]], [[1.0]])
        eig = pencil_spectrum(model)
        np.testing.assert_allclose(eig.real, growth, rtol=1e-3)
        assert is_stable(model) is (growth <= STABILITY_TOL)

    def test_matches_polyroot_oracle(self, rng):
        for _ in range(5):
            m, e, k = rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0), rng.uniform(0.5, 4.0)
            model = SecondOrderSystem([[m]], [[e]], [[k]])
            eig = np.array(sorted(pencil_spectrum(model), key=lambda z: z.imag))
            roots = np.array(sorted(np.roots([m, e, k]), key=lambda z: z.imag))
            np.testing.assert_allclose(eig, roots, rtol=1e-10, atol=1e-10)

    def test_returns_2r_values(self, rng):
        M = random_spd(rng, 3)
        E = random_spd(rng, 3, eigmin=0.0)
        K = random_spd(rng, 3)
        model = SecondOrderSystem(M, E, K)
        assert pencil_spectrum(model).shape == (6,)
        assert is_stable(model)

    def test_sparse_operators_give_the_dense_bits(self):
        chain = build_mass_spring_chain(4, np.ones(4), np.ones(5), 0.1, 0.01)
        dense = SecondOrderSystem(
            *(A.toarray() for A in (chain.mass, chain.damping, chain.stiffness)))
        np.testing.assert_array_equal(pencil_spectrum(chain),
                                      pencil_spectrum(dense))
        assert is_stable(chain)

    def test_singular_mass(self):
        for mass in (np.diag([1.0, 0.0]), np.ones((2, 2)), np.zeros((2, 2))):
            with pytest.raises(SingularOperatorError, match="singular"):
                pencil_spectrum(SecondOrderSystem(mass, np.eye(2), np.eye(2)))

    def test_shape_mismatch(self):
        # The model's constructor rejects the operators before any pencil.
        with pytest.raises(InvalidInputError, match="damping"):
            SecondOrderSystem(np.eye(2), np.eye(3), np.eye(2))

    @pytest.mark.parametrize("name", ["mass", "damping", "stiffness"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry(self, name, bad):
        operators = {"mass": np.eye(2), "damping": np.eye(2),
                     "stiffness": np.eye(2)}
        operators[name][0, 1] = bad
        with pytest.raises(InvalidInputError,
                           match=f"^{name} contains non-finite entries$"):
            SecondOrderSystem(**operators)

    def test_constrained_models_are_stable(self, rng):
        for _ in range(3):
            D = rng.standard_normal((6, 30))
            rhs = rng.standard_normal((2, 30))
            rom, _ = infer_constrained(D, rhs, omega=1e-8)
            assert is_stable(rom)


def phases(path):
    return [ln.rsplit(",", 1)[1] for ln in path.read_text().splitlines()[1:]]


class TestErrorSeriesExport:
    def test_phase_column(self, rng, tmp_path):
        eps = relative_error(rng.standard_normal((2, 6)),
                             rng.standard_normal((2, 6)))
        path = tmp_path / "errors.csv"
        save_error_series(path, 0.1 * np.arange(1, 7), eps, 3)
        assert path.read_text().splitlines()[0] == "t,eps,phase"
        assert phases(path) == ["train", "train", "train", "test", "test", "test"]

    def test_no_split_marks_all_test(self, rng, tmp_path):
        eps = relative_error(rng.standard_normal((2, 3)),
                             rng.standard_normal((2, 3)))
        path = tmp_path / "errors.csv"
        save_error_series(path, np.arange(3.0), eps, 0)
        assert phases(path) == ["test", "test", "test"]

    def test_all_train(self, rng, tmp_path):
        path = tmp_path / "errors.csv"
        save_error_series(path, np.arange(3.0), rng.uniform(size=3), 3)
        assert phases(path) == ["train", "train", "train"]

    def test_round_trip_values(self, rng, tmp_path):
        times = np.linspace(0.5, 0.9, 5)
        eps = relative_error(rng.standard_normal((3, 5)),
                             rng.standard_normal((3, 5)))
        path = tmp_path / "errors.csv"
        save_error_series(path, times, eps, 2)
        rows = np.loadtxt(
            path, delimiter=",", skiprows=1, usecols=(0, 1), ndmin=2
        )
        np.testing.assert_allclose(rows[:, 0], times, rtol=1e-15)
        np.testing.assert_allclose(rows[:, 1], eps, rtol=1e-15)

    def test_series_length_validation(self, tmp_path):
        with pytest.raises(InvalidInputError, match="equal length"):
            save_error_series(tmp_path / "errors.csv", [0.1, 0.2], [0.5], 0)
        assert not (tmp_path / "errors.csv").exists()

    @pytest.mark.parametrize("train", [-1, 4])
    def test_train_count_outside_the_rows(self, tmp_path, train):
        with pytest.raises(InvalidInputError,
                           match=rf"train must lie in \[0, 3\], got {train}"):
            save_error_series(tmp_path / "errors.csv", np.arange(3.0),
                              np.zeros(3), train)
        assert not (tmp_path / "errors.csv").exists()

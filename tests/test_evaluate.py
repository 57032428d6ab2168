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
    ErrorSeries,
    is_stable,
    pencil_spectrum,
    relative_error,
    save_error_series,
)

from tests._helpers import random_spd


class TestRelativeError:
    def test_identical_trajectories(self, rng):
        X = rng.standard_normal((4, 7))
        series = relative_error(X, X)
        np.testing.assert_array_equal(series.eps, np.zeros(7))
        assert series.max_eps == 0.0

    def test_definition_unrolled(self):
        # reference column norms (1, 2); zero approximation.
        X_ref = np.array([[1.0, 0.0], [0.0, 2.0]])
        series = relative_error(X_ref, np.zeros((2, 2)))
        np.testing.assert_allclose(series.eps, [0.5, 1.0], atol=1e-15)
        assert series.max_eps == pytest.approx(1.0)

    def test_scalar_loop_oracle(self, rng):
        X_ref = rng.standard_normal((5, 9))
        X_rom = rng.standard_normal((5, 9))
        series = relative_error(X_ref, X_rom)
        denom = 0.0
        for j in range(9):
            norm = sum(X_ref[i, j] ** 2 for i in range(5)) ** 0.5
            denom = max(denom, norm)
        for j in range(9):
            diff = sum((X_ref[i, j] - X_rom[i, j]) ** 2 for i in range(5)) ** 0.5
            assert series.eps[j] == pytest.approx(diff / denom, rel=1e-13)

    def test_scale_invariance(self, rng):
        X_ref = rng.standard_normal((3, 6))
        X_rom = rng.standard_normal((3, 6))
        base = relative_error(X_ref, X_rom)
        for c in (1e-7, 3.5, -2.0, 1e8):
            scaled = relative_error(c * X_ref, c * X_rom)
            np.testing.assert_allclose(scaled.eps, base.eps, rtol=1e-12)

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
        # A diverged replay still gets its series, which the command
        # line's divergence report follows.
        X_ref = rng.standard_normal((3, 5))
        X_rom = X_ref.copy()
        X_rom[0, 3:] = bad
        series = relative_error(X_ref, X_rom)
        np.testing.assert_array_equal(series.eps[:3], np.zeros(3))
        assert not np.any(np.isfinite(series.eps[3:]))
        assert not np.isfinite(series.max_eps)

    def test_times_length_checked(self, rng):
        X = rng.standard_normal((2, 5))
        with pytest.raises(InvalidInputError, match="5 snapshots"):
            relative_error(X, X, times=[0.1, 0.2])

    def test_max_eps_matches_series(self, rng):
        series = relative_error(
            rng.standard_normal((3, 8)), rng.standard_normal((3, 8))
        )
        assert series.max_eps == series.eps.max()


class TestPencilSpectrum:
    def test_undamped_oscillator(self):
        eig = pencil_spectrum([[1.0]], [[0.0]], [[1.0]])
        np.testing.assert_allclose(sorted(eig.imag), [-1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(eig.real, 0.0, atol=1e-12)
        assert is_stable([[1.0]], [[0.0]], [[1.0]])

    def test_scalar_quadratic_roots(self):
        # s^2 + 3 s + 2 = (s + 1)(s + 2)
        eig = pencil_spectrum([[1.0]], [[3.0]], [[2.0]])
        np.testing.assert_allclose(sorted(eig.real), [-2.0, -1.0], atol=1e-10)
        np.testing.assert_allclose(eig.imag, 0.0, atol=1e-12)

    def test_indefinite_stiffness_unstable(self):
        eig = pencil_spectrum([[1.0]], [[0.0]], [[-1.0]])
        np.testing.assert_allclose(sorted(eig.real), [-1.0, 1.0], atol=1e-10)
        assert not is_stable([[1.0]], [[0.0]], [[-1.0]])

    @pytest.mark.parametrize("growth", [0.5 * STABILITY_TOL, 2.0 * STABILITY_TOL])
    def test_stability_threshold(self, growth):
        # s^2 - 2 g s + 1 has the roots g +- i sqrt(1 - g^2).
        eig = pencil_spectrum([[1.0]], [[-2.0 * growth]], [[1.0]])
        np.testing.assert_allclose(eig.real, growth, rtol=1e-3)
        assert is_stable([[1.0]], [[-2.0 * growth]], [[1.0]]) is (
            growth <= STABILITY_TOL)

    def test_matches_polyroot_oracle(self, rng):
        for _ in range(5):
            m, e, k = rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0), rng.uniform(0.5, 4.0)
            eig = np.array(sorted(pencil_spectrum([[m]], [[e]], [[k]]), key=lambda z: z.imag))
            roots = np.array(sorted(np.roots([m, e, k]), key=lambda z: z.imag))
            np.testing.assert_allclose(eig, roots, rtol=1e-10, atol=1e-10)

    def test_returns_2r_values(self, rng):
        M = random_spd(rng, 3)
        E = random_spd(rng, 3, eigmin=0.0)
        K = random_spd(rng, 3)
        assert pencil_spectrum(M, E, K).shape == (6,)
        assert is_stable(M, E, K)

    def test_singular_mass(self):
        with pytest.raises(SingularOperatorError, match="singular"):
            pencil_spectrum(np.diag([1.0, 0.0]), np.eye(2), np.eye(2))
        with pytest.raises(SingularOperatorError, match="singular"):
            pencil_spectrum(np.ones((2, 2)), np.eye(2), np.eye(2))
        with pytest.raises(SingularOperatorError, match="singular"):
            pencil_spectrum(np.zeros((2, 2)), np.eye(2), np.eye(2))

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError, match="damping"):
            pencil_spectrum(np.eye(2), np.eye(3), np.eye(2))

    @pytest.mark.parametrize("name", ["mass", "damping", "stiffness"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry(self, name, bad):
        operators = {"mass": np.eye(2), "damping": np.eye(2),
                     "stiffness": np.eye(2)}
        operators[name][0, 1] = bad
        with pytest.raises(InvalidInputError,
                           match=f"^{name} has non-finite entries$"):
            pencil_spectrum(**operators)

    def test_constrained_models_are_stable(self, rng):
        for _ in range(3):
            D = rng.standard_normal((6, 30))
            rhs = rng.standard_normal((2, 30))
            rom, _ = infer_constrained(D, rhs, omega=1e-8)
            assert is_stable(rom.mass, rom.damping, rom.stiffness)


class TestErrorSeriesExport:
    def test_phase_column(self, rng, tmp_path):
        series = relative_error(
            rng.standard_normal((2, 6)),
            rng.standard_normal((2, 6)),
            times=0.1 * np.arange(1, 7),
            phase_split=0.3,
        )
        path = tmp_path / "errors.csv"
        save_error_series(series, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,eps,phase"
        phases = [ln.rsplit(",", 1)[1] for ln in lines[1:]]
        assert phases == ["train", "train", "train", "test", "test", "test"]

    def test_no_split_marks_all_test(self, rng, tmp_path):
        series = relative_error(
            rng.standard_normal((2, 3)), rng.standard_normal((2, 3))
        )
        path = tmp_path / "errors.csv"
        save_error_series(series, path)
        phases = [
            ln.rsplit(",", 1)[1] for ln in path.read_text().splitlines()[1:]
        ]
        assert phases == ["test", "test", "test"]

    def test_round_trip_values(self, rng, tmp_path):
        series = relative_error(
            rng.standard_normal((3, 5)),
            rng.standard_normal((3, 5)),
            times=np.linspace(0.5, 0.9, 5),
        )
        path = tmp_path / "errors.csv"
        save_error_series(series, path)
        rows = np.loadtxt(
            path, delimiter=",", skiprows=1, usecols=(0, 1), ndmin=2
        )
        np.testing.assert_allclose(rows[:, 0], series.times, rtol=1e-15)
        np.testing.assert_allclose(rows[:, 1], series.eps, rtol=1e-15)

    def test_series_length_validation(self):
        with pytest.raises(InvalidInputError, match="equal length"):
            ErrorSeries(times=[0.1, 0.2], eps=[0.5], max_eps=0.5)

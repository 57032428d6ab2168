"""Tests for trajectory error metrics, operator distances, and pencil
stability checks."""

import numpy as np
import pytest

from mechrom.copinf import infer_constrained
from mechrom.errors import (
    DegenerateInputError,
    InvalidComparisonError,
    InvalidInputError,
    SingularOperatorError,
)
from mechrom.evaluate import (
    ErrorSeries,
    is_stable,
    operator_closeness,
    pencil_spectrum,
    relative_error,
    save_error_series,
)
from mechrom.model import SecondOrderSystem
from mechrom.pod import PodBasis

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

    def test_times_length_checked(self, rng):
        X = rng.standard_normal((2, 5))
        with pytest.raises(InvalidInputError, match="5 snapshots"):
            relative_error(X, X, times=[0.1, 0.2])

    def test_max_eps_matches_series(self, rng):
        series = relative_error(
            rng.standard_normal((3, 8)), rng.standard_normal((3, 8))
        )
        assert series.max_eps == series.eps.max()


def make_rom(rng, r=2, m=1, basis=None):
    return SecondOrderSystem(
        mass=np.eye(r),
        damping=rng.standard_normal((r, r)),
        stiffness=rng.standard_normal((r, r)),
        input_map=rng.standard_normal((r, m)),
        basis=basis,
    )


class TestOperatorCloseness:
    def test_identical_models(self, rng):
        rom = make_rom(rng)
        out = operator_closeness(rom, rom)
        assert (out.damping, out.stiffness, out.input_map) == (0.0, 0.0, 0.0)
        assert (out.damping_rel, out.stiffness_rel, out.input_map_rel) == (
            0.0,
            0.0,
            0.0,
        )

    def test_scalar_distance(self):
        a = SecondOrderSystem([[1.0]], [[1.0]], [[2.0]], [[1.0]])
        b = SecondOrderSystem([[1.0]], [[1.0]], [[2.5]], [[1.0]])
        out = operator_closeness(a, b)
        assert out.stiffness == pytest.approx(0.5, rel=1e-15)
        assert out.stiffness_rel == pytest.approx(0.25, rel=1e-15)

    def test_entrywise_sum_oracle(self, rng):
        a, b = make_rom(rng, r=3, m=2), make_rom(rng, r=3, m=2)
        out = operator_closeness(a, b)
        for field, A, B in (
            ("damping", a.damping, b.damping),
            ("stiffness", a.stiffness, b.stiffness),
            ("input_map", a.input_map, b.input_map),
        ):
            total = 0.0
            for i in range(A.shape[0]):
                for j in range(A.shape[1]):
                    total += (A[i, j] - B[i, j]) ** 2
            assert getattr(out, field) == pytest.approx(total**0.5, rel=1e-13)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(InvalidComparisonError, match="dimensions"):
            operator_closeness(make_rom(rng, r=2), make_rom(rng, r=3))

    def test_basis_mismatch(self, rng):
        basis_a = PodBasis(modes=np.eye(3)[:, :2], singular_values=np.ones(3))
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        basis_b = PodBasis(modes=Q[:, :2], singular_values=np.ones(3))
        with pytest.raises(InvalidComparisonError, match="bases"):
            operator_closeness(
                make_rom(rng, basis=basis_a), make_rom(rng, basis=basis_b)
            )

    def test_rejects_non_identity_mass(self, rng):
        rom = make_rom(rng)
        scaled = SecondOrderSystem(2.0 * rom.mass, rom.damping, rom.stiffness,
                                   rom.input_map)
        for pair in ((rom, scaled), (scaled, rom)):
            with pytest.raises(InvalidInputError, match="identity mass"):
                operator_closeness(*pair)

    def test_equal_mode_matrices_are_comparable(self, rng):
        modes = np.eye(4)[:, :2]
        a = make_rom(rng, basis=PodBasis(modes=modes, singular_values=np.ones(4)))
        b = make_rom(
            rng, basis=PodBasis(modes=modes.copy(), singular_values=np.ones(4))
        )
        out = operator_closeness(a, b)
        assert out.damping >= 0.0


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

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError, match="damping"):
            pencil_spectrum(np.eye(2), np.eye(3), np.eye(2))

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

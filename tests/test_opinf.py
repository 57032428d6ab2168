"""Tests for the regularized least-squares identification path: the ridge
kernel, model assembly, regularization sweep, operator separation, and the
nearest-PSD projection."""

import numpy as np
import pytest

from mechrom.errors import (
    DegenerateInputError,
    IllConditionedModesError,
    InsufficientDataError,
    InvalidInputError,
    InvalidParameterError,
    MissingDataError,
    NoViableLambdaError,
    NotSeparableError,
    SingularOperatorError,
)
from mechrom import opinf
from mechrom.model import SecondOrderSystem
from mechrom.newmark import IntegratorConfig, simulate
from mechrom.opinf import (
    LambdaTrial,
    infer,
    nearest_spd,
    ridge_lstsq,
    select_lambda,
    separate_operators,
)
from mechrom.pod import PodBasis, mass_normalized_form
from mechrom.snapshots import assemble_opinf_data, project

from tests._helpers import random_spd


def synthesize(rng, E_M, K_M, B_M, N):
    """Stack exact regression data for a known mass-normalized model."""
    E_M, K_M, B_M = (np.atleast_2d(np.asarray(A, float)) for A in (E_M, K_M, B_M))
    r, m = B_M.shape
    Xd = rng.standard_normal((r, N))
    X = rng.standard_normal((r, N))
    U = rng.standard_normal((m, N))
    rhs = -E_M @ Xd - K_M @ X + B_M @ U
    return np.vstack([Xd, X, U]), rhs


class TestRidgeKernel:
    def test_scalar_ridge(self):
        P, svals = ridge_lstsq(np.array([[1.0]]), np.array([[1.0]]), lam=1.0)
        assert P[0, 0] == pytest.approx(0.5, rel=1e-15)
        assert svals[0] == pytest.approx(1.0)

    def test_huge_lambda_shrinks_solution(self, rng):
        D = rng.standard_normal((5, 20))
        rhs = rng.standard_normal((2, 20))
        P, _ = ridge_lstsq(D, rhs, lam=1e12)
        assert np.linalg.norm(P) <= 1e-6 * np.linalg.norm(rhs @ D.T)

    def test_normal_equations_residual(self, rng):
        D = rng.standard_normal((5, 30))
        rhs = rng.standard_normal((2, 30))
        target = np.linalg.norm(rhs @ D.T)
        for lam in (1e-8, 1e-4, 1.0):
            P, _ = ridge_lstsq(D, rhs, lam=lam)
            lhs = P @ (D @ D.T + lam * np.eye(5))
            assert np.linalg.norm(lhs - rhs @ D.T) <= 1e-10 * (1.0 + target)

    def test_minimum_norm_on_rank_deficiency(self, rng):
        row = rng.standard_normal(12)
        D = np.vstack([row, row, rng.standard_normal(12)])
        rhs = rng.standard_normal((1, 12))
        P, _ = ridge_lstsq(D, rhs, lam=0.0)
        oracle = rhs @ np.linalg.pinv(D)
        np.testing.assert_allclose(P, oracle, rtol=1e-10, atol=1e-12)

    def test_monotone_shrinkage(self, rng):
        D = rng.standard_normal((4, 25))
        rhs = rng.standard_normal((2, 25))
        norms = [
            np.linalg.norm(ridge_lstsq(D, rhs, lam=lam)[0])
            for lam in (0.0, 1e-6, 1e-3, 1e-1, 10.0, 1e4)
        ]
        assert all(b <= a + 1e-14 for a, b in zip(norms, norms[1:]))

    def test_zero_data_rejected_without_penalty(self):
        with pytest.raises(DegenerateInputError, match="zero"):
            ridge_lstsq(np.zeros((3, 5)), np.ones((1, 5)), lam=0.0)

    def test_non_finite_rejected(self):
        D = np.ones((3, 4))
        D[0, 0] = np.inf
        with pytest.raises(InvalidInputError, match="non-finite"):
            ridge_lstsq(D, np.ones((1, 4)))

    def test_negative_lambda_rejected(self):
        with pytest.raises(InvalidParameterError, match="lam"):
            ridge_lstsq(np.ones((2, 3)), np.ones((1, 3)), lam=-1.0)

    def test_column_mismatch(self):
        with pytest.raises(InvalidInputError, match="column counts"):
            ridge_lstsq(np.ones((2, 3)), np.ones((1, 4)))


class TestInfer:
    def test_exact_scalar_recovery(self, rng):
        D, rhs = synthesize(rng, 0.1, 4.0, 1.0, N=10)
        rom, report = infer(D, rhs, 0.0)
        assert rom.damping[0, 0] == pytest.approx(0.1, abs=1e-10)
        assert rom.stiffness[0, 0] == pytest.approx(4.0, abs=1e-10)
        assert rom.input_map[0, 0] == pytest.approx(1.0, abs=1e-10)
        assert report.residual <= 1e-10

    def test_exact_recovery_multidimensional(self, rng):
        E_M = random_spd(rng, 3, eigmin=0.0)
        K_M = random_spd(rng, 3)
        B_M = rng.standard_normal((3, 2))
        D, rhs = synthesize(rng, E_M, K_M, B_M, N=40)
        rom, report = infer(D, rhs, 0.0)
        np.testing.assert_allclose(rom.damping, E_M, rtol=1e-8, atol=1e-8)
        np.testing.assert_allclose(rom.stiffness, K_M, rtol=1e-8, atol=1e-8)
        np.testing.assert_allclose(rom.input_map, B_M, rtol=1e-8, atol=1e-8)
        assert report.rank_estimate == 8

    def test_report_invariants(self, rng):
        D, rhs = synthesize(rng, 0.3, 2.0, 0.5, N=15)
        rom, report = infer(D, rhs, 1e-4)
        assert report.residual >= 0.0
        assert report.condition >= 1.0
        assert report.lam == 1e-4
        assert report.solver == "svd"

    def test_few_samples_warn(self, rng):
        D, rhs = synthesize(rng, 0.1, 1.0, 1.0, N=2)
        with pytest.warns(UserWarning, match="fewer samples"):
            infer(D, rhs, 0.0)

    def test_row_count_must_fit_blocks(self, rng):
        # 2 rows cannot hold two state blocks plus an input row.
        with pytest.raises(InvalidInputError, match="rows"):
            infer(np.ones((2, 6)), np.ones((1, 6)), 0.0)

    def test_basis_is_attached(self, rng):
        basis = PodBasis(modes=np.eye(1), singular_values=np.ones(1))
        D, rhs = synthesize(rng, 0.1, 1.0, 1.0, N=8)
        rom, _ = infer(D, rhs, 0.0, basis=basis)
        assert rom.basis is basis


def identity_basis(r):
    return PodBasis(modes=np.eye(r), singular_values=np.ones(r))


def scalar_validation_data(damping=0.4, stiffness=4.0, t_end=2.0):
    sys1 = SecondOrderSystem(
        mass=[[1.0]], damping=[[damping]], stiffness=[[stiffness]], input_map=[[1.0]]
    )
    data = simulate(
        sys1,
        lambda t: np.array([np.sin(3.0 * t)]),
        np.array([0.5]),
        np.array([0.0]),
        IntegratorConfig(dt=0.01, t_end=t_end),
    )
    return project(data, identity_basis(1))


class TestSelectLambda:
    def test_single_zero_grid(self):
        rdata = scalar_validation_data()
        D, rhs = assemble_opinf_data(rdata)
        lam, trials = select_lambda(D, rhs, [0.0], rdata)
        assert lam == 0.0
        assert len(trials) == 1
        assert isinstance(trials[0], LambdaTrial)
        assert trials[0].validation_error <= 1e-8

    def test_exact_data_keeps_zero_penalty_quality(self):
        rdata = scalar_validation_data()
        D, rhs = assemble_opinf_data(rdata)
        grid = [0.0, 1e-6, 1e-3, 1.0]
        lam, trials = select_lambda(D, rhs, grid, rdata)
        err_zero = next(t.validation_error for t in trials if t.lam == 0.0)
        best = min(t.validation_error for t in trials)
        assert best <= err_zero + 1e-8

    def test_tie_breaks_toward_larger_lambda(self, rng):
        # Zero acceleration data makes every penalty yield the zero
        # model, so all validation errors agree exactly.
        D = rng.standard_normal((3, 10))
        rhs = np.zeros((1, 10))
        N = 6
        validation = project(
            simulate_free_constant(N),
            identity_basis(1),
        )
        lam, trials = select_lambda(D, rhs, [1e-4, 1e-2], validation)
        assert lam == 1e-2
        errs = [t.validation_error for t in trials]
        assert errs[0] == errs[1]

    def test_all_candidates_diverge(self, rng):
        # Data from a strongly repulsive model; every fitted candidate
        # inherits the instability and the replay overflows.
        Xd = rng.standard_normal((1, 20))
        X = rng.standard_normal((1, 20))
        U = rng.standard_normal((1, 20))
        rhs = 1e6 * X
        D = np.vstack([Xd, X, U])
        times = 1e-3 * np.arange(1, 2002)
        validation = project(
            make_constant_trajectory(times, value=1.0),
            identity_basis(1),
        )
        with pytest.raises(NoViableLambdaError) as exc:
            select_lambda(D, rhs, [0.0, 1e-10], validation)
        assert len(exc.value.table) == 2
        assert all(not np.isfinite(t.validation_error) for t in exc.value.table)

    def test_empty_grid(self):
        rdata = scalar_validation_data(t_end=0.1)
        D, rhs = assemble_opinf_data(rdata)
        with pytest.raises(InvalidParameterError, match="empty"):
            select_lambda(D, rhs, [], rdata)

    def test_validation_without_input(self, rng):
        D, rhs = synthesize(rng, 0.1, 1.0, 1.0, N=10)
        times = 0.1 * np.arange(1, 7)
        bare = make_constant_trajectory(times, value=1.0, with_input=False)
        with pytest.raises(MissingDataError, match="input"):
            select_lambda(D, rhs, [0.0], project(bare, identity_basis(1)))

    def test_validation_needs_two_snapshots(self, rng):
        D, rhs = synthesize(rng, 0.1, 1.0, 1.0, N=10)
        single = make_constant_trajectory(np.array([0.5]), value=1.0)
        with pytest.raises(InsufficientDataError, match="two snapshots"):
            select_lambda(D, rhs, [0.0], project(single, identity_basis(1)))


class TestReplayFailures:
    def test_singular_model_scores_inf(self):
        rdata = scalar_validation_data(t_end=0.1)
        # With the trapezoidal rule the effective matrix
        # 1 + (dt / 2) c vanishes exactly at this damping.
        rom = SecondOrderSystem(
            mass=[[1.0]], damping=[[-1.0 / (0.5 * rdata.dt)]],
            stiffness=[[0.0]], input_map=[[1.0]],
        )
        with pytest.raises(SingularOperatorError):
            simulate(rom, lambda t: np.zeros(1),
                     rdata.displacement[:, 0], rdata.velocity[:, 0],
                     IntegratorConfig(dt=rdata.dt, t_end=0.05))
        assert opinf._replay_error(rom, rdata) == float("inf")

    def test_programming_error_propagates(self, monkeypatch):
        rdata = scalar_validation_data(t_end=0.1)
        D, rhs = assemble_opinf_data(rdata)

        def broken_sampler(t):
            raise TypeError("sampler bug")

        def simulate_with_broken_sampler(model, sampler, *args, **kwargs):
            return simulate(model, broken_sampler, *args, **kwargs)

        monkeypatch.setattr(opinf, "simulate", simulate_with_broken_sampler)
        with pytest.raises(TypeError, match="sampler bug"):
            select_lambda(D, rhs, [0.0], rdata)


def make_constant_trajectory(times, value, with_input=True):
    from mechrom.snapshots import TrajectoryData

    N = np.asarray(times).size
    X = np.full((1, N), float(value))
    zeros = np.zeros((1, N))
    return TrajectoryData(
        times=times,
        displacement=X,
        velocity=zeros,
        acceleration=zeros,
        input=zeros.copy() if with_input else None,
    )


def simulate_free_constant(N):
    return make_constant_trajectory(0.1 * np.arange(1, N + 1), value=1.0)


class TestSeparateOperators:
    def test_already_modal(self):
        rom = SecondOrderSystem(
            mass=np.eye(2),
            damping=np.diag([0.1, 0.2]),
            stiffness=np.diag([4.0, 9.0]),
            input_map=np.array([[1.0], [1.0]]),
        )
        ops = separate_operators(rom)
        np.testing.assert_allclose(ops.mass, np.eye(2), atol=1e-13)
        np.testing.assert_allclose(ops.stiffness, np.diag([4.0, 9.0]), atol=1e-12)
        np.testing.assert_allclose(ops.damping, np.diag([0.1, 0.2]), atol=1e-13)
        np.testing.assert_allclose(ops.input_map, [[1.0], [1.0]], atol=1e-13)

    def test_consistency_with_intrusive_oracle(self, rng):
        for _ in range(4):
            sys4 = SecondOrderSystem(
                mass=random_spd(rng, 4),
                damping=random_spd(rng, 4, eigmin=0.0),
                stiffness=random_spd(rng, 4),
                input_map=rng.standard_normal((4, 1)),
            )
            rom = mass_normalized_form(sys4)
            ops = separate_operators(rom)
            scale = np.linalg.norm(rom.stiffness)
            np.testing.assert_allclose(
                np.linalg.solve(ops.mass, ops.stiffness),
                rom.stiffness,
                atol=1e-8 * scale,
            )
            np.testing.assert_allclose(
                np.linalg.solve(ops.mass, ops.damping),
                rom.damping,
                atol=1e-8 * max(1.0, np.linalg.norm(rom.damping)),
            )
            assert np.linalg.eigvalsh(ops.mass).min() > 0.0

    def test_negative_eigenvalue_not_separable(self):
        rom = SecondOrderSystem(
            mass=np.eye(2),
            damping=np.zeros((2, 2)),
            stiffness=np.diag([4.0, -1.0]),
            input_map=np.ones((2, 1)),
        )
        with pytest.raises(NotSeparableError, match="nonpositive") as exc:
            separate_operators(rom)
        assert exc.value.eigenvalues is not None

    def test_complex_eigenvalues_not_separable(self):
        rom = SecondOrderSystem(
            mass=np.eye(2),
            damping=np.zeros((2, 2)),
            stiffness=np.array([[0.0, 1.0], [-1.0, 0.0]]),
            input_map=np.ones((2, 1)),
        )
        with pytest.raises(NotSeparableError, match="complex"):
            separate_operators(rom)

    def test_near_defective_modes(self):
        rom = SecondOrderSystem(
            mass=np.eye(2),
            damping=np.zeros((2, 2)),
            stiffness=np.array([[1.0, 1.0], [0.0, 1.0 + 1e-14]]),
            input_map=np.ones((2, 1)),
        )
        with pytest.raises(IllConditionedModesError, match="condition"):
            separate_operators(rom)

    def test_rejects_non_identity_mass(self, rng):
        sys3 = SecondOrderSystem(
            mass=random_spd(rng, 3), damping=random_spd(rng, 3, eigmin=0.0),
            stiffness=random_spd(rng, 3), input_map=np.ones((3, 1)),
        )
        with pytest.raises(InvalidInputError, match="identity mass"):
            separate_operators(sys3)
        separate_operators(mass_normalized_form(sys3))


def grid_search_psd_distance(A, center, width=1.0, rounds=40, points=13):
    """Shrinking grid search for the closest symmetric PSD 2x2 matrix.

    Returns the best objective value found. Candidates are (a, b, c)
    for [[a, b], [b, c]], feasible when a, c >= 0 and a c >= b^2.
    """
    best = (float(center[0, 0]), float(center[0, 1]), float(center[1, 1]))

    def objective(a, b, c):
        return (
            (a - A[0, 0]) ** 2
            + (c - A[1, 1]) ** 2
            + (b - A[0, 1]) ** 2
            + (b - A[1, 0]) ** 2
        )

    best_val = objective(*best)
    for _ in range(rounds):
        axis = np.linspace(-width, width, points)
        aa, bb, cc = np.meshgrid(
            best[0] + axis, best[1] + axis, best[2] + axis, indexing="ij"
        )
        feas = (aa >= 0.0) & (cc >= 0.0) & (aa * cc >= bb**2)
        vals = objective(aa, bb, cc)
        vals[~feas] = np.inf
        idx = np.unravel_index(np.argmin(vals), vals.shape)
        if vals[idx] < best_val:
            best_val = float(vals[idx])
            best = (float(aa[idx]), float(bb[idx]), float(cc[idx]))
        width *= 0.6
    return best_val


class TestNearestSpd:
    def test_spd_fixed_point(self, rng):
        A = random_spd(rng, 4)
        np.testing.assert_allclose(nearest_spd(A), A, rtol=1e-12, atol=1e-12)

    def test_clips_negative_eigenvalue(self):
        np.testing.assert_allclose(
            nearest_spd(np.diag([1.0, -1.0])), np.diag([1.0, 0.0]), atol=1e-15
        )

    def test_psd_fixed_point(self):
        A = np.array([[1.0, 1.0], [1.0, 1.0]])
        np.testing.assert_allclose(nearest_spd(A), A, atol=1e-14)

    def test_matches_grid_search_oracle(self, rng):
        for _ in range(3):
            A = 2.0 * rng.standard_normal((2, 2))
            S = nearest_spd(A)
            ours = (
                (S[0, 0] - A[0, 0]) ** 2
                + (S[1, 1] - A[1, 1]) ** 2
                + (S[0, 1] - A[0, 1]) ** 2
                + (S[1, 0] - A[1, 0]) ** 2
            )
            oracle = grid_search_psd_distance(A, S)
            assert abs(ours - oracle) <= 1e-10

    def test_eigmin_floor(self, rng):
        for _ in range(10):
            S = nearest_spd(rng.standard_normal((3, 3)))
            assert np.linalg.eigvalsh(S).min() >= -1e-12

    def test_strict_shift(self, rng):
        S = nearest_spd(rng.standard_normal((3, 3)), shift=0.1)
        assert np.linalg.eigvalsh(S).min() >= 0.1 - 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError, match="square"):
            nearest_spd(np.ones((2, 3)))
        bad = np.ones((2, 2))
        bad[0, 1] = np.nan
        with pytest.raises(InvalidInputError, match="non-finite"):
            nearest_spd(bad)
        with pytest.raises(InvalidParameterError, match="shift"):
            nearest_spd(np.eye(2), shift=-0.5)

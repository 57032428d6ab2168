"""Tests for force-driven inference under definiteness constraints: the
cone projection, the splitting solver, its feasibility guarantees, and the
convergence trace."""

import numpy as np
import pytest
import scipy.linalg as la

from mechrom.copinf import (
    DEFAULT_OMEGA,
    _RidgeStep,
    infer_constrained,
    project_psd,
)
from mechrom.errors import InvalidInputError, InvalidParameterError
from mechrom.pod import PodBasis

from tests._helpers import random_spd


def force_data(rng, M, E, K, N):
    r = M.shape[0]
    X = rng.standard_normal((r, N))
    Xd = rng.standard_normal((r, N))
    Xdd = rng.standard_normal((r, N))
    D = np.vstack([Xdd, Xd, X])
    return D, M @ Xdd + E @ Xd + K @ X


def grid_search_projection(A, shift, center, width=1.0, rounds=40, points=13):
    """Shrinking grid search for the closest symmetric 2x2 matrix with
    both eigenvalues >= shift. Returns the best (a, b, c) found for
    [[a, b], [b, c]]."""
    best = (float(center[0, 0]), float(center[0, 1]), float(center[1, 1]))
    sym = 0.5 * (A + A.T)

    def objective(a, b, c):
        return (a - sym[0, 0]) ** 2 + (c - sym[1, 1]) ** 2 + 2.0 * (b - sym[0, 1]) ** 2

    best_val = objective(*best)
    for _ in range(rounds):
        axis = np.linspace(-width, width, points)
        aa, bb, cc = np.meshgrid(
            best[0] + axis, best[1] + axis, best[2] + axis, indexing="ij"
        )
        feas = (
            (aa >= shift)
            & (cc >= shift)
            & ((aa - shift) * (cc - shift) >= bb**2)
        )
        vals = objective(aa, bb, cc)
        vals[~feas] = np.inf
        idx = np.unravel_index(np.argmin(vals), vals.shape)
        if vals[idx] < best_val:
            best_val = float(vals[idx])
            best = (float(aa[idx]), float(bb[idx]), float(cc[idx]))
        width *= 0.6
    return np.array([[best[0], best[1]], [best[1], best[2]]])


class TestProjectPsd:
    def test_spd_above_shift_unchanged(self, rng):
        A = random_spd(rng, 3, eigmin=2.0)
        np.testing.assert_allclose(project_psd(A, 1.0), A, rtol=1e-12, atol=1e-12)

    def test_eigenvalue_clipping(self):
        np.testing.assert_allclose(
            project_psd(np.diag([5.0, -3.0]), 1.0), np.diag([5.0, 1.0]), atol=1e-14
        )

    def test_symmetrizes_input(self, rng):
        A = rng.standard_normal((3, 3))
        S = project_psd(A, 0.0)
        np.testing.assert_allclose(S, S.T, atol=1e-15)

    def test_idempotent(self, rng):
        S = project_psd(rng.standard_normal((4, 4)), 0.5)
        np.testing.assert_allclose(project_psd(S, 0.5), S, atol=1e-12)

    def test_matches_grid_search_oracle(self, rng):
        for shift in (0.0, 0.3):
            A = rng.standard_normal((2, 2))
            S = project_psd(A, shift)
            oracle = grid_search_projection(A, shift, S)
            np.testing.assert_allclose(S, oracle, atol=1e-8)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError, match="square"):
            project_psd(np.ones((2, 3)))
        bad = np.eye(2)
        bad[0, 0] = np.inf
        with pytest.raises(InvalidInputError, match="non-finite"):
            project_psd(bad)

    def test_stack_with_per_matrix_shifts(self, rng):
        A = rng.standard_normal((3, 4, 4))
        shifts = [0.3, 0.0, 1e-2]
        S = project_psd(A, shifts)
        assert S.shape == A.shape
        for b in range(3):
            np.testing.assert_allclose(
                S[b], project_psd(A[b], shifts[b]), rtol=1e-12, atol=1e-12
            )

    def test_stack_with_scalar_shift(self, rng):
        A = rng.standard_normal((2, 3, 3, 3))
        S = project_psd(A, 0.5)
        for idx in np.ndindex(2, 3):
            np.testing.assert_allclose(
                S[idx], project_psd(A[idx], 0.5), rtol=1e-12, atol=1e-12
            )

    def test_shift_count_must_match_stack(self, rng):
        with pytest.raises(InvalidParameterError, match="shift"):
            project_psd(rng.standard_normal((3, 2, 2)), [0.0, 1.0])


def direct_objective(rom, D, rhs):
    P = np.hstack([rom.mass, rom.damping, rom.stiffness])
    return float(np.linalg.norm(P @ D - rhs) ** 2)


class TestTraceObjective:
    """The trace evaluates the objective in reduced form; each row must
    agree with a direct evaluation at that iterate. A solve capped at j
    iterations returns the j-th iterate, so its last trace row is
    compared with the objective of the returned model."""

    def check_rows(self, D, rhs, tmp_path):
        path = tmp_path / "trace.csv"
        for max_iter in (1, 3, 30, 200):
            rom, report = infer_constrained(
                D, rhs, max_iter=max_iter, trace_path=path
            )
            rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            assert rows[-1, 0] == report.iterations
            want = direct_objective(rom, D, rhs)
            assert abs(rows[-1, 1] - want) <= 1e-10 * want

    def test_singular_values_spanning_fourteen_decades(self, rng, tmp_path):
        r, N = 3, 40
        W, _ = np.linalg.qr(rng.standard_normal((3 * r, 3 * r)))
        Q, _ = np.linalg.qr(rng.standard_normal((N, 3 * r)))
        D = (W * np.logspace(0, -14, 3 * r)) @ Q.T
        assert np.linalg.cond(D) > 1e13
        # Definite operators explain the data up to noise outside the
        # row space of D, so the constant term carries the objective.
        noise = rng.standard_normal((r, N))
        noise -= (noise @ Q) @ Q.T
        operators = np.hstack([random_spd(rng, r) for _ in range(3)])
        rhs = operators @ D + 1e-3 * noise
        self.check_rows(D, rhs, tmp_path)

    def test_more_unknowns_than_snapshots(self, rng, tmp_path):
        r, N = 4, 7
        D = rng.standard_normal((3 * r, N))
        rhs = rng.standard_normal((r, N))
        self.check_rows(D, rhs, tmp_path)


class TestRidgeStep:
    @pytest.mark.parametrize("N", [30, 5])
    def test_matches_dense_solve_after_penalty_changes(self, rng, N):
        Ds = rng.standard_normal((9, N))
        gram = Ds @ Ds.T
        X = rng.standard_normal((3, 9))
        step = _RidgeStep(gram, 1.0)
        for rho in (1.0, 2.0, 4.0, 0.5, 1e-3, 1e3):
            step.set_penalty(rho)
            want = la.solve(2.0 * gram + rho * np.eye(9), X.T).T
            got = step(X)
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


class TestInferConstrained:
    def test_scalar_kkt_example(self):
        # minimize (m + k)^2 over m, k >= 1e-6, e >= 0; both bounds bind.
        D = np.array([[1.0], [0.0], [1.0]])
        rhs = np.array([[0.0]])
        rom, report = infer_constrained(D, rhs, omega=1e-6)
        assert rom.mass[0, 0] == pytest.approx(1e-6, rel=1e-6)
        assert rom.stiffness[0, 0] == pytest.approx(1e-6, rel=1e-6)
        assert rom.damping[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert report.objective == pytest.approx(4e-12, rel=1e-6)
        assert report.converged

    def test_exact_spd_recovery(self, rng):
        M = random_spd(rng, 3, eigmin=0.5)
        E = random_spd(rng, 3, eigmin=0.1)
        K = random_spd(rng, 3, eigmin=0.5)
        D, rhs = force_data(rng, M, E, K, N=50)
        rom, report = infer_constrained(D, rhs, omega=1e-8)
        for got, want in ((rom.mass, M), (rom.damping, E), (rom.stiffness, K)):
            rel = np.linalg.norm(got - want) / np.linalg.norm(want)
            assert rel <= 1e-6
        assert report.objective <= 1e-10
        assert report.converged

    def test_zero_data_degenerate(self):
        rom, report = infer_constrained(
            np.zeros((3, 4)), np.zeros((1, 4)), omega=1e-8
        )
        np.testing.assert_allclose(rom.mass, [[1e-8]], atol=1e-20)
        np.testing.assert_allclose(rom.stiffness, [[1e-8]], atol=1e-20)
        np.testing.assert_allclose(rom.damping, [[0.0]], atol=1e-20)
        assert report.objective == 0.0
        assert report.converged

    def test_feasibility_holds_without_convergence(self, rng):
        D = rng.standard_normal((9, 30))
        rhs = rng.standard_normal((3, 30))
        rom, report = infer_constrained(D, rhs, omega=1e-8, max_iter=5)
        assert not report.converged
        assert report.iterations == 5
        assert np.linalg.eigvalsh(rom.mass).min() >= 1e-8 - 1e-10
        assert np.linalg.eigvalsh(rom.stiffness).min() >= 1e-8 - 1e-10
        assert np.linalg.eigvalsh(rom.damping).min() >= -1e-10

    def test_feasibility_across_random_problems(self, rng):
        for _ in range(10):
            r = int(rng.integers(1, 5))
            D = rng.standard_normal((3 * r, 25)) * 10.0 ** rng.integers(-2, 3)
            rhs = rng.standard_normal((r, 25))
            rom, _ = infer_constrained(D, rhs, omega=1e-8)
            assert np.linalg.eigvalsh(rom.mass).min() >= 1e-8 - 1e-10
            assert np.linalg.eigvalsh(rom.stiffness).min() >= 1e-8 - 1e-10
            assert np.linalg.eigvalsh(rom.damping).min() >= -1e-10

    def test_learned_pencil_is_stable(self, rng):
        # Definite blocks force every quadratic-pencil eigenvalue into
        # the closed left half plane.
        D = rng.standard_normal((6, 40))
        rhs = rng.standard_normal((2, 40))
        rom, _ = infer_constrained(D, rhs, omega=1e-6)
        r = 2
        A = np.zeros((2 * r, 2 * r))
        A[:r, r:] = np.eye(r)
        A[r:, :r] = -np.linalg.solve(rom.mass, rom.stiffness)
        A[r:, r:] = -np.linalg.solve(rom.mass, rom.damping)
        assert np.linalg.eigvals(A).real.max() <= 1e-10

    def test_operators_exactly_symmetric(self, rng):
        D = rng.standard_normal((6, 20))
        rhs = rng.standard_normal((2, 20))
        rom, _ = infer_constrained(D, rhs)
        np.testing.assert_array_equal(rom.mass, rom.mass.T)
        np.testing.assert_array_equal(rom.damping, rom.damping.T)
        np.testing.assert_array_equal(rom.stiffness, rom.stiffness.T)

    def test_basis_and_omega_recorded(self, rng):
        basis = PodBasis(modes=np.eye(2), singular_values=np.ones(2))
        D = rng.standard_normal((6, 20))
        rhs = rng.standard_normal((2, 20))
        rom, _ = infer_constrained(D, rhs, omega=1e-7, basis=basis)
        assert rom.basis is basis
        assert rom.input_map is None
        assert la.eigvalsh(rom.mass).min() >= 1e-7 - 1e-10
        assert DEFAULT_OMEGA == 1e-8

    def test_trace_csv(self, rng, tmp_path):
        D = rng.standard_normal((9, 30))
        rhs = rng.standard_normal((3, 30))
        path = tmp_path / "trace.csv"
        rom, report = infer_constrained(D, rhs, trace_path=path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,objective,primal_residual,dual_residual"
        assert len(lines) - 1 == report.iterations
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert rows[-1, 1] == pytest.approx(report.objective, rel=1e-12)
        # objective settles: no visible increase across the final tenth
        tail = rows[int(0.9 * len(rows)):, 1]
        if len(tail) > 1:
            assert np.max(np.diff(tail)) <= 1e-9 * (1.0 + tail[0])

    def test_report_invariants(self, rng):
        D = rng.standard_normal((3, 15))
        rhs = rng.standard_normal((1, 15))
        _, report = infer_constrained(D, rhs)
        assert report.objective >= 0.0
        assert report.iterations >= 1
        assert np.isfinite(report.primal_residual)
        assert np.isfinite(report.dual_residual)

    def test_validation_errors(self, rng):
        good_D = rng.standard_normal((3, 8))
        good_rhs = rng.standard_normal((1, 8))
        with pytest.raises(InvalidInputError, match="3 x"):
            infer_constrained(rng.standard_normal((4, 8)), good_rhs)
        with pytest.raises(InvalidInputError, match="column counts"):
            infer_constrained(good_D, rng.standard_normal((1, 9)))
        bad = good_D.copy()
        bad[0, 0] = np.nan
        with pytest.raises(InvalidInputError, match="non-finite"):
            infer_constrained(bad, good_rhs)
        with pytest.raises(InvalidParameterError, match="omega"):
            infer_constrained(good_D, good_rhs, omega=0.0)
        with pytest.raises(InvalidParameterError, match="positive"):
            infer_constrained(good_D, good_rhs, penalty=-1.0)
        with pytest.raises(InvalidParameterError, match="max_iter"):
            infer_constrained(good_D, good_rhs, max_iter=0)

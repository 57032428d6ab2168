"""Tests for force-driven inference under definiteness constraints: the
cone projection, the splitting solver, its feasibility guarantees, and the
convergence trace."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg as la

from mechrom import copinf
from mechrom.copinf import (
    DEFAULT_OMEGA,
    _project_stack,
    _ridge_step,
    infer_constrained,
    project_psd,
)
from mechrom.errors import (
    InsufficientDataError,
    InvalidInputError,
    InvalidParameterError,
)
from mechrom.model import build_mass_spring_chain
from mechrom.newmark import IntegratorConfig, simulate
from mechrom.opinf import compress
from mechrom.pod import compute_basis
from mechrom.snapshots import assemble_force_data, project

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

    @pytest.mark.parametrize("shift", [np.nan, np.inf, -np.inf, [0.0, np.nan]])
    def test_non_finite_shift_rejected(self, shift):
        with pytest.raises(InvalidParameterError, match="finite"):
            project_psd(np.stack([np.eye(2), np.eye(2)]), shift)


def eigh_projection(A, shifts, shifted_eye=None):
    """The projection with every matrix eigendecomposed, as a reference;
    it takes ``_project_stack``'s arguments, projects ``A`` in place as
    the kernel does, and does not need the shifted identity."""
    if not np.all(np.isfinite(A)):
        raise InvalidInputError("matrix contains non-finite entries")
    B = 0.5 * (A + np.swapaxes(A, -1, -2))
    w, Q = np.linalg.eigh(B)
    w = np.maximum(w, np.asarray(shifts)[:, None])
    S = (Q * w[..., None, :]) @ np.swapaxes(Q, -1, -2)
    A[...] = 0.5 * (S + np.swapaxes(S, -1, -2))


def counting(monkeypatch, name):
    """Replace copinf's LAPACK entry point ``name`` (``_potrf`` or
    ``_syevd``) by a wrapper that appends the shape of each matrix it is
    called on to the returned list."""
    calls = []
    wrapped = getattr(copinf, name)

    def wrapper(a, *args, **kwargs):
        calls.append(a.shape)
        return wrapped(a, *args, **kwargs)

    monkeypatch.setattr(copinf, name, wrapper)
    return calls


class TestCholeskyTest:
    """A block that a Cholesky factorization shows to be inside its
    shifted cone is returned as its symmetric part; only the others are
    eigendecomposed. Every projection, in a solve or not, factors every
    block by one ``dpotrf`` call of its own."""

    def test_interior_stack_skips_eigh(self, rng, monkeypatch):
        A = np.stack([random_spd(rng, 5, eigmin=1.0) for _ in range(3)])
        A += 1e-3 * rng.standard_normal(A.shape)
        want = 0.5 * (A + np.swapaxes(A, -1, -2))

        def no_syevd(*args, **kwargs):
            raise AssertionError("dsyevd called on an interior stack")

        monkeypatch.setattr(copinf, "_syevd", no_syevd)
        np.testing.assert_array_equal(project_psd(A, [0.5, 0.0, 1e-8]), want)
        np.testing.assert_array_equal(project_psd(A[0], 0.5), want[0])

    def test_mixed_stack_matches_eigh_reference(self, rng, monkeypatch):
        inside = random_spd(rng, 4, eigmin=1.0)
        outside = rng.standard_normal((4, 4)) - 2.0 * np.eye(4)
        A = np.stack([inside, outside])
        shifts = np.array([0.5, 0.1])
        calls = counting(monkeypatch, "_syevd")
        S = project_psd(A, shifts)
        # Only the block that fails the test is decomposed.
        assert calls == [(4, 4)]
        np.testing.assert_array_equal(S[0], 0.5 * (inside + inside.T))
        for b in range(2):
            want = A[b:b + 1].copy()
            eigh_projection(want, shifts[b:b + 1])
            np.testing.assert_allclose(S[b], want[0], rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("shift", [0.0, 0.3, 1e-8])
    def test_eigenvalue_at_shift(self, rng, shift):
        Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        w = np.array([shift, shift + 0.5, 1.0, 2.0, 3.0, 4.0])
        B = (Q * w) @ Q.T
        B = 0.5 * (B + B.T)
        S = project_psd(B, shift)
        np.testing.assert_array_equal(S, S.T)
        bound = shift - 64 * np.finfo(float).eps * np.linalg.norm(B, 2)
        assert np.linalg.eigvalsh(S).min() >= bound
        np.testing.assert_allclose(S, B, rtol=0.0, atol=1e-12)

    def test_non_finite_stack_rejected(self):
        # A NaN matrix factors into NaNs without an error, so the kernel
        # must not take it for a matrix inside its cone.
        A = np.full((1, 3, 3), np.nan)
        with pytest.raises(InvalidInputError, match="non-finite"):
            _project_stack(A, np.zeros(1), np.zeros((1, 3, 3)))

    def test_failed_decomposition_raises(self, monkeypatch):
        # dsyevd reports a decomposition that did not converge through
        # its info value, which the kernel must not ignore.
        def not_converged(a, *args, **kwargs):
            return np.zeros(len(a)), a, 1

        monkeypatch.setattr(copinf, "_syevd", not_converged)
        with pytest.raises(np.linalg.LinAlgError, match="converge"):
            project_psd(-np.eye(3))

    def test_project_psd_tests_every_block(self, rng, monkeypatch):
        inside = np.stack([random_spd(rng, 3, eigmin=1.0) for _ in range(3)])
        outside = inside.copy()
        outside[1] -= 5.0 * np.eye(3)
        chol = counting(monkeypatch, "_potrf")
        eigh = counting(monkeypatch, "_syevd")
        project_psd(outside, 0.5)
        # One factorization per block; only the failing one is decomposed.
        assert chol == [(3, 3)] * 3
        assert eigh == [(3, 3)]
        # A later call tests every block again.
        chol.clear()
        S = project_psd(inside, 0.5)
        assert (chol, len(eigh)) == ([(3, 3)] * 3, 1)
        np.testing.assert_array_equal(
            S, 0.5 * (inside + np.swapaxes(inside, -1, -2)))

    def test_each_projection_in_a_solve_tests_every_block(
            self, rng, monkeypatch):
        # A damping pushed onto its cone's boundary leaves that block
        # outside while the others stay inside: a block that failed the
        # test in one projection is tested again in the next.
        D, rhs = well_posed_problem(rng, 4, damping_sign=-1.0)
        chol = counting(monkeypatch, "_potrf")
        eigh = counting(monkeypatch, "_syevd")
        kernel = copinf._project_stack
        seen = []

        def recording(A, *args):
            chol.clear()
            eigh.clear()
            kernel(A, *args)
            seen.append((chol[:], len(eigh)))

        monkeypatch.setattr(copinf, "_project_stack", recording)
        _, report = infer_constrained(D, rhs)
        assert len(seen) == report.iterations + 1
        assert all(tested == [(4, 4)] * 3 for tested, _ in seen)
        assert any(decomposed for _, decomposed in seen[1:])
        assert any(decomposed < 3 for _, decomposed in seen[1:])


def direct_objective(rom, D, rhs):
    P = np.hstack([rom.mass, rom.damping, rom.stiffness])
    return float(np.linalg.norm(P @ D - rhs) ** 2)


class TestTraceObjective:
    """The trace evaluates the objective in reduced form; each row must
    agree with a direct evaluation at that iterate. A solve capped at j
    iterations returns the j-th iterate, so its last trace row is
    compared with the objective of the returned model."""

    def check_rows(self, D, rhs):
        for max_iter in (1, 3, 30, 200):
            rom, report = infer_constrained(D, rhs, max_iter=max_iter)
            rows = report.trace
            assert rows[-1, 0] == report.iterations
            want = direct_objective(rom, D, rhs)
            assert abs(rows[-1, 1] - want) <= 1e-10 * want

    def test_singular_values_spanning_fourteen_decades(self, rng):
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
        self.check_rows(D, rhs)

    def test_more_unknowns_than_snapshots(self, rng):
        r, N = 4, 7
        D = rng.standard_normal((3 * r, N))
        rhs = rng.standard_normal((r, N))
        self.check_rows(D, rhs)


class TestRidgeStep:
    """The step built from the compression solves the ridge step's normal
    equations, with a square W (N >= 3r) and a thin one (N < 3r)."""

    @pytest.mark.parametrize("N", [30, 5])
    def test_matches_dense_solve_after_penalty_changes(self, rng, N):
        Ds = rng.standard_normal((9, N))
        F = rng.standard_normal((3, N))
        V = rng.standard_normal((9, 3))
        W, s, _, rhs_c, _ = compress(Ds, F)
        for rho in (1.0, 2.0, 4.0, 0.5, 1e-3, 1e3):
            step, offset = _ridge_step(W, s, rhs_c, rho)
            want = la.solve(2.0 * Ds @ Ds.T + rho * np.eye(9),
                            2.0 * Ds @ F.T + rho * V)
            got = step @ V + offset
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
        assert report.stop_reason == "converged"
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

    def test_no_columns_rejected(self):
        with pytest.raises(InsufficientDataError, match="no snapshot columns"):
            infer_constrained(np.ones((3, 0)), np.ones((1, 0)))

    def test_feasibility_holds_without_convergence(self, rng):
        D = rng.standard_normal((9, 30))
        rhs = rng.standard_normal((3, 30))
        rom, report = infer_constrained(D, rhs, omega=1e-8, max_iter=5)
        assert report.stop_reason == "cap"
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

    def test_omega_recorded(self, rng):
        D = rng.standard_normal((6, 20))
        rhs = rng.standard_normal((2, 20))
        rom, _ = infer_constrained(D, rhs, omega=1e-7)
        assert rom.input_map is None
        assert la.eigvalsh(rom.mass).min() >= 1e-7 - 1e-10
        assert DEFAULT_OMEGA == 1e-8

    def test_trace_csv(self, rng):
        D = rng.standard_normal((9, 30))
        rhs = rng.standard_normal((3, 30))
        rom, report = infer_constrained(D, rhs)
        rows = report.trace
        assert rows.shape == (report.iterations, 4)
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

    @pytest.mark.parametrize("r", [1, 4, 26])
    @pytest.mark.parametrize("damping_sign", [1.0, -1.0])
    def test_matches_eigh_projection_reference(self, rng, monkeypatch, r,
                                               damping_sign):
        # A rank-deficient damping keeps that block near its cone's
        # boundary while mass and stiffness stay inside theirs; with the
        # sign flipped the damping is pushed onto the boundary.
        N = 4 * r + 10
        G = rng.standard_normal((r, max(1, r // 3)))
        operators = np.hstack(
            [random_spd(rng, r), damping_sign * (G @ G.T), random_spd(rng, r)]
        )
        D = rng.standard_normal((3 * r, N))
        rhs = operators @ D + 0.1 * rng.standard_normal((r, N))

        decompositions = counting(monkeypatch, "_syevd")
        kernel = copinf._project_stack
        projections = []

        def recording(A, *args):
            projections.append(A.shape)
            kernel(A, *args)

        monkeypatch.setattr(copinf, "_project_stack", recording)
        rom, report = infer_constrained(D, rhs)
        # The Cholesky test spared at least one block somewhere.
        assert len(decompositions) < 3 * len(projections)
        monkeypatch.setattr(copinf, "_project_stack", eigh_projection)
        ref, ref_report = infer_constrained(D, rhs)

        assert report.converged and ref_report.converged
        assert report.iterations == ref_report.iterations
        got = np.hstack([rom.mass, rom.damping, rom.stiffness])
        want = np.hstack([ref.mass, ref.damping, ref.stiffness])
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    @pytest.mark.parametrize("r", [1, 4, 26])
    @pytest.mark.parametrize("damping_sign", [1.0, -1.0])
    def test_numpy_linalg_entry_points_give_the_same_solve(
            self, rng, monkeypatch, r, damping_sign):
        # The kernel's direct LAPACK calls against the numpy.linalg calls
        # on the same triangle. The two run on different OpenBLAS copies,
        # scipy's and numpy's, which may differ in version and workspace
        # query; the tolerance leaves room for rounding differences there.
        D, rhs = well_posed_problem(rng, r, damping_sign)
        rom, report = infer_constrained(D, rhs)

        def numpy_potrf(a, *args):
            try:
                return np.linalg.cholesky(a), 0
            except np.linalg.LinAlgError:
                return a, 1

        def numpy_syevd(a, compute_v=1, lower=1, lwork=None, liwork=None,
                        overwrite_a=0):
            w, v = np.linalg.eigh(a)
            if overwrite_a:
                a[...] = v
                v = a
            return w, v, 0

        monkeypatch.setattr(copinf, "_potrf", numpy_potrf)
        monkeypatch.setattr(copinf, "_syevd", numpy_syevd)
        ref, ref_report = infer_constrained(D, rhs)

        assert report.iterations == ref_report.iterations
        assert report.stop_reason == ref_report.stop_reason
        for column in range(4):
            got, want = report.trace[:, column], ref_report.trace[:, column]
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        for name in ("mass", "damping", "stiffness"):
            got, want = getattr(rom, name), getattr(ref, name)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_huge_iteration_limit_allocates_nothing_by_it(self):
        # Neither the buffers nor the trace are sized by max_iter.
        D = np.array([[1.0], [0.0], [1.0]])
        rhs = np.array([[0.0]])
        tracemalloc.start()
        try:
            _, report = infer_constrained(D, rhs, omega=1e-6, max_iter=10**12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.converged
        assert peak < 2**20

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
        with pytest.raises(InvalidParameterError, match="max_iter"):
            infer_constrained(good_D, good_rhs, max_iter=0)

    @pytest.mark.parametrize("max_iter", [10.0, 10.5, True, False, np.True_,
                                          "10", None])
    def test_max_iter_must_be_an_integer(self, rng, max_iter):
        D, rhs = well_posed_problem(rng, 2)
        with pytest.raises(InvalidParameterError, match="max_iter"):
            infer_constrained(D, rhs, max_iter=max_iter)

    def test_numpy_integer_max_iter_accepted(self, rng):
        D, rhs = well_posed_problem(rng, 2)
        _, report = infer_constrained(D, rhs, max_iter=np.int64(5))
        assert report.stop_reason == "cap"
        assert report.iterations == 5


def cli_problem():
    """The regression data of the CLI tests' experiment: a 4-mass chain
    driven at its first mass, ten training snapshots, a rank-2 basis.
    Definite operators fit it to about 2e-9 of ||F||^2."""
    chain = build_mass_spring_chain(
        4, np.ones(4), np.full(5, 10.0), alpha_r=0.02, beta_r=0.005
    )
    data = simulate(
        chain, lambda t: np.array([np.sin(2.0 * np.pi * t)]),
        np.zeros(4), np.zeros(4), IntegratorConfig(dt=0.02, t_end=0.2),
    )
    basis = compute_basis(data.displacement, rank=2)
    return assemble_force_data(project(data, basis))


def chain_problem(n, rank, t_end):
    """Regression data of a uniform chain driven at 10 Hz at its first
    mass, with the README experiment's springs and damping."""
    chain = build_mass_spring_chain(
        n, np.ones(n), np.full(n + 1, 1e4), alpha_r=0.01, beta_r=1e-4
    )
    data = simulate(
        chain, lambda t: np.array([np.sin(20.0 * np.pi * t)]),
        np.zeros(n), np.zeros(n), IntegratorConfig(dt=1e-3, t_end=t_end),
    )
    basis = compute_basis(data.displacement, rank=rank)
    return assemble_force_data(project(data, basis))


def well_posed_problem(rng, r, damping_sign=1.0):
    """Definite operators plus noise, with more snapshots than unknowns.
    A negative ``damping_sign`` flips the damping block, so its cone
    constraint binds at the optimum."""
    N = 4 * r + 10
    operators = np.hstack([random_spd(rng, r),
                           damping_sign * random_spd(rng, r, eigmin=0.1),
                           random_spd(rng, r)])
    D = rng.standard_normal((3 * r, N))
    return D, operators @ D + 0.1 * rng.standard_normal((r, N))


def zero_tolerances(monkeypatch):
    """Set the residual tolerances to zero, so that only the stall rule
    or the iteration limit can stop a solve."""
    monkeypatch.setattr(copinf, "_TOL_ABS", 0.0)
    monkeypatch.setattr(copinf, "_TOL_REL", 0.0)


class TestStopReasons:
    """The report says why the iteration stopped: residual convergence,
    an objective that stopped moving, or the iteration limit."""

    def test_exact_fit_problem_stalls(self, monkeypatch):
        # With the residual tolerances at zero only the stall rule can stop
        # the solve of a problem that definite operators fit almost exactly.
        D, rhs = cli_problem()
        zero_tolerances(monkeypatch)
        rom, report = infer_constrained(D, rhs)
        assert report.stop_reason == "stalled"
        assert not report.converged
        assert report.iterations <= 2000
        assert report.objective <= 1e-8 * np.sum(rhs**2)
        assert np.linalg.eigvalsh(rom.mass).min() >= DEFAULT_OMEGA - 1e-10
        assert np.linalg.eigvalsh(rom.stiffness).min() >= DEFAULT_OMEGA - 1e-10
        assert np.linalg.eigvalsh(rom.damping).min() >= -1e-10

    def test_multi_window_solve_converges(self, monkeypatch):
        # At a fixed penalty this solve still lowers its objective by
        # about 1e-9 ||F||^2 per window when the residual test fires, so
        # the stall test must let it run on through several windows.
        D, rhs = chain_problem(60, 20, 0.5)
        monkeypatch.setattr(copinf, "_ADAPT_CUTOFF", 0)
        _, report = infer_constrained(D, rhs)
        assert report.stop_reason == "converged"
        assert report.iterations > 3 * copinf._STALL_WINDOW

    @pytest.mark.parametrize("problem, max_iter, reason", [
        ("random", copinf.DEFAULT_MAX_ITER, "converged"),
        ("cli", copinf.DEFAULT_MAX_ITER, "stalled"),
        ("random", 5, "cap"),
    ])
    def test_trace_has_one_row_per_iteration(self, rng, monkeypatch, problem,
                                             max_iter, reason):
        D, rhs = cli_problem() if problem == "cli" else well_posed_problem(rng, 3)
        if reason == "stalled":
            zero_tolerances(monkeypatch)
        _, report = infer_constrained(D, rhs, max_iter=max_iter)
        assert report.stop_reason == reason
        np.testing.assert_array_equal(
            report.trace[:, 0], np.arange(1, report.iterations + 1)
        )


def recorded_penalties(monkeypatch):
    """The list that each ridge step's penalty is appended to, in order,
    from here on."""
    penalties = []

    def recording(W, s, rhs_c, rho):
        penalties.append(rho)
        return _ridge_step(W, s, rhs_c, rho)

    monkeypatch.setattr(copinf, "_ridge_step", recording)
    return penalties


class TestPenaltyBalancing:
    """Residual balancing moves a badly chosen initial penalty by factors
    of two, and the solve still reaches the optimum of the default
    penalty. It compares each residual relative to its own scale, the
    one the stop test measures it by."""

    def test_balancing_on_relative_residuals_speeds_the_solve(
            self, monkeypatch):
        # The raw residuals of this solve stay within a factor of ten of
        # each other, so balancing them kept the penalty at 1 and took
        # 1,793 iterations. Relative to their scales the dual residual
        # is the larger, so the penalty is lowered.
        D, rhs = chain_problem(60, 20, 0.5)
        penalties = recorded_penalties(monkeypatch)
        rom, report = infer_constrained(D, rhs)
        assert penalties[0] == copinf._PENALTY
        assert min(penalties) < copinf._PENALTY
        assert report.converged
        assert report.iterations <= 1200
        assert np.linalg.eigvalsh(rom.mass).min() >= DEFAULT_OMEGA - 1e-10
        assert np.linalg.eigvalsh(rom.stiffness).min() >= DEFAULT_OMEGA - 1e-10
        assert np.linalg.eigvalsh(rom.damping).min() >= -1e-10

    def test_zero_dual_scale_leaves_the_penalty(self, rng, monkeypatch):
        # At r = 1 an iterate inside its cones is its own projection to
        # the bit, so the scaled dual variable U stays exactly zero: every
        # balancing check meets ||U|| = 0, which gives no evidence on the
        # dual side. Zero tolerances keep the solve running through many
        # checks.
        D = rng.standard_normal((3, 20))
        rhs = np.array([[2.0, 0.3, 1.5]]) @ D + 0.01 * rng.standard_normal((1, 20))
        zero_tolerances(monkeypatch)
        penalties = recorded_penalties(monkeypatch)
        rom, report = infer_constrained(D, rhs)
        assert penalties == [copinf._PENALTY]
        assert report.iterations >= copinf._ADAPT_CUTOFF
        assert report.stop_reason == "stalled"
        assert rom.mass[0, 0] >= DEFAULT_OMEGA
        assert rom.stiffness[0, 0] >= DEFAULT_OMEGA
        assert rom.damping[0, 0] >= 0.0

    def balanced_solve(self, rng, monkeypatch, penalty):
        """Solve from initial penalty ``penalty``, check that the solve
        reaches the default penalty's optimum, and return the penalties
        its ridge steps were built at."""
        D, rhs = well_posed_problem(rng, 3, damping_sign=-1.0)
        ref_rom, ref = infer_constrained(D, rhs)
        penalties = recorded_penalties(monkeypatch)
        monkeypatch.setattr(copinf, "_PENALTY", penalty)
        rom, report = infer_constrained(D, rhs)
        assert penalties[0] == penalty
        assert len(penalties) > 1
        assert report.converged and ref.converged
        assert np.linalg.eigvalsh(rom.mass).min() >= DEFAULT_OMEGA - 1e-10
        assert np.linalg.eigvalsh(rom.stiffness).min() >= DEFAULT_OMEGA - 1e-10
        # The damping floor binds: the unconstrained damping is negative.
        assert np.linalg.eigvalsh(rom.damping).min() == pytest.approx(
            0.0, abs=1e-10)
        assert abs(report.objective - ref.objective) <= 1e-6 * ref.objective
        for got, want in ((rom.mass, ref_rom.mass),
                          (rom.damping, ref_rom.damping),
                          (rom.stiffness, ref_rom.stiffness)):
            assert np.linalg.norm(got - want) <= 1e-3 * np.linalg.norm(want) + 1e-10
        return penalties

    def test_large_initial_penalty_is_lowered(self, rng, monkeypatch):
        # At rho = 1e6 the dual residual dwarfs the primal one, so the
        # balancing halves rho.
        penalties = self.balanced_solve(rng, monkeypatch, 1e6)
        assert penalties[1:] == [1e6 / 2 ** k
                                 for k in range(1, len(penalties))]

    def test_small_initial_penalty_is_raised(self, rng, monkeypatch):
        # At rho = 1e-6 the primal residual dwarfs the dual one, so the
        # balancing doubles rho.
        penalties = self.balanced_solve(rng, monkeypatch, 1e-6)
        assert penalties[1:] == [1e-6 * 2 ** k
                                 for k in range(1, len(penalties))]


class TestOverRelaxation:
    """The over-relaxed iteration reaches the same optimum as the plain
    one (relaxation factor 1): at the default tolerances the two
    objectives agree to 1e-6 relative."""

    @pytest.mark.parametrize("r", [1, 4, 26])
    @pytest.mark.parametrize("damping_sign", [1.0, -1.0])
    def test_matches_unrelaxed_reference(self, rng, monkeypatch, r,
                                         damping_sign):
        D, rhs = well_posed_problem(rng, r, damping_sign)
        _, report = infer_constrained(D, rhs)
        monkeypatch.setattr(copinf, "_RELAX", 1.0)
        _, ref = infer_constrained(D, rhs)
        assert report.converged and ref.converged
        assert abs(report.objective - ref.objective) <= 1e-6 * ref.objective

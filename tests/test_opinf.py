"""Tests for the regularized least-squares identification path: the ridge
kernel, model assembly, regularization sweep, and operator separation."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.linalg as la

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
from mechrom import newmark, opinf
from mechrom.model import SecondOrderSystem, build_mass_spring_chain
from mechrom.newmark import IntegratorConfig, simulate
from mechrom.opinf import (
    LambdaTrial,
    infer,
    ridge_lstsq,
    select_lambda,
    separate_operators,
)
from mechrom.pod import PodBasis
from mechrom.snapshots import assemble_opinf_data, project

from tests._helpers import banded_calls, random_spd


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

    def test_no_columns_rejected(self):
        with pytest.raises(InsufficientDataError, match="no snapshot columns"):
            ridge_lstsq(np.ones((3, 0)), np.ones((1, 0)))


class TestCompress:
    @pytest.mark.parametrize("k, N, rank", [
        (6, 20, 6),   # full row rank
        (6, 20, 3),   # rank-deficient
        (8, 5, 5),    # fewer columns than rows
        (8, 5, 2),    # both
    ])
    def test_objective_splits_into_range_and_tail(self, rng, k, N, rank):
        # ||P D - rhs||^2 = ||P W diag(s) - rhs_c||^2 + tail^2 for every P.
        D = rng.standard_normal((k, rank)) @ rng.standard_normal((rank, N))
        rhs = rng.standard_normal((3, N))
        W, s, Qt, rhs_c, tail = opinf.compress(D, rhs)
        assert W.shape == (k, min(k, N)) and Qt.shape == (min(k, N), N)
        for _ in range(5):
            P = rng.standard_normal((3, k))
            full = np.linalg.norm(P @ D - rhs) ** 2
            split = np.linalg.norm(P @ (W * s) - rhs_c) ** 2 + tail**2
            assert abs(split - full) <= 1e-12 * full


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

    def test_few_samples_warn(self, rng):
        D, rhs = synthesize(rng, 0.1, 1.0, 1.0, N=2)
        with pytest.warns(UserWarning, match="fewer samples"):
            infer(D, rhs, 0.0)

    def test_row_count_must_fit_blocks(self, rng):
        # 2 rows cannot hold two state blocks plus an input row.
        with pytest.raises(InvalidInputError, match="rows"):
            infer(np.ones((2, 6)), np.ones((1, 6)), 0.0)

    def test_no_columns_rejected(self):
        with pytest.raises(InsufficientDataError, match="no snapshot columns"):
            infer(np.ones((3, 0)), np.ones((1, 0)), 0.0)


def identity_basis(r):
    return PodBasis(modes=np.eye(r), singular_values=np.ones(r))


def scalar_validation_data(damping=0.4, stiffness=4.0, t_end=2.0, x0=0.5):
    sys1 = SecondOrderSystem(
        mass=[[1.0]], damping=[[damping]], stiffness=[[stiffness]], input_map=[[1.0]]
    )
    data = simulate(
        sys1,
        lambda t: np.array([np.sin(3.0 * t)]),
        np.array([x0]),
        np.array([0.0]),
        IntegratorConfig(dt=0.01, t_end=t_end),
    )
    return project(data, identity_basis(1))


def seeded_validation_data():
    """Projected replay of a seeded three-mass chain with two inputs,
    600 steps from a nonzero state."""
    rng = np.random.default_rng(7)
    system = SecondOrderSystem(
        mass=random_spd(rng, 3), damping=0.1 * random_spd(rng, 3, eigmin=0.0),
        stiffness=20.0 * random_spd(rng, 3), input_map=rng.standard_normal((3, 2)),
    )
    data = simulate(
        system,
        lambda t: np.array([np.sin(3.0 * t), np.cos(7.0 * t)]),
        rng.standard_normal(3),
        rng.standard_normal(3),
        IntegratorConfig(dt=0.005, t_end=3.0),
        t0=0.25,
    )
    return project(data, identity_basis(3))


def reference_replay_error(rom, validation, scheme=None):
    """The sweep's score of one candidate, written out on its own: the
    replay's config built from the window and ``scheme``, a finiteness
    scan of the whole replay, and the largest displacement norm over
    every snapshot as the denominator."""
    dt = validation.dt
    config = IntegratorConfig(dt=dt, t_end=dt * (validation.num_snapshots - 1))
    if scheme is not None:
        config = dataclasses.replace(config, gamma=scheme.gamma,
                                     beta=scheme.beta, alpha=scheme.alpha)
    try:
        replay = simulate(rom, lambda t: validation.input,
                          validation.displacement[:, 0],
                          validation.velocity[:, 0], config,
                          t0=float(validation.times[0]))
    except (SingularOperatorError, InvalidInputError, np.linalg.LinAlgError,
            FloatingPointError):
        return float("inf")
    Q = replay.displacement
    if not np.all(np.isfinite(Q)):
        return float("inf")
    denom = np.linalg.norm(validation.displacement, axis=0).max()
    if denom == 0.0 or not np.isfinite(denom):
        return float("inf")
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(Q - validation.displacement[:, 1:],
                                    axis=0).max() / denom)


def replay_error(rom, validation):
    """``opinf._replay_error`` with the config and denominator that
    ``select_lambda`` hands it at the default scheme."""
    dt = validation.dt
    config = IntegratorConfig(dt=dt, t_end=dt * (validation.num_snapshots - 1))
    denom = np.linalg.norm(validation.displacement, axis=0).max()
    return opinf._replay_error(rom, validation, config, denom)


def reference_sweep(D, rhs, grid, validation, scheme=None, compressed=False,
                    fit=infer):
    """The sweep's table and choice, each candidate scored by
    ``reference_replay_error``: the smallest replay error wins, ties
    toward the larger weight. Every candidate is fit by ``fit`` on the
    full data, or with ``compressed`` on the data moved to the row space
    of ``D`` as the sweep fits it, whose residuals the tail completes."""
    tail = 0.0
    if compressed:
        _, _, Qt = la.svd(D, full_matrices=False)
        rhs_c = rhs @ Qt.T
        tail = float(np.linalg.norm(rhs - rhs_c @ Qt))
        D, rhs = D @ Qt.T, rhs_c
    trials = []
    for lam in sorted(grid):
        rom, report = fit(D, rhs, lam)
        norm = math.sqrt(sum(np.linalg.norm(A) ** 2 for A in (
            rom.damping, rom.stiffness, rom.input_map)))
        trials.append(LambdaTrial(
            lam, math.hypot(report.residual, tail),
            reference_replay_error(rom, validation, scheme), norm))
    best = min(trials, key=lambda t: (t.validation_error, -t.lam))
    return best.lam, trials


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

    @pytest.mark.parametrize("scheme, expected", [
        (None, (0.5, 0.25, 0.0)),
        (IntegratorConfig(dt=1.0, t_end=1.0, alpha=-0.3), (0.8, 0.4225, -0.3)),
        (IntegratorConfig(dt=1.0, t_end=1.0, gamma=0.6, beta=0.3),
         (0.6, 0.3, 0.0)),
    ])
    def test_replays_use_the_given_scheme(self, monkeypatch, scheme,
                                          expected):
        # Every candidate replays the validation window with the scheme's
        # gamma, beta and alpha, on the window's own time grid.
        rdata = scalar_validation_data(t_end=0.5)
        D, rhs = assemble_opinf_data(rdata)
        configs = []

        def recording_simulate(model, sampler, x0, v0, config, t0=0.0):
            configs.append(config)
            return simulate(model, sampler, x0, v0, config, t0=t0)

        monkeypatch.setattr(opinf, "simulate", recording_simulate)
        select_lambda(D, rhs, [0.0, 1e-3], rdata, scheme=scheme)
        assert len(configs) == 2
        for config in configs:
            assert (config.gamma, config.beta, config.alpha) == \
                pytest.approx(expected, rel=1e-15)
            assert config.dt == rdata.dt
            assert config.num_steps == rdata.num_snapshots - 1

    def test_replays_read_the_validation_input_in_order(self, monkeypatch):
        rdata = seeded_validation_data()
        D, rhs = assemble_opinf_data(rdata)
        replays = []

        def recording_simulate(*args, **kwargs):
            replays.append(simulate(*args, **kwargs))
            return replays[-1]

        monkeypatch.setattr(opinf, "simulate", recording_simulate)
        select_lambda(D, rhs, [0.0, 1e-6, 1e-2], rdata)
        assert len(replays) == 3
        for replay in replays:
            assert np.array_equal(replay.input, rdata.input[:, 1:])

    def test_grid_within_tolerance_replays_the_whole_window(self,
                                                            monkeypatch):
        # Gaps within the uniformity tolerance of each other, the first one
        # the longest: the window's span over its first gap floors to 598
        # steps, but every candidate replays all 599 and is scored on every
        # snapshot.
        rdata = seeded_validation_data()
        gaps = np.full(rdata.num_snapshots - 1, rdata.dt - 0.4e-12)
        gaps[0] = rdata.dt + 0.4e-12
        jittered = dataclasses.replace(rdata, times=rdata.times[0] + np.r_[
            0.0, np.cumsum(gaps)])
        span = jittered.times[-1] - jittered.times[0]
        assert IntegratorConfig(dt=jittered.dt, t_end=span).num_steps == 598
        D, rhs = assemble_opinf_data(rdata)
        replays = []

        def recording_simulate(*args, **kwargs):
            replays.append(simulate(*args, **kwargs))
            return replays[-1]

        monkeypatch.setattr(opinf, "simulate", recording_simulate)
        _, trials = select_lambda(D, rhs, [0.0, 1e-6], jittered)
        X = rdata.displacement
        for replay, trial in zip(replays, trials):
            assert np.array_equal(replay.input, rdata.input[:, 1:])
            assert trial.validation_error == float(
                np.linalg.norm(replay.displacement - X[:, 1:], axis=0).max()
                / np.linalg.norm(X, axis=0).max())

    def test_table_matches_index_rounding_sampler(self):
        # The sweep's sampler once rounded each instant to a column index;
        # handing over the whole input block must give the same table.
        rdata = seeded_validation_data()
        D, rhs = assemble_opinf_data(rdata)
        grid = [0.0, 1e-9, 1e-6, 1e-3, 1.0]
        _, trials = select_lambda(D, rhs, grid, rdata)
        U, t0, dt = rdata.input, float(rdata.times[0]), rdata.dt

        def rounding_sampler(t):
            return U[:, np.rint((t - t0) / dt).astype(int)]

        config = IntegratorConfig(dt=dt, t_end=float(rdata.times[-1] - t0))
        X = rdata.displacement
        denom = np.linalg.norm(X, axis=0).max()
        # The reference models are fit as the sweep fits them, on the data
        # compressed to the row space of D, so that the comparison below
        # is exact.
        _, _, Qt = la.svd(D, full_matrices=False)
        rhs_c = rhs @ Qt.T
        tail = float(np.linalg.norm(rhs - rhs_c @ Qt))
        for lam, trial in zip(grid, trials):
            rom, report = infer(D @ Qt.T, rhs_c, lam)
            Q = simulate(rom, rounding_sampler, X[:, 0], rdata.velocity[:, 0],
                         config, t0=t0).displacement
            err = float(np.linalg.norm(Q - X[:, 1:], axis=0).max() / denom)
            assert (trial.lam, trial.train_residual, trial.validation_error) \
                == (lam, math.hypot(report.residual, tail), err)

    def test_table_matches_fits_on_the_full_data(self):
        # Each candidate is fit to the compressed data, which has the
        # full-data minimizer; noise in the accelerations gives every
        # column of the table a value well above rounding.
        rdata = seeded_validation_data()
        D, rhs = assemble_opinf_data(rdata)
        assert D.shape[1] > 50 * D.shape[0] and np.linalg.cond(D) < 1e3
        noise = np.random.default_rng(5).standard_normal(rhs.shape)
        rhs = rhs + 3e-2 * np.abs(rhs).max() * noise
        grid = [0.0, 1e-9, 1e-6, 1e-3, 1e-1, 1.0, 10.0]
        lam, trials = select_lambda(D, rhs, grid, rdata)
        ref_lam, ref_trials = reference_sweep(D, rhs, grid, rdata)
        assert lam == ref_lam == 1e-1
        for trial, ref in zip(trials, ref_trials):
            assert trial.lam == ref.lam
            for name in ("train_residual", "validation_error",
                         "operator_norm"):
                assert getattr(trial, name) == pytest.approx(
                    getattr(ref, name), rel=1e-12, abs=0.0), name

    @pytest.mark.parametrize("scheme", [
        None, IntegratorConfig(dt=1.0, t_end=1.0, alpha=-0.3)])
    def test_table_is_bit_equal_to_the_reference(self, monkeypatch, scheme):
        # Two candidates are swapped for a model whose replay overflows
        # and a model whose effective matrix is zero; every column of the
        # table and the choice agree bit for bit with the reference.
        rdata = seeded_validation_data()
        D, rhs = assemble_opinf_data(rdata)
        noise = np.random.default_rng(5).standard_normal(rhs.shape)
        rhs = rhs + 3e-2 * np.abs(rhs).max() * noise
        # The window opens at its largest displacement, which a
        # denominator that skipped the first snapshot would miss.
        k = int(np.argmax(np.linalg.norm(rdata.displacement, axis=0)))
        rdata = dataclasses.replace(
            rdata, times=rdata.times[k:],
            **{key: getattr(rdata, key)[:, k:] for key in (
                "displacement", "velocity", "acceleration", "input",
                "force")})
        grid = [0.0, 1e-9, 1e-6, 1e-3, 1e-1, 1.0, 10.0]
        eye, zero, ones = np.eye(3), np.zeros((3, 3)), np.ones((3, 2))
        swapped = {
            1e-6: SecondOrderSystem(eye, zero, -1e5 * eye, ones),
            1.0: SecondOrderSystem(zero, zero, zero, ones),
        }
        fit = opinf.infer

        def infer_with_bad_candidates(D, rhs, lam):
            rom, report = fit(D, rhs, lam)
            return swapped.get(lam, rom), report

        monkeypatch.setattr(opinf, "infer", infer_with_bad_candidates)
        lam, trials = select_lambda(D, rhs, grid, rdata, scheme=scheme)
        ref_lam, ref_trials = reference_sweep(
            D, rhs, grid, rdata, scheme=scheme, compressed=True,
            fit=infer_with_bad_candidates)
        assert lam == ref_lam
        assert trials == ref_trials
        errors = {t.lam: t.validation_error for t in trials}
        assert errors[1e-6] == errors[1.0] == float("inf")
        assert sum(np.isfinite(list(errors.values()))) == len(grid) - 2

    @pytest.mark.parametrize("value, error, message", [
        (0.0, DegenerateInputError, "is identically zero"),
        (np.nan, InvalidInputError, "has a non-finite norm"),
    ])
    def test_bad_validation_window_fails_before_any_fit(
            self, monkeypatch, value, error, message):
        rdata = seeded_validation_data()
        D, rhs = assemble_opinf_data(rdata)
        window = dataclasses.replace(
            rdata, times=rdata.times[:50], displacement=np.full((2, 50), value),
            velocity=np.zeros((2, 50)), acceleration=None,
            input=rdata.input[:, :50], force=None)

        def no_fit(*args, **kwargs):
            raise AssertionError("a candidate was fitted")

        monkeypatch.setattr(opinf, "infer", no_fit)
        with pytest.raises(error,
                           match=f"^validation displacement {message}$"):
            select_lambda(D, rhs, [0.0, 1e-3], window)

    def test_fewer_samples_than_rows(self):
        # With N < k the compressed data matrix keeps all N columns, and
        # every candidate's fit warns as a fit on the full data does.
        rdata = seeded_validation_data()
        window = dataclasses.replace(
            rdata, times=rdata.times[:6],
            **{key: getattr(rdata, key)[:, :6] for key in (
                "displacement", "velocity", "acceleration", "input",
                "force")})
        D, rhs = assemble_opinf_data(window)
        assert D.shape[1] < D.shape[0]
        grid = [0.0, 1e-6, 1e-3, 1.0]
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            lam, _ = select_lambda(D, rhs, grid, window)
        with warnings.catch_warnings(record=True) as expected:
            warnings.simplefilter("always")
            ref_lam, _ = reference_sweep(D, rhs, grid, window)
        assert lam == ref_lam
        messages = [(w.category, str(w.message)) for w in seen]
        assert messages == [(w.category, str(w.message)) for w in expected]
        assert messages == len(grid) * [(UserWarning, (
            f"regression has fewer samples ({D.shape[1]}) than unknowns "
            f"per row ({D.shape[0]}); expect rank deficiency"))]

    def test_one_factorization_of_the_data_per_sweep(self, monkeypatch):
        # The N-column data matrix is factored once; each candidate fits
        # a k x k matrix, through one call of infer.
        rdata = seeded_validation_data()
        D, rhs = assemble_opinf_data(rdata)
        k, N = D.shape
        svd_shapes, fit_shapes = [], []
        svd, fit = la.svd, opinf.infer

        def spy_svd(a, *args, **kwargs):
            svd_shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        def spy_infer(D, rhs, lam=0.0):
            fit_shapes.append(np.shape(D))
            return fit(D, rhs, lam)

        monkeypatch.setattr(opinf.la, "svd", spy_svd)
        monkeypatch.setattr(opinf, "infer", spy_infer)
        grid = [0.0, 1e-9, 1e-6, 1e-3, 1.0]
        select_lambda(D, rhs, grid, rdata)
        assert [shape for shape in svd_shapes if shape[1] == N] == [(k, N)]
        assert fit_shapes == len(grid) * [(k, k)]

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

    def test_validation_without_velocity_fails_before_any_fit(
            self, monkeypatch):
        rdata = scalar_validation_data(t_end=0.1)
        D, rhs = assemble_opinf_data(rdata)
        bare = dataclasses.replace(rdata, velocity=None)

        def no_fit(*args, **kwargs):
            raise AssertionError("a candidate was fitted")

        monkeypatch.setattr(opinf, "infer", no_fit)
        with pytest.raises(MissingDataError,
                           match="^velocity block is required and absent$"):
            select_lambda(D, rhs, [0.0, 1.0], bare)

    def test_validation_needs_two_snapshots(self, rng):
        D, rhs = synthesize(rng, 0.1, 1.0, 1.0, N=10)
        single = make_constant_trajectory(np.array([0.5]), value=1.0)
        with pytest.raises(InsufficientDataError, match="two snapshots"):
            select_lambda(D, rhs, [0.0], project(single, identity_basis(1)))

    def test_no_columns_rejected(self):
        rdata = scalar_validation_data(t_end=0.1)
        with pytest.raises(InsufficientDataError, match="no snapshot columns"):
            select_lambda(np.ones((3, 0)), np.ones((1, 0)), [0.0, 1.0], rdata)


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
        assert replay_error(rom, rdata) == float("inf")

    @pytest.mark.parametrize("rom, transition_finite", [
        # Operators near the largest double: the predictor transition is
        # finite, but the replay from the validation state cancels to
        # values whose error overflows (the factorized step overflows
        # at once).
        (SecondOrderSystem([[1.0]], [[1.79e308]], [[1.79e308]], [[1.0]]),
         True),
        # A tiny mass: the transition is finite, but its force term
        # overflows once the input has grown tenfold in the window.
        (SecondOrderSystem([[1e-300]], [[0.0]], [[0.0]], [[1.67e9]]), True),
    ])
    def test_non_finite_transition_scores_inf(self, monkeypatch, rom,
                                              transition_finite):
        rdata = scalar_validation_data(t_end=0.1)
        config = IntegratorConfig(dt=rdata.dt, t_end=0.09)
        with np.errstate(over="ignore", invalid="ignore"):
            transition = newmark._transition(
                rom, newmark._effective_solve(rom, config), config
            )
        assert all(np.all(np.isfinite(M)) for M in transition) \
            == transition_finite
        D, rhs = assemble_opinf_data(rdata)
        fit = opinf.infer

        def infer_with_bad_candidate(D, rhs, lam):
            fitted, report = fit(D, rhs, lam)
            return (rom if lam == 1.0 else fitted), report

        monkeypatch.setattr(opinf, "infer", infer_with_bad_candidate)
        lam, trials = select_lambda(D, rhs, [0.0, 1.0], rdata)
        assert lam == 0.0
        assert trials[0].validation_error <= 1e-8
        assert trials[1].validation_error == float("inf")

    def test_diverging_banded_replay_scores_inf(self, monkeypatch):
        # A finite transition of spectral radius 3 (q'' = 1e8 q at
        # dt = 1e-4): the banded replay overflows within the window.
        rdata = project(
            simulate(SecondOrderSystem([[1.0]], [[0.0]], [[1.0]], [[1.0]]),
                     lambda t: np.array([np.sin(3.0 * t)]), np.array([0.5]),
                     np.zeros(1), IntegratorConfig(dt=1e-4, t_end=0.1)),
            identity_basis(1),
        )
        rom = SecondOrderSystem([[1.0]], [[0.0]], [[-1e8]], [[1.0]])
        config = IntegratorConfig(dt=rdata.dt, t_end=0.1)
        A = newmark._transition(rom, newmark._effective_solve(rom, config),
                                config)[0]
        assert np.max(np.abs(np.linalg.eigvals(A))) > 1.0
        assert A.shape[0] <= newmark._BANDED_MAX_WIDTH
        calls = banded_calls(monkeypatch)
        assert replay_error(rom, rdata) == float("inf")
        # N - 1 recurrence steps for the N = num_snapshots - 1 instants.
        assert calls == [rdata.num_snapshots - 2]

    def test_overflowing_initial_balance_scores_inf(self, monkeypatch):
        # The replay starts near x = 2, where K x overflows: simulate
        # raises InvalidInputError before any step, and the candidate
        # scores inf instead of ending the sweep.
        rdata = scalar_validation_data(t_end=0.1, x0=2.0)
        assert rdata.displacement[0, 0] > 1.79
        rom = SecondOrderSystem([[1.0]], [[0.0]], [[1e308]], [[1.0]])
        D, rhs = assemble_opinf_data(rdata)
        fit = opinf.infer

        def infer_with_bad_candidate(D, rhs, lam):
            fitted, report = fit(D, rhs, lam)
            return (rom if lam == 1.0 else fitted), report

        monkeypatch.setattr(opinf, "infer", infer_with_bad_candidate)
        lam, trials = select_lambda(D, rhs, [0.0, 1.0], rdata)
        assert lam == 0.0
        assert trials[0].validation_error <= 1e-8
        assert trials[1].validation_error == float("inf")

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


def mass_normalized(system):
    """The model divided by its mass: identity mass, M^-1 [E, K, B]."""
    r = system.n
    sol = la.solve(system.mass, np.hstack(
        [system.damping, system.stiffness, system.input_map]))
    return SecondOrderSystem(np.eye(r), sol[:, :r], sol[:, r:2 * r],
                             sol[:, 2 * r:])


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
            rom = mass_normalized(sys4)
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
        separate_operators(mass_normalized(sys3))

    def test_sparse_operators_give_the_dense_bits(self):
        # A chain with unit masses is mass-normalized, and its operators
        # are CSR.
        chain = build_mass_spring_chain(4, np.ones(4), np.ones(5), 0.1, 0.01)
        dense = SecondOrderSystem(chain.mass.toarray(), chain.damping.toarray(),
                                  chain.stiffness.toarray(), chain.input_map)
        ops, expected = separate_operators(chain), separate_operators(dense)
        for name in ("mass", "damping", "stiffness", "input_map"):
            np.testing.assert_array_equal(getattr(ops, name),
                                          getattr(expected, name))

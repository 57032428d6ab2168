"""Acceptance suite: one test per shipping criterion.

Every test prints a single [PASS]/[FAIL] line with the measured margin,
so a plain ``pytest -s tests/test_acceptance.py`` doubles as a release
checklist.
"""

import dataclasses
import json
import os
import time

import numpy as np
import pytest
import scipy.linalg as la

from mechrom.cli import main
from mechrom.copinf import infer_constrained
from mechrom.evaluate import pencil_spectrum, relative_error
from mechrom.model import SecondOrderSystem, build_mass_spring_chain
from mechrom.newmark import IntegratorConfig, simulate
from mechrom.opinf import infer, ridge_lstsq, select_lambda, separate_operators
from mechrom.pod import PodBasis, compute_basis, intrusive_reduce, projection_error
from mechrom.snapshots import (
    ReducedTrajectoryData,
    assemble_force_data,
    assemble_opinf_data,
    finite_difference_derivatives,
    project,
)

from ._helpers import random_spd


def check(label, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    print(line)
    assert ok, line


def identity_basis(n):
    return PodBasis(modes=np.eye(n), singular_values=np.ones(n))


def rel(A, B):
    return np.linalg.norm(A - B) / np.linalg.norm(B)


def test_identity_basis_recovery_is_exact():
    """Full-rank trajectories of a 3-mode mass-normalized model identify
    the true operators to far better than 1e-8 relative, in under a
    second."""
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    C_M = random_spd(rng, 3, eigmin=0.1, eigmax=2.0)
    K_M = random_spd(rng, 3, eigmin=1.0, eigmax=9.0)
    B_M = rng.standard_normal((3, 2))
    x0 = rng.standard_normal(3)
    v0 = rng.standard_normal(3)
    truth = SecondOrderSystem(mass=np.eye(3), damping=C_M, stiffness=K_M,
                              input_map=B_M)
    freqs = np.array([1.0, 2.3])
    phases = np.array([0.0, 0.4])

    def sampler(t):
        return np.sin(2.0 * np.pi * freqs * t + phases)

    data = simulate(truth, sampler, x0, v0, IntegratorConfig(dt=0.01, t_end=2.0))
    D, rhs = assemble_opinf_data(project(data, identity_basis(3)))
    rom, _ = infer(D, rhs, 0.0)
    worst = max(rel(rom.damping, C_M), rel(rom.stiffness, K_M),
                rel(rom.input_map, B_M))
    elapsed = time.perf_counter() - start
    check("exact recovery",
          worst <= 1e-8 and elapsed < 1.0,
          f"worst relative error {worst:.3e} (tol 1e-8), {elapsed:.2f}s (< 1s)")


def test_stiffness_map_error_decays_with_time_step():
    """With derivatives estimated from the snapshots, the inferred
    stiffness map converges to the projected one as the sampling step
    shrinks: nonincreasing error, below 1e-3 at the finest step."""
    start = time.perf_counter()
    n = 30
    chain = build_mass_spring_chain(n, [1.0] * n, [50.0] * (n + 1),
                                    alpha_r=0.01, beta_r=0.001, input_nodes=[0])
    rng = np.random.default_rng(11)
    x0 = rng.standard_normal(n)
    v0 = rng.standard_normal(n)
    K_M_true = la.solve(chain.mass, chain.stiffness)
    errors = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        data = simulate(chain, lambda t: np.array([np.sin(t)]), x0, v0,
                        IntegratorConfig(dt=dt, t_end=30.0))
        # the integrator's own derivative columns satisfy the model
        # equations to round-off at any step size, so the step-size
        # dependence under test only appears with estimated derivatives
        vel, acc = finite_difference_derivatives(data.displacement, dt)
        rdata = ReducedTrajectoryData(
            times=data.times, displacement=data.displacement, velocity=vel,
            acceleration=acc, input=data.input, basis=identity_basis(n),
        )
        D, rhs = assemble_opinf_data(rdata)
        rom, _ = infer(D, rhs, 0.0)
        errors.append(rel(rom.stiffness, K_M_true))
    elapsed = time.perf_counter() - start
    trend = errors[0] >= errors[1] >= errors[2]
    check("step-size trend",
          trend and errors[2] < 1e-3 and elapsed < 30.0,
          "errors " + " >= ".join(f"{e:.3e}" for e in errors)
          + f", finest < 1e-3, {elapsed:.1f}s (< 30s)")


def test_stiff_cluster_chain_stays_under_one_percent():
    """A 200-mass chain of five stiff clusters with soft couplings keeps
    the worst relative trajectory error of all three reduced models
    below 1e-2 over a test window twice the training window."""
    start = time.perf_counter()
    n = 200
    stiffnesses = [2e4 if j % 40 == 0 else 1e9 for j in range(n + 1)]
    chain = build_mass_spring_chain(n, [1.0] * n, stiffnesses,
                                    alpha_r=0.01, beta_r=1e-4, input_nodes=[0])

    def sampler(t):
        return np.array([np.sin(2.0 * np.pi * 10.0 * t)])

    dt = 1e-3
    test = simulate(chain, sampler, None, None,
                    IntegratorConfig(dt=dt, t_end=1.0))
    n_train = IntegratorConfig(dt=dt, t_end=0.5).num_steps
    train = ReducedTrajectoryData(
        times=test.times[:n_train],
        displacement=test.displacement[:, :n_train],
        velocity=test.velocity[:, :n_train],
        acceleration=test.acceleration[:, :n_train],
        input=test.input[:, :n_train],
        force=test.force[:, :n_train],
    )
    basis = compute_basis(train.displacement, tol=1e-2)
    config = IntegratorConfig(dt=dt, t_end=1.0)
    errors = {}

    reduced = intrusive_reduce(chain, basis)
    replay = simulate(reduced, sampler, None, None, config)
    errors["pod"] = relative_error(
        test.displacement, basis.modes @ replay.displacement
    ).max_eps

    rtrain = project(train, basis)
    D, rhs = assemble_opinf_data(rtrain)
    lam, _ = select_lambda(D, rhs, [0.0] + list(np.logspace(-12, 0, 13)),
                           rtrain)
    rom, _ = infer(D, rhs, lam, basis=basis)
    replay = simulate(rom, sampler, None, None, config)
    errors["opinf"] = relative_error(
        test.displacement, basis.modes @ replay.displacement
    ).max_eps

    Df, rhsf = assemble_force_data(rtrain)
    crom, _ = infer_constrained(Df, rhsf, basis=basis)
    crom = dataclasses.replace(crom, input_map=basis.modes.T @ chain.input_map)
    replay = simulate(crom, sampler, None, None, config)
    errors["copinf"] = relative_error(
        test.displacement, basis.modes @ replay.displacement
    ).max_eps

    elapsed = time.perf_counter() - start
    worst = max(errors.values())
    check("cluster-chain accuracy",
          worst < 1e-2 and elapsed < 120.0,
          f"rank {basis.rank}, max errors "
          + ", ".join(f"{k} {v:.3e}" for k, v in errors.items())
          + f" (< 1e-2), {elapsed:.1f}s (< 2min)")


@pytest.fixture(scope="module")
def constrained_suite():
    """Fifty seeded constrained fits on raw Gaussian data."""
    models = []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        r = int(rng.integers(2, 5))
        D = rng.standard_normal((3 * r, 40))
        F = rng.standard_normal((r, 40))
        rom, _ = infer_constrained(D, F)
        models.append(rom)
    return models


def test_constrained_operators_meet_spectral_floors(constrained_suite):
    """Every constrained fit keeps mass and stiffness spectra above the
    margin and damping above zero, to 1e-10."""
    omega = 1e-8
    m_min = min(la.eigvalsh(rom.mass).min() for rom in constrained_suite)
    k_min = min(la.eigvalsh(rom.stiffness).min() for rom in constrained_suite)
    e_min = min(la.eigvalsh(rom.damping).min() for rom in constrained_suite)
    ok = (m_min >= omega - 1e-10 and k_min >= omega - 1e-10
          and e_min >= -1e-10)
    check("spectral floors", ok,
          f"eigmin over 50 fits: mass {m_min:.3e}, stiffness {k_min:.3e}, "
          f"damping {e_min:.3e}")


def test_constrained_pencils_are_stable(constrained_suite):
    """Every constrained fit yields a quadratic pencil whose eigenvalues
    sit in the closed left half-plane to 1e-10."""
    worst = max(
        pencil_spectrum(rom.mass, rom.damping, rom.stiffness).real.max()
        for rom in constrained_suite
    )
    check("pencil stability", worst <= 1e-10,
          f"worst real part over 50 fits {worst:.3e} (tol 1e-10)")


def test_projection_error_equals_tail_energy():
    """The reported projection error equals the root sum of squared
    discarded singular values, to 1e-10 relative, on 20 random
    matrices of varying shape and rank."""
    rng = np.random.default_rng(600)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(5, 25))
        N = int(rng.integers(n, 40))
        X = rng.standard_normal((n, N))
        r = int(rng.integers(1, n))
        basis = compute_basis(X, rank=r)
        s = la.svd(X, compute_uv=False)
        oracle = float(np.sqrt(np.sum(s[r:] ** 2)))
        worst = max(worst, abs(projection_error(X, basis) - oracle) / oracle)
    check("tail-energy identity", worst <= 1e-10,
          f"worst relative gap {worst:.3e} (tol 1e-10)")


def test_average_acceleration_converges_second_order():
    """Halving the step on an undamped unit oscillator divides the
    trajectory error by four, within [3.5, 4.5], starting from steps
    1e-2 and 5e-3."""
    w = 2.0 * np.pi
    oscillator = SecondOrderSystem(
        mass=np.array([[1.0]]), damping=np.zeros((1, 1)),
        stiffness=np.array([[w * w]]), input_map=np.array([[1.0]]),
    )
    errors = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        config = IntegratorConfig(dt=dt, t_end=1.0, gamma=0.5, beta=0.25)
        out = simulate(oscillator, lambda t: np.zeros(1), [1.0], [0.0], config)
        errors.append(np.max(np.abs(out.displacement[0]
                                    - np.cos(w * out.times))))
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    ok = all(3.5 <= ratio <= 4.5 for ratio in ratios)
    check("second-order integrator", ok,
          "halving ratios " + ", ".join(f"{ratio:.3f}" for ratio in ratios)
          + " (within [3.5, 4.5])")


def test_ridge_solutions_satisfy_normal_equations():
    """Regularized fits satisfy their normal equations to 1e-10 relative
    and shrink monotonically with the weight."""
    rng = np.random.default_rng(88)
    D = rng.standard_normal((7, 25))
    rhs = rng.standard_normal((3, 25))
    T = rhs @ D.T
    worst = 0.0
    norms = []
    for lam in (1e-8, 1e-4, 1.0):
        P, _ = ridge_lstsq(D, rhs, lam=lam)
        G = D @ D.T + lam * np.eye(7)
        worst = max(worst, np.linalg.norm(P @ G - T) / np.linalg.norm(T))
        norms.append(np.linalg.norm(P))
    ok = worst <= 1e-10 and norms[0] >= norms[1] >= norms[2]
    check("ridge optimality", ok,
          f"worst normal-equation residual {worst:.3e} (tol 1e-10), norms "
          + " >= ".join(f"{v:.6f}" for v in norms))


def test_separation_reproduces_mass_normalized_maps():
    """Separated mass, damping, and stiffness reproduce the original
    mass-normalized maps to 1e-8 relative on 20 random definite
    4-mode models."""
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(900 + seed)
        M = random_spd(rng, 4, eigmin=0.5, eigmax=4.0)
        E = random_spd(rng, 4, eigmin=0.1, eigmax=1.0)
        K = random_spd(rng, 4, eigmin=1.0, eigmax=9.0)
        K_M = la.solve(M, K)
        E_M = la.solve(M, E)
        B_M = la.solve(M, rng.standard_normal((4, 2)))
        ops = separate_operators(SecondOrderSystem(np.eye(4), E_M, K_M, B_M))
        worst = max(worst,
                    rel(la.solve(ops.mass, ops.stiffness), K_M),
                    rel(la.solve(ops.mass, ops.damping), E_M))
    check("separation consistency", worst <= 1e-8,
          f"worst relative gap over 20 models {worst:.3e} (tol 1e-8)")


# ---------------------------------------------------------------------------
# Independent reference for the constrained solver: a log-det barrier
# interior-point method over the symmetric-matrix coordinates, with
# analytic gradient and Hessian and a Cholesky feasibility line search.
# ---------------------------------------------------------------------------


def _sym_basis(r):
    out = []
    for i in range(r):
        for j in range(i, r):
            S = np.zeros((r, r))
            S[i, j] = S[j, i] = 1.0
            out.append(S)
    return out


def barrier_optimum(D, F, omega):
    """Fit objective at the interior-point solution of the constrained
    least-squares problem min ||[M E K] D - F||_F^2 with the mass and
    stiffness spectra above omega and the damping spectrum above zero."""
    r = F.shape[0]
    basis = _sym_basis(r)
    q = len(basis)
    shifts = (omega, 0.0, omega)
    G = D @ D.T
    eye = np.eye(r)

    def place(block, S):
        P = np.zeros((r, 3 * r))
        P[:, block * r:(block + 1) * r] = S
        return P

    frames = [place(b, S) for b in range(3) for S in basis]
    nv = 3 * q
    H_fit = np.empty((nv, nv))
    for a in range(nv):
        PaG = frames[a] @ G
        for b in range(a, nv):
            H_fit[a, b] = H_fit[b, a] = 2.0 * np.sum(PaG * frames[b])

    def blocks(z):
        out = []
        for b in range(3):
            S = np.zeros((r, r))
            for k, Sk in enumerate(basis):
                S += z[b * q + k] * Sk
            out.append(S)
        return out

    def pmat(z):
        return np.hstack(blocks(z))

    def chol_shifted(z):
        out = []
        for S, shift in zip(blocks(z), shifts):
            try:
                out.append(la.cholesky(S - shift * eye, lower=True))
            except la.LinAlgError:
                return None
        return out

    def fit(z):
        R = pmat(z) @ D - F
        return float(np.sum(R * R))

    def merit(z, mu, chols=None):
        chols = chols if chols is not None else chol_shifted(z)
        if chols is None:
            return np.inf
        logdets = sum(2.0 * np.sum(np.log(np.diag(L))) for L in chols)
        return fit(z) - mu * logdets

    # strictly feasible start: every block one unit above its floor
    z = np.zeros(nv)
    for b, shift in enumerate(shifts):
        for i in range(r):
            z[b * q + i * r - i * (i - 1) // 2] = shift + 1.0

    for mu in 10.0 ** -np.arange(0, 10):
        for _ in range(200):
            chols = chol_shifted(z)
            inverses = [la.cho_solve((L, True), eye) for L in chols]
            RDt = (pmat(z) @ D - F) @ D.T
            g = np.array([2.0 * np.sum(RDt * Pa) for Pa in frames])
            H = H_fit.copy()
            for b in range(3):
                W = inverses[b]
                for ai in range(q):
                    a = b * q + ai
                    WSa = W @ basis[ai]
                    g[a] -= mu * np.trace(WSa)
                    for bi in range(ai, q):
                        bb = b * q + bi
                        hval = mu * np.sum(WSa * (W @ basis[bi]).T)
                        H[a, bb] += hval
                        if bb != a:
                            H[bb, a] += hval
            step = la.solve(H, -g, assume_a="sym")
            decrement = float(-g @ step)
            if decrement / 2.0 <= 1e-12 * max(1.0, mu):
                break
            t = 1.0
            base = merit(z, mu, chols)
            while t > 1e-14:
                if merit(z + t * step, mu) <= base - 1e-4 * t * decrement:
                    break
                t *= 0.5
            z = z + t * step
        else:
            raise RuntimeError("interior-point iteration stalled")
    return fit(z)


def test_splitting_matches_interior_point_oracle():
    """On ten random small problems the splitting solver's objective
    agrees with the in-test interior-point reference to 1e-6."""
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        r = int(rng.integers(1, 4))
        D = rng.standard_normal((3 * r, 40))
        F = rng.standard_normal((r, 40))
        _, report = infer_constrained(D, F)
        worst = max(worst, abs(report.objective - barrier_optimum(D, F, 1e-8)))
    check("solver-oracle agreement", worst <= 1e-6,
          f"worst objective gap over 10 problems {worst:.3e} (tol 1e-6)")


def test_pipeline_reruns_are_byte_identical(tmp_path):
    """Two pipeline runs with the same configuration and seed leave the
    artifact directory byte for byte unchanged. Stage wall-clock times
    live in timings.csv, the one file that legitimately varies."""
    config = tmp_path / "exp.ini"
    config.write_text(
        "[system]\nkind = chain\nn = 4\nstiffnesses = 10.0\n"
        "alpha_r = 0.02\nbeta_r = 0.005\n"
        "[integrator]\ndt = 0.02\n"
        "[input]\nwaveform = sine\nfrequency = 1.0\n"
        "[training]\nt_end = 0.2\n"
        "[testing]\nt_end = 0.4\n"
        "[basis]\nrank = 2\n"
        "[output]\nseed = 3\n",
        encoding="ascii",
    )
    out = tmp_path / "artifacts"
    argv = ["run", "--config", str(config), "--out", str(out)]

    def snapshot():
        tree = {}
        for dirpath, _, files in os.walk(out):
            for fname in files:
                if fname == "timings.csv":
                    continue
                full = os.path.join(dirpath, fname)
                with open(full, "rb") as fh:
                    tree[os.path.relpath(full, out)] = fh.read()
        return tree

    assert main(argv) == 0
    first = snapshot()
    assert main(argv) == 0
    second = snapshot()
    same = first == second
    changed = sorted(
        set(first) ^ set(second)
        | {k for k in set(first) & set(second) if first[k] != second[k]}
    )
    with open(out / "manifest.json", encoding="ascii") as fh:
        manifest = json.load(fh)
    check("reproducible runs",
          same and manifest["config"]["output"]["seed"] == 3,
          f"{len(first)} artifacts compared, "
          + ("all identical" if same else f"differing: {changed}"))

import dataclasses
import re

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp

from mechrom import (
    IntegratorConfig,
    SecondOrderSystem,
    build_mass_spring_chain,
    initial_acceleration,
    simulate,
    step,
)
from mechrom import newmark
from mechrom.errors import (
    InvalidInputError,
    InvalidParameterError,
    SingularOperatorError,
)

from ._helpers import banded_calls, random_spd


def scalar_system(m, e, k, b=1.0):
    return SecondOrderSystem(
        mass=np.array([[m]]), damping=np.array([[e]]),
        stiffness=np.array([[k]]), input_map=np.array([[b]]),
    )


def zero_sampler(t):
    return np.zeros(1)


def force_driven(sys_):
    """The model with an identity input map, so that its input signal is
    the nodal force."""
    return dataclasses.replace(sys_, input_map=np.eye(sys_.n))


# ------------------------------------------------------------------- config


def test_config_defaults():
    cfg = IntegratorConfig(dt=0.01, t_end=1.0)
    assert cfg.gamma == pytest.approx(0.5)
    assert cfg.beta == pytest.approx(0.25)
    assert cfg.alpha == 0.0


def test_config_alpha_dependent_defaults():
    cfg = IntegratorConfig(dt=0.01, t_end=1.0, alpha=-0.1)
    assert cfg.gamma == pytest.approx((1 + 0.2) / 2)
    assert cfg.beta == pytest.approx(1.1**2 / 4)


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        IntegratorConfig(dt=0.0, t_end=1.0)
    with pytest.raises(InvalidParameterError):
        IntegratorConfig(dt=0.01, t_end=0.005)
    with pytest.raises(InvalidParameterError):
        IntegratorConfig(dt=0.01, t_end=1.0, alpha=-0.5)
    with pytest.raises(InvalidParameterError):
        IntegratorConfig(dt=0.01, t_end=1.0, alpha=0.1)


@pytest.mark.parametrize("dt, t_end", [
    (float("nan"), 1.0), (float("inf"), 1.0),
    (0.01, float("nan")), (0.01, float("inf")),
])
def test_config_rejects_non_finite_grid(dt, t_end):
    with pytest.raises(InvalidParameterError, match="finite"):
        IntegratorConfig(dt=dt, t_end=t_end)


@pytest.mark.parametrize("name", ["gamma", "beta"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_config_rejects_non_finite_scheme_parameters(name, value):
    with pytest.raises(InvalidParameterError, match="finite"):
        IntegratorConfig(dt=0.1, t_end=1.0, **{name: value})


def test_config_rejects_uncountable_step_count():
    # 1.0 / 5e-324 overflows to inf, which has no step count.
    with pytest.raises(InvalidParameterError, match="t_end / dt overflows"):
        IntegratorConfig(dt=5e-324, t_end=1.0)


@pytest.mark.parametrize("dt, t_end", [(1e-300, 4.0), (1.0, 2.0**60)])
def test_config_rejects_a_grid_no_array_holds(dt, t_end):
    # Finite step counts whose grid of doubles numpy cannot allocate;
    # nothing is allocated here.
    with pytest.raises(InvalidParameterError, match="more than an array"):
        IntegratorConfig(dt=dt, t_end=t_end)


def test_config_accepts_a_grid_an_array_holds():
    assert IntegratorConfig(dt=1.0, t_end=2.0**59).num_steps == 2**59


def test_step_count_contract():
    cfg = IntegratorConfig(dt=0.1, t_end=1.0)
    assert cfg.num_steps == 10


# ------------------------------------------------- initial acceleration


def test_initial_acceleration_zero():
    sys_ = scalar_system(1.0, 0.0, 1.0)
    a0 = initial_acceleration(sys_, np.zeros(1), np.zeros(1), np.zeros(1))
    assert a0 == pytest.approx([0.0])


def test_initial_acceleration_scalar_balance():
    sys_ = scalar_system(1.0, 0.0, 1.0)
    a0 = initial_acceleration(sys_, np.array([1.0]), np.zeros(1), np.zeros(1))
    assert a0 == pytest.approx([-1.0])


def test_initial_acceleration_against_solve(rng):
    M = random_spd(rng, 4)
    E = random_spd(rng, 4, eigmin=0.0)
    K = random_spd(rng, 4)
    sys_ = SecondOrderSystem(mass=M, damping=E, stiffness=K,
                             input_map=np.ones((4, 1)))
    x0 = rng.standard_normal(4)
    v0 = rng.standard_normal(4)
    f0 = rng.standard_normal(4)
    a0 = initial_acceleration(sys_, x0, v0, f0)
    oracle = la.solve(sys_.mass, f0 - sys_.damping @ v0 - sys_.stiffness @ x0)
    assert a0 == pytest.approx(oracle, rel=1e-12)
    resid = np.linalg.norm(
        sys_.mass @ a0 + sys_.damping @ v0 + sys_.stiffness @ x0 - f0
    )
    assert resid <= 1e-10 * (1 + np.linalg.norm(f0))


def test_initial_acceleration_overflowing_balance():
    # K x0 = 2e308 overflows; the balance is reported, not solved with.
    sys_ = scalar_system(1.0, 0.0, 1e308)
    with pytest.raises(InvalidInputError, match="balance"):
        initial_acceleration(sys_, np.array([2.0]), np.zeros(1), np.zeros(1))
    with pytest.raises(InvalidInputError, match="balance"):
        simulate(sys_, zero_sampler, np.array([2.0]), np.zeros(1),
                 IntegratorConfig(dt=0.01, t_end=0.1))


def test_initial_acceleration_overflowing_solve():
    # The mass factors with a nonzero pivot, but f0 / 1e-308 overflows.
    sys_ = scalar_system(1e-308, 0.0, 1.0)
    with pytest.raises(SingularOperatorError, match="^mass matrix is singular$"):
        initial_acceleration(sys_, np.zeros(1), np.zeros(1), np.array([1e10]))


def test_initial_acceleration_singular_mass():
    sys_ = SecondOrderSystem(
        mass=np.zeros((1, 1)), damping=np.zeros((1, 1)),
        stiffness=np.eye(1), input_map=np.ones((1, 1)),
    )
    with pytest.raises(SingularOperatorError):
        initial_acceleration(sys_, np.zeros(1), np.zeros(1), np.zeros(1))


# ---------------------------------------------------------------- stepping


def test_zero_force_zero_state_stays_zero():
    sys_ = build_mass_spring_chain(3, [1.0] * 3, [1.0] * 4, 0.0, 0.0, (0,))
    cfg = IntegratorConfig(dt=0.05, t_end=1.0)
    x = v = a = np.zeros(3)
    for _ in range(5):
        x, v, a = step(sys_, x, v, a, np.zeros(3), np.zeros(3), cfg)
    assert x == pytest.approx(np.zeros(3), abs=0.0)


def test_constant_force_polynomial_exactness():
    # free mass under constant force: a = 2, x(t) = t^2, exact for Newmark
    sys_ = scalar_system(1.0, 0.0, 0.0)
    cfg = IntegratorConfig(dt=0.07, t_end=0.7)
    f = np.array([2.0])
    x = v = np.zeros(1)
    a = initial_acceleration(sys_, x, v, f)
    for k in range(1, 11):
        x, v, a = step(sys_, x, v, a, f, f, cfg)
        assert x == pytest.approx([(k * 0.07) ** 2], rel=1e-13)


def test_sdof_oscillator_closed_form():
    sys_ = scalar_system(1.0, 0.0, 1.0)
    cfg = IntegratorConfig(dt=0.01, t_end=1.0)
    data = simulate(sys_, zero_sampler, np.array([1.0]), np.zeros(1), cfg)
    assert data.displacement.shape == (1, 100)
    assert data.displacement[0, -1] == pytest.approx(np.cos(1.0), abs=5e-5)


def test_step_balance_residual(rng):
    M = random_spd(rng, 5)
    E = random_spd(rng, 5, eigmin=0.0)
    K = random_spd(rng, 5)
    sys_ = SecondOrderSystem(mass=M, damping=E, stiffness=K,
                             input_map=np.ones((5, 1)))
    cfg = IntegratorConfig(dt=0.01, t_end=1.0)
    f0 = rng.standard_normal(5)
    f1 = rng.standard_normal(5)
    x0 = rng.standard_normal(5)
    v0 = rng.standard_normal(5)
    a0 = initial_acceleration(sys_, x0, v0, f0)
    x1, v1, a1 = step(sys_, x0, v0, a0, f1, f0, cfg)
    resid = np.linalg.norm(M @ a1 + E @ v1 + K @ x1 - f1)
    assert resid <= 1e-9 * (1 + np.linalg.norm(f1))


def test_step_balance_residual_hht(rng):
    M = random_spd(rng, 4)
    E = random_spd(rng, 4, eigmin=0.0)
    K = random_spd(rng, 4)
    sys_ = SecondOrderSystem(mass=M, damping=E, stiffness=K,
                             input_map=np.ones((4, 1)))
    alpha = -0.1
    cfg = IntegratorConfig(dt=0.02, t_end=1.0, alpha=alpha)
    f0 = rng.standard_normal(4)
    f1 = rng.standard_normal(4)
    x0 = rng.standard_normal(4)
    v0 = rng.standard_normal(4)
    a0 = initial_acceleration(sys_, x0, v0, f0)
    x1, v1, a1 = step(sys_, x0, v0, a0, f1, f0, cfg)
    lhs = (
        M @ a1
        + (1 + alpha) * (E @ v1 + K @ x1)
        - alpha * (E @ v0 + K @ x0)
    )
    rhs = (1 + alpha) * f1 - alpha * f0
    assert np.linalg.norm(lhs - rhs) <= 1e-9 * (1 + np.linalg.norm(rhs))


def test_singular_effective_matrix():
    sys_ = SecondOrderSystem(
        mass=np.zeros((1, 1)), damping=np.zeros((1, 1)),
        stiffness=np.zeros((1, 1)), input_map=np.ones((1, 1)),
    )
    cfg = IntegratorConfig(dt=0.01, t_end=0.1)
    zero = np.zeros(1)
    with pytest.raises(SingularOperatorError):
        step(sys_, zero, zero, zero, zero, zero, cfg)


def test_simulate_needs_an_input_map():
    sys_ = SecondOrderSystem(np.eye(2), np.zeros((2, 2)), np.eye(2))
    with pytest.raises(InvalidInputError, match="^model has no input map$"):
        simulate(sys_, zero_sampler, None, None,
                 IntegratorConfig(dt=0.1, t_end=1.0))


def test_vectors_of_the_wrong_length_are_rejected():
    # A length-1 force would broadcast to every node, a length-1 state
    # would reach the sparse product; both are the caller's error.
    sys_ = build_mass_spring_chain(3, [1.0] * 3, [1.0] * 4, 0.0, 0.0, (0,))
    cfg = IntegratorConfig(dt=0.05, t_end=1.0)
    zeros, one = np.zeros(3), np.ones(1)
    with pytest.raises(InvalidInputError, match="length 3, got 3, 3, 3, 1, 3"):
        step(sys_, zeros, zeros, zeros, one, zeros, cfg)
    with pytest.raises(InvalidInputError, match="length 3, got 1, 3, 3, 3, 3"):
        step(sys_, one, zeros, zeros, zeros, zeros, cfg)
    with pytest.raises(InvalidInputError, match="length 3, got 3, 3, 1"):
        initial_acceleration(sys_, zeros, zeros, one)
    with pytest.raises(InvalidInputError, match="length 3, got 3, 1"):
        simulate(sys_, zero_sampler, None, one, cfg)
    with pytest.raises(InvalidInputError, match="length 3, got 1, 3"):
        simulate(sys_, zero_sampler, one, None, cfg)


# ---------------------------------------------------------------- simulate


@pytest.mark.parametrize("case, message", [
    ("effective matrix", "effective matrix has non-finite entries"),
    ("balance", "initial balance f0 - C v0 - K x0 is not finite"),
    ("grid", "snapshot times must be uniformly spaced"),
])
def test_checks_made_once_keep_their_errors(case, message):
    # The operators' and initial balance's finiteness and the grid's
    # uniformity are each checked once per simulate call, with the error
    # they always gave: here the effective matrix overflows, K x0
    # overflows, and the instants from t0 = 1e12 round to gaps that
    # differ by far more than the grid tolerance.
    big = 1.7e308 * np.eye(3)
    sys_ = SecondOrderSystem(big if case == "effective matrix" else np.eye(3),
                             big, big, np.ones((3, 1)))
    if case == "grid":
        sys_ = build_mass_spring_chain(3, [1.0] * 3, [1.0] * 4, 0.0, 0.0, (0,))
    dt = 1.0 if case == "effective matrix" else 1e-3
    t0 = 1e12 if case == "grid" else 0.0
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        simulate(sys_, zero_sampler, np.full(3, 2.0), None,
                 IntegratorConfig(dt=dt, t_end=20 * dt), t0=t0)


def test_simulate_column_count_and_times():
    sys_ = scalar_system(1.0, 0.1, 1.0)
    cfg = IntegratorConfig(dt=0.1, t_end=1.0)
    data = simulate(sys_, zero_sampler, None, None, cfg)
    assert data.num_snapshots == 10
    assert data.times == pytest.approx(0.1 * np.arange(1, 11))


def test_simulate_iss_protocol_column_count():
    # delta t = 0.01 s, u(t) = sin(t), horizon 7 s: 700 snapshots
    sys_ = build_mass_spring_chain(4, [1.0] * 4, [1.0] * 5, 0.0, 1e-6, (0,))
    cfg = IntegratorConfig(dt=0.01, t_end=7.0)
    data = simulate(sys_, lambda t: np.array([np.sin(t)]), None, None, cfg)
    assert data.num_snapshots == 700
    assert data.input.shape == (1, 700)


def test_undamped_energy_conservation():
    sys_ = build_mass_spring_chain(2, [1.0, 1.0], [1.0] * 3, 0.0, 0.0, (0,))
    cfg = IntegratorConfig(dt=0.01, t_end=10.0)
    x0 = np.array([1.0, -0.5])
    data = simulate(sys_, zero_sampler, x0, np.zeros(2), cfg)
    M, K = sys_.mass, sys_.stiffness
    e0 = 0.5 * x0 @ K @ x0
    energy = [
        0.5 * v @ M @ v + 0.5 * x @ K @ x
        for x, v in zip(data.displacement.T, data.velocity.T)
    ]
    assert np.max(np.abs(np.array(energy) - e0)) <= 1e-6 * e0


def test_simulate_deterministic():
    sys_ = build_mass_spring_chain(3, [1.0] * 3, [2.0] * 4, 0.01, 0.001, (1,))
    cfg = IntegratorConfig(dt=0.02, t_end=2.0)
    sampler = lambda t: np.array([np.sin(3 * t)])
    a = simulate(sys_, sampler, None, None, cfg)
    b = simulate(sys_, sampler, None, None, cfg)
    assert np.array_equal(a.displacement, b.displacement)
    assert np.array_equal(a.acceleration, b.acceleration)


def test_force_drive_matches_input_drive():
    sys_ = build_mass_spring_chain(3, [1.0] * 3, [2.0] * 4, 0.01, 0.001, (1,))
    cfg = IntegratorConfig(dt=0.02, t_end=1.0)
    u = lambda t: np.array([np.sin(3 * t)])
    f = lambda t: sys_.input_map @ u(t)
    via_input = simulate(sys_, u, None, None, cfg)
    via_force = simulate(force_driven(sys_), f, None, None, cfg)
    assert np.array_equal(via_force.input, via_force.force)
    assert via_input.displacement == pytest.approx(
        via_force.displacement, rel=1e-14, abs=1e-300
    )
    assert via_input.force == pytest.approx(via_force.force, rel=1e-14)


def test_second_order_accuracy_ratio():
    sys_ = scalar_system(1.0, 0.0, 1.0)
    errs = []
    for dt in (1e-2, 5e-3):
        cfg = IntegratorConfig(dt=dt, t_end=1.0)
        data = simulate(sys_, zero_sampler, np.array([1.0]), np.zeros(1), cfg)
        errs.append(np.max(np.abs(data.displacement[0] - np.cos(data.times))))
    ratio = errs[0] / errs[1]
    assert 3.5 <= ratio <= 4.5


# ------------------------------------------------- transition against step


def random_stable_system(rng, n, m=2):
    return SecondOrderSystem(
        mass=random_spd(rng, n), damping=random_spd(rng, n, eigmin=0.0),
        stiffness=10.0 * random_spd(rng, n), input_map=rng.standard_normal((n, m)),
    )


def step_loop(sys_, sampler, x0, v0, cfg, t0):
    """Reference trajectory: one ``step`` call per step."""
    def force(t):
        return sys_.input_map @ np.asarray(sampler(t), dtype=float)

    f_curr = force(t0)
    state = (x0, v0, initial_acceleration(sys_, x0, v0, f_curr))
    states = []
    for k in range(1, cfg.num_steps + 1):
        f_next = force(t0 + k * cfg.dt)
        state = step(sys_, *state, f_next, f_curr, cfg)
        states.append(state)
        f_curr = f_next
    return [np.column_stack(block) for block in zip(*states)]


def forbid(monkeypatch, name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} must not run for this model")
    monkeypatch.setattr(newmark, name, fail)


def width(n, alpha):
    """The predictor state's width: (pv, px), and w for alpha != 0."""
    return (3 if alpha else 2) * n


def banded(n, alpha):
    return width(n, alpha) <= newmark._BANDED_MAX_WIDTH


# The widest models solved banded, at alpha != 0 (width 3n) and at
# alpha = 0 (width 2n); one more and the product form runs.
BANDED_N = {-0.1: newmark._BANDED_MAX_WIDTH // 3,
            0.0: newmark._BANDED_MAX_WIDTH // 2}


def around_the_limits(*n):
    """``n``, the widest banded dimensions and the ones above them."""
    return sorted({*n, *BANDED_N.values(), *(k + 1 for k in BANDED_N.values())})


@pytest.mark.parametrize("drive", ["input", "force"])
@pytest.mark.parametrize("alpha", [0.0, -0.1])
@pytest.mark.parametrize("n", around_the_limits(
    1, 4, 8, 9, 16, 17, 26, newmark._TRANSITION_MAX_N + 1))
def test_simulate_matches_step_loop(rng, monkeypatch, n, alpha, drive):
    sys_ = random_stable_system(rng, n)
    cfg = IntegratorConfig(dt=0.01, t_end=0.6, alpha=alpha)
    t0 = 0.37
    if drive == "input":
        sampler = lambda t: np.array([np.sin(3.0 * t), np.cos(5.0 * t)])
    else:
        sys_ = force_driven(sys_)
        phase = rng.uniform(0.0, np.pi, n)
        sampler = lambda t: np.sin(4.0 * t + phase[:, None])
    x0 = rng.standard_normal(n)
    v0 = rng.standard_normal(n)
    # Small models take the transition, by banded solves up to a state
    # width of _BANDED_MAX_WIDTH, over the 59 steps from z_0 to z_59;
    # large ones take the factorized solve.
    if n <= newmark._TRANSITION_MAX_N:
        forbid(monkeypatch, "_integrate_factorized")
    else:
        forbid(monkeypatch, "_transition")
    calls = banded_calls(monkeypatch)
    data = simulate(sys_, sampler, x0, v0, cfg, t0=t0)
    assert calls == ([59] if banded(n, alpha) else [])
    expected = step_loop(sys_, sampler, x0, v0, cfg, t0)
    for got, ref in zip(
        (data.displacement, data.velocity, data.acceleration), expected
    ):
        assert got.shape == ref.shape == (n, 60)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert data.times == pytest.approx(t0 + 0.01 * np.arange(1, 61), rel=1e-15)


def predictor(sys_, x, v, a, cfg):
    """The predictor state ``(pv, px)``, with ``w = C v + K x`` appended
    for alpha != 0."""
    dt = cfg.dt
    z = [v + dt * (1.0 - cfg.gamma) * a,
         x + dt * v + dt**2 * (0.5 - cfg.beta) * a]
    if cfg.alpha:
        z.append(sys_.damping @ v + sys_.stiffness @ x)
    return np.concatenate(z)


def reference_transition_replay(sys_, sampler, x0, v0, cfg, t0, advance):
    """The transition replay with numpy-scalar instants, each sample read
    through ``asarray(...).ravel()``, and a fresh array for every stage
    of the recurrence where ``simulate`` shares one buffer;
    ``advance(A, states)`` fills rows 1, 2, ... of the states, which hold
    their force terms on entry. Returns the instants, the samples and the
    (N, n) displacement, velocity and acceleration rows."""
    n, m = sys_.n, sys_.m
    times = t0 + cfg.dt * np.arange(1, cfg.num_steps + 1)
    samples = np.empty((times.size + 1, m))
    for k, t in enumerate((np.float64(t0), *times)):
        samples[k] = np.asarray(sampler(t), dtype=float).ravel()
    forces = sys_.input_map @ samples.T
    a0 = initial_acceleration(sys_, x0, v0, forces[:, 0])
    A, Q, R, G, U = newmark._transition(
        sys_, newmark._effective_solve(sys_, cfg), cfg)
    # The kernel for a transposed operand can round otherwise (n = 17,
    # 26): the forces enter transposed, as ``simulate`` passes them.
    gemm = la.blas.dgemm
    h = gemm(1.0, R, forces.T, trans_b=1)
    h = (1.0 + cfg.alpha) * h[:, 1:] - cfg.alpha * h[:, :-1] if cfg.alpha \
        else h[:, 1:]
    states = np.empty((times.size, A.shape[0]))
    states[0] = predictor(sys_, x0, v0, a0, cfg)
    states[1:] = gemm(1.0, G, h[:, :-1]).T
    advance(A, states)
    a = gemm(1.0, Q, states.T, beta=1.0, c=h)
    vx = gemm(1.0, U, a, beta=1.0, c=states.T)
    return times, samples, (vx[n:2 * n].T, vx[:n].T, a.T)


def step_by_step(A, states):
    """Every step as one ``dgemv`` that adds ``A @ z`` into the next row
    (beta = 1), on the strided slice of the transition: the plain form of
    the loop that ``simulate`` runs with less interpreter work above
    ``_BANDED_MAX_WIDTH``. The wrapper copies the slice's transpose at
    every call and runs the transposed kernel, as ``simulate`` does on
    its one view."""
    for k in range(states.shape[0] - 1):
        states[k + 1] = la.blas.dgemv(1.0, A.T, states[k], beta=1.0,
                                      y=states[k + 1], trans=1)


def one_banded_solve(A, states):
    """The whole horizon as one ``dtbsv`` call on the band of every
    state at once: the windowed solve differs from it only by the
    products of zero band entries, which add ±0 to finite values."""
    w = A.shape[0]
    band = np.zeros((2 * w, states.size), order="F")
    for j in range(w):
        band[w - j:2 * w - j, j::w] = -A[:, [j]]
    states[:] = la.blas.dtbsv(2 * w - 1, band, states.ravel(), lower=1,
                              diag=1).reshape(states.shape)


def assert_replay_bits(data, reference):
    times, samples, blocks = reference
    assert np.array_equal(data.times, times)
    assert np.array_equal(data.input, samples[1:].T)
    for got, rows in zip(
            (data.displacement, data.velocity, data.acceleration), blocks):
        assert np.array_equal(got, rows.T)


# The reference samples each instant alone and ``simulate`` the whole grid
# at once: both must give the same doubles.
def bit_test_sampler(t):
    return np.array([np.sin(3.0 * t), np.cos(5.0 * t) * t])


def product_form_at(monkeypatch, n, alpha):
    """Let ``simulate`` replay a model of dimension ``n`` by the product
    form: a state of n = 9 is 18 or 27 wide and solved banded, and the
    product form stays checked at the dimensions it ran before."""
    monkeypatch.setattr(newmark, "_BANDED_MAX_WIDTH",
                        min(width(n, alpha) - 1, newmark._BANDED_MAX_WIDTH))


@pytest.mark.parametrize("alpha", [0.0, -0.1])
@pytest.mark.parametrize("n", sorted({9, BANDED_N[-0.1] + 1, BANDED_N[0.0] + 1,
                                      17, 26, newmark._TRANSITION_MAX_N}))
def test_transition_replay_is_bit_equal_to_the_reference_loops(
        rng, monkeypatch, n, alpha):
    product_form_at(monkeypatch, n, alpha)
    sys_ = random_stable_system(rng, n)
    cfg = IntegratorConfig(dt=0.01, t_end=0.6, alpha=alpha)
    t0 = 0.37
    x0 = rng.standard_normal(n)
    v0 = rng.standard_normal(n)
    forbid(monkeypatch, "_integrate_factorized")
    forbid(monkeypatch, "_integrate_banded")
    data = simulate(sys_, bit_test_sampler, x0, v0, cfg, t0=t0)
    assert_replay_bits(data, reference_transition_replay(
        sys_, bit_test_sampler, x0, v0, cfg, t0, step_by_step))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="numpy.longdouble is no wider than a double here")
@pytest.mark.parametrize("n", [9, 16, 26, 64, newmark._TRANSITION_MAX_N])
def test_fused_step_is_as_accurate_as_product_and_add(rng, monkeypatch, n):
    # The product form adds A @ z_k into the force term of z_{k+1} inside
    # one BLAS call, which may round otherwise than a product followed by
    # an add; against a numpy.longdouble replay of the same recurrence,
    # its error stays within twice that of the two-call form.
    product_form_at(monkeypatch, n, 0.0)
    sys_ = random_stable_system(rng, n)
    cfg = IntegratorConfig(dt=0.01, t_end=3.0)
    transition = newmark._transition(
        sys_, newmark._effective_solve(sys_, cfg), cfg)
    A, Q, R, G, U = transition
    forces = sys_.input_map @ rng.standard_normal((2, cfg.num_steps + 1))
    z0 = rng.standard_normal(2 * n)
    fused = newmark._integrate_transition(transition, z0, forces, 0.0)
    assert [block.shape for block in fused] == [(cfg.num_steps, n)] * 3
    h = (R @ forces[:, 1:]).T

    def replay(dtype, advance):
        h_, Q_, U_ = (M.astype(dtype) for M in (h, Q, U))
        states = np.empty((cfg.num_steps, 2 * n), dtype=dtype)
        states[0] = z0
        states[1:] = h_[:-1] @ G.astype(dtype).T
        advance(A.astype(dtype), states)
        a = h_ + states @ Q_.T
        vx = states + a @ U_.T
        return vx[:, n:], vx[:, :n], a

    def loop(A_, states):
        for k in range(cfg.num_steps - 1):
            states[k + 1] += A_ @ states[k]

    two_calls = replay(float, loop)
    exact = np.hstack(replay(np.longdouble, loop))

    def error(blocks):
        return float(np.linalg.norm(np.hstack(blocks) - exact)
                     / np.linalg.norm(exact))

    assert 0.0 < error(two_calls)
    assert error(fused) <= 2.0 * error(two_calls)


def banded_up_to(monkeypatch, n, alpha):
    """Let ``simulate`` solve models up to dimension ``n`` banded. The
    banded tests also run at n = 16, a band of width 32 or 48, wider
    than any that ``simulate`` solves now, so that the kernel stays
    checked there if the limit is raised again."""
    monkeypatch.setattr(newmark, "_BANDED_MAX_WIDTH",
                        max(width(n, alpha), newmark._BANDED_MAX_WIDTH))


@pytest.mark.parametrize("alpha", [0.0, -0.1])
@pytest.mark.parametrize("n", [1, 4, 8, BANDED_N[0.0], 16])
def test_banded_replay_is_bit_equal_to_one_full_solve(rng, monkeypatch, n,
                                                      alpha):
    banded_up_to(monkeypatch, n, alpha)
    sys_ = random_stable_system(rng, n)
    cfg = IntegratorConfig(dt=0.01, t_end=0.6, alpha=alpha)
    t0 = 0.37
    x0 = rng.standard_normal(n)
    v0 = rng.standard_normal(n)
    forbid(monkeypatch, "_integrate_factorized")
    calls = banded_calls(monkeypatch)
    data = simulate(sys_, bit_test_sampler, x0, v0, cfg, t0=t0)
    assert calls == [59]
    reference = reference_transition_replay(
        sys_, bit_test_sampler, x0, v0, cfg, t0, one_banded_solve)
    assert_replay_bits(data, reference)
    # The banded solve is another order of the same sums as the loop.
    loop = reference_transition_replay(
        sys_, bit_test_sampler, x0, v0, cfg, t0, step_by_step)[2]
    for got, ref in zip(reference[2], loop):
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def window_steps(w):
    return max(1, newmark._BANDED_WINDOW_COLUMNS // w - 1)


@pytest.mark.parametrize("n", [2, 8, 16])
@pytest.mark.parametrize("steps", [
    pytest.param(lambda w: 1, id="one-step"),
    pytest.param(lambda w: w - 1, id="inside-one-window"),
    pytest.param(lambda w: w, id="one-window"),
    pytest.param(lambda w: 3 * w, id="three-windows"),
    pytest.param(lambda w: 2 * w + 5, id="two-windows-and-five"),
])
def test_banded_windows_are_bit_equal_to_one_full_solve(rng, monkeypatch, n,
                                                        steps):
    # Each window starts at the last state of the one before it; the
    # recurrence, one step shorter than the horizon, ends inside, or at
    # the end of, a window.
    banded_up_to(monkeypatch, n, 0.0)
    N = steps(window_steps(2 * n)) + 1
    sys_ = random_stable_system(rng, n)
    cfg = IntegratorConfig(dt=0.01, t_end=N * 0.01)
    assert cfg.num_steps == N
    x0 = rng.standard_normal(n)
    calls = banded_calls(monkeypatch)
    data = simulate(sys_, bit_test_sampler, x0, None, cfg)
    assert calls == [N - 1]
    assert_replay_bits(data, reference_transition_replay(
        sys_, bit_test_sampler, x0, np.zeros(n), cfg, 0.0, one_banded_solve))


@pytest.mark.parametrize("alpha", [0.0, -0.1])
@pytest.mark.parametrize("n", [4, 26])
def test_one_step_horizon(rng, monkeypatch, n, alpha):
    # A width that the band solves and one that the product form does:
    # with N = 1 the recurrence has no step, and the one instant comes
    # from z_0 alone.
    sys_ = random_stable_system(rng, n)
    cfg = IntegratorConfig(dt=0.01, t_end=0.01, alpha=alpha)
    assert cfg.num_steps == 1
    x0 = rng.standard_normal(n)
    v0 = rng.standard_normal(n)
    forbid(monkeypatch, "_integrate_factorized")
    calls = banded_calls(monkeypatch)
    data = simulate(sys_, bit_test_sampler, x0, v0, cfg, t0=0.37)
    assert calls == []
    expected = step_loop(sys_, bit_test_sampler, x0, v0, cfg, 0.37)
    for got, ref in zip(
        (data.displacement, data.velocity, data.acceleration), expected
    ):
        assert got.shape == ref.shape == (n, 1)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert_replay_bits(data, reference_transition_replay(
        sys_, bit_test_sampler, x0, v0, cfg, 0.37, step_by_step))


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n", [4, 26, newmark._TRANSITION_MAX_N + 1])
def test_simulate_leaves_a_dense_model_unchanged(rng, n, order):
    # One model per replay form: banded, dgemv and factorized. LAPACK
    # would factor a Fortran-ordered matrix in place if it were allowed
    # to overwrite it.
    names = ("mass", "damping", "stiffness", "input_map")
    sys_ = random_stable_system(rng, n)
    sys_ = SecondOrderSystem(*(np.asarray(getattr(sys_, name), order=order)
                               for name in names))
    before = [getattr(sys_, name).tobytes() for name in names]
    simulate(sys_, bit_test_sampler, rng.standard_normal(n), None,
             IntegratorConfig(dt=0.01, t_end=0.1))
    assert [getattr(sys_, name).tobytes() for name in names] == before


def test_diverging_banded_replay_leaves_the_finite_range(monkeypatch):
    # q'' = 1e8 q at dt = 1e-4: the average-acceleration step multiplies
    # the growing mode by 3, so 1,000 steps overflow; products of the
    # band's zeros with inf then give NaN.
    sys_ = SecondOrderSystem(np.eye(2), np.zeros((2, 2)), -1e8 * np.eye(2),
                             np.ones((2, 1)))
    cfg = IntegratorConfig(dt=1e-4, t_end=0.1)
    A = newmark._transition(sys_, newmark._effective_solve(sys_, cfg), cfg)[0]
    assert np.max(np.abs(np.linalg.eigvals(A))) == pytest.approx(3.0)
    calls = banded_calls(monkeypatch)
    x0 = np.array([1e-3, 0.0])
    data = simulate(sys_, zero_sampler, x0, None, cfg)
    assert calls == [999]
    assert not np.all(np.isfinite(data.displacement))
    expected = step_loop(sys_, zero_sampler, x0, np.zeros(2),
                         dataclasses.replace(cfg, t_end=5e-3), 0.0)[0]
    assert expected.shape == (2, 50)
    got = data.displacement[:, :50]
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("alpha", [0.0, -0.1])
@pytest.mark.parametrize("n", [2, BANDED_N[0.0] + 1])
def test_diverging_replay_ends_in_nan(monkeypatch, n, alpha):
    # The growing pair above, at a width the band solves and one the
    # product form does at either alpha. From the first
    # instant with an inf or NaN in any block on, every block holds NaN
    # alone, so that lifting it raises no floating-point warning.
    sys_ = SecondOrderSystem(np.eye(n), np.zeros((n, n)), -1e8 * np.eye(n),
                             np.ones((n, 1)))
    cfg = IntegratorConfig(dt=1e-4, t_end=0.1, alpha=alpha)
    forbid(monkeypatch, "_integrate_factorized")
    calls = banded_calls(monkeypatch)
    data = simulate(sys_, zero_sampler, np.full(n, 1e-3), None, cfg)
    assert calls == ([999] if banded(n, alpha) else [])
    blocks = (data.displacement, data.velocity, data.acceleration)
    finite = np.all([np.all(np.isfinite(B), axis=0) for B in blocks], axis=0)
    first = int(np.argmin(finite))
    assert 0 < first and np.all(finite[:first])
    for B in blocks:
        assert np.all(np.isnan(B[:, first:]))
    assert np.all(np.isnan(np.ones((3, n)) @ data.displacement[:, first:]))


def longdouble_step_loop(sys_, sampler, x0, cfg):
    """Displacements of the scheme's step loop in numpy.longdouble, with
    the effective matrix inverted by Gauss-Jordan elimination with
    partial pivoting, from rest at x0. It starts from ``simulate``'s
    initial acceleration, so that only the steps' rounding is compared:
    the solve with a near-singular mass errs by as much."""
    ld = np.longdouble

    def inverse(M):
        n = M.shape[0]
        W = np.hstack([M.astype(ld), np.eye(n, dtype=ld)])
        for j in range(n):
            p = j + int(np.argmax(np.abs(W[j:, j])))
            W[[j, p]] = W[[p, j]]
            W[j] /= W[j, j]
            for i in range(n):
                if i != j:
                    W[i] -= W[i, j] * W[j]
        return W[:, n:]

    dt, gamma, beta, alpha = (ld(v) for v in (cfg.dt, cfg.gamma, cfg.beta,
                                              cfg.alpha))
    M, C, K = (np.asarray(A).astype(ld) for A in (
        sys_.mass, sys_.damping, sys_.stiffness))
    c = 1 + alpha
    S_inv = inverse(M + gamma * dt * c * C + beta * dt**2 * c * K)
    times = cfg.dt * np.arange(cfg.num_steps + 1)
    f = (sys_.input_map @ np.asarray(sampler(times), dtype=float)
         .reshape(-1, times.size)).astype(ld)
    x, v = x0.astype(ld), np.zeros_like(x0, dtype=ld)
    a = initial_acceleration(sys_, x0, np.zeros_like(x0),
                             f[:, 0].astype(float)).astype(ld)
    out = []
    for k in range(1, times.size):
        px = x + dt * v + dt**2 * (ld(0.5) - beta) * a
        pv = v + dt * (1 - gamma) * a
        rhs = (c * f[:, k] - alpha * f[:, k - 1] - C @ (c * pv - alpha * v)
               - K @ (c * px - alpha * x))
        a_next = S_inv @ rhs
        x, v, a = px + beta * dt**2 * a_next, pv + gamma * dt * a_next, a_next
        out.append(x)
    return np.column_stack(out)


# Three times the error of the 3n (x, v, a) transition that this one
# replaced: 9.65e-9 and 7.56e-13 at n = 8 (banded), 4.46e-9 and 5.43e-13
# at n = 15 (one dgemv per step). The factorized step loop in doubles
# errs as much here (9.9e-9, 8.4e-13, 6.1e-9, 7.0e-13): the fast mode of
# the 1e-8 mass eigenvalue is not damped at alpha = 0.
@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="numpy.longdouble is no wider than a double here")
@pytest.mark.parametrize("n, alpha, bound", [
    (8, 0.0, 2.9e-8), (8, -0.1, 2.3e-12),
    (15, 0.0, 1.3e-8), (15, -0.1, 1.6e-12),
])
def test_near_singular_mass_replay_accuracy(n, alpha, bound):
    # A mass with an eigenvalue on copinf's 1e-8 definiteness floor, as
    # copinf's fit on `wide` has at some seeds, replayed banded (n = 8)
    # and by the product form (n = 15): its error against a
    # numpy.longdouble step loop, in the relative max norm of the
    # displacement, stays within ``bound``.
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    mass = (Q * np.r_[1e-8, rng.uniform(0.5, 1.5, n - 1)]) @ Q.T
    stiffness = 1e4 * random_spd(rng, n, eigmin=0.01, eigmax=4.0)
    sys_ = SecondOrderSystem(
        0.5 * (mass + mass.T), 0.01 * mass + 1e-4 * stiffness, stiffness,
        rng.standard_normal((n, 1)))
    cfg = IntegratorConfig(dt=1e-3, t_end=0.5, alpha=alpha)
    sampler = lambda t: np.sin(20.0 * np.pi * t)
    x0 = 1e-3 * rng.standard_normal(n)
    data = simulate(sys_, sampler, x0, None, cfg)
    exact = longdouble_step_loop(sys_, sampler, x0, cfg)
    error = float(np.max(np.abs(data.displacement - exact))
                  / np.max(np.abs(exact)))
    assert error <= bound


@pytest.mark.parametrize("n", [1, newmark._TRANSITION_MAX_N + 1])
def test_singular_effective_matrix_on_both_paths(n):
    zero = np.zeros((n, n))
    sys_ = SecondOrderSystem(zero, zero, zero, np.ones((n, 1)))
    with pytest.raises(SingularOperatorError):
        simulate(sys_, zero_sampler, None, None,
                 IntegratorConfig(dt=0.01, t_end=0.1))


def test_overflowing_transition_steps_by_solve():
    # A subnormal mass and stiffness: the step is a unit-frequency
    # oscillator, but the inverse of the subnormal effective matrix
    # overflows in the transition. The model is stepped by the
    # factorized solve and ends where ``step`` does.
    tiny = 1e-309
    sys_ = scalar_system(tiny, 0.0, tiny)
    cfg = IntegratorConfig(dt=0.01, t_end=0.1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        transition = newmark._transition(
            sys_, newmark._effective_solve(sys_, cfg), cfg)
    assert not all(np.all(np.isfinite(M)) for M in transition)
    x0 = np.ones(1)
    data = simulate(sys_, zero_sampler, x0, None, cfg)
    expected = step_loop(sys_, zero_sampler, x0, np.zeros(1), cfg, 0.0)
    assert np.all(np.isfinite(data.displacement))
    assert data.displacement == pytest.approx(np.cos(data.times)[None],
                                              rel=1e-3)
    assert np.array_equal(data.displacement, expected[0])


# ---------------------------------------------------------- sampler contract


def test_sampler_called_once_with_the_time_grid():
    sys_ = scalar_system(1.0, 0.1, 1.0)
    calls = []

    def sampler(t):
        calls.append(t.copy())
        return np.zeros_like(t)

    data = simulate(sys_, sampler, None, None,
                    IntegratorConfig(dt=0.1, t_end=1.0), t0=2.0)
    assert len(calls) == 1
    assert calls[0].dtype == float and calls[0].shape == (11,)
    assert calls[0][0] == 2.0
    assert np.array_equal(calls[0][1:], data.times)


def test_history_broadcasts_over_channels(rng):
    sys_ = random_stable_system(rng, 3)
    cfg = IntegratorConfig(dt=0.01, t_end=0.3)
    x0 = rng.standard_normal(3)
    both = simulate(sys_, lambda t: np.array([np.sin(t), np.sin(t)]), x0,
                    None, cfg)
    shared = simulate(sys_, np.sin, x0, None, cfg)
    assert np.array_equal(shared.input, both.input)
    assert np.array_equal(shared.displacement, both.displacement)
    constant = simulate(sys_, lambda t: 0.5, x0, None, cfg)
    assert np.array_equal(constant.input, np.full((2, 30), 0.5))


def test_sampler_history_is_copied(rng):
    sys_ = random_stable_system(rng, 3)
    cfg = IntegratorConfig(dt=0.01, t_end=0.3)
    history = rng.standard_normal((2, 31))
    kept = history.copy()
    data = simulate(sys_, lambda t: history, None, None, cfg)
    history[:] = 0.0
    assert np.array_equal(data.input, kept[:, 1:])


@pytest.mark.parametrize("drive", ["input", "force"])
def test_misshapen_history_raises_before_factoring(rng, monkeypatch, drive):
    # Two channels over 11 instants: the per-instant channel vector, a
    # history one instant short, too many channels and the transpose are
    # all rejected before the effective matrix is factored.
    if drive == "input":
        sys_ = random_stable_system(rng, 3)
    else:
        sys_ = force_driven(random_stable_system(rng, 2))
    cfg = IntegratorConfig(dt=0.1, t_end=1.0)
    for name in ("_effective_solve", "_transition", "_integrate_factorized"):
        forbid(monkeypatch, name)
    for shape in [(2,), (2, 10), (10,), (3, 11), (11, 2)]:
        message = f"sampler returned shape {shape}, expected (2, 11) or (11,)"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            simulate(sys_, lambda t: np.zeros(shape), None, None, cfg)


# ------------------------------------------------------------ sparse models


def dense_copy(sys_):
    return SecondOrderSystem(sys_.mass.toarray(), sys_.damping.toarray(),
                             sys_.stiffness.toarray(), sys_.input_map)


@pytest.mark.parametrize("drive", ["input", "force"])
@pytest.mark.parametrize("alpha", [0.0, -0.1])
@pytest.mark.parametrize("n, steps", [(200, 100), (1000, 50)])
def test_sparse_trajectory_matches_dense(rng, monkeypatch, n, steps, alpha,
                                         drive):
    chain = build_mass_spring_chain(
        n, rng.uniform(0.5, 2.0, n), rng.uniform(1e3, 5e3, n + 1),
        alpha_r=0.01, beta_r=1e-4, input_nodes=(0, n // 2),
    )
    dense = dense_copy(chain)
    cfg = IntegratorConfig(dt=1e-3, t_end=steps * 1e-3, alpha=alpha)
    if drive == "input":
        sampler = lambda t: np.array([np.sin(30.0 * t), np.cos(50.0 * t)])
    else:
        chain, dense = force_driven(chain), force_driven(dense)
        phase = rng.uniform(0.0, np.pi, n)
        sampler = lambda t: np.sin(40.0 * t + phase[:, None])
    x0 = rng.standard_normal(n)
    v0 = rng.standard_normal(n)
    expected = simulate(dense, sampler, x0, v0, cfg)
    # The sparse model is factored by SuperLU, never by dense LU.
    def dense_lu(*args, **kwargs):
        raise AssertionError("dense LU must not factor a sparse model")

    forbid(monkeypatch, "_transition")
    monkeypatch.setattr(newmark.la, "lu_factor", dense_lu)
    data = simulate(chain, sampler, x0, v0, cfg)
    for name in ("displacement", "velocity", "acceleration"):
        got, ref = getattr(data, name), getattr(expected, name)
        assert got.shape == ref.shape == (n, steps)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_small_sparse_model_takes_the_transition(rng, monkeypatch):
    chain = build_mass_spring_chain(8, np.ones(8), np.full(9, 50.0),
                                    alpha_r=0.01, beta_r=1e-3)
    cfg = IntegratorConfig(dt=0.01, t_end=0.5, alpha=-0.1)
    sampler = lambda t: np.array([np.sin(3.0 * t)])
    x0 = rng.standard_normal(8)
    expected = simulate(dense_copy(chain), sampler, x0, None, cfg)
    forbid(monkeypatch, "_integrate_factorized")
    data = simulate(chain, sampler, x0, None, cfg)
    ref = expected.displacement
    assert np.max(np.abs(data.displacement - ref)) <= 1e-12 * np.max(np.abs(ref))


# Both storages fail with one error class naming one matrix: SuperLU
# reports an exactly singular factor, dense LU a zero pivot.
@pytest.mark.parametrize("n, storage", [
    pytest.param(n, storage, id=f"{prefix}{n}")
    for prefix, storage in (("", sp.csr_array), ("dense-", np.asarray))
    for n in (1, newmark._TRANSITION_MAX_N + 1)
])
def test_singular_sparse_effective_matrix(n, storage):
    zero = storage(np.zeros((n, n)))
    sys_ = SecondOrderSystem(zero, zero, zero, np.ones((n, 1)))
    with pytest.raises(SingularOperatorError,
                       match="^effective matrix is singular$"):
        simulate(sys_, zero_sampler, None, None,
                 IntegratorConfig(dt=0.01, t_end=0.1))


@pytest.mark.parametrize("storage", [sp.csr_array, np.asarray],
                         ids=["csr", "dense"])
def test_singular_sparse_mass(storage):
    # The effective matrix is regular; only the mass solve fails.
    mass = storage(np.diag([1.0, 0.0]))
    sys_ = SecondOrderSystem(mass, storage(np.zeros((2, 2))),
                             storage(np.eye(2)), np.ones((2, 1)))
    with pytest.raises(SingularOperatorError, match="^mass matrix is singular$"):
        initial_acceleration(sys_, np.zeros(2), np.zeros(2), np.zeros(2))
    with pytest.raises(SingularOperatorError, match="^mass matrix is singular$"):
        simulate(sys_, zero_sampler, None, None,
                 IntegratorConfig(dt=0.01, t_end=0.1))

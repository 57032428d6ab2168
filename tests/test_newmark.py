import numpy as np
import pytest
import scipy.linalg as la

from mechrom import (
    IntegratorConfig,
    IntegratorState,
    SecondOrderSystem,
    build_mass_spring_chain,
    initial_acceleration,
    simulate,
    step,
)
from mechrom.errors import InvalidParameterError, SingularOperatorError

from ._helpers import random_spd


def scalar_system(m, e, k, b=1.0):
    return SecondOrderSystem(
        mass=np.array([[m]]), damping=np.array([[e]]),
        stiffness=np.array([[k]]), input_map=np.array([[b]]),
    )


def zero_sampler(t):
    return np.zeros(1)


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
    state = IntegratorState(np.zeros(3), np.zeros(3), np.zeros(3), 0.0)
    for _ in range(5):
        state = step(sys_, state, np.zeros(3), np.zeros(3), cfg)
    assert state.x == pytest.approx(np.zeros(3), abs=0.0)


def test_constant_force_polynomial_exactness():
    # free mass under constant force: a = 2, x(t) = t^2, exact for Newmark
    sys_ = scalar_system(1.0, 0.0, 0.0)
    cfg = IntegratorConfig(dt=0.07, t_end=0.7)
    f = np.array([2.0])
    state = IntegratorState(np.zeros(1), np.zeros(1),
                            initial_acceleration(sys_, np.zeros(1), np.zeros(1), f),
                            0.0)
    for k in range(1, 11):
        state = step(sys_, state, f, f, cfg)
        assert state.x == pytest.approx([(k * 0.07) ** 2], rel=1e-13)


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
    state = IntegratorState(x0, v0, initial_acceleration(sys_, x0, v0, f0), 0.0)
    nxt = step(sys_, state, f1, f0, cfg)
    resid = np.linalg.norm(
        M @ nxt.a + E @ nxt.v + K @ nxt.x - f1
    )
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
    state = IntegratorState(x0, v0, initial_acceleration(sys_, x0, v0, f0), 0.0)
    nxt = step(sys_, state, f1, f0, cfg)
    lhs = (
        M @ nxt.a
        + (1 + alpha) * (E @ nxt.v + K @ nxt.x)
        - alpha * (E @ state.v + K @ state.x)
    )
    rhs = (1 + alpha) * f1 - alpha * f0
    assert np.linalg.norm(lhs - rhs) <= 1e-9 * (1 + np.linalg.norm(rhs))


def test_singular_effective_matrix():
    sys_ = SecondOrderSystem(
        mass=np.zeros((1, 1)), damping=np.zeros((1, 1)),
        stiffness=np.zeros((1, 1)), input_map=np.ones((1, 1)),
    )
    cfg = IntegratorConfig(dt=0.01, t_end=0.1)
    state = IntegratorState(np.zeros(1), np.zeros(1), np.zeros(1), 0.0)
    with pytest.raises(SingularOperatorError):
        step(sys_, state, np.zeros(1), np.zeros(1), cfg)


# ---------------------------------------------------------------- simulate


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
    via_force = simulate(sys_, f, None, None, cfg, drive="force")
    assert via_force.input is None
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

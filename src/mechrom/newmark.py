"""Implicit time integration for linear second-order models.

One-step scheme in acceleration form with parameters (gamma, beta,
alpha). The balance solved at the end of each step is

    M a1 + C ((1 + alpha) v1 - alpha v0) + K ((1 + alpha) x1 - alpha x0)
        = (1 + alpha) f1 - alpha f0,

with the state updates

    x1 = x0 + dt v0 + dt^2 ((1/2 - beta) a0 + beta a1),
    v1 = v0 + dt ((1 - gamma) a0 + gamma a1).

At alpha = 0 this is the classical implicit family; gamma = 1/2 and
beta = 1/4 give the unconditionally stable average-acceleration member
with second-order accuracy. Negative alpha adds high-frequency
dissipation; when gamma and beta are left unset they follow alpha as
gamma = (1 - 2 alpha) / 2 and beta = (1 - alpha)^2 / 4.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .errors import InvalidInputError, InvalidParameterError, SingularOperatorError
from .snapshots import TrajectoryData

__all__ = [
    "IntegratorConfig",
    "IntegratorState",
    "initial_acceleration",
    "step",
    "simulate",
]


@dataclass(frozen=True)
class IntegratorConfig:
    """Time grid and scheme parameters.

    ``t_end`` is the simulated horizon measured from the initial time;
    the grid has floor(t_end / dt) steps. ``gamma`` and ``beta`` default
    to the alpha-dependent choices above (1/2 and 1/4 at alpha = 0).
    """

    dt: float
    t_end: float
    gamma: float | None = None
    beta: float | None = None
    alpha: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise InvalidParameterError(
                f"dt must be positive and finite, got {self.dt}"
            )
        if not math.isfinite(self.t_end):
            raise InvalidParameterError(f"t_end must be finite, got {self.t_end}")
        if not -1.0 / 3.0 <= self.alpha <= 0.0:
            raise InvalidParameterError(
                f"alpha must lie in [-1/3, 0], got {self.alpha}"
            )
        gamma = self.gamma
        beta = self.beta
        if gamma is None:
            gamma = (1.0 - 2.0 * self.alpha) / 2.0
        if beta is None:
            beta = (1.0 - self.alpha) ** 2 / 4.0
        if gamma < 0.0 or beta < 0.0:
            raise InvalidParameterError(
                f"gamma and beta must be nonnegative, got {gamma}, {beta}"
            )
        object.__setattr__(self, "gamma", float(gamma))
        object.__setattr__(self, "beta", float(beta))
        if self.num_steps < 1:
            raise InvalidParameterError(
                f"horizon {self.t_end} shorter than one step {self.dt}"
            )

    @property
    def num_steps(self) -> int:
        # floor with a small relative guard so that horizons that are an
        # exact multiple of dt up to round-off keep their last step.
        ratio = self.t_end / self.dt
        return int(math.floor(ratio + 1e-9))


@dataclass(frozen=True)
class IntegratorState:
    """Displacement, velocity, acceleration, and time of one instant."""

    x: np.ndarray
    v: np.ndarray
    a: np.ndarray
    t: float

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float).ravel()
        v = np.asarray(self.v, dtype=float).ravel()
        a = np.asarray(self.a, dtype=float).ravel()
        if not (x.shape == v.shape == a.shape):
            raise InvalidInputError("state components must share one shape")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "a", a)


class _EffectiveSolver:
    """LU factorization of M + gamma dt (1+alpha) C + beta dt^2 (1+alpha) K,
    computed once and reused for every step of a simulation."""

    def __init__(self, model, config: IntegratorConfig):
        c = (1.0 + config.alpha)
        S = (
            model.mass
            + config.gamma * config.dt * c * model.damping
            + config.beta * config.dt**2 * c * model.stiffness
        )
        if not np.all(np.isfinite(S)):
            raise InvalidInputError("effective matrix has non-finite entries")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", la.LinAlgWarning)
                self._lu, self._piv = la.lu_factor(S)
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise SingularOperatorError(f"effective matrix: {exc}") from exc
        diag = np.abs(np.diag(self._lu))
        if np.any(diag == 0.0) or not np.all(np.isfinite(diag)):
            raise SingularOperatorError(
                "effective matrix is singular for this step size"
            )

    def solve(self, rhs):
        return la.lu_solve((self._lu, self._piv), rhs, check_finite=False)


def initial_acceleration(model, x0, v0, f0) -> np.ndarray:
    """Acceleration consistent with the balance at the initial instant,
    from M a0 = f0 - C v0 - K x0."""
    x0 = np.asarray(x0, dtype=float).ravel()
    v0 = np.asarray(v0, dtype=float).ravel()
    f0 = np.asarray(f0, dtype=float).ravel()
    n = model.mass.shape[0]
    if x0.shape != (n,) or v0.shape != (n,) or f0.shape != (n,):
        raise InvalidInputError(
            f"initial data must have length {n}, got "
            f"{x0.shape[0]}, {v0.shape[0]}, {f0.shape[0]}"
        )
    rhs = f0 - model.damping @ v0 - model.stiffness @ x0
    try:
        with np.errstate(invalid="ignore", divide="ignore"), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore", la.LinAlgWarning)
            a0 = la.solve(model.mass, rhs)
    except la.LinAlgError as exc:
        raise SingularOperatorError(f"mass matrix: {exc}") from exc
    if not np.all(np.isfinite(a0)):
        raise SingularOperatorError("mass matrix is singular")
    return a0


def step(model, state: IntegratorState, f_next, f_curr,
         config: IntegratorConfig, _solver: _EffectiveSolver | None = None
         ) -> IntegratorState:
    """Advance one step of size ``config.dt``.

    ``f_next`` and ``f_curr`` are the nodal forces at the end and start
    of the step; ``f_curr`` only enters for alpha != 0.
    """
    if _solver is None:
        _solver = _EffectiveSolver(model, config)
    dt = config.dt
    gamma, beta, alpha = config.gamma, config.beta, config.alpha
    f_next = np.asarray(f_next, dtype=float).ravel()
    f_curr = np.asarray(f_curr, dtype=float).ravel()

    pred_x = state.x + dt * state.v + dt**2 * (0.5 - beta) * state.a
    pred_v = state.v + dt * (1.0 - gamma) * state.a
    c = 1.0 + alpha
    f_eff = c * f_next - alpha * f_curr
    rhs = (
        f_eff
        - model.damping @ (c * pred_v - alpha * state.v)
        - model.stiffness @ (c * pred_x - alpha * state.x)
    )
    a_next = _solver.solve(rhs)
    return IntegratorState(
        x=pred_x + beta * dt**2 * a_next,
        v=pred_v + gamma * dt * a_next,
        a=a_next,
        t=state.t + dt,
    )


def simulate(model, sampler, x0, v0, config: IntegratorConfig,
             drive: str = "input", t0: float = 0.0) -> TrajectoryData:
    """Integrate from ``t0`` and collect snapshots at the step ends.

    Parameters
    ----------
    model : SecondOrderSystem
        The model to integrate; ``drive='input'`` needs its input map.
    sampler : callable
        ``sampler(t)`` returning the excitation at time t. With
        ``drive='input'`` it returns the m-channel input signal, which
        is mapped to forces through the model's input map and recorded
        together with the resulting force history. With
        ``drive='force'`` it returns the n-channel nodal force directly
        and no input history is recorded.
    x0, v0 : (n,) array_like or None
        Initial displacement and velocity; None means zero.
    config : IntegratorConfig

    Returns
    -------
    TrajectoryData
        floor(t_end / dt) snapshot columns at t0 + dt, ..., not
        including the initial instant.
    """
    n = model.mass.shape[0]
    if drive not in ("input", "force"):
        raise InvalidParameterError(f"unknown drive mode {drive!r}")
    if drive == "input" and model.input_map is None:
        raise InvalidInputError("model has no input map; use drive='force'")
    x0 = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).ravel()
    v0 = np.zeros(n) if v0 is None else np.asarray(v0, dtype=float).ravel()
    if x0.shape != (n,) or v0.shape != (n,):
        raise InvalidInputError(
            f"initial conditions must have length {n}, got "
            f"{x0.shape[0]} and {v0.shape[0]}"
        )

    def excitation(t: float):
        raw = np.asarray(sampler(t), dtype=float).ravel()
        if drive == "input":
            if raw.shape[0] != model.input_map.shape[1]:
                raise InvalidInputError(
                    f"sampler returned {raw.shape[0]} channels, input map "
                    f"expects {model.input_map.shape[1]}"
                )
            return raw, model.input_map @ raw
        if raw.shape[0] != n:
            raise InvalidInputError(
                f"sampler returned force of length {raw.shape[0]}, "
                f"model dimension is {n}"
            )
        return None, raw

    solver = _EffectiveSolver(model, config)
    N = config.num_steps
    times = t0 + config.dt * np.arange(1, N + 1)

    u0, f0 = excitation(t0)
    state = IntegratorState(x=x0, v=v0, a=initial_acceleration(model, x0, v0, f0),
                            t=t0)

    X = np.empty((n, N))
    Xd = np.empty((n, N))
    Xdd = np.empty((n, N))
    F = np.empty((n, N))
    U = None if u0 is None else np.empty((u0.shape[0], N))

    f_curr = f0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(N):
            u_next, f_next = excitation(times[k])
            state = step(model, state, f_next, f_curr, config, _solver=solver)
            X[:, k] = state.x
            Xd[:, k] = state.v
            Xdd[:, k] = state.a
            F[:, k] = f_next
            if U is not None:
                U[:, k] = u_next
            f_curr = f_next

    return TrajectoryData(
        times=times,
        displacement=X,
        velocity=Xd,
        acceleration=Xdd,
        input=U,
        force=F,
    )

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
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .errors import InvalidInputError, InvalidParameterError, SingularOperatorError
from .snapshots import TrajectoryData

__all__ = [
    "IntegratorConfig",
    "initial_acceleration",
    "step",
    "simulate",
]

# Largest model dimension stepped by the precomputed 3n x 3n transition;
# above it the factorized solve is cheaper per step (timings in README.md).
_TRANSITION_MAX_N = 128

# Largest model dimension whose transition replay is one banded triangular
# solve per window of steps; above it one in-place matrix-vector product
# per step is cheaper, since the band carries twice the useful products.
# The banded solve is the more accurate, and now the cheaper up to n = 9
# too (timings in README.md, which says why the limit is still 8).
_BANDED_MAX_N = 8

# Band columns per window of the banded replay, rounded down to whole
# states: enough that the fixed cost of each solve call does not show,
# few enough that the band stays in cache at n = 8 (timings in README.md).
_BANDED_WINDOW_COLUMNS = 1536

# Dense LU by direct LAPACK calls, without scipy's per-call checks.
_getrf, _getrs = la.get_lapack_funcs(("getrf", "getrs"), dtype=np.float64)


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
        if not (0.0 <= gamma < math.inf and 0.0 <= beta < math.inf):
            raise InvalidParameterError(
                f"gamma and beta must be nonnegative and finite, got "
                f"{gamma}, {beta}"
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


def _vectors(model, *vectors):
    """``vectors`` as flat float arrays; InvalidInputError unless each
    has the model's dimension."""
    vectors = [np.asarray(u, dtype=float).ravel() for u in vectors]
    if any(u.shape != (model.n,) for u in vectors):
        raise InvalidInputError(
            f"vectors must have length {model.n}, got "
            + ", ".join(str(u.shape[0]) for u in vectors)
        )
    return vectors


def _factor(A, name: str):
    """Factor ``A`` once and return its solve: SuperLU when ``A`` is
    sparse, dense LU otherwise. Non-finite entries raise InvalidInputError,
    a zero or non-finite pivot SingularOperatorError naming ``name``."""
    sparse = sp.issparse(A)
    if not np.all(np.isfinite(A.data if sparse else A)):
        raise InvalidInputError(f"{name} has non-finite entries")
    if sparse:
        # Imported here: dense-only runs do not pay for scipy.sparse.linalg.
        from scipy.sparse.linalg import splu
        try:
            lu = splu(sp.csc_array(A))
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise SingularOperatorError(f"{name} is singular") from exc
        solve, pivots = lu.solve, lu.U.diagonal()
    else:
        # Not overwrite_a: ``A`` may be a model's own matrix.
        lu, piv, _ = _getrf(A)
        solve = lambda rhs: _getrs(lu, piv, rhs)[0]
        pivots = np.diag(lu)
    if np.any(pivots == 0.0) or not np.all(np.isfinite(pivots)):
        raise SingularOperatorError(f"{name} is singular")
    return solve


def _effective_solve(model, config: IntegratorConfig):
    """Solve with M + gamma dt (1+alpha) C + beta dt^2 (1+alpha) K,
    factored once and reused for every step of a simulation."""
    c = 1.0 + config.alpha
    return _factor(model.mass + config.gamma * config.dt * c * model.damping
                   + config.beta * config.dt**2 * c * model.stiffness,
                   "effective matrix")


def initial_acceleration(model, x0, v0, f0) -> np.ndarray:
    """Acceleration consistent with the balance at the initial instant,
    from M a0 = f0 - C v0 - K x0.

    Raises InvalidInputError when a vector's length is not the model's
    dimension or that balance is not finite (operators near the largest
    double can overflow it), and SingularOperatorError when M cannot be
    solved with.
    """
    x0, v0, f0 = _vectors(model, x0, v0, f0)
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = f0 - model.damping @ v0 - model.stiffness @ x0
    if not np.all(np.isfinite(rhs)):
        raise InvalidInputError(
            "initial balance f0 - C v0 - K x0 is not finite"
        )
    a0 = _factor(model.mass, "mass matrix")(rhs)
    if not np.all(np.isfinite(a0)):
        raise SingularOperatorError("mass matrix is singular")
    return a0


def _advance(model, solve, x, v, a, f_next, f_curr, config: IntegratorConfig):
    """The scheme's one step: ``(x, v, a)`` at the start of a step and the
    forces at its end and start give ``(x, v, a)`` at its end.

    Every argument may be a vector or a block of columns; the step is
    linear, so on identity blocks it yields the step's matrices.
    """
    dt = config.dt
    gamma, beta, alpha = config.gamma, config.beta, config.alpha
    pred_x = x + dt * v + dt**2 * (0.5 - beta) * a
    pred_v = v + dt * (1.0 - gamma) * a
    c = 1.0 + alpha
    f_eff = c * f_next - alpha * f_curr
    rhs = (
        f_eff
        - model.damping @ (c * pred_v - alpha * v)
        - model.stiffness @ (c * pred_x - alpha * x)
    )
    a_next = solve(rhs)
    return pred_x + beta * dt**2 * a_next, pred_v + gamma * dt * a_next, a_next


def step(model, x, v, a, f_next, f_curr, config: IntegratorConfig):
    """Advance the displacement, velocity and acceleration ``(x, v, a)``
    by one step of size ``config.dt`` and return them at its end.

    ``f_next`` and ``f_curr`` are the nodal forces at the end and start
    of the step; ``f_curr`` only enters for alpha != 0. A vector whose
    length is not the model's dimension raises InvalidInputError.
    """
    vectors = _vectors(model, x, v, a, f_next, f_curr)
    return _advance(model, _effective_solve(model, config), *vectors, config)


def _transition(model, solve, config: IntegratorConfig):
    """The step as one matrix ``T`` (3n x 5n) with
    ``s_next = T @ (s, f_next, f_curr)`` on ``s = (x, v, a)``."""
    n = model.mass.shape[0]
    rows = np.split(np.eye(5 * n), 5)
    return np.vstack(_advance(model, solve, *rows, config))


def _integrate_banded(A, states):
    """Fill rows 1, 2, ... of ``states``, which hold ``g`` on entry, by
    solving ``s_k - A s_{k-1} = g_k`` in place as one unit lower-triangular
    banded system: the column of entry j of a state holds ``-A[:, j]`` at
    band rows ``w - j`` to ``2w - 1 - j`` (w = 3n), bandwidth 2w - 1. One
    2w x w period of the band, broadcast, fills the band of a window
    of states, which serves every window. Each window starts at the last
    state solved, whose rows of the band are the identity, so it is
    solved again to itself and no product couples the windows."""
    w = A.shape[0]
    steps = max(1, _BANDED_WINDOW_COLUMNS // w - 1)
    period = np.zeros((2 * w, w), order="F")
    i, j = np.indices((w, w))
    period[w + i - j, j] = -A
    band = np.empty((2 * w, (steps + 1) * w), order="F")
    band.reshape(2 * w, w, steps + 1, order="F")[...] = period[..., None]
    flat = states.reshape(-1)
    last = states.shape[0] - 1
    for start in range(0, last, steps):
        columns = (min(steps, last - start) + 1) * w
        la.blas.dtbsv(2 * w - 1, band[:, :columns], flat, offx=start * w,
                      lower=1, diag=1, overwrite_x=1)


def _integrate_transition(T, s0, forces):
    """Replay ``s_{k+1} = A s_k + g_{k+1}`` from ``s0 = (x, v, a)``, with
    ``A`` and the two force maps read off ``T``, by banded solves up to
    ``_BANDED_MAX_N`` and one ``dgemv`` per step above; return the
    (N+1) x 3n state buffer and the column offsets of x, v and a in it.

    The band solves states ordered (a, v, x): it adds a row's products
    one at a time and rounds at each, so the displacements, the largest
    terms, come last (README.md). The buffer is allocated before the
    ``dgemm`` calls; after them, it cost a ``readme`` replay about 800
    minor page faults. Every BLAS call is scipy's: at two threads, numpy's
    OpenBLAS before scipy's step loop slowed the replay fivefold."""
    n = forces.shape[0]
    states = np.empty((forces.shape[1], 3 * n))
    gemm = la.blas.dgemm
    g = gemm(1.0, forces[:, 1:], T[:, 3 * n:4 * n], trans_a=1, trans_b=1)
    g = gemm(1.0, forces[:, :-1], T[:, 4 * n:], beta=1.0, c=g, trans_a=1,
             trans_b=1, overwrite_c=1)
    if n <= _BANDED_MAX_N:
        order = np.r_[2 * n:3 * n, n:2 * n, :n]
        states[0], states[1:] = s0[order], g[:, order]
        _integrate_banded(T[np.ix_(order, order)], states)
        return states, (2 * n, n, 0)
    states[0], states[1:] = s0, g
    # One dgemv per step adds A @ s_k into row k + 1, which holds g_{k+1}
    # (beta = 1, overwrite_y). The transpose of a C-ordered copy of A is
    # a Fortran-ordered view, which the wrapper passes without a copy to
    # the transposed kernel. Arguments go by position, which the wrapper
    # parses faster than keywords: dgemv(alpha, a, x, beta, y, offx,
    # incx, offy, incy, trans, overwrite_y).
    gemv = la.blas.dgemv
    At = np.ascontiguousarray(T[:, :3 * n]).T
    rows = list(states)
    for k in range(len(rows) - 1):
        gemv(1.0, At, rows[k], 1.0, rows[k + 1], 0, 1, 0, 1, 1, 1)
    return states, (0, n, 2 * n)


def _integrate_factorized(model, solve, s0, forces, config: IntegratorConfig):
    """``_integrate_transition``'s replay and result, by one solve per
    step. The forces are read and the states stored as contiguous rows:
    strided column access to (n, N) arrays took about a third of a
    sparse step's time at n = 1000."""
    n = forces.shape[0]
    F = np.ascontiguousarray(forces.T)
    states = np.empty((F.shape[0], 3 * n))
    states[0] = s0
    X, V, A = states[:, :n], states[:, n:2 * n], states[:, 2 * n:]
    for k in range(states.shape[0] - 1):
        X[k + 1], V[k + 1], A[k + 1] = _advance(
            model, solve, X[k], V[k], A[k], F[k + 1], F[k], config
        )
    return states, (0, n, 2 * n)


def simulate(model, sampler, x0, v0, config: IntegratorConfig,
             t0: float = 0.0) -> TrajectoryData:
    """Integrate from ``t0`` and collect snapshots at the step ends.

    Models of dimension up to ``_TRANSITION_MAX_N`` advance by the
    precomputed transition ``s_{k+1} = A s_k + g_{k+1}`` on
    ``s = (x, v, a)``: up to ``_BANDED_MAX_N`` by banded triangular
    solves over windows of steps, above it by one BLAS matrix-vector
    product per step that adds ``A s_k`` to ``g_{k+1}`` in place.
    Larger models, and any model whose transition is not finite, solve
    with the factorized effective matrix at every step. The operators'
    storage picks the factorization: a model with sparse operators (a
    full model) is factored once with SuperLU and stepped with sparse
    products, a dense one (a reduced model) with dense LU.

    Parameters
    ----------
    model : SecondOrderSystem
        The model to integrate, with dense or sparse operators and an
        input map. A model fitted to force data is given one with
        ``dataclasses.replace``.
    sampler : callable
        ``sampler(t)`` returning the m-channel input history on the
        instants ``t``, the (N+1,) array of t0 followed by the returned
        ``times``; it is called once, before the first step. The
        history is mapped to forces through the model's input map and
        recorded together with the resulting force history. It is
        copied into an (m, N+1) array by numpy's broadcasting rules: an
        (m, N+1) array gives each channel its own history, an (N+1,)
        array or a scalar drives every channel alike. A history that
        does not broadcast raises :class:`InvalidInputError` before any
        factorization or step.
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
    if model.input_map is None:
        raise InvalidInputError("model has no input map")
    x0, v0 = _vectors(model, np.zeros(n) if x0 is None else x0,
                      np.zeros(n) if v0 is None else v0)

    N = config.num_steps
    times = t0 + config.dt * np.arange(1, N + 1)
    samples = np.empty((model.m, N + 1))
    raw = np.asarray(sampler(np.concatenate(([t0], times))), dtype=float)
    try:
        samples[...] = raw
    except ValueError:
        raise InvalidInputError(
            f"sampler returned shape {raw.shape}, expected "
            f"{samples.shape} or ({N + 1},)"
        ) from None
    solve = _effective_solve(model, config)

    with np.errstate(over="ignore", invalid="ignore"):
        forces = model.input_map @ samples
        a0 = initial_acceleration(model, x0, v0, forces[:, 0])
        s0 = np.concatenate([x0, v0, a0])
        T = _transition(model, solve, config) if n <= _TRANSITION_MAX_N else None
        if T is not None and np.all(np.isfinite(T)):
            states, (x, v, a) = _integrate_transition(T, s0, forces)
        else:
            states, (x, v, a) = _integrate_factorized(model, solve, s0,
                                                      forces, config)
    return TrajectoryData(
        times=times,
        displacement=states[1:, x:x + n].T,
        velocity=states[1:, v:v + n].T,
        acceleration=states[1:, a:a + n].T,
        input=samples[:, 1:],
        force=forces[:, 1:],
    )

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

# Largest model dimension replayed by the precomputed transition; above
# it the factorized solve is cheaper per step (timings in README.md,
# "The measurements behind the replay constants").
_TRANSITION_MAX_N = 128

# Largest state width (2n at alpha = 0, 3n otherwise) whose transition
# replay is one banded triangular solve per window of steps; above it one
# in-place matrix-vector product per step is cheaper, since the band
# carries twice the useful products (timings in README.md, as above).
_BANDED_MAX_WIDTH = 28

# Band columns per window of the banded replay, rounded down to whole
# states: enough that the fixed cost of each solve call does not show,
# few enough that the band stays in cache (timings in README.md, as
# above).
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
        if not math.isfinite(self.t_end / self.dt):
            raise InvalidParameterError(
                f"t_end / dt overflows: {self.t_end} / {self.dt}"
            )
        if self.num_steps < 1:
            raise InvalidParameterError(
                f"horizon {self.t_end} shorter than one step {self.dt}"
            )
        # numpy refuses an array of more bytes than np.intp counts, so
        # the grid's num_steps + 1 doubles must stay within that.
        if (self.num_steps + 1) * 8 > np.iinfo(np.intp).max:
            raise InvalidParameterError(
                f"t_end / dt gives {self.num_steps:.3g} steps, more than "
                f"an array can hold"
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
    if not np.isfinite(A.data if sparse else A).all():
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
    if (pivots == 0.0).any() or not np.isfinite(pivots).all():
        raise SingularOperatorError(f"{name} is singular")
    return solve


def _effective_solve(model, config: IntegratorConfig):
    """Solve with M + gamma dt (1+alpha) C + beta dt^2 (1+alpha) K,
    factored once and reused for every step of a simulation."""
    c = 1.0 + config.alpha
    # A sum that overflows is reported by _factor's finiteness check.
    with np.errstate(over="ignore", invalid="ignore"):
        A = (model.mass + config.gamma * config.dt * c * model.damping
             + config.beta * config.dt**2 * c * model.stiffness)
    return _factor(A, "effective matrix")


def initial_acceleration(model, x0, v0, f0) -> np.ndarray:
    """Acceleration consistent with the balance at the initial instant,
    from M a0 = f0 - C v0 - K x0.

    Raises InvalidInputError when a vector's length is not the model's
    dimension or that balance is not finite (operators near the largest
    double can overflow it), and SingularOperatorError when M cannot be
    solved with.
    """
    return _initial_acceleration(model, *_vectors(model, x0, v0, f0))


def _initial_acceleration(model, x0, v0, f0) -> np.ndarray:
    """``initial_acceleration`` of vectors already checked by ``_vectors``."""
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = f0 - model.damping @ v0 - model.stiffness @ x0
    if not np.isfinite(rhs).all():
        raise InvalidInputError(
            "initial balance f0 - C v0 - K x0 is not finite"
        )
    a0 = _factor(model.mass, "mass matrix")(rhs)
    if not np.isfinite(a0).all():
        raise SingularOperatorError("mass matrix is singular")
    return a0


def _predictors(x, v, a, config: IntegratorConfig):
    """The parts of the velocity and displacement at the end of a step
    from ``(x, v, a)`` that the step's new acceleration does not enter:
    ``pv = v + dt (1 - gamma) a`` and ``px = x + dt v + dt^2 (1/2 - beta) a``."""
    dt = config.dt
    return (v + dt * (1.0 - config.gamma) * a,
            x + dt * v + dt**2 * (0.5 - config.beta) * a)


def _advance(model, solve, x, v, a, f_next, f_curr, config: IntegratorConfig):
    """The scheme's one step: ``(x, v, a)`` at the start of a step and the
    forces at its end and start give ``(x, v, a)`` at its end."""
    dt = config.dt
    gamma, beta, alpha = config.gamma, config.beta, config.alpha
    pred_v, pred_x = _predictors(x, v, a, config)
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
    """The step on the predictor state ``z = (pv, px)``, with
    ``pv = v + dt (1 - gamma) a`` and ``px = x + dt v + dt^2 (1/2 - beta) a``,
    extended by ``w = C v + K x`` when alpha != 0. Returns the matrices
    ``(A, Q, R, G, U)`` of

        h_{k+1} = R ((1 + alpha) f_{k+1} - alpha f_k),
        a_{k+1} = Q z_k + h_{k+1},
        z_{k+1} = A z_k + G h_{k+1},
        (v, x)_{k+1} = (pv, px)_k + U a_{k+1}.

    ``Q`` and ``R`` come from one solve with the effective matrix. The
    predictor update is ``z_{k+1} = E z_k + G a_{k+1}``, with ``G`` the
    blocks ``dt I``, ``dt^2 (1/2 + gamma) I`` and ``gamma dt C + beta dt^2 K``
    and ``E`` the identity and ``dt I`` blocks (and ``(C, K)`` in the w
    rows), so ``A = E + G Q``: one scipy ``dgemm``. ``U`` holds
    ``gamma dt I`` and ``beta dt^2 I``, and zeros in the w rows. All but
    ``A`` (C-ordered) are Fortran-ordered, as BLAS reads them."""
    n = model.mass.shape[0]
    dt, gamma, beta, alpha = config.dt, config.gamma, config.beta, config.alpha
    C, K = (M.toarray() if sp.issparse(M) else M
            for M in (model.damping, model.stiffness))
    c = 1.0 + alpha
    eye = np.eye(n)
    QR = solve(np.hstack([-c * C, -c * K] + ([alpha * eye] if alpha else [])
                         + [eye]))
    w = QR.shape[1] - n
    Q, R = np.asfortranarray(QR[:, :w]), np.asfortranarray(QR[:, w:])
    i = np.arange(n)
    G = np.zeros((w, n), order="F")
    U = np.zeros((w, n), order="F")
    G[i, i], G[n + i, i] = dt, dt**2 * (0.5 + gamma)
    U[i, i], U[n + i, i] = gamma * dt, beta * dt**2
    E = np.zeros((w, w), order="F")
    E[i, i] = E[n + i, n + i] = 1.0
    E[n + i, i] = dt
    if alpha:
        G[2 * n:] = gamma * dt * C + beta * dt**2 * K
        E[2 * n:, :2 * n] = np.hstack([C, K])
    A = la.blas.dgemm(1.0, G, Q, 1.0, E, overwrite_c=1)
    return np.ascontiguousarray(A), Q, R, G, U


def _integrate_banded(A, states):
    """Fill rows 1, 2, ... of ``states``, which hold ``g`` on entry, by
    solving ``s_k - A s_{k-1} = g_k`` in place as one unit lower-triangular
    banded system: the column of entry j of a state holds ``-A[:, j]`` at
    band rows ``w - j`` to ``2w - 1 - j`` (w the state's width), bandwidth
    2w - 1. One 2w x w period of the band, broadcast, fills the band of a
    window of states, which serves every window. Each window starts at
    the last state solved, whose rows of the band are the identity, so it
    is solved again to itself and no product couples the windows."""
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


def _integrate_transition(transition, z0, forces, alpha: float):
    """Replay ``_transition``'s recurrence from ``z0`` over the N steps
    of the (n, N+1) force history and return the displacement, velocity
    and acceleration at instants 1 ... N as (N, n) row blocks.

    One buffer, allocated before any product (allocated after them, a
    replay's buffer cost about 800 minor page faults), holds the N states
    z_0 ... z_{N-1}, one per row, and below them N + 1 rows of ``R f_j``,
    which become ``h_j``. Rows 1 ... N-1 of the states take their force
    terms ``G h`` and are solved in place: by banded solves up to a
    state width of ``_BANDED_MAX_WIDTH``, by one ``dgemv`` per step
    above. Row k then gives instant k + 1: one ``dgemm`` adds ``Q z_k``
    to ``h_{k+1}``, which makes it ``a_{k+1}``, and one more adds
    ``U a_{k+1}`` to ``(pv, px)_k``, which makes it ``(v, x)_{k+1}``.
    Every BLAS call is scipy's: at two threads, numpy's OpenBLAS before
    scipy's step loop slowed the replay fourfold (BENCH_25.json,
    ``simulate_threads``)."""
    A, Q, R, G, U = transition
    n, N = forces.shape[0], forces.shape[1] - 1
    w = A.shape[0]
    buffer = np.empty(N * w + (N + 1) * n)
    Z = buffer[:N * w].reshape(N, w)
    H = buffer[N * w:].reshape(N + 1, n)
    # dgemm(alpha, a, b, beta, c, trans_a, trans_b, overwrite_c): the
    # transposes of the C-ordered blocks are Fortran-ordered, which the
    # wrapper passes and writes without a copy.
    gemm = la.blas.dgemm
    gemm(1.0, R, forces.T, 0.0, H.T, 0, 1, 1)
    if alpha:
        H[1:] = (1.0 + alpha) * H[1:] - alpha * H[:-1]
    H = H[1:]
    Z[0] = z0
    if N > 1:
        gemm(1.0, G, H[:-1].T, 0.0, Z[1:].T, 0, 0, 1)
        if w <= _BANDED_MAX_WIDTH:
            _integrate_banded(A, Z)
        else:
            # One dgemv per step adds A @ z_k into row k + 1, which holds
            # its force term (beta = 1, overwrite_y). The transpose of the
            # C-ordered A is a Fortran-ordered view, which the wrapper
            # passes without a copy to the transposed kernel. Arguments go
            # by position, which the wrapper parses faster than keywords:
            # dgemv(alpha, a, x, beta, y, offx, incx, offy, incy, trans,
            # overwrite_y).
            gemv = la.blas.dgemv
            At = A.T
            rows = list(Z)
            for k in range(N - 1):
                gemv(1.0, At, rows[k], 1.0, rows[k + 1], 0, 1, 0, 1, 1, 1)
    gemm(1.0, Q, Z.T, 1.0, H.T, 0, 0, 1)
    gemm(1.0, U, H.T, 1.0, Z.T, 0, 0, 1)
    return Z[:, n:2 * n], Z[:, :n], H


def _integrate_factorized(model, solve, s0, forces, config: IntegratorConfig):
    """The replay from ``s0 = (x, v, a)`` by one solve per step, with
    ``_integrate_transition``'s result: (N, n) row blocks of the
    displacement, velocity and acceleration at instants 1 ... N. The
    forces are read and the states stored as contiguous rows:
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
    return states[1:, :n], states[1:, n:2 * n], states[1:, 2 * n:]


def _nan_from_divergence(*blocks):
    """Set the (N, n) row blocks to NaN from the first instant at which
    one of them is not finite. A non-finite entry never turns finite
    again in a later step (a product with inf or NaN is inf or NaN, and
    so is a sum holding one), so a finite last instant clears them all."""
    if all(np.isfinite(B[-1]).all() for B in blocks):
        return
    bad = np.zeros(blocks[0].shape[0], dtype=bool)
    for B in blocks:
        bad |= ~np.all(np.isfinite(B), axis=1)
    first = int(np.argmax(bad))
    for B in blocks:
        B[first:] = np.nan


def simulate(model, sampler, x0, v0, config: IntegratorConfig,
             t0: float = 0.0) -> TrajectoryData:
    """Integrate from ``t0`` and collect snapshots at the step ends.

    Models of dimension up to ``_TRANSITION_MAX_N`` advance by the
    precomputed transition ``z_{k+1} = A z_k + G h_{k+1}`` on the
    predictor state ``z = (pv, px)``, where ``pv = v + dt (1 - gamma) a``
    and ``px = x + dt v + dt^2 (1/2 - beta) a``: the step's balance fixes
    the acceleration, so at alpha = 0 the state has 2n entries (3n for
    alpha != 0, which appends ``w = C v + K x``). States up to a width of
    ``_BANDED_MAX_WIDTH`` are solved by banded triangular solves over
    windows of steps, wider ones by one BLAS matrix-vector product per
    step that adds ``A z_k`` to the force term in place. ``z_k`` and the
    forces then give the displacement, velocity and acceleration at
    instant k + 1 by two matrix products. Larger models, and any model
    whose transition is not finite, solve with the factorized effective
    matrix at every step. The operators' storage picks the
    factorization: a model with sparse operators (a full model) is
    factored once with SuperLU and stepped with sparse products, a dense
    one (a reduced model) with dense LU. A replay that leaves the finite
    range is NaN in every block from its first non-finite instant on.

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
        a0 = _initial_acceleration(model, x0, v0, forces[:, 0])
        transition = (_transition(model, solve, config)
                      if n <= _TRANSITION_MAX_N else None)
        if transition is not None and all(
                np.isfinite(M).all() for M in transition):
            z0 = [*_predictors(x0, v0, a0, config)]
            if config.alpha:
                z0.append(model.damping @ v0 + model.stiffness @ x0)
            X, V, A = _integrate_transition(transition, np.concatenate(z0),
                                            forces, config.alpha)
        else:
            X, V, A = _integrate_factorized(
                model, solve, np.concatenate([x0, v0, a0]), forces, config)
        _nan_from_divergence(X, V, A)
    return TrajectoryData(
        times=times,
        displacement=X.T,
        velocity=V.T,
        acceleration=A.T,
        input=samples[:, 1:],
        force=forces[:, 1:],
    )

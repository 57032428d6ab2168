"""Constrained identification of structured reduced models.

Given reduced snapshot data and the matching reduced force history,
find symmetric operators (M, E, K) minimizing

    || M Qdd + E Qd + K Q - F ||_F^2

subject to M >= omega I, K >= omega I, and E >= 0 in the semidefinite
order. The solver is an over-relaxed operator-splitting iteration
(Boyd et al., "Distributed Optimization and Statistical Learning via
ADMM", 2011, §3.4.3): an unconstrained ridge step in the stacked unknown
P = [M, E, K], a per-block projection of the relaxed iterate onto the
shifted semidefinite cones, and a scaled dual update. The penalty
parameter is adapted by normalized residual balancing (Wohlberg, "ADMM
Penalty Parameter Selection by Residual Balancing", arXiv:1704.06209,
2017): it balances the primal and dual residuals, each relative to the
scale that the stop test measures it by. The projection leaves a block
that a Cholesky factorization shows to be inside its cone as it is,
and eigendecomposes only the others; near the solution that is usually
the damping block alone. Every projection tests every block, and each
test and each decomposition is one direct LAPACK call on one block
(``dpotrf``, ``dsyevd``). Besides the projection, an iteration costs
two products (the cached ridge map, and the reduced data for the
objective) and a few in-place updates of 3r x r buffers.
The ridge map is built from the same compression of the data as the
warm start and the objective, ``opinf.compress``, so the data are
factored once per solve.

The iteration stops for one of three reasons, reported as
``ConstrainedSolveReport.stop_reason``:

- ``"converged"``: the primal and dual residuals meet the absolute and
  relative tolerances of Boyd et al. (§3.3.1);
- ``"stalled"``: over a window of iterations the objective moved by
  less than a fixed fraction of ||F||^2. A problem whose data the
  operators fit almost exactly has a flat set of minimizers, on which
  the residuals need not fall below their tolerances;
- ``"cap"``: the iteration limit was reached first.

The returned operators always come from the projected iterate, so the
constraints hold whatever the reason. The solve starts, as every
regression in the package does, from ``opinf.compress`` of its data.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la

from .errors import InvalidInputError, InvalidParameterError
from .model import SecondOrderSystem
from .opinf import compress, regression_arrays, ridge_filter

__all__ = [
    "ConstrainedSolveReport",
    "project_psd",
    "infer_constrained",
]

DEFAULT_OMEGA = 1e-8
DEFAULT_MAX_ITER = 50000

# Initial penalty; absolute and relative residual tolerances (§3.3.1).
_PENALTY = 1.0
_TOL_ABS = 1e-9
_TOL_REL = 1e-4

# Normalized residual balancing: grow or shrink the penalty by
# _ADAPT_FACTOR when one relative residual exceeds the other by
# _ADAPT_RATIO, at most once per _ADAPT_EVERY iterations. The primal
# residual is taken relative to max(||P||, ||Z||) and the dual one to
# rho ||U||, the scales of the stop test: on the README problem (r=26)
# the raw residuals stay within 0.44-0.9x of each other, so balancing
# them would never move the penalty. Balancing only runs during the first
# _ADAPT_CUTOFF iterations; afterwards the penalty is frozen so the
# fixed-penalty iteration can contract without being kicked off the
# converging trajectory by late rescalings of the dual variable. At most
# 20 rescalings keep the penalty within _ADAPT_FACTOR ** 20 of _PENALTY.
_ADAPT_RATIO = 10.0
_ADAPT_FACTOR = 2.0
_ADAPT_EVERY = 25
_ADAPT_CUTOFF = 500

# Over-relaxation factor alpha in (0, 2): the cone projection and the
# dual update see alpha * P + (1 - alpha) * Z_prev in place of P. At 1.8
# the README solve (r=26) needs 2,368 iterations against 5,790 at 1.
_RELAX = 1.8

# Objective-stall test: every _STALL_WINDOW iterations, stop when the
# objective moved by at most _STALL_TOL * ||F||^2 since the previous
# window. Per 500 iterations the README solve still moves by 4.8e-9
# ||F||^2 at iteration 2,000, in its last window before its residuals
# converge, and the CLI test problem (r=2, an almost exact fit), with
# the residual tolerances set to zero, by 1.3e-13 ||F||^2 at iteration
# 1,500; the threshold sits between the two.
_STALL_WINDOW = 500
_STALL_TOL = 1.5e-11

# Called directly, not through numpy.linalg, whose per-call wrapper costs
# more than the routine at small r.
_potrf, _syevd = la.get_lapack_funcs(("potrf", "syevd"), dtype=np.float64)


@dataclass(frozen=True)
class ConstrainedSolveReport:
    """Diagnostics of one constrained solve.

    ``objective`` is evaluated at the projected (feasible) iterate that
    the returned model is built from. ``stop_reason`` is
    ``"converged"`` (residual tolerances met), ``"stalled"`` (objective
    stopped moving) or ``"cap"`` (iteration limit reached first). The
    model is feasible in every case.

    ``trace`` has one row per iteration, up to and including the one
    that stopped the solve: the iteration number, the objective (in
    reduced form), and the primal and dual residuals.
    """

    objective: float
    iterations: int
    primal_residual: float
    dual_residual: float
    stop_reason: str
    trace: np.ndarray = field(repr=False, compare=False)

    @property
    def converged(self) -> bool:
        """True when the residual tolerances stopped the iteration."""
        return self.stop_reason == "converged"


def project_psd(A, shift=0.0) -> np.ndarray:
    """Project onto symmetric matrices with eigenvalues >= ``shift``.

    ``A`` is one square matrix or a ``(..., r, r)`` stack of them, and
    ``shift`` is a finite scalar or one finite value per matrix. Each
    matrix is symmetrized, then every eigenvalue below its shift is
    raised to it. This is the Frobenius-nearest point of the shifted
    semidefinite cone to the symmetric part of the matrix.

    A Cholesky factorization of the symmetric part minus ``shift * I``
    tells whether it already lies in its cone; such a matrix is its own
    projection and is returned as it is. Only the matrices that fail
    this test are eigendecomposed.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise InvalidInputError(f"matrix must be square, got shape {A.shape}")
    shift = np.asarray(shift, dtype=float)
    if shift.ndim and shift.shape != A.shape[:-2]:
        raise InvalidParameterError(
            f"need a scalar shift or one per matrix {A.shape[:-2]}, "
            f"got shape {shift.shape}"
        )
    if not np.all(np.isfinite(shift)):
        raise InvalidParameterError(f"shift must be finite, got {shift}")
    count = math.prod(A.shape[:-2])
    stack = A.reshape((count,) + A.shape[-2:]).copy()
    shifts = np.broadcast_to(shift, A.shape[:-2]).reshape(count)
    shifted_eye = shifts[:, None, None] * np.eye(A.shape[-1])
    _project_stack(stack, shifts, shifted_eye)
    return stack.reshape(A.shape)


def _project_stack(A, shifts, shifted_eye) -> None:
    """``project_psd`` of an ``(m, r, r)`` stack with one shift per
    matrix, in place, for callers that have checked the shape and the
    shifts. ``shifted_eye`` is the stack ``shifts[:, None, None] * I``,
    which a caller that projects many times forms once.

    Each matrix is factored by one ``dpotrf`` call, and each matrix
    that fails to factor is decomposed by one ``dsyevd`` call, both on
    the lower triangle as ``numpy.linalg.cholesky`` and ``eigh`` use
    it; one product then applies the raised eigenvalues to the
    decomposed matrix in place.

    Raises InvalidInputError when ``A`` has a non-finite entry: a
    Cholesky factorization of a NaN matrix returns NaNs instead of
    failing, so without this check such a matrix would pass as inside
    its cone.
    """
    if not np.isfinite(A).all():
        raise InvalidInputError("matrix contains non-finite entries")
    np.multiply(A + A.swapaxes(-1, -2), 0.5, out=A)
    # Both routines get a symmetric matrix's transpose, a Fortran-ordered
    # view with the same entries, which they overwrite without a copy.
    # Every argument goes by position, which the wrappers parse faster
    # than keywords: dpotrf(a, lower=1, clean=0, overwrite_a=1).
    r = A.shape[-1]
    lwork, liwork = 1 + 6 * r + 2 * r * r, 3 + 5 * r
    for i, block in enumerate(A):
        if _potrf((block - shifted_eye[i]).T, 1, 0, 1)[1] == 0:
            continue
        # dsyevd(a, compute_v=1, lower=1, lwork, liwork, overwrite_a=1),
        # with the minimal workspace for eigenvectors (the wrapper's
        # default), leaves the eigenvector matrix V in place of block.T,
        # so the block then holds V^T and is finished in place.
        w, _, info = _syevd(block.T, 1, 1, lwork, liwork, 1)
        if info:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        np.maximum(w, shifts[i], out=w)
        S = (block.T * w) @ block
        np.add(S, S.T, out=block)
        block *= 0.5


def _norm(X) -> float:
    """Frobenius norm of an array."""
    return math.sqrt(np.vdot(X, X))


def _ridge_step(W, s, rhs_c, rho: float):
    """``(step, offset)`` of the splitting iteration's ridge step on the
    compression ``(W, s, rhs_c)`` of ``compress``: for every V, the
    transposed minimizer of ||P D - rhs||^2 + rho / 2 ||P - V^T||^2 is
    ``step @ V + offset``. That is the ridge filter at lam = rho / 2
    applied to rhs - V^T D, which gives

        step = I - W diag(s^2 / (s^2 + rho / 2)) W^T,
        offset = W diag(s / (s^2 + rho / 2)) rhs_c^T,

    for a square W and for a thin one (fewer snapshots than rows)."""
    filt = ridge_filter(s, 0.5 * rho)
    step = np.eye(len(W)) - (W * (s * filt)) @ W.T
    return step, (W * filt) @ rhs_c.T


def _check_omega(omega) -> None:
    if omega <= 0.0 or not np.isfinite(omega):
        raise InvalidParameterError(f"omega must be positive, got {omega}")


def infer_constrained(
    D,
    rhs,
    omega: float = DEFAULT_OMEGA,
    max_iter: int = DEFAULT_MAX_ITER,
):
    """Fit symmetric definite operators to reduced snapshot data.

    Parameters
    ----------
    D : (3 r, N) ndarray
        Data matrix with acceleration, velocity, and displacement row
        blocks.
    rhs : (r, N) ndarray
        Reduced force history.
    omega : float
        Definiteness margin for the mass and stiffness blocks, > 0. The
        damping block is constrained with margin zero.
    max_iter : int
        Iteration limit, >= 1. The iteration stops at the first of
        residual convergence, an objective stall and ``max_iter``; the
        report says which.

    Returns
    -------
    (SecondOrderSystem, ConstrainedSolveReport)
        The model has no input map. Its operators are exactly symmetric
        and satisfy eigmin(mass) >= omega, eigmin(stiffness) >= omega
        and eigmin(damping) >= 0 up to round-off.
    """
    D, rhs = regression_arrays(D, rhs)
    r = rhs.shape[0]
    if r < 1 or D.shape[0] != 3 * r:
        raise InvalidInputError(
            f"data matrix must have 3 x {r} rows, got {D.shape[0]}"
        )
    _check_omega(omega)
    if (isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral)
            or max_iter < 1):
        raise InvalidParameterError(
            f"max_iter must be an integer >= 1, got {max_iter!r}"
        )

    # The three row blocks of D carry different physical units and can
    # differ by orders of magnitude, which cripples the splitting
    # iteration. Rescale each block to unit RMS entry and absorb the
    # reciprocal into the matching unknown block; the objective is
    # unchanged and the definiteness constraints map exactly onto
    # shifted cones in the scaled variables.
    block_scale = np.empty(3)
    Ds = D.copy()
    for b in range(3):
        rows = slice(b * r, (b + 1) * r)
        rms = float(np.sqrt(np.mean(D[rows] ** 2)))
        block_scale[b] = rms if rms > 0.0 else 1.0
        Ds[rows] /= block_scale[b]
    # Scaled unknowns P_b' = block_scale[b] * P_b, so the lower bound
    # omega on the mass and stiffness spectra scales the same way.
    shifts = np.array([omega * block_scale[0], 0.0, omega * block_scale[2]])
    shifted_eye = shifts[:, None, None] * np.eye(r)

    # The compression of the scaled data, Ds = W diag(s) Qt, gives the
    # ridge step, the warm start and the objective in reduced form
    # (``compress``), whose tail^2 term is constant: no step of the
    # iteration works over the N snapshots.
    W, s, _, rhs_c, tail = compress(Ds, rhs)
    rhs_tail = tail**2
    rho = _PENALTY
    step, offset = _ridge_step(W, s, rhs_c, rho)

    # The solver holds each iterate transposed, as the 3r x r stack
    # [M; E; K] of its blocks, so that the (3, r, r) stack it projects is
    # a view. The blocks it returns are exactly symmetric, so the layout
    # does not show. Warm start from the projected unconstrained
    # minimizer.
    Z = W @ (rhs_c * ridge_filter(s)).T
    _project_stack(Z.reshape(3, r, r), shifts, shifted_eye)
    # The objective's operands, transposed as the iterate is; the
    # subtracted one in C order, as the product it is subtracted from.
    data_range = (W * s).T
    rhs_range = np.ascontiguousarray(rhs_c.T)

    # Every iteration writes into these 3r x r buffers in place; Z and
    # Z_prev trade buffers each iteration.
    U = np.zeros_like(Z)
    P, P_relaxed, Z_prev, work = (np.empty_like(Z) for _ in range(4))
    residual_in_range = np.empty_like(rhs_range)

    def objective_in_range(Z):
        # The reduced-form objective without its constant second term.
        residual = np.matmul(data_range, Z, out=residual_in_range)
        residual -= rhs_range
        return _norm(residual) ** 2

    scale = float(np.sqrt(Z.size))
    stall_tol = _STALL_TOL * float(np.vdot(rhs, rhs))
    stall_ref = objective_in_range(Z)
    trace = []
    primal = dual = float("inf")
    stop_reason = "cap"
    last_adapt = 0

    for it in range(1, max_iter + 1):
        # P = step (Z - U) + offset
        np.subtract(Z, U, out=work)
        np.matmul(step, work, out=P)
        P += offset
        Z, Z_prev = Z_prev, Z
        # P_relaxed = alpha P + (1 - alpha) Z_prev, Z = proj(P_relaxed + U)
        np.multiply(P, _RELAX, out=P_relaxed)
        np.multiply(Z_prev, 1.0 - _RELAX, out=work)
        P_relaxed += work
        np.add(P_relaxed, U, out=Z)
        _project_stack(Z.reshape(3, r, r), shifts, shifted_eye)
        U += P_relaxed
        U -= Z

        primal = _norm(np.subtract(P, Z, out=work))
        dual = rho * _norm(np.subtract(Z, Z_prev, out=work))
        objective = objective_in_range(Z)
        trace.append((it, objective + rhs_tail, primal, dual))

        # The scales of the primal and dual residuals: the stop test
        # and the penalty balancing both measure the residuals by them.
        primal_scale = max(_norm(P), _norm(Z))
        dual_scale = rho * _norm(U)
        eps_pri = scale * _TOL_ABS + _TOL_REL * primal_scale
        eps_dual = scale * _TOL_ABS + _TOL_REL * dual_scale
        if primal <= eps_pri and dual <= eps_dual:
            stop_reason = "converged"
            break
        if it % _STALL_WINDOW == 0:
            if abs(stall_ref - objective) <= stall_tol:
                stop_reason = "stalled"
                break
            stall_ref = objective

        # A zero scale gives no evidence either way, so that check leaves
        # the penalty as it is.
        if (it <= _ADAPT_CUTOFF and it - last_adapt >= _ADAPT_EVERY
                and primal_scale > 0.0 and dual_scale > 0.0):
            primal_rel = primal / primal_scale
            dual_rel = dual / dual_scale
            # The scaled dual U = y / rho moves against the penalty. The
            # factor is a power of two, so both scalings are exact.
            factor = (_ADAPT_FACTOR if primal_rel > _ADAPT_RATIO * dual_rel
                      else 1.0 / _ADAPT_FACTOR
                      if dual_rel > _ADAPT_RATIO * primal_rel else 1.0)
            if factor != 1.0:
                rho *= factor
                U /= factor
                step, offset = _ridge_step(W, s, rhs_c, rho)
                last_adapt = it

    # Each block is a project_psd output divided by one scalar, so it is
    # exactly symmetric.
    Z_out = Z / np.repeat(block_scale, r)[:, None]
    rom = SecondOrderSystem(
        mass=Z_out[:r],
        damping=Z_out[r:2 * r],
        stiffness=Z_out[2 * r:],
    )
    report = ConstrainedSolveReport(
        objective=float(np.linalg.norm(Z_out.T @ D - rhs) ** 2),
        iterations=len(trace),
        primal_residual=primal,
        dual_residual=dual,
        stop_reason=stop_reason,
        trace=np.array(trace),
    )
    return rom, report

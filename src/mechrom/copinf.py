"""Constrained identification of structured reduced models.

Given reduced snapshot data and the matching reduced force history,
find symmetric operators (M, E, K) minimizing

    || M Qdd + E Qd + K Q - F ||_F^2

subject to M >= omega I, K >= omega I, and E >= 0 in the semidefinite
order. The solver is an operator-splitting iteration: an unconstrained
ridge step in the stacked unknown P = [M, E, K], a per-block projection
onto the shifted semidefinite cones, and a scaled dual update, with the
penalty parameter adapted to balance the primal and dual residuals.
The returned operators always come from the projected iterate, so the
constraints hold whether or not the iteration converged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .errors import InvalidInputError, InvalidParameterError
from .model import FLOAT_FORMAT, SecondOrderSystem

__all__ = [
    "ConstrainedSolveReport",
    "project_psd",
    "infer_constrained",
]

DEFAULT_OMEGA = 1e-8
DEFAULT_PENALTY = 1.0
DEFAULT_TOL_ABS = 1e-9
DEFAULT_TOL_REL = 1e-9
DEFAULT_MAX_ITER = 50000

# Residual balancing: grow or shrink the penalty by _ADAPT_FACTOR when
# one residual exceeds the other by _ADAPT_RATIO, at most once per
# _ADAPT_EVERY iterations. Balancing only runs during the first
# _ADAPT_CUTOFF iterations; afterwards the penalty is frozen so the
# fixed-penalty iteration can contract without being kicked off the
# converging trajectory by late rescalings of the dual variable.
_ADAPT_RATIO = 10.0
_ADAPT_FACTOR = 2.0
_ADAPT_EVERY = 25
_ADAPT_CUTOFF = 500
_PENALTY_RANGE = (1e-8, 1e8)


@dataclass(frozen=True)
class ConstrainedSolveReport:
    """Diagnostics of one constrained solve.

    ``objective`` is evaluated at the projected (feasible) iterate that
    the returned model is built from. ``converged`` is False when the
    iteration limit was reached first; the model is still feasible.
    """

    objective: float
    iterations: int
    primal_residual: float
    dual_residual: float
    converged: bool


def project_psd(A, shift=0.0) -> np.ndarray:
    """Project onto symmetric matrices with eigenvalues >= ``shift``.

    ``A`` is one square matrix or a ``(..., r, r)`` stack of them, and
    ``shift`` is a scalar or one value per matrix. Each matrix is
    symmetrized, then every eigenvalue below its shift is raised to it.
    This is the Frobenius-nearest point of the shifted semidefinite cone
    to the symmetric part of the matrix. A stack goes through one
    batched eigendecomposition.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise InvalidInputError(f"matrix must be square, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise InvalidInputError("matrix contains non-finite entries")
    shift = np.asarray(shift, dtype=float)
    if shift.ndim and shift.shape != A.shape[:-2]:
        raise InvalidParameterError(
            f"need a scalar shift or one per matrix {A.shape[:-2]}, "
            f"got shape {shift.shape}"
        )
    B = 0.5 * (A + np.swapaxes(A, -1, -2))
    w, Q = np.linalg.eigh(B)
    w = np.maximum(w, shift[..., None])
    S = (Q * w[..., None, :]) @ np.swapaxes(Q, -1, -2)
    return 0.5 * (S + np.swapaxes(S, -1, -2))


class _RidgeStep:
    """The map X -> X (2 G + rho I)^-1 for a symmetric positive
    semidefinite Gram matrix G.

    G is factored once as V diag(lam) V^T; a penalty change then only
    recomputes the vector 1 / (2 lam + rho).
    """

    def __init__(self, gram, rho: float):
        lam, self._V = np.linalg.eigh(gram)
        self._twice_lam = 2.0 * np.maximum(lam, 0.0)
        self.set_penalty(rho)

    def set_penalty(self, rho: float) -> None:
        self._gain = 1.0 / (self._twice_lam + rho)

    def __call__(self, X) -> np.ndarray:
        return ((X @ self._V) * self._gain) @ self._V.T


def infer_constrained(
    D,
    rhs,
    omega: float = DEFAULT_OMEGA,
    basis=None,
    penalty: float = DEFAULT_PENALTY,
    tol_abs: float = DEFAULT_TOL_ABS,
    tol_rel: float = DEFAULT_TOL_REL,
    max_iter: int = DEFAULT_MAX_ITER,
    trace_path=None,
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
    basis : PodBasis, optional
        Attached to the returned model.
    penalty, tol_abs, tol_rel, max_iter
        Splitting iteration controls.
    trace_path : str, optional
        When given, a CSV with one row per iteration (iteration,
        objective, primal and dual residual) is written there.

    Returns
    -------
    (SecondOrderSystem, ConstrainedSolveReport)
        The model has no input map. Its operators are exactly symmetric
        and satisfy eigmin(mass) >= omega, eigmin(stiffness) >= omega
        and eigmin(damping) >= 0 up to round-off.
    """
    D = np.asarray(D, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if D.ndim != 2 or rhs.ndim != 2:
        raise InvalidInputError("data matrix and right-hand side must be 2-D")
    r = rhs.shape[0]
    if r < 1 or D.shape[0] != 3 * r:
        raise InvalidInputError(
            f"data matrix must have 3 x {r} rows, got {D.shape[0]}"
        )
    if D.shape[1] != rhs.shape[1]:
        raise InvalidInputError(
            f"column counts disagree: data {D.shape[1]}, rhs {rhs.shape[1]}"
        )
    if not (np.all(np.isfinite(D)) and np.all(np.isfinite(rhs))):
        raise InvalidInputError("regression data contains non-finite entries")
    if omega <= 0.0 or not np.isfinite(omega):
        raise InvalidParameterError(f"omega must be positive, got {omega}")
    if penalty <= 0.0 or tol_abs <= 0.0 or tol_rel <= 0.0:
        raise InvalidParameterError(
            "penalty and tolerances must be positive"
        )
    if max_iter < 1:
        raise InvalidParameterError(f"max_iter must be >= 1, got {max_iter}")

    k = 3 * r

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

    def proj(X):
        # The r x 3r iterate viewed as the (3, r, r) stack of its blocks.
        blocks = project_psd(X.reshape(r, 3, r).swapaxes(0, 1), shifts)
        return blocks.swapaxes(0, 1).reshape(r, k)

    rho = float(penalty)
    ridge = _RidgeStep(Ds @ Ds.T, rho)
    rhs_data = 2.0 * (rhs @ Ds.T)

    # Thin SVD Ds = W diag(s) Qt. Besides the warm start it gives the
    # objective in reduced form: with Z_s the scaled iterate,
    # ||Z D - F||^2 = ||Z_s W diag(s) - F Qt^T||^2 + ||F - F Qt^T Qt||^2,
    # where the second term is constant, so a traced step does no work
    # over the N snapshots.
    if np.any(Ds):
        W, s, Qt = la.svd(Ds, full_matrices=False)
        filt = np.where(s > 1e-12 * s[0], 1.0, 0.0) / np.where(s > 0.0, s, 1.0)
    else:
        W, s, Qt = np.zeros((k, 0)), np.zeros(0), np.zeros((0, D.shape[1]))
        filt = s  # empty
    rhs_range = rhs @ Qt.T
    data_range = W * s
    rhs_tail = float(np.linalg.norm(rhs - rhs_range @ Qt) ** 2)

    # Warm start from the projected unconstrained minimizer.
    P = (rhs_range * filt) @ W.T
    Z = proj(P)
    U = np.zeros_like(P)

    scale = float(np.sqrt(P.size))
    trace = [] if trace_path is not None else None
    iterations = 0
    primal = dual = float("inf")
    converged = False
    last_adapt = 0

    for it in range(1, max_iter + 1):
        iterations = it
        P = ridge(rhs_data + rho * (Z - U))
        Z_prev = Z
        Z = proj(P + U)
        U = U + P - Z

        primal = float(np.linalg.norm(P - Z))
        dual = float(rho * np.linalg.norm(Z - Z_prev))
        if trace is not None:
            objective = np.linalg.norm(Z @ data_range - rhs_range) ** 2
            trace.append((it, float(objective) + rhs_tail, primal, dual))

        eps_pri = scale * tol_abs + tol_rel * max(
            np.linalg.norm(P), np.linalg.norm(Z)
        )
        eps_dual = scale * tol_abs + tol_rel * rho * np.linalg.norm(U)
        if primal <= eps_pri and dual <= eps_dual:
            converged = True
            break

        if it <= _ADAPT_CUTOFF and it - last_adapt >= _ADAPT_EVERY:
            if primal > _ADAPT_RATIO * dual and rho * _ADAPT_FACTOR <= _PENALTY_RANGE[1]:
                rho *= _ADAPT_FACTOR
                U = U / _ADAPT_FACTOR
                ridge.set_penalty(rho)
                last_adapt = it
            elif dual > _ADAPT_RATIO * primal and rho / _ADAPT_FACTOR >= _PENALTY_RANGE[0]:
                rho /= _ADAPT_FACTOR
                U = U * _ADAPT_FACTOR
                ridge.set_penalty(rho)
                last_adapt = it

    if trace_path is not None:
        with open(trace_path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("iteration,objective,primal_residual,dual_residual\n")
            for it, obj, pri, dua in trace:
                fh.write(
                    f"{it},{FLOAT_FORMAT % obj},{FLOAT_FORMAT % pri},"
                    f"{FLOAT_FORMAT % dua}\n"
                )

    # Each block is a project_psd output divided by one scalar, so it is
    # exactly symmetric.
    Z_out = Z / np.repeat(block_scale, r)
    rom = SecondOrderSystem(
        mass=Z_out[:, :r],
        damping=Z_out[:, r:2 * r],
        stiffness=Z_out[:, 2 * r:],
        basis=basis,
    )
    report = ConstrainedSolveReport(
        objective=float(np.linalg.norm(Z_out @ D - rhs) ** 2),
        iterations=iterations,
        primal_residual=primal,
        dual_residual=dual,
        converged=converged,
    )
    return rom, report

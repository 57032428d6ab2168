"""Error metrics and stability checks: a replay's error is an array with
one value per instant, and the pencil functions take the model."""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .errors import (DegenerateInputError, InsufficientDataError,
                     InvalidInputError, SingularOperatorError)
from .model import SecondOrderSystem
from .textio import write_table

__all__ = ["relative_error", "pencil_spectrum", "is_stable",
           "save_error_series"]

# Largest real part of a pencil eigenvalue that still counts as stable.
STABILITY_TOL = 1e-10


def relative_error(X_ref, X_approx) -> np.ndarray:
    """Columnwise relative error of an approximate trajectory.

    For each instant, the Euclidean distance of the state columns is
    divided by the largest reference state norm over the whole window:

        eps_i = ||x_ref_i - x_approx_i|| / max_j ||x_ref_j||.

    Returns the (N,) array of ``eps_i``. A non-finite approximation (a
    diverged replay) gets non-finite errors at its non-finite instants,
    and ``eps.max()`` keeps a NaN.

    Raises
    ------
    InvalidInputError
        If the two trajectories have different shapes, or the reference
        has non-finite entries.
    InsufficientDataError
        If the window has no snapshots.
    DegenerateInputError
        If the reference trajectory is identically zero.
    """
    X_ref = np.asarray(X_ref, dtype=float)
    X_approx = np.asarray(X_approx, dtype=float)
    if X_ref.ndim != 2 or X_ref.shape != X_approx.shape:
        raise InvalidInputError(
            f"trajectory shapes disagree: reference {X_ref.shape}, "
            f"approximation {X_approx.shape}"
        )
    if X_ref.shape[1] == 0:
        raise InsufficientDataError("trajectories have no snapshots")
    if not np.all(np.isfinite(X_ref)):
        raise InvalidInputError("reference trajectory has non-finite entries")
    denom = np.linalg.norm(X_ref, axis=0).max()
    if denom == 0.0:
        raise DegenerateInputError("reference trajectory is identically zero")
    return np.linalg.norm(X_ref - X_approx, axis=0) / denom


def pencil_spectrum(model: SecondOrderSystem) -> np.ndarray:
    """Eigenvalues of the model's quadratic pencil s^2 M + s E + K.

    Solved as the generalized eigenproblem of the companion pair

        A = [[0, I], [-K, -s E]],   B = [[I, 0], [0, s^2 M]],

    with the time rescaling s^2 = ||K||_F / ||M||_F, which equalizes the
    stiffness and mass blocks. Avoiding the explicit inverse of the mass
    matrix keeps near-imaginary eigenvalues of badly scaled but definite
    pencils from drifting across the axis. The mass matrix must be
    invertible. Sparse operators are densified.
    """
    M, C, K = (A.toarray() if sp.issparse(A) else A
               for A in (model.mass, model.damping, model.stiffness))
    norm_m = np.linalg.norm(M)
    norm_k = np.linalg.norm(K)
    if norm_m == 0.0:
        raise SingularOperatorError("mass matrix is singular")
    scale = float(np.sqrt(norm_k / norm_m)) if norm_k > 0.0 else 1.0
    eye = np.eye(model.n)
    zero = np.zeros_like(eye)
    lhs = np.block([[zero, eye], [-K, -scale * C]])
    rhs = np.block([[eye, zero], [zero, scale**2 * M]])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", la.LinAlgWarning)
        w = la.eig(lhs, rhs, right=False)
    # a numerically singular mass matrix shows up as infinite generalized
    # eigenvalues (zero beta in the QZ form)
    if not np.all(np.isfinite(w)):
        raise SingularOperatorError("mass matrix is singular")
    return scale * w


def is_stable(model: SecondOrderSystem) -> bool:
    """True when every pencil eigenvalue has real part <= STABILITY_TOL."""
    return bool(np.all(pencil_spectrum(model).real <= STABILITY_TOL))


def save_error_series(path, times, eps, train: int) -> None:
    """Write CSV rows (t, eps, phase) whose first ``train`` rows, the
    fitted training columns, are ``train`` and the rest ``test``.

    Raises InvalidInputError if ``times`` and ``eps`` differ in length,
    or ``train`` lies outside [0, N] for their length N.
    """
    times, eps = (np.asarray(a, dtype=float).ravel() for a in (times, eps))
    if times.shape != eps.shape:
        raise InvalidInputError("times and eps must have equal length, "
                                f"got {times.size} and {eps.size}")
    if not 0 <= train <= times.size:
        raise InvalidInputError(
            f"train must lie in [0, {times.size}], got {train}")
    write_table(path, "t,eps,phase", np.column_stack([times, eps]),
                labels=["train"] * train + ["test"] * (times.size - train))

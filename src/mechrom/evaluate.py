"""Error metrics and stability checks."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .errors import (
    DegenerateInputError,
    InsufficientDataError,
    InvalidInputError,
    SingularOperatorError,
)
from .textio import write_table

__all__ = [
    "ErrorSeries",
    "relative_error",
    "pencil_spectrum",
    "is_stable",
    "save_error_series",
]

# Largest real part of a pencil eigenvalue that still counts as stable.
STABILITY_TOL = 1e-10


@dataclass(frozen=True)
class ErrorSeries:
    """Pointwise relative state error over a test window.

    ``phase_split`` marks the end of the training horizon; instants at
    or before it belong to the train phase, later ones to the test
    phase. None means the whole window is test phase.
    """

    times: np.ndarray
    eps: np.ndarray
    max_eps: float
    phase_split: float | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float).ravel()
        eps = np.asarray(self.eps, dtype=float).ravel()
        if times.shape != eps.shape:
            raise InvalidInputError("times and eps must have equal length")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "eps", eps)


def relative_error(X_ref, X_approx, times=None, phase_split=None) -> ErrorSeries:
    """Columnwise relative error of an approximate trajectory.

    For each instant, the Euclidean distance of the state columns is
    divided by the largest reference state norm over the whole window:

        eps_i = ||x_ref_i - x_approx_i|| / max_j ||x_ref_j||.

    A non-finite approximation (a diverged replay) gets non-finite
    errors at its non-finite instants.

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
    norms = np.linalg.norm(X_ref, axis=0)
    denom = norms.max()
    if denom == 0.0:
        raise DegenerateInputError("reference trajectory is identically zero")
    eps = np.linalg.norm(X_ref - X_approx, axis=0) / denom
    if times is None:
        times = np.arange(X_ref.shape[1], dtype=float)
    times = np.asarray(times, dtype=float).ravel()
    if times.shape[0] != X_ref.shape[1]:
        raise InvalidInputError(
            f"got {times.shape[0]} times for {X_ref.shape[1]} snapshots"
        )
    return ErrorSeries(
        times=times,
        eps=eps,
        max_eps=float(eps.max()),
        phase_split=phase_split,
    )


def pencil_spectrum(mass, damping, stiffness) -> np.ndarray:
    """Eigenvalues of the quadratic pencil s^2 M + s E + K.

    Solved as the generalized eigenproblem of the companion pair

        A = [[0, I], [-K, -s E]],   B = [[I, 0], [0, s^2 M]],

    with the time rescaling s^2 = ||K||_F / ||M||_F, which equalizes the
    stiffness and mass blocks. Avoiding the explicit inverse of the mass
    matrix keeps near-imaginary eigenvalues of badly scaled but definite
    pencils from drifting across the axis. The mass matrix must be
    invertible. Sparse operators are densified.
    """
    M, C, K = (np.asarray(A.toarray() if sp.issparse(A) else A, dtype=float)
               for A in (mass, damping, stiffness))
    r = M.shape[0]
    for name, A in (("mass", M), ("damping", C), ("stiffness", K)):
        if A.shape != (r, r):
            raise InvalidInputError(f"{name} must be {r}x{r}, got {A.shape}")
        if not np.all(np.isfinite(A)):
            raise InvalidInputError(f"{name} has non-finite entries")
    norm_m = np.linalg.norm(M)
    norm_k = np.linalg.norm(K)
    if norm_m == 0.0:
        raise SingularOperatorError("mass matrix is singular")
    scale = float(np.sqrt(norm_k / norm_m)) if norm_k > 0.0 else 1.0
    eye = np.eye(r)
    zero = np.zeros((r, r))
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


def is_stable(mass, damping, stiffness) -> bool:
    """True when every pencil eigenvalue has real part <= STABILITY_TOL."""
    return bool(np.all(pencil_spectrum(mass, damping, stiffness).real
                       <= STABILITY_TOL))


def save_error_series(series: ErrorSeries, path) -> None:
    """Write an error series as CSV rows (t, eps, phase)."""
    split = series.phase_split
    train = (np.zeros(series.times.shape, dtype=bool) if split is None else
             series.times <= split + 1e-9 * max(1.0, abs(split)))
    write_table(path, "t,eps,phase", np.column_stack([series.times, series.eps]),
                labels=np.where(train, "train", "test"))

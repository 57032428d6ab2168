"""Error metrics, operator comparisons, and stability checks."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .errors import (
    DegenerateInputError,
    InvalidComparisonError,
    InvalidInputError,
    SingularOperatorError,
)
from .model import FLOAT_FORMAT, SecondOrderSystem

__all__ = [
    "ErrorSeries",
    "relative_error",
    "OperatorCloseness",
    "operator_closeness",
    "pencil_spectrum",
    "is_stable",
    "save_error_series",
]


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

    Raises
    ------
    InvalidInputError
        If the two trajectories have different shapes.
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


@dataclass(frozen=True)
class OperatorCloseness:
    """Frobenius distances between two mass-normalized models, absolute
    and relative to the reference operator norms."""

    damping: float
    stiffness: float
    input_map: float
    damping_rel: float
    stiffness_rel: float
    input_map_rel: float


def _same_basis(a, b) -> bool:
    if a is b:
        return True
    if a is None or b is None:
        return False
    return (
        a.modes.shape == b.modes.shape
        and np.array_equal(a.modes, b.modes)
    )


def operator_closeness(reference: SecondOrderSystem,
                       candidate: SecondOrderSystem) -> OperatorCloseness:
    """Operator-space distance between two mass-normalized models.

    Both models must have the identity as their mass, an input map, and
    live in the same reduced coordinates: equal dimensions and the same
    basis (identical object or equal mode matrices; two models without a
    basis attached are comparable).
    """
    for model in (reference, candidate):
        if not model.mass_normalized or model.input_map is None:
            raise InvalidInputError(
                "operator_closeness needs mass-normalized models (identity "
                "mass) with input maps"
            )
    if reference.n != candidate.n or reference.m != candidate.m:
        raise InvalidComparisonError(
            f"model dimensions disagree: ({reference.n}, {reference.m}) "
            f"vs ({candidate.n}, {candidate.m})"
        )
    if not (reference.basis is None and candidate.basis is None) and not _same_basis(
        reference.basis, candidate.basis
    ):
        raise InvalidComparisonError(
            "models were reduced with different bases"
        )

    def pair(A, B):
        d = float(np.linalg.norm(A - B))
        ref = float(np.linalg.norm(A))
        return d, d / ref if ref > 0.0 else float("inf") if d > 0.0 else 0.0

    d_c, r_c = pair(reference.damping, candidate.damping)
    d_k, r_k = pair(reference.stiffness, candidate.stiffness)
    d_b, r_b = pair(reference.input_map, candidate.input_map)
    return OperatorCloseness(
        damping=d_c,
        stiffness=d_k,
        input_map=d_b,
        damping_rel=r_c,
        stiffness_rel=r_k,
        input_map_rel=r_b,
    )


def pencil_spectrum(mass, damping, stiffness) -> np.ndarray:
    """Eigenvalues of the quadratic pencil s^2 M + s E + K.

    Solved as the generalized eigenproblem of the companion pair

        A = [[0, I], [-K, -s E]],   B = [[I, 0], [0, s^2 M]],

    with the time rescaling s^2 = ||K||_F / ||M||_F, which equalizes the
    stiffness and mass blocks. Avoiding the explicit inverse of the mass
    matrix keeps near-imaginary eigenvalues of badly scaled but definite
    pencils from drifting across the axis. The mass matrix must be
    invertible.
    """
    M = np.asarray(mass, dtype=float)
    C = np.asarray(damping, dtype=float)
    K = np.asarray(stiffness, dtype=float)
    r = M.shape[0]
    for name, A in (("mass", M), ("damping", C), ("stiffness", K)):
        if A.shape != (r, r):
            raise InvalidInputError(f"{name} must be {r}x{r}, got {A.shape}")
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


def is_stable(mass, damping, stiffness, tol: float = 1e-10) -> bool:
    """True when every pencil eigenvalue has real part <= tol."""
    return bool(np.all(pencil_spectrum(mass, damping, stiffness).real <= tol))


def save_error_series(series: ErrorSeries, path) -> None:
    """Write an error series as CSV rows (t, eps, phase)."""
    split = series.phase_split
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("t,eps,phase\n")
        for t, e in zip(series.times, series.eps):
            if split is not None and t <= split + 1e-9 * max(1.0, abs(split)):
                phase = "train"
            else:
                phase = "test"
            fh.write(f"{FLOAT_FORMAT % t},{FLOAT_FORMAT % e},{phase}\n")

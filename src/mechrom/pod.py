"""Orthogonal bases from snapshot data and projection-based reduction.

The basis of rank r collects the r leading left singular vectors of the
displacement snapshot matrix. Reduction is a congruence with the mode
matrix, which keeps symmetry and definiteness of the structural
operators; the mass-normalized form divides the reduced model by its
reduced mass so the acceleration appears with an identity coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .errors import (
    DegenerateInputError,
    InvalidInputError,
    InvalidParameterError,
    SingularOperatorError,
)
from .model import SecondOrderSystem, symmetric_part

__all__ = [
    "PodBasis",
    "compute_basis",
    "projection_error",
    "intrusive_reduce",
    "mass_normalized_form",
]

_ORTHONORMALITY_TOL = 1e-10

# Reduced mass matrices with condition number beyond this cannot be
# normalized away reliably.
_MASS_COND_LIMIT = 1e14


@dataclass(frozen=True)
class PodBasis:
    """Orthonormal mode matrix plus the full singular-value spectrum.

    Parameters
    ----------
    modes : (n, r) ndarray
        Orthonormal columns spanning the reduced subspace.
    singular_values : (min(n, N),) ndarray
        Every singular value of the snapshot matrix the basis was cut
        from, nonincreasing. Kept in full so truncation diagnostics do
        not require the original data.
    """

    modes: np.ndarray
    singular_values: np.ndarray

    def __post_init__(self):
        V = np.asarray(self.modes, dtype=float)
        s = np.asarray(self.singular_values, dtype=float).ravel()
        if V.ndim != 2 or V.shape[1] < 1:
            raise InvalidParameterError("mode matrix must be n x r with r >= 1")
        if V.shape[1] > V.shape[0]:
            raise InvalidParameterError(
                f"rank {V.shape[1]} exceeds state dimension {V.shape[0]}"
            )
        gram_defect = np.abs(V.T @ V - np.eye(V.shape[1])).max()
        if not np.isfinite(gram_defect) or gram_defect > _ORTHONORMALITY_TOL:
            raise InvalidInputError(
                f"mode matrix is not orthonormal (defect {gram_defect:.3e})"
            )
        if s.size < 1 or np.any(s < 0.0) or np.any(np.diff(s) > 0.0):
            raise InvalidInputError(
                "singular values must be nonnegative and nonincreasing"
            )
        object.__setattr__(self, "modes", V)
        object.__setattr__(self, "singular_values", s)

    @property
    def n(self) -> int:
        return self.modes.shape[0]

    @property
    def rank(self) -> int:
        return self.modes.shape[1]


def _fix_signs(V: np.ndarray) -> np.ndarray:
    """Flip column signs so each column's largest-magnitude entry is
    nonnegative, making the decomposition reproducible."""
    V = V.copy()
    for j in range(V.shape[1]):
        lead = np.argmax(np.abs(V[:, j]))
        if V[lead, j] < 0.0:
            V[:, j] = -V[:, j]
    return V


def _rank_from_tol(s: np.ndarray, tol: float) -> int:
    # Smallest r such that sigma_{r+1} / sigma_1 <= tol, with singular
    # values past the end of the spectrum taken as zero.
    for r in range(1, s.size + 1):
        trailing = s[r] if r < s.size else 0.0
        if trailing <= tol * s[0]:
            return r
    return s.size


def _rank_from_energy(s: np.ndarray, energy: float) -> int:
    # Smallest r capturing the requested fraction of squared spectrum.
    totals = np.cumsum(s**2)
    for r in range(1, s.size + 1):
        if totals[r - 1] >= energy * totals[-1]:
            return r
    return s.size


def compute_basis(X, rank: int | None = None, tol: float | None = None,
                  energy: float | None = None) -> PodBasis:
    """Compute an orthonormal basis for the snapshot matrix ``X``.

    Exactly one truncation selector must be given:

    rank
        Keep exactly ``rank`` modes, 1 <= rank <= min(n, N).
    tol
        Keep the smallest r whose first discarded singular value
        satisfies sigma_{r+1} <= tol * sigma_1; tol in (0, 1).
    energy
        Keep the smallest r whose retained squared singular values
        reach the fraction ``energy`` of the total; energy in (0, 1).

    The mode signs are fixed so that each column's largest-magnitude
    entry is nonnegative.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.size == 0:
        raise InvalidInputError("snapshot matrix must be 2-D and nonempty")
    if not np.all(np.isfinite(X)):
        raise InvalidInputError("snapshot matrix contains non-finite entries")
    if sum(v is not None for v in (rank, tol, energy)) != 1:
        raise InvalidParameterError(
            "exactly one of rank, tol, energy must be given"
        )
    if not np.any(X):
        raise DegenerateInputError("snapshot matrix is identically zero")

    V, s, _ = la.svd(X, full_matrices=False)

    if rank is not None:
        if not 1 <= int(rank) <= s.size:
            raise InvalidParameterError(
                f"rank must lie in [1, {s.size}], got {rank}"
            )
        r = int(rank)
    elif tol is not None:
        if not 0.0 < tol < 1.0:
            raise InvalidParameterError(f"tol must lie in (0, 1), got {tol}")
        r = _rank_from_tol(s, tol)
    else:
        if not 0.0 < energy < 1.0:
            raise InvalidParameterError(
                f"energy must lie in (0, 1), got {energy}"
            )
        r = _rank_from_energy(s, energy)

    return PodBasis(modes=_fix_signs(V[:, :r]), singular_values=s)


def projection_error(X, basis: PodBasis) -> float:
    """Frobenius norm of the part of ``X`` outside the basis span."""
    X = np.asarray(X, dtype=float)
    V = basis.modes
    if X.ndim != 2 or X.shape[0] != V.shape[0]:
        raise InvalidInputError(
            f"snapshots must have {V.shape[0]} rows, got shape {X.shape}"
        )
    return float(np.linalg.norm(X - V @ (V.T @ X)))


def intrusive_reduce(system: SecondOrderSystem, basis: PodBasis) -> SecondOrderSystem:
    """Congruence reduction of every operator with the mode matrix.

    Structural operators become V.T @ A @ V, the input map V.T @ B. The
    result is a valid model of dimension r carrying ``basis``; symmetry
    is restored exactly after the two-sided product.
    """
    V = basis.modes
    if system.n != V.shape[0]:
        raise InvalidInputError(
            f"model dimension {system.n} does not match basis rows {V.shape[0]}"
        )
    return SecondOrderSystem(
        mass=symmetric_part(V.T @ system.mass @ V),
        damping=symmetric_part(V.T @ system.damping @ V),
        stiffness=symmetric_part(V.T @ system.stiffness @ V),
        input_map=None if system.input_map is None else V.T @ system.input_map,
        basis=basis,
        label=(system.label + "-r%d" % basis.rank).lstrip("-"),
    )


def mass_normalized_form(reduced: SecondOrderSystem) -> SecondOrderSystem:
    """Divide a reduced model by its mass matrix.

    Returns the equivalent model with the identity as its mass, keeping
    the basis and label. The reduced mass must be safely invertible.
    """
    if reduced.input_map is None:
        raise InvalidInputError("model has no input map to normalize")
    M = reduced.mass
    s = la.svdvals(M)
    if s[-1] == 0.0 or s[0] / s[-1] > _MASS_COND_LIMIT:
        raise SingularOperatorError(
            "reduced mass is singular or too ill conditioned to normalize "
            f"(condition {np.inf if s[-1] == 0.0 else s[0] / s[-1]:.3e})"
        )
    rhs = np.hstack([reduced.damping, reduced.stiffness, reduced.input_map])
    sol = la.solve(M, rhs, assume_a="sym")
    r = reduced.n
    return SecondOrderSystem(
        mass=np.eye(r),
        damping=sol[:, :r],
        stiffness=sol[:, r:2 * r],
        input_map=sol[:, 2 * r:],
        basis=reduced.basis,
        label=reduced.label,
    )

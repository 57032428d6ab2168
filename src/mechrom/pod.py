"""Orthogonal bases from snapshot data and projection-based reduction.

The basis of rank r collects the r leading left singular vectors of the
displacement snapshot matrix. Reduction is a congruence with the mode
matrix, which keeps symmetry and definiteness of the structural
operators.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .errors import DegenerateInputError, InvalidInputError, InvalidParameterError
from .model import SecondOrderSystem, symmetric_part

__all__ = [
    "PodBasis",
    "compute_basis",
    "projection_error",
    "intrusive_reduce",
]

_ORTHONORMALITY_TOL = 1e-10


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
        if s.size < 1:
            raise InvalidInputError("singular value spectrum is empty")
        if np.any(s < 0.0) or np.any(np.diff(s) > 0.0):
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
        Keep exactly ``rank`` modes, an integer (not a bool) with
        1 <= rank <= min(n, N).
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
        if (isinstance(rank, bool) or not isinstance(rank, numbers.Integral)
                or not 1 <= rank <= s.size):
            raise InvalidParameterError(
                f"rank must be an integer in [1, {s.size}], got {rank!r}"
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
    result is a valid model of dimension r; symmetry is restored exactly
    after the two-sided product.
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
        label=(system.label + "-r%d" % basis.rank).lstrip("-"),
    )


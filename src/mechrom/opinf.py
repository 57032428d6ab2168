"""Least-squares identification of mass-normalized reduced models.

Given reduced snapshot data, find damping, stiffness, and input maps
(C, K, B) minimizing

    || C Qd + K Q - B U + Qdd ||_F^2  +  lam * penalty,

written as one linear regression: stack the unknowns into
P = [-C, -K, B] against the data matrix D = [Qd; Q; U], so that the
objective is ||P D - Qdd||_F^2 + lam ||P||_F^2. The solve always goes
through a spectral factorization of the data matrix; the normal
equations are never inverted explicitly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .copinf import project_psd
from .errors import (
    DegenerateInputError,
    IllConditionedModesError,
    InsufficientDataError,
    InvalidInputError,
    InvalidParameterError,
    MissingDataError,
    NoViableLambdaError,
    NotSeparableError,
    SingularOperatorError,
)
from .model import SecondOrderSystem, symmetric_part
from .newmark import IntegratorConfig, simulate
from .snapshots import ReducedTrajectoryData

__all__ = [
    "SolveReport",
    "LambdaTrial",
    "ridge_lstsq",
    "infer",
    "select_lambda",
    "separate_operators",
    "nearest_spd",
]

# Singular values below RANK_TOL times the largest are treated as zero
# when solving without regularization; the solution is then the minimum
# Frobenius norm minimizer.
RANK_TOL = 1e-12

# Eigenvector matrices with condition beyond this cannot be used to undo
# the mass normalization.
_MODES_COND_LIMIT = 1e12


@dataclass(frozen=True)
class SolveReport:
    """Diagnostics of one regression solve.

    ``rank_estimate`` counts singular values of the data matrix above
    RANK_TOL relative to the largest; a value below the number of data
    rows signals rank deficiency (the returned model is then the
    minimum-norm minimizer).
    """

    residual: float
    condition: float
    rank_estimate: int
    lam: float
    solver: str = "svd"


def ridge_lstsq(D, rhs, lam: float = 0.0, rank_tol: float = RANK_TOL):
    """Minimize ||P D - rhs||_F^2 + lam ||P||_F^2 over P.

    Solved through the singular value decomposition of the data matrix.
    At lam = 0 singular values below ``rank_tol`` times the largest are
    discarded and the minimum-norm solution is returned.

    Returns
    -------
    P : (rhs.shape[0], D.shape[0]) ndarray
    svals : ndarray
        Singular values of D, for conditioning diagnostics.
    """
    D = np.asarray(D, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if D.ndim != 2 or rhs.ndim != 2:
        raise InvalidInputError("data matrix and right-hand side must be 2-D")
    if D.shape[1] != rhs.shape[1]:
        raise InvalidInputError(
            f"column counts disagree: data {D.shape[1]}, rhs {rhs.shape[1]}"
        )
    if not (np.all(np.isfinite(D)) and np.all(np.isfinite(rhs))):
        raise InvalidInputError("regression data contains non-finite entries")
    if lam < 0.0 or not np.isfinite(lam):
        raise InvalidParameterError(f"lam must be finite and >= 0, got {lam}")

    W, s, Qt = la.svd(D, full_matrices=False)
    if lam == 0.0:
        if s[0] == 0.0:
            raise DegenerateInputError("data matrix is identically zero")
        filt = np.where(s > rank_tol * s[0], 1.0, 0.0) / np.where(s > 0.0, s, 1.0)
    else:
        filt = s / (s**2 + lam)
    P = ((rhs @ Qt.T) * filt) @ W.T
    return P, s


def infer(D, rhs, lam: float = 0.0, basis=None):
    """Identify a mass-normalized reduced model from stacked data.

    Parameters
    ----------
    D : (2 r + m, N) ndarray
        Data matrix with velocity, displacement, and input row blocks.
    rhs : (r, N) ndarray
        Acceleration block.
    lam : float
        Regularization weight, >= 0.
    basis : PodBasis, optional
        Attached to the returned model for later comparisons.

    Returns
    -------
    (SecondOrderSystem, SolveReport)
        The model has the identity as its mass.
    """
    D = np.asarray(D, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if D.ndim != 2 or rhs.ndim != 2:
        raise InvalidInputError("data matrix and right-hand side must be 2-D")
    r = rhs.shape[0]
    m = D.shape[0] - 2 * r
    if r < 1 or m < 1:
        raise InvalidInputError(
            f"data matrix with {D.shape[0]} rows cannot hold two {r}-row "
            "state blocks and at least one input row"
        )
    if D.shape[1] < D.shape[0]:
        warnings.warn(
            f"regression has fewer samples ({D.shape[1]}) than unknowns per "
            f"row ({D.shape[0]}); expect rank deficiency",
            UserWarning,
            stacklevel=2,
        )

    P, s = ridge_lstsq(D, rhs, lam)
    residual = float(np.linalg.norm(P @ D - rhs))
    condition = float(s[0] / s[-1]) if s[-1] > 0.0 else float("inf")
    rank_estimate = int(np.count_nonzero(s > RANK_TOL * s[0])) if s[0] > 0 else 0
    rom = SecondOrderSystem(
        mass=np.eye(r),
        damping=-P[:, :r],
        stiffness=-P[:, r:2 * r],
        input_map=P[:, 2 * r:],
        basis=basis,
    )
    return rom, SolveReport(
        residual=residual,
        condition=condition,
        rank_estimate=rank_estimate,
        lam=lam,
    )


@dataclass(frozen=True)
class LambdaTrial:
    """One row of the regularization sweep table."""

    lam: float
    train_residual: float
    validation_error: float
    operator_norm: float


def _replay_error(rom: SecondOrderSystem, validation: ReducedTrajectoryData) -> float:
    """Worst relative displacement error of the model replaying the
    validation window from its first snapshot. Returns inf when the
    replay leaves the finite range."""
    times = validation.times
    dt = validation.dt
    U = validation.input
    t0 = float(times[0])
    last = U.shape[1] - 1

    def sampler(t):
        idx = int(round((t - t0) / dt))
        return U[:, min(max(idx, 0), last)]

    config = IntegratorConfig(dt=dt, t_end=float(times[-1] - times[0]))
    try:
        replay = simulate(
            rom,
            sampler,
            validation.displacement[:, 0],
            validation.velocity[:, 0],
            config,
            t0=t0,
        )
    except (SingularOperatorError, InvalidInputError, np.linalg.LinAlgError,
            FloatingPointError):
        return float("inf")
    Q = replay.displacement
    ref = validation.displacement[:, 1:Q.shape[1] + 1]
    if Q.shape != ref.shape or not np.all(np.isfinite(Q)):
        return float("inf")
    denom = np.linalg.norm(validation.displacement, axis=0).max()
    if denom == 0.0 or not np.isfinite(denom):
        return float("inf")
    return float(np.linalg.norm(Q - ref, axis=0).max() / denom)


def select_lambda(D, rhs, grid, validation: ReducedTrajectoryData):
    """Sweep a grid of regularization weights and keep the best one.

    Each candidate model replays the validation window; the weight with
    the smallest replay error wins, with ties resolved toward the
    larger weight. The full trial table is returned for export.

    Returns
    -------
    (best_lam, trials) : (float, list of LambdaTrial)

    Raises
    ------
    NoViableLambdaError
        If every candidate replay diverges.
    """
    grid = sorted(float(g) for g in grid)
    if not grid:
        raise InvalidParameterError("the regularization grid is empty")
    if validation.input is None:
        raise MissingDataError("validation data has no input block")
    if validation.num_snapshots < 2:
        raise InsufficientDataError(
            "validation replay needs at least two snapshots"
        )

    trials = []
    best_lam = None
    best_err = float("inf")
    for lam in grid:
        rom, report = infer(D, rhs, lam, basis=validation.basis)
        err = _replay_error(rom, validation)
        norm = float(
            np.sqrt(
                np.linalg.norm(rom.damping) ** 2
                + np.linalg.norm(rom.stiffness) ** 2
                + np.linalg.norm(rom.input_map) ** 2
            )
        )
        trials.append(
            LambdaTrial(
                lam=lam,
                train_residual=report.residual,
                validation_error=err,
                operator_norm=norm,
            )
        )
        if np.isfinite(err) and err <= best_err:
            best_lam = lam
            best_err = err
    if best_lam is None:
        raise NoViableLambdaError(
            "every regularization weight produced a diverging model",
            table=trials,
        )
    return best_lam, trials


def separate_operators(rom: SecondOrderSystem) -> SecondOrderSystem:
    """Recover individual mass, damping, and stiffness maps from a
    mass-normalized model.

    The stiffness map is diagonalized, K_M = Phi W2 inv(Phi) with unit
    Euclidean norm eigenvector columns; then

        K = inv(Phi).T W2 inv(Phi),   M = inv(Phi).T inv(Phi),
        E = M C_M,                    B = M B_M.

    M is symmetric positive definite by construction and M^-1 K equals
    the stiffness map again, so the separated triple reproduces the
    mass-normalized model exactly up to round-off.

    Raises
    ------
    InvalidInputError
        When the model's mass is not exactly the identity.
    NotSeparableError
        When the stiffness map has a complex or nonpositive eigenvalue.
    IllConditionedModesError
        When the eigenvector matrix has condition beyond 1e12.
    """
    if not rom.mass_normalized:
        raise InvalidInputError(
            "separate_operators needs a mass-normalized model (identity mass)"
        )
    w, Phi = la.eig(rom.stiffness)
    if np.any(w.imag != 0.0):
        raise NotSeparableError(
            "stiffness map has complex eigenvalues", eigenvalues=w
        )
    w = w.real
    if np.any(w <= 0.0):
        raise NotSeparableError(
            "stiffness map has nonpositive eigenvalues", eigenvalues=w
        )
    Phi = Phi.real
    Phi = Phi / np.linalg.norm(Phi, axis=0)

    svals = la.svdvals(Phi)
    cond = float("inf") if svals[-1] == 0.0 else svals[0] / svals[-1]
    if cond > _MODES_COND_LIMIT:
        raise IllConditionedModesError(
            f"eigenvector matrix condition {cond:.3e} exceeds {_MODES_COND_LIMIT:.0e}"
        )

    Phi_inv = la.inv(Phi)
    mass = symmetric_part(Phi_inv.T @ Phi_inv)
    return SecondOrderSystem(
        mass=mass,
        damping=mass @ rom.damping,
        stiffness=symmetric_part(Phi_inv.T @ np.diag(w) @ Phi_inv),
        input_map=None if rom.input_map is None else mass @ rom.input_map,
        basis=rom.basis,
        label=rom.label,
    )


def nearest_spd(A, shift: float = 0.0) -> np.ndarray:
    """Frobenius-nearest symmetric positive semidefinite matrix.

    Symmetrize, then raise negative eigenvalues to zero. A positive
    ``shift`` adds shift * I afterwards, making the result strictly
    positive definite.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise InvalidInputError(f"matrix must be square, got shape {A.shape}")
    S = project_psd(A, 0.0)
    if shift < 0.0:
        raise InvalidParameterError(f"shift must be nonnegative, got {shift}")
    if shift > 0.0:
        S += shift * np.eye(A.shape[0])
    return S

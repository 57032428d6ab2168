"""Least-squares identification of mass-normalized reduced models.

Given reduced snapshot data, find damping, stiffness, and input maps
(C, K, B) minimizing

    || C Qd + K Q - B U + Qdd ||_F^2  +  lam * penalty,

written as one linear regression: stack the unknowns into
P = [-C, -K, B] against the data matrix D = [Qd; Q; U], so that the
objective is ||P D - Qdd||_F^2 + lam ||P||_F^2. Every regression here
and in ``copinf`` starts from one compression of its data, ``compress``:
the thin SVD D = W diag(s) Qt, the right-hand side moved into the row
space of Qt, and the norm of its part outside that space. The normal
equations are never formed or inverted explicitly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .errors import (
    DegenerateInputError,
    IllConditionedModesError,
    InsufficientDataError,
    InvalidInputError,
    InvalidParameterError,
    NoViableLambdaError,
    NotSeparableError,
    SingularOperatorError,
)
from .model import SecondOrderSystem, symmetric_part
from .newmark import IntegratorConfig, simulate
from .snapshots import TrajectoryData

__all__ = [
    "SolveReport",
    "LambdaTrial",
    "ridge_lstsq",
    "infer",
    "select_lambda",
    "separate_operators",
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

    ``rank_estimate`` counts the singular values of the data matrix that
    ``ridge_filter`` keeps at lam = 0; a value below the number of data
    rows signals rank deficiency (the returned model is then the
    minimum-norm minimizer).
    """

    residual: float
    condition: float
    rank_estimate: int
    lam: float


def ridge_filter(s, lam: float = 0.0) -> np.ndarray:
    """Filter factors s_i / (s_i^2 + lam) of the ridge minimizer for the
    nonincreasing singular values ``s``. At lam = 0 they are those of the
    minimum-norm pseudo-inverse: 1 / s_i where s_i exceeds ``RANK_TOL``
    times the largest, zero elsewhere."""
    if lam == 0.0:
        return np.where(s > RANK_TOL * s[0], 1.0, 0.0) / np.where(s > 0.0, s, 1.0)
    return s / (s**2 + lam)


def regression_arrays(D, rhs):
    """The data matrix and right-hand side of a regression as float
    arrays; InvalidInputError unless both are 2-D with equal column
    counts and finite entries, InsufficientDataError when they have no
    column, InvalidInputError when the data matrix has no row."""
    D = np.asarray(D, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if D.ndim != 2 or rhs.ndim != 2:
        raise InvalidInputError("data matrix and right-hand side must be 2-D")
    if D.shape[1] != rhs.shape[1]:
        raise InvalidInputError(
            f"column counts disagree: data {D.shape[1]}, rhs {rhs.shape[1]}"
        )
    if not (np.isfinite(D).all() and np.isfinite(rhs).all()):
        raise InvalidInputError("regression data contains non-finite entries")
    if D.shape[1] == 0:
        raise InsufficientDataError("regression data has no snapshot columns")
    if D.shape[0] == 0:
        raise InvalidInputError("data matrix has no rows")
    return D, rhs


def compress(D, rhs):
    """``(W, s, Qt, rhs_c, tail)``: the thin SVD D = W diag(s) Qt, the
    right-hand side rhs_c = rhs Qt^T in the row space of Qt, and the
    norm of its part outside, so that for every P
    ||P D - rhs||^2 = ||P W diag(s) - rhs_c||^2 + tail^2."""
    W, s, Qt = la.svd(D, full_matrices=False)
    rhs_c = rhs @ Qt.T
    tail = float(np.linalg.norm(rhs - rhs_c @ Qt))
    return W, s, Qt, rhs_c, tail


def ridge_lstsq(D, rhs, lam: float = 0.0):
    """Minimize ||P D - rhs||_F^2 + lam ||P||_F^2 over P.

    Solved through the singular value decomposition of the data matrix.
    At lam = 0 singular values below ``RANK_TOL`` times the largest are
    discarded and the minimum-norm solution is returned.

    Returns
    -------
    P : (rhs.shape[0], D.shape[0]) ndarray
    svals : ndarray
        Singular values of D, for conditioning diagnostics.
    """
    W, s, _, rhs_c, _ = compress(*regression_arrays(D, rhs))
    return _solve(W, s, rhs_c, lam), s


def _solve(W, s, rhs_c, lam):
    """The ridge minimizer P = (rhs_c ridge_filter(s, lam)) W^T of the
    compression ``(W, s, _, rhs_c, _)`` of a regression."""
    if lam < 0.0 or not np.isfinite(lam):
        raise InvalidParameterError(f"lam must be finite and >= 0, got {lam}")
    if lam == 0.0 and s[0] == 0.0:
        raise DegenerateInputError("data matrix is identically zero")
    return (rhs_c * ridge_filter(s, lam)) @ W.T


def _fit(W, s, rhs_c, tail, lam):
    """``(model, residual)`` at weight ``lam`` from the compression
    ``(W, s, _, rhs_c, tail)`` of checked ``_opinf_arrays``: the
    mass-normalized model whose damping, stiffness and input map are
    -P[:, :r], -P[:, r:2r] and P[:, 2r:] for the ridge minimizer P, and
    ||P D - rhs||_F as hypot(||P W diag(s) - rhs_c||_F, tail)."""
    P = _solve(W, s, rhs_c, lam)
    r = P.shape[0]
    residual = math.hypot(float(np.linalg.norm((P @ W) * s - rhs_c)), tail)
    return SecondOrderSystem(np.eye(r), -P[:, :r], -P[:, r:2 * r],
                             P[:, 2 * r:]), residual


def _opinf_arrays(D, rhs):
    """``regression_arrays`` of a stacked [velocity; displacement; input]
    data matrix: InvalidInputError unless its rows hold two r-row state
    blocks and at least one input row, for r the rows of ``rhs``; a
    UserWarning, reported at the caller's caller, when it has fewer
    columns than rows."""
    D, rhs = regression_arrays(D, rhs)
    r = rhs.shape[0]
    if r < 1 or D.shape[0] - 2 * r < 1:
        raise InvalidInputError(f"data matrix with {D.shape[0]} rows cannot "
                                f"hold two {r}-row state blocks and at least "
                                "one input row")
    if D.shape[1] < D.shape[0]:
        warnings.warn(f"regression has fewer samples ({D.shape[1]}) than "
                      f"unknowns per row ({D.shape[0]}); expect rank "
                      "deficiency", UserWarning, stacklevel=3)
    return D, rhs


def infer(D, rhs, lam: float = 0.0):
    """Identify a mass-normalized reduced model from stacked data.

    Parameters
    ----------
    D : (2 r + m, N) ndarray
        Data matrix with velocity, displacement, and input row blocks.
    rhs : (r, N) ndarray
        Acceleration block.
    lam : float
        Regularization weight, >= 0.

    Returns
    -------
    (SecondOrderSystem, SolveReport)
        The model has the identity as its mass.
    """
    W, s, _, rhs_c, tail = compress(*_opinf_arrays(D, rhs))
    rom, residual = _fit(W, s, rhs_c, tail, lam)
    condition = float(s[0] / s[-1]) if s[-1] > 0.0 else float("inf")
    return rom, SolveReport(residual, condition,
                            int(np.count_nonzero(ridge_filter(s))), lam)


@dataclass(frozen=True)
class LambdaTrial:
    """One row of the regularization sweep table."""

    lam: float
    train_residual: float
    validation_error: float
    operator_norm: float


def _replay_error(rom: SecondOrderSystem, validation: TrajectoryData,
                  config: IntegratorConfig, denom: float) -> float:
    """Worst displacement error, relative to ``denom``, of the model
    replaying the validation window from its first snapshot with
    ``config``. Returns inf when the replay, or its error, leaves the
    finite range."""
    X = validation.displacement
    try:
        replay = simulate(
            rom,
            lambda t: validation.input,
            X[:, 0],
            validation.velocity[:, 0],
            config,
            t0=float(validation.times[0]),
        )
    except (SingularOperatorError, InvalidInputError, np.linalg.LinAlgError,
            FloatingPointError):
        return float("inf")
    Q = replay.displacement
    with np.errstate(over="ignore"):
        err = float(np.linalg.norm(Q - X[:, 1:], axis=0).max() / denom)
    return err if np.isfinite(err) else float("inf")


def _check_grid(grid) -> None:
    if not grid:
        raise InvalidParameterError("lambda_grid must not be empty")
    if not all(math.isfinite(g) for g in grid):
        raise InvalidParameterError("lambda_grid values must be finite")
    if any(g < 0.0 for g in grid):
        raise InvalidParameterError("lambda_grid values must be >= 0")
    if len(set(grid)) != len(grid):  # as numbers: 0.0 and -0.0 are one
        raise InvalidParameterError("lambda_grid values must be distinct, "
                                    f"got {', '.join(map(str, grid))}")


def select_lambda(D, rhs, grid, validation: TrajectoryData,
                  scheme: IntegratorConfig | None = None):
    """Sweep a grid of regularization weights and keep the best one.

    Each candidate model replays the validation window; the weight with
    the smallest replay error wins, with ties resolved toward the
    larger weight. The full trial table is returned for export.

    The replays use the gamma, beta and alpha of ``scheme`` (by default
    the average-acceleration scheme) on the validation window's time
    grid; its ``dt`` and ``t_end`` are not read.

    The data are compressed once (``compress``), and each candidate is
    one product with that compression, the model ``infer`` returns at
    its weight; the table's ``train_residual`` is that model's residual
    on the full data.

    Returns
    -------
    (best_lam, rom, trials) : (float, SecondOrderSystem, list of LambdaTrial)
        The chosen weight, the model its table row scores, and the table.

    Raises
    ------
    InvalidParameterError
        Before any fit: no weight, or one not finite, negative or repeated.
    MissingDataError
        If the validation window has no input or no velocity block,
        before any fit.
    InvalidInputError, DegenerateInputError
        If the validation displacement has a non-finite norm, or is
        identically zero, before any fit.
    NoViableLambdaError
        If every candidate replay diverges.
    """
    grid = [float(g) for g in grid]
    _check_grid(grid)
    validation.require("input", "velocity")
    if validation.num_snapshots < 2:
        raise InsufficientDataError(
            "validation replay needs at least two snapshots"
        )

    denom = np.linalg.norm(validation.displacement, axis=0).max()
    if not np.isfinite(denom):
        raise InvalidInputError("validation displacement has a non-finite norm")
    if denom == 0.0:
        raise DegenerateInputError("validation displacement is identically zero")
    # One step per gap: times uniform only to within the grid tolerance
    # can floor to fewer steps over their span.
    dt = validation.dt
    config = IntegratorConfig(dt=dt, t_end=dt * (validation.num_snapshots - 1))
    if scheme is not None:
        config = replace(config, gamma=scheme.gamma, beta=scheme.beta,
                         alpha=scheme.alpha)
    W, s, _, rhs_c, tail = compress(*_opinf_arrays(D, rhs))

    trials = []
    best = None
    best_err = float("inf")
    for lam in sorted(grid):
        rom, residual = _fit(W, s, rhs_c, tail, lam)
        err = _replay_error(rom, validation, config, denom)
        # Operators near the largest double have an infinite norm here.
        with np.errstate(over="ignore"):
            norm = math.sqrt(sum(np.linalg.norm(A) ** 2 for A in (
                rom.damping, rom.stiffness, rom.input_map)))
        trials.append(LambdaTrial(lam, residual, err, norm))
        if np.isfinite(err) and err <= best_err:
            best = lam, rom
            best_err = err
    if best is None:
        raise NoViableLambdaError(
            "every regularization weight produced a diverging model",
            table=trials,
        )
    return *best, trials


def separate_operators(rom: SecondOrderSystem) -> SecondOrderSystem:
    """Recover individual mass, damping, and stiffness maps from a
    mass-normalized model.

    The stiffness map is diagonalized, K_M = Phi W2 inv(Phi) with unit
    Euclidean norm eigenvector columns; then

        K = inv(Phi).T W2 inv(Phi),   M = inv(Phi).T inv(Phi),
        E = M C_M,                    B = M B_M.

    M is symmetric positive definite by construction and M^-1 K equals
    the stiffness map again, so the separated triple reproduces the
    mass-normalized model exactly up to round-off. Sparse operators are
    densified.

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
    C, K = (A.toarray() if sp.issparse(A) else A
            for A in (rom.damping, rom.stiffness))
    w, Phi = la.eig(K)
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
        damping=mass @ C,
        stiffness=symmetric_part(Phi_inv.T @ np.diag(w) @ Phi_inv),
        input_map=None if rom.input_map is None else mass @ rom.input_map,
    )


"""Trajectory containers, regression data assembly, and CSV exchange.

Snapshot collections hold a displacement history, column per time
instant, plus optional velocity, acceleration, input and force
histories. A trajectory projected onto a basis has the same type and
feeds the regression problems: the data matrix stacks velocity,
displacement, and input blocks for the mass-normalized problem, and
acceleration, velocity, and displacement blocks for the force-driven
constrained problem. Every trajectory file, one per block, is written
by :func:`save_csv` and read by :func:`load_csv`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    FormatError,
    InsufficientDataError,
    InvalidInputError,
    MissingDataError,
)
from .pod import PodBasis
from .textio import read_header, read_table, write_table

__all__ = [
    "TrajectoryData",
    "project",
    "assemble_opinf_data",
    "assemble_force_data",
    "finite_difference_derivatives",
    "save_csv",
    "load_csv",
]

# Relative tolerance on time-grid uniformity.
_GRID_RTOL = 1e-12

# The column-name prefix of each block, and the fixed file name that
# save_csv / load_csv give it in a directory.
_CSV_PREFIX = {"displacement": "x", "velocity": "xd", "acceleration": "xdd",
               "input": "u", "force": "f"}
CSV_NAMES = {key: f"{key}.csv" for key in _CSV_PREFIX}


def _check_block(name, A, n_rows, n_cols):
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-D, got ndim={A.ndim}")
    if n_rows is not None and A.shape[0] != n_rows:
        raise InvalidInputError(
            f"{name} must have {n_rows} rows, got {A.shape[0]}"
        )
    if A.shape[1] != n_cols:
        raise InvalidInputError(
            f"{name} must have {n_cols} columns, got {A.shape[1]}"
        )
    return A


def _check_times(times) -> np.ndarray:
    times = np.asarray(times, dtype=float).ravel()
    if times.size < 1:
        raise InvalidInputError("at least one snapshot is required")
    if not np.isfinite(times).all():
        raise InvalidInputError("snapshot times must be finite")
    if times.size > 1:
        gaps = np.diff(times)
        low, high = gaps.min(), gaps.max()
        if low <= 0.0:
            raise InvalidInputError("snapshot times must be strictly increasing")
        # fl(g - dt) is monotone in g, so the gap farthest from the first
        # is the smallest or the largest.
        dt = gaps[0]
        tol = _GRID_RTOL * max(abs(dt), 1.0)
        if abs(high - dt) > tol or abs(low - dt) > tol:
            raise InvalidInputError("snapshot times must be uniformly spaced")
    return times


@dataclass(frozen=True)
class TrajectoryData:
    """Sampled state history of a second-order model.

    All matrices store one column per entry of ``times``. Only
    ``displacement`` is required; workflows that need an absent block
    raise :class:`MissingDataError` through :meth:`require`.
    """

    times: np.ndarray
    displacement: np.ndarray
    velocity: np.ndarray | None = None
    acceleration: np.ndarray | None = None
    input: np.ndarray | None = None
    force: np.ndarray | None = None

    def __post_init__(self):
        times = _check_times(self.times)
        N = times.size
        X = _check_block("displacement", self.displacement, None, N)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "displacement", X)
        for key, n_rows in (("velocity", X.shape[0]),
                            ("acceleration", X.shape[0]),
                            ("input", None), ("force", X.shape[0])):
            A = getattr(self, key)
            if A is not None:
                object.__setattr__(self, key, _check_block(key, A, n_rows, N))

    def require(self, *keys) -> None:
        """Raise :class:`MissingDataError` naming the first of the blocks
        ``keys`` that is absent."""
        for key in keys:
            if getattr(self, key) is None:
                raise MissingDataError(f"{key} block is required and absent")

    @property
    def n(self) -> int:
        return self.displacement.shape[0]

    @property
    def num_snapshots(self) -> int:
        return self.times.size

    @property
    def dt(self) -> float:
        if self.times.size < 2:
            raise InvalidInputError("time step undefined with one snapshot")
        return float(self.times[1] - self.times[0])


def project(data: TrajectoryData, basis: PodBasis) -> TrajectoryData:
    """Project a trajectory onto the span of a basis.

    Displacement, and velocity, acceleration and force when present,
    are left-multiplied by the transposed mode matrix; the input signal
    is independent of the state space and is copied unchanged. Absent
    blocks stay absent.
    """
    V = basis.modes
    if data.n != V.shape[0]:
        raise InvalidInputError(
            f"trajectory dimension {data.n} does not match basis rows {V.shape[0]}"
        )
    blocks = {key: V.T @ getattr(data, key)
              for key in ("displacement", "velocity", "acceleration", "force")
              if getattr(data, key) is not None}
    return TrajectoryData(
        times=data.times,
        input=None if data.input is None else data.input.copy(),
        **blocks,
    )


def assemble_opinf_data(rdata: TrajectoryData):
    """Stack the data matrix and right-hand side for mass-normalized
    regression.

    Returns
    -------
    D : (2 r + m, N) ndarray
        Rows are the velocity block, then the displacement block, then
        the input block.
    rhs : (r, N) ndarray
        The acceleration block.
    """
    rdata.require("velocity", "input", "acceleration")
    D = np.vstack([rdata.velocity, rdata.displacement, rdata.input])
    return D, rdata.acceleration.copy()


def assemble_force_data(rdata: TrajectoryData):
    """Stack the data matrix and right-hand side for force-driven
    constrained regression.

    Returns
    -------
    D : (3 r, N) ndarray
        Rows are the acceleration block, then velocity, then displacement.
    rhs : (r, N) ndarray
        The projected force block.
    """
    rdata.require("acceleration", "velocity", "force")
    D = np.vstack([rdata.acceleration, rdata.velocity, rdata.displacement])
    return D, rdata.force.copy()


def finite_difference_derivatives(displacement, dt: float):
    """Second-order finite-difference velocity and acceleration.

    Central stencils are used in the interior and one-sided second-order
    stencils at both ends, so both outputs are exact for trajectories
    that are polynomials of degree two in time.

    Parameters
    ----------
    displacement : (n, N) ndarray
        Snapshot columns on a uniform grid with step ``dt``; N >= 5.
    dt : float
        Grid spacing, positive and finite.

    Returns
    -------
    velocity, acceleration : (n, N) ndarray
    """
    X = np.asarray(displacement, dtype=float)
    if X.ndim != 2:
        raise InvalidInputError("displacement must be 2-D")
    if not (math.isfinite(dt) and dt > 0.0):
        raise InvalidInputError(f"dt must be positive and finite, got {dt}")
    N = X.shape[1]
    if N < 5:
        raise InsufficientDataError(
            f"finite differences need at least 5 snapshots, got {N}"
        )
    V = np.empty_like(X)
    A = np.empty_like(X)

    V[:, 1:-1] = (X[:, 2:] - X[:, :-2]) / (2.0 * dt)
    V[:, 0] = (-3.0 * X[:, 0] + 4.0 * X[:, 1] - X[:, 2]) / (2.0 * dt)
    V[:, -1] = (3.0 * X[:, -1] - 4.0 * X[:, -2] + X[:, -3]) / (2.0 * dt)

    A[:, 1:-1] = (X[:, 2:] - 2.0 * X[:, 1:-1] + X[:, :-2]) / dt**2
    A[:, 0] = (2.0 * X[:, 0] - 5.0 * X[:, 1] + 4.0 * X[:, 2] - X[:, 3]) / dt**2
    A[:, -1] = (2.0 * X[:, -1] - 5.0 * X[:, -2] + 4.0 * X[:, -3] - X[:, -4]) / dt**2
    return V, A


# ---------------------------------------------------------------------------
# CSV exchange. One file per matrix; row layout "t, entry_1, ..., entry_k"
# with a header row naming the columns, in the format of ``textio``.
# ---------------------------------------------------------------------------


def _write_block(path, times, A, prefix):
    """Write one block: a ``t,<prefix>_1,...`` header, then a row per
    entry of ``times`` holding that time and column of ``A``."""
    header = "t," + ",".join(f"{prefix}_{i + 1}" for i in range(A.shape[0]))
    write_table(path, header, np.column_stack([times, A.T]))


def _read_block(path, max_rows=None):
    """Read one block written by :func:`_write_block`; returns the
    times and the matrix with one column per time. With ``max_rows``,
    only the first ``max_rows`` snapshots are read."""
    header = read_header(path)
    if header is None or not header.strip():
        raise FormatError("empty snapshot file", path=path, line=1)
    names = header.split(",")
    if len(names) < 2 or names[0].strip() != "t":
        raise FormatError("header must be 't,<name>_1,...'", path=path, line=1)
    table = read_table(path, len(names), max_rows=max_rows)
    if not table.shape[0]:
        raise InvalidInputError(f"{path}: no snapshots in file")
    # The transpose of a contiguous (N, n) array, the layout the block had
    # when it was parsed row by row, so products with it round as before.
    return table[:, 0], np.ascontiguousarray(table[:, 1:]).T


def save_csv(data: TrajectoryData, directory) -> list:
    """Write one CSV file per present matrix into ``directory``.

    Returns the list of paths written.
    """
    os.makedirs(directory, exist_ok=True)
    written = []
    for key, name in CSV_NAMES.items():
        A = getattr(data, key)
        if A is None:
            continue
        path = os.path.join(directory, name)
        _write_block(path, data.times, A, _CSV_PREFIX[key])
        written.append(path)
    return written


def load_csv(directory, blocks=tuple(CSV_NAMES),
             max_rows=None) -> TrajectoryData:
    """Read back the trajectory that :func:`save_csv` wrote into
    ``directory``.

    ``blocks`` names the blocks to read (displacement, velocity,
    acceleration, input, force); the displacement is required, and a
    named block without a file is absent. Time columns must agree
    exactly across files. With ``max_rows``, only the first
    ``max_rows`` snapshots are read.
    """
    paths = {}
    for key in blocks:
        path = os.path.join(directory, CSV_NAMES[key])
        if os.path.exists(path):
            paths[key] = path
    if "displacement" not in paths:
        raise MissingDataError(f"no displacement file in {directory}")

    times = None
    data = {}
    for key, path in paths.items():
        t, data[key] = _read_block(path, max_rows)
        if times is None:
            times = t
        elif t.shape != times.shape or np.any(t != times):
            raise InvalidInputError(
                f"{path}: time column disagrees with other blocks"
            )
    return TrajectoryData(times=times, **data)

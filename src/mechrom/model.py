"""Second-order mechanical models and their on-disk representation.

A model is the operator quadruple (mass, damping, stiffness, input map)
of the governing equations

    mass @ x'' + damping @ x' + stiffness @ x = input_map @ u(t).

Full models and reduced models share the one container
:class:`SecondOrderSystem`. Builders for proportional damping and for
mass-spring chain benchmarks live here, together with a plain-text
sparse matrix format used for all operator files.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import FormatError, InvalidInputError, InvalidParameterError

if TYPE_CHECKING:  # pragma: no cover
    from .pod import PodBasis

__all__ = [
    "SecondOrderSystem",
    "symmetric_part",
    "rayleigh_damping",
    "build_mass_spring_chain",
    "force_at",
    "save_matrix",
    "load_matrix",
    "save_system",
    "load_system",
]

# Significant digits for every float written to text artifacts. 17 digits
# round-trip IEEE doubles exactly, which the staged pipeline relies on.
FLOAT_FORMAT = "%.17g"


def _as_2d(name: str, A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise InvalidInputError(f"{name} must be a 2-D array, got ndim={A.ndim}")
    if not np.all(np.isfinite(A)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return A


def symmetric_part(A) -> np.ndarray:
    """The symmetric part ``(A + A.T) / 2``; an exactly symmetric ``A``
    comes back unchanged."""
    return 0.5 * (A + A.T)


@dataclass(frozen=True)
class SecondOrderSystem:
    """Second-order model ``mass x'' + damping x' + stiffness x = input_map u``.

    Full, projected, mass-normalized and constrained reduced models all
    use this one type. The operators are stored as given after a shape
    and finiteness check; no symmetry is imposed here. Producers that
    promise symmetric operators (``load_system``, ``intrusive_reduce``,
    ``separate_operators``) apply :func:`symmetric_part` themselves.

    Parameters
    ----------
    mass, damping, stiffness : (n, n) ndarray
        Structural operators. A mass-normalized model carries the
        identity as its mass.
    input_map : (n, m) ndarray, optional
        Maps the m-channel input signal to forces. None for a model
        fitted to force data, which is driven by a force signal or given
        an input map with ``dataclasses.replace``.
    basis : PodBasis, optional
        The basis whose coordinates a reduced model lives in.
    label : str
        Free-form tag carried through artifacts.
    """

    mass: np.ndarray
    damping: np.ndarray
    stiffness: np.ndarray
    input_map: np.ndarray | None = None
    basis: "PodBasis | None" = None
    label: str = ""

    def __post_init__(self):
        n = _as_2d("mass", self.mass).shape[0]
        for name in ("mass", "damping", "stiffness"):
            A = _as_2d(name, getattr(self, name))
            if A.shape != (n, n):
                raise InvalidInputError(
                    f"{name} must be {n}x{n}, got {A.shape[0]}x{A.shape[1]}"
                )
            object.__setattr__(self, name, A)
        if self.input_map is not None:
            B = _as_2d("input_map", self.input_map)
            if B.shape[0] != n or B.shape[1] < 1:
                raise InvalidInputError(
                    f"input_map must be {n}xm with m >= 1, "
                    f"got {B.shape[0]}x{B.shape[1]}"
                )
            object.__setattr__(self, "input_map", B)

    @property
    def n(self) -> int:
        """State dimension."""
        return self.mass.shape[0]

    @property
    def m(self) -> int:
        """Number of input channels, zero without an input map."""
        return 0 if self.input_map is None else self.input_map.shape[1]

    @property
    def mass_normalized(self) -> bool:
        """True when the mass is exactly the identity."""
        return bool(np.array_equal(self.mass, np.eye(self.n)))


# ``perfbench/checks.py`` imports the model type under its former name.
SecondOrderOperators = SecondOrderSystem


def rayleigh_damping(mass, stiffness, alpha_r: float, beta_r: float) -> np.ndarray:
    """Proportional damping ``alpha_r * mass + beta_r * stiffness``.

    Both coefficients must be nonnegative so that the result is positive
    semidefinite whenever mass and stiffness are positive definite.
    """
    M = _as_2d("mass", mass)
    K = _as_2d("stiffness", stiffness)
    if M.shape != K.shape or M.shape[0] != M.shape[1]:
        raise InvalidParameterError(
            f"mass and stiffness must be square with equal shape, "
            f"got {M.shape} and {K.shape}"
        )
    if alpha_r < 0.0 or beta_r < 0.0:
        raise InvalidParameterError(
            f"damping coefficients must be nonnegative, got "
            f"alpha_r={alpha_r}, beta_r={beta_r}"
        )
    return alpha_r * M + beta_r * K


def build_mass_spring_chain(
    n: int,
    masses,
    stiffnesses,
    alpha_r: float = 0.0,
    beta_r: float = 0.0,
    input_nodes=(0,),
) -> SecondOrderSystem:
    """Build a fixed-fixed mass-spring chain with proportional damping.

    n point masses are connected in a line by n + 1 springs, with both
    chain ends anchored. The stiffness matrix is tridiagonal:
    ``K[i, i] = k[i] + k[i + 1]`` and ``K[i, i + 1] = K[i + 1, i] = -k[i + 1]``
    where ``k[j]`` is the j-th spring constant. The mass matrix is
    ``diag(masses)`` and damping is Rayleigh with the given coefficients.

    Parameters
    ----------
    n : int
        Number of masses (n >= 1).
    masses : (n,) array_like
        Point masses, all positive.
    stiffnesses : (n + 1,) array_like
        Spring constants, all positive.
    alpha_r, beta_r : float
        Proportional damping coefficients, nonnegative.
    input_nodes : sequence of int
        Zero-based nodes receiving an input channel each; the input map
        gets one unit column per listed node.

    Returns
    -------
    SecondOrderSystem
    """
    if n < 1:
        raise InvalidParameterError(f"chain needs at least one mass, got n={n}")
    masses = np.asarray(masses, dtype=float).ravel()
    stiffnesses = np.asarray(stiffnesses, dtype=float).ravel()
    if masses.shape != (n,):
        raise InvalidParameterError(
            f"expected {n} masses, got {masses.shape[0]}"
        )
    if stiffnesses.shape != (n + 1,):
        raise InvalidParameterError(
            f"expected {n + 1} spring constants, got {stiffnesses.shape[0]}"
        )
    if np.any(masses <= 0.0):
        raise InvalidParameterError("all masses must be positive")
    if np.any(stiffnesses <= 0.0):
        raise InvalidParameterError("all spring constants must be positive")
    input_nodes = list(input_nodes)
    if len(input_nodes) == 0:
        raise InvalidParameterError("at least one input node is required")
    for node in input_nodes:
        if not 0 <= int(node) < n:
            raise InvalidParameterError(
                f"input node {node} outside range [0, {n - 1}]"
            )

    M = np.diag(masses)
    K = np.zeros((n, n))
    for i in range(n):
        K[i, i] = stiffnesses[i] + stiffnesses[i + 1]
        if i + 1 < n:
            K[i, i + 1] = -stiffnesses[i + 1]
            K[i + 1, i] = -stiffnesses[i + 1]
    C = rayleigh_damping(M, K, alpha_r, beta_r)
    B = np.zeros((n, len(input_nodes)))
    for j, node in enumerate(input_nodes):
        B[int(node), j] = 1.0
    return SecondOrderSystem(M, C, K, B, label=f"chain-n{n}")


def force_at(system, u) -> np.ndarray:
    """Nodal force realized by input value ``u`` through the input map."""
    u = np.asarray(u, dtype=float).ravel()
    if u.shape[0] != system.m:
        raise InvalidParameterError(
            f"input has {u.shape[0]} channels, model expects {system.m}"
        )
    return system.input_map @ u


# ---------------------------------------------------------------------------
# Plain-text sparse coordinate format.
#
# Line 1:  %%matrix coordinate real <general|symmetric>
# Line 2:  rows cols nnz
# Then nnz lines of "row col value" with 1-based indices. Symmetric files
# store the lower triangle only.
# ---------------------------------------------------------------------------

_HEADER_PREFIX = "%%matrix coordinate real"


def save_matrix(path, A, symmetry: str = "general") -> None:
    """Write a dense array to the coordinate text format.

    Exact zeros are not stored. ``symmetry='symmetric'`` stores the lower
    triangle only and requires a square input; the strict symmetry of the
    input is not checked, the upper triangle is simply ignored.
    """
    A = _as_2d("matrix", A)
    if symmetry not in ("general", "symmetric"):
        raise InvalidParameterError(f"unknown symmetry tag {symmetry!r}")
    rows, cols = A.shape
    if symmetry == "symmetric" and rows != cols:
        raise InvalidParameterError("symmetric storage requires a square matrix")
    entries = []
    for i in range(rows):
        jmax = i + 1 if symmetry == "symmetric" else cols
        for j in range(jmax):
            v = A[i, j]
            if v != 0.0:
                entries.append((i + 1, j + 1, v))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{_HEADER_PREFIX} {symmetry}\n")
        fh.write(f"{rows} {cols} {len(entries)}\n")
        for i, j, v in entries:
            fh.write(f"{i} {j} {FLOAT_FORMAT % v}\n")


def load_matrix(path) -> np.ndarray:
    """Read a coordinate text file back into a dense array.

    Symmetric files are mirrored into a full dense matrix. Any malformed
    line raises :class:`FormatError` carrying the 1-based line number.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise FormatError("empty matrix file", path=path, line=1)

    header = lines[0].strip()
    if not header.startswith(_HEADER_PREFIX):
        raise FormatError(
            f"expected header starting with {_HEADER_PREFIX!r}", path=path, line=1
        )
    symmetry = header[len(_HEADER_PREFIX):].strip()
    if symmetry not in ("general", "symmetric"):
        raise FormatError(f"unknown symmetry tag {symmetry!r}", path=path, line=1)

    if len(lines) < 2:
        raise FormatError("missing size line", path=path, line=2)
    parts = lines[1].split()
    if len(parts) != 3:
        raise FormatError("size line must be 'rows cols nnz'", path=path, line=2)
    try:
        rows, cols, nnz = (int(p) for p in parts)
    except ValueError:
        raise FormatError("size line must hold three integers", path=path, line=2)
    if rows < 1 or cols < 1 or nnz < 0:
        raise FormatError("invalid matrix dimensions", path=path, line=2)
    if symmetry == "symmetric" and rows != cols:
        raise FormatError("symmetric matrix must be square", path=path, line=2)

    data_lines = [
        (idx + 1, ln) for idx, ln in enumerate(lines) if idx >= 2 and ln.strip()
    ]
    if len(data_lines) != nnz:
        raise FormatError(
            f"expected {nnz} entries, found {len(data_lines)}",
            path=path,
            line=len(lines),
        )

    A = np.zeros((rows, cols))
    for lineno, ln in data_lines:
        parts = ln.split()
        if len(parts) != 3:
            raise FormatError("entry must be 'row col value'", path=path, line=lineno)
        try:
            i = int(parts[0])
            j = int(parts[1])
            v = float(parts[2])
        except ValueError:
            raise FormatError("could not parse entry", path=path, line=lineno)
        if not (1 <= i <= rows and 1 <= j <= cols):
            raise FormatError(
                f"index ({i}, {j}) outside {rows}x{cols}", path=path, line=lineno
            )
        if symmetry == "symmetric" and j > i:
            raise FormatError(
                "upper-triangle entry in symmetric file", path=path, line=lineno
            )
        A[i - 1, j - 1] += v
        if symmetry == "symmetric" and i != j:
            A[j - 1, i - 1] += v
    return A


def save_system(system: SecondOrderSystem, mass_path, damping_path,
                stiffness_path, input_path) -> None:
    """Write the four operators of a model, one file each.

    Structural operators use symmetric storage, the input map general.
    """
    save_matrix(mass_path, system.mass, symmetry="symmetric")
    save_matrix(damping_path, system.damping, symmetry="symmetric")
    save_matrix(stiffness_path, system.stiffness, symmetry="symmetric")
    save_matrix(input_path, system.input_map, symmetry="general")


def load_system(mass_path, damping_path, stiffness_path, input_path,
                label: str = "") -> SecondOrderSystem:
    """Assemble a model from four operator files.

    Mass, damping, and stiffness are replaced by their symmetric parts,
    so a general-storage file with a skew part gives symmetric operators.

    Raises
    ------
    FormatError
        If any file cannot be parsed.
    InvalidInputError
        If the operator dimensions are mutually inconsistent.
    """
    system = SecondOrderSystem(
        load_matrix(mass_path), load_matrix(damping_path),
        load_matrix(stiffness_path), load_matrix(input_path), label=label,
    )
    return replace(
        system, mass=symmetric_part(system.mass),
        damping=symmetric_part(system.damping),
        stiffness=symmetric_part(system.stiffness),
    )

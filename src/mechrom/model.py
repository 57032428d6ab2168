"""Second-order mechanical models and their on-disk representation.

A model is the operator quadruple (mass, damping, stiffness, input map)
of the governing equations

    mass @ x'' + damping @ x' + stiffness @ x = input_map @ u(t).

Full models and reduced models share the one container
:class:`SecondOrderSystem`: full models hold ``scipy.sparse`` CSR
structural operators, reduced models dense arrays. Builders for
proportional damping and for mass-spring chain benchmarks live here,
together with a plain-text sparse matrix format used for all operator
files.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

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


def _as_2d(name: str, A):
    """``A`` as a finite 2-D float array, or as CSR if it is sparse."""
    if sp.issparse(A):
        A = sp.csr_array(A, dtype=float)
        values = A.data
    else:
        A = values = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise InvalidInputError(f"{name} must be a 2-D array, got ndim={A.ndim}")
    if not np.all(np.isfinite(values)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return A


def symmetric_part(A):
    """The symmetric part ``(A + A.T) / 2``, dense or sparse as ``A`` is;
    an exactly symmetric ``A`` comes back unchanged."""
    return 0.5 * (A + A.T)


@dataclass(frozen=True)
class SecondOrderSystem:
    """Second-order model ``mass x'' + damping x' + stiffness x = input_map u``.

    Full, projected, mass-normalized and constrained reduced models all
    use this one type. The operators are stored as given after a shape
    and finiteness check; no symmetry is imposed here. Producers that
    promise symmetric operators (``load_system``, ``intrusive_reduce``,
    ``separate_operators``) apply :func:`symmetric_part` themselves.

    Full models (``build_mass_spring_chain``, ``load_system``) hold
    sparse structural operators; reduced models hold dense ones. The
    storage decides how ``newmark`` factors the model: SuperLU for a
    sparse effective matrix, dense LU otherwise.

    Parameters
    ----------
    mass, damping, stiffness : (n, n) ndarray or scipy.sparse matrix
        Structural operators. A sparse operator is stored as a CSR
        array (use ``.toarray()`` for dense work) and its stored values
        are checked for finiteness. A mass-normalized model carries the
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
            B = self.input_map
            B = _as_2d("input_map", B.toarray() if sp.issparse(B) else B)
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
        M = self.mass
        if sp.issparse(M):
            return (M.count_nonzero() == self.n
                    and bool(np.all(M.diagonal() == 1.0)))
        return bool(np.array_equal(M, np.eye(self.n)))


# ``perfbench/checks.py`` imports the model type under its former name.
SecondOrderOperators = SecondOrderSystem


def rayleigh_damping(mass, stiffness, alpha_r: float, beta_r: float):
    """Proportional damping ``alpha_r * mass + beta_r * stiffness``.

    Both coefficients must be nonnegative so that the result is positive
    semidefinite whenever mass and stiffness are positive definite. Two
    sparse operators give a CSR result, otherwise it is dense.
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
    All three are CSR arrays with no dense n x n array formed; the
    stiffness stores its 3n - 2 band entries.

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
        Sparse mass, damping and stiffness, dense (n, m) input map.
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

    M = sp.csr_array(sp.diags(masses))
    coupling = -stiffnesses[1:-1]
    K = sp.csr_array(sp.diags(
        [coupling, stiffnesses[:-1] + stiffnesses[1:], coupling], [-1, 0, 1]
    ))
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
    """Write a dense or sparse array to the coordinate text format.

    Exact zeros are not stored, and entries are written in row-major
    order, so a sparse array and its dense form give the same bytes.
    ``symmetry='symmetric'`` stores the lower triangle only and requires
    a square input; the strict symmetry of the input is not checked, the
    upper triangle is simply ignored.
    """
    A = sp.csr_array(_as_2d("matrix", A), copy=True)
    if symmetry not in ("general", "symmetric"):
        raise InvalidParameterError(f"unknown symmetry tag {symmetry!r}")
    rows, cols = A.shape
    if symmetry == "symmetric" and rows != cols:
        raise InvalidParameterError("symmetric storage requires a square matrix")
    A.sum_duplicates()  # sorts each row's column indices
    i = np.repeat(np.arange(rows), np.diff(A.indptr))
    j, v = A.indices, A.data
    keep = v != 0.0
    if symmetry == "symmetric":
        keep &= j <= i
    i, j, v = i[keep], j[keep], v[keep]
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{_HEADER_PREFIX} {symmetry}\n")
        fh.write(f"{rows} {cols} {v.size}\n")
        fh.write("".join(
            f"{a} {b} {FLOAT_FORMAT % x}\n"
            for a, b, x in zip((i + 1).tolist(), (j + 1).tolist(), v.tolist())
        ))


def _read_coordinates(path):
    """``(shape, rows, cols, values)`` of a coordinate text file, with
    zero-based indices; a symmetric file's off-diagonal entries are
    listed a second time, mirrored, after all stored entries.

    Any malformed line raises :class:`FormatError` carrying the 1-based
    line number.
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

    I = np.empty(nnz, dtype=np.intp)
    J = np.empty(nnz, dtype=np.intp)
    values = np.empty(nnz)
    for k, (lineno, ln) in enumerate(data_lines):
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
        I[k], J[k], values[k] = i - 1, j - 1, v
    if symmetry == "symmetric":
        off = I != J
        I, J = np.concatenate([I, J[off]]), np.concatenate([J, I[off]])
        values = np.concatenate([values, values[off]])
    return (rows, cols), I, J, values


def load_matrix(path) -> np.ndarray:
    """Read a coordinate text file back into a dense array.

    Symmetric files are mirrored into a full dense matrix and duplicate
    entries are summed. Any malformed line raises :class:`FormatError`
    carrying the 1-based line number.
    """
    shape, I, J, values = _read_coordinates(path)
    A = np.zeros(shape)
    np.add.at(A, (I, J), values)
    return A


def _load_sparse(path):
    """A coordinate text file as a CSR array, never dense."""
    shape, I, J, values = _read_coordinates(path)
    return sp.csr_array((values, (I, J)), shape=shape)


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
    """Assemble a full model from four operator files.

    Mass, damping, and stiffness come back as CSR arrays built straight
    from the file entries (no dense n x n array is formed), replaced by
    their symmetric parts, so a general-storage file with a skew part
    gives symmetric operators. The input map is dense. The operators are
    CSR whatever their density, so ``simulate`` factors the model with
    SuperLU.

    Raises
    ------
    FormatError
        If any file cannot be parsed.
    InvalidInputError
        If the operator dimensions are mutually inconsistent.
    """
    system = SecondOrderSystem(
        _load_sparse(mass_path), _load_sparse(damping_path),
        _load_sparse(stiffness_path), load_matrix(input_path), label=label,
    )
    return replace(
        system, mass=symmetric_part(system.mass),
        damping=symmetric_part(system.damping),
        stiffness=symmetric_part(system.stiffness),
    )

"""Second-order mechanical models and their on-disk representation.

A model is the operator quadruple (mass, damping, stiffness, input map)
of the governing equations

    mass @ x'' + damping @ x' + stiffness @ x = input_map @ u(t).

Full models and reduced models share the one container
:class:`SecondOrderSystem`: full models hold ``scipy.sparse`` CSR
structural operators, reduced models dense arrays. A reduced model holds
its operators only; the basis it lives in stays with the caller.
Builders for proportional damping and for mass-spring chain benchmarks
live here, together with a plain-text sparse matrix format used for all
operator files.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .errors import FormatError, InvalidInputError, InvalidParameterError
from .textio import read_header, read_table, row_line, write_table

__all__ = [
    "SecondOrderSystem",
    "symmetric_part",
    "rayleigh_damping",
    "build_mass_spring_chain",
    "save_matrix",
    "load_matrix",
    "save_system",
    "load_system",
]

def _as_2d(name: str, A):
    """``A`` as a finite 2-D float array, or as CSR if it is sparse."""
    if sp.issparse(A):
        A = sp.csr_array(A, dtype=float)
        values = A.data
    else:
        A = values = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise InvalidInputError(f"{name} must be a 2-D array, got ndim={A.ndim}")
    if not np.isfinite(values).all():
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
        fitted to force data, which is given an input map with
        ``dataclasses.replace`` to be replayed.
    label : str
        Free-form tag for the caller. mechrom neither sets nor reads
        it, and no artifact records it.
    """

    mass: np.ndarray
    damping: np.ndarray
    stiffness: np.ndarray
    input_map: np.ndarray | None = None
    label: str = ""

    def __post_init__(self):
        mass = _as_2d("mass", self.mass)
        n, cols = mass.shape
        if n == 0:
            raise InvalidInputError(f"mass must be at least 1x1, got 0x{cols}")
        for name in ("mass", "damping", "stiffness"):
            A = mass if name == "mass" else _as_2d(name, getattr(self, name))
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
    _check_rayleigh(alpha_r, beta_r)
    return alpha_r * M + beta_r * K


def _check_rayleigh(alpha_r, beta_r) -> None:
    if alpha_r < 0.0 or beta_r < 0.0:
        raise InvalidParameterError("alpha_r and beta_r must be nonnegative, "
                                    f"got alpha_r={alpha_r}, beta_r={beta_r}")


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
    masses = np.asarray(masses, dtype=float).ravel()
    stiffnesses = np.asarray(stiffnesses, dtype=float).ravel()
    input_nodes = list(input_nodes)
    _check_chain(n, masses, stiffnesses, alpha_r, beta_r, input_nodes)

    M = sp.csr_array(sp.diags(masses))
    coupling = -stiffnesses[1:-1]
    K = sp.csr_array(sp.diags(
        [coupling, stiffnesses[:-1] + stiffnesses[1:], coupling], [-1, 0, 1]
    ))
    C = rayleigh_damping(M, K, alpha_r, beta_r)
    B = np.zeros((n, len(input_nodes)))
    for j, node in enumerate(input_nodes):
        B[int(node), j] = 1.0
    return SecondOrderSystem(M, C, K, B)


def _check_chain(n, masses, stiffnesses, alpha_r, beta_r, input_nodes) -> None:
    """Raise InvalidParameterError unless the arguments describe a chain
    for :func:`build_mass_spring_chain`; ``input_nodes`` is a sequence."""
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    for name, values, count in (("masses", masses, n),
                                ("stiffnesses", stiffnesses, n + 1)):
        if np.size(values) != count:
            raise InvalidParameterError(
                f"expected {count} {name}, got {np.size(values)}")
        if np.any(np.less_equal(values, 0.0)):
            raise InvalidParameterError(f"all {name} must be positive")
    if len(input_nodes) == 0:
        raise InvalidParameterError("input_nodes must not be empty")
    for node in input_nodes:
        if not 0 <= int(node) < n:
            raise InvalidParameterError(
                f"input_nodes entry {node} outside range [0, {n - 1}]")
    _check_rayleigh(alpha_r, beta_r)


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
    write_table(path, f"{_HEADER_PREFIX} {symmetry}\n{rows} {cols} {v.size}",
                np.column_stack([i + 1, j + 1, v]), delimiter=" ")


# (wrong number of fields, field not a number) messages of the size
# line, the table's first row, and of an entry.
_MTX_MESSAGES = (
    ("size line must be 'rows cols nnz'", "size line must hold three integers"),
    ("entry must be 'row col value'", "could not parse entry"),
)


def _read_coordinates(path):
    """A coordinate text file as a COO array; a symmetric file's
    off-diagonal entries are listed a second time, mirrored, after all
    stored entries.

    The size line and the entries are read as one three-column table.
    Any malformed line raises :class:`FormatError` carrying the 1-based
    line number.
    """
    header = read_header(path)
    if header is None:
        raise FormatError("empty matrix file", path=path, line=1)
    header = header.strip()
    if not header.startswith(_HEADER_PREFIX):
        raise FormatError(
            f"expected header starting with {_HEADER_PREFIX!r}", path=path, line=1
        )
    symmetry = header[len(_HEADER_PREFIX):].strip()
    if symmetry not in ("general", "symmetric"):
        raise FormatError(f"unknown symmetry tag {symmetry!r}", path=path, line=1)
    table = read_table(path, 3, delimiter=None, messages=_MTX_MESSAGES)
    if not table.shape[0]:
        raise FormatError("missing size line", path=path, line=2)

    def fail(message, row=0):
        raise FormatError(message, path=path,
                          line=row_line(path, row, delimiter=None))

    # The size line, and the indices of each entry, are whole numbers.
    whole = np.isfinite(table) & (np.trunc(table) == table)
    if not whole[0].all():
        fail("size line must hold three integers")
    rows, cols, nnz = (int(x) for x in table[0])
    if rows < 1 or cols < 1 or nnz < 0:
        fail("invalid matrix dimensions")
    if symmetry == "symmetric" and rows != cols:
        fail("symmetric matrix must be square")
    if table.shape[0] != nnz + 1:
        fail(f"expected {nnz} entries, found {table.shape[0] - 1}", row=None)
    I, J, values = table[1:].T
    parsed = whole[1:, :2].all(axis=1)
    inside = (1 <= I) & (I <= rows) & (1 <= J) & (J <= cols)
    upper = (J > I) & (symmetry == "symmetric")
    bad = np.flatnonzero(~parsed | ~inside | upper)
    if bad.size:
        k = bad[0]
        if not parsed[k]:
            fail("could not parse entry", k + 1)
        if not inside[k]:
            fail(f"index ({int(I[k])}, {int(J[k])}) outside {rows}x{cols}", k + 1)
        fail("upper-triangle entry in symmetric file", k + 1)
    I, J = I.astype(np.intp) - 1, J.astype(np.intp) - 1
    if symmetry == "symmetric":
        off = I != J
        I, J = np.concatenate([I, J[off]]), np.concatenate([J, I[off]])
        values = np.concatenate([values, values[off]])
    return sp.coo_array((values, (I, J)), shape=(rows, cols))


def load_matrix(path) -> np.ndarray:
    """Read a coordinate text file back into a dense array.

    Symmetric files are mirrored into a full dense matrix and duplicate
    entries are summed. Any malformed line raises :class:`FormatError`
    carrying the 1-based line number.
    """
    return _read_coordinates(path).toarray()


def save_system(system: SecondOrderSystem, mass_path, damping_path,
                stiffness_path, input_path) -> None:
    """Write the four operators of a model, one file each.

    Structural operators use symmetric storage, the input map general.
    """
    save_matrix(mass_path, system.mass, symmetry="symmetric")
    save_matrix(damping_path, system.damping, symmetry="symmetric")
    save_matrix(stiffness_path, system.stiffness, symmetry="symmetric")
    save_matrix(input_path, system.input_map, symmetry="general")


def load_system(mass_path, damping_path, stiffness_path,
                input_path) -> SecondOrderSystem:
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
        _read_coordinates(mass_path), _read_coordinates(damping_path),
        _read_coordinates(stiffness_path), load_matrix(input_path),
    )
    return replace(
        system, mass=symmetric_part(system.mass),
        damping=symmetric_part(system.damping),
        stiffness=symmetric_part(system.stiffness),
    )

"""Output checks made apart from the program.

Every check reads the artifacts with the benchmark's own readers and
compares them with an independent computation (numpy, scipy) or with a
property the method must have. None compares against a stored copy of
earlier output. Each check belongs to the pipeline stage that wrote the
artifact it judges; :func:`check_all` returns the failure messages per
stage.
"""

from __future__ import annotations

import os

import numpy as np
import scipy.linalg as la

from tracing import STAGES

METHODS = ("pod", "opinf", "copinf")
EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# Readers.
# ---------------------------------------------------------------------------


def read_csv_matrix(path):
    """(times, A) from a ``t,<name>_1,...`` snapshot CSV; A is entries x times."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1:].T


def read_table(path):
    """Numeric rows of a headered CSV table."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_mtx(path):
    """Dense array from the program's ``%%matrix coordinate real
    <symmetry>`` files."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
    if header[:3] != ["%%matrix", "coordinate", "real"] or len(header) != 4:
        raise ValueError(f"{path}: unknown header {' '.join(header)}")
    symmetric = header[3] == "symmetric"
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    rows, cols, nnz = (int(p) for p in lines[1].split())
    A = np.zeros((rows, cols))
    for line in lines[2:2 + nnz]:
        i, j, v = line.split()
        A[int(i) - 1, int(j) - 1] = float(v)
        if symmetric:
            A[int(j) - 1, int(i) - 1] = float(v)
    return A


def read_errors(path):
    """(times, eps, phases) from an ``errors_<method>.csv``."""
    times, eps, phases = [], [], []
    with open(path, "r", encoding="ascii") as fh:
        next(fh)
        for line in fh:
            t, e, phase = line.strip().split(",")
            times.append(float(t))
            eps.append(float(e))
            phases.append(phase)
    return np.array(times), np.array(eps), phases


def read_basis(outdir):
    return read_mtx(os.path.join(outdir, "basis", "modes.mtx"))


def read_rom_displacement(outdir, method, V):
    """Lifted n-row replay trajectory of one method."""
    _, X = read_csv_matrix(os.path.join(outdir, f"rom_{method}", "displacement.csv"))
    if X.shape[0] != V.shape[0]:
        raise ValueError(f"rom_{method}/displacement.csv has {X.shape[0]} rows, "
                         f"expected {V.shape[0]}")
    return X


def read_rom_operators(outdir, method, V, B):
    """(M, E, K, Bred) of one method's learned or projected model."""
    def load(name):
        return read_mtx(os.path.join(outdir, method, f"{name}.mtx"))

    if method == "pod":
        return load("mass"), load("damping"), load("stiffness"), load("input")
    if method == "opinf":
        C, K, Bm = load("damping"), load("stiffness"), load("input")
        return np.eye(K.shape[0]), C, K, Bm
    return load("mass"), load("damping"), load("stiffness"), V.T @ B


# ---------------------------------------------------------------------------
# Independent reference solution of the full model.
# ---------------------------------------------------------------------------


def modal_reference(chain, times):
    """Closed-form response of the chain from rest, and a bound on the
    error of the trapezoidal (average-acceleration Newmark) solution.

    Rayleigh damping decouples the model in the mass-orthonormal modes
    of the pencil (K, M); each mode is the driven damped oscillator
    ``q'' + c q' + w^2 q = b A sin(W t)`` with q(0) = q'(0) = 0, solved
    in closed form. For the trapezoidal rule in the energy norm of
    ``(w q, q')`` each step's truncation error is at most
    ``dt^3 / 12 * max |y'''|`` and the damped step does not amplify it,
    so the displacement error of mode j after time t is at most

        dt^2 / 12 * t * max_s sqrt(q_j'''(s)^2 + q_j''''(s)^2 / w_j^2).

    Returns the reference displacement (n x N) and the error bound on
    ``max_t ||x(t) - x_ref(t)||`` that sums the mode bounds.
    """
    M, E, K, B = chain.operators()
    w2, Phi = la.eigh(K, M)
    w = np.sqrt(w2)
    c = chain.alpha_r + chain.beta_r * w2
    b = chain.amplitude * (Phi.T @ B[:, 0])
    W = 2.0 * np.pi * chain.frequency
    t = np.asarray(times)[None, :]

    H = (b / (w2 - W**2 + 1j * c * W))[:, None]
    disc = np.sqrt((c**2 - 4.0 * w2).astype(complex))
    s1 = ((-c + disc) / 2.0)[:, None]
    s2 = ((-c - disc) / 2.0)[:, None]
    a0 = -H.imag                  # c1 + c2 = -q_p(0)
    a1 = -W * H.real              # s1 c1 + s2 c2 = -q_p'(0)
    c2 = (a1 - s1 * a0) / (s2 - s1)
    c1 = a0 - c2
    e1, e2, ep = np.exp(s1 * t), np.exp(s2 * t), np.exp(1j * W * t)

    def derivative(k):
        return (H * (1j * W) ** k * ep).imag + (c1 * s1**k * e1 + c2 * s2**k * e2).real

    Q = derivative(0)
    growth = np.sqrt(derivative(3) ** 2 + (derivative(4) / w[:, None]) ** 2).max(axis=1)
    dt = float(times[1] - times[0])
    mode_bound = dt**2 / 12.0 * float(times[-1]) * growth
    bound = float(np.linalg.norm(Phi, axis=0) @ mode_bound)
    return Phi @ Q, bound


# ---------------------------------------------------------------------------
# Stage checks. Each returns a list of failure messages (empty: passed)
# and records the figures it computed in ``facts``.
# ---------------------------------------------------------------------------


def check_simulate(w, outdir, facts):
    times, X = read_csv_matrix(os.path.join(outdir, "fom", "test", "displacement.csv"))
    problems = []
    if X.shape != (w.chain.n, w.test_steps):
        return [f"fom/test displacement has shape {X.shape}, "
                f"expected {(w.chain.n, w.test_steps)}"]
    if not np.allclose(times, w.dt * np.arange(1, w.test_steps + 1), rtol=0, atol=1e-12):
        problems.append("fom/test times are not the dt grid")
    ref, bound = modal_reference(w.chain, times)
    # The closed form is only a few ulps from exact, and the second-order
    # bound covers the integrator; 1.5 absorbs maxima between samples.
    err = float(np.linalg.norm(X - ref, axis=0).max())
    facts["fom_error"] = err
    facts["fom_error_bound"] = bound
    facts["fom_scale"] = float(np.linalg.norm(ref, axis=0).max())
    if not err <= 1.5 * bound:
        problems.append(f"full-model trajectory is {err:.3e} from the closed form, "
                        f"above the second-order bound {bound:.3e}")
    facts["X"] = X
    facts["times"] = times
    return problems


def check_basis(w, outdir, facts):
    X = facts["X"][:, :w.train_steps]
    V = read_basis(outdir)
    facts["V"] = V
    problems = []
    r = V.shape[1]
    ortho = float(np.abs(V.T @ V - np.eye(r)).max())
    if not ortho <= 1e-10:
        problems.append(f"basis is not orthonormal: max |V'V - I| = {ortho:.3e}")
    s = np.linalg.svd(X, compute_uv=False)
    key, value = w.basis
    if key == "rank":
        expected = int(value)
    else:
        tail = np.append(s[1:], 0.0)
        expected = int(np.argmax(tail <= value * s[0])) + 1
    if r != expected:
        problems.append(f"basis rank {r}, the {key} rule on recomputed "
                        f"singular values gives {expected}")
    stored = read_table(os.path.join(outdir, "basis", "singular_values.csv"))[:, 1]
    if stored.shape != s.shape or not np.allclose(stored, s, rtol=0, atol=1e-9 * s[0]):
        problems.append("basis/singular_values.csv disagrees with the recomputed SVD")
    residual = X - V @ (V.T @ X)
    tail_energy = float(np.sum(s[r:] ** 2))
    measured = float(np.sum(residual**2))
    if not abs(measured - tail_energy) <= 1e-9 * s[0] ** 2 + 1e-6 * tail_energy:
        problems.append(f"projection error {measured:.6e} is not the tail energy "
                        f"{tail_energy:.6e} of the recomputed spectrum")
    return problems


def _train_data(w, outdir, facts):
    """Reduced training data recomputed from the full-model artifacts."""
    base = os.path.join(outdir, "fom", "test")
    n_train = w.train_steps
    V = facts["V"]
    blocks = {}
    for name in ("velocity", "acceleration", "input", "force"):
        blocks[name] = read_csv_matrix(os.path.join(base, f"{name}.csv"))[1][:, :n_train]
    Q = V.T @ facts["X"][:, :n_train]
    return Q, V.T @ blocks["velocity"], V.T @ blocks["acceleration"], blocks


def check_infer(w, outdir, facts):
    V = facts["V"]
    r = V.shape[1]
    problems = []
    table = read_table(os.path.join(outdir, "opinf", "lambda_table.csv"))
    lams, val = table[:, 0], table[:, 2]
    finite = np.isfinite(val)
    if not finite.any():
        return ["every lambda diverged in lambda_table.csv"]
    best = np.flatnonzero(finite & (val == val[finite].min()))
    lam = float(lams[best].max())       # ties go to the larger weight
    facts["lambda"] = lam
    C = read_mtx(os.path.join(outdir, "opinf", "damping.mtx"))
    K = read_mtx(os.path.join(outdir, "opinf", "stiffness.mtx"))
    Bm = read_mtx(os.path.join(outdir, "opinf", "input.mtx"))
    Q, Qd, Qdd, blocks = _train_data(w, outdir, facts)
    D = np.vstack([Qd, Q, blocks["input"]])
    P = np.hstack([-C, -K, Bm])
    if P.shape != (r, D.shape[0]):
        return [f"opinf operators have shape {P.shape}, expected {(r, D.shape[0])}"]
    # Ridge normal equations: P (D D' + lam I) = Qdd D'.
    residual = P @ (D @ D.T) + lam * P - Qdd @ D.T
    normD = np.linalg.norm(D, 2)
    scale = np.linalg.norm(P) * (normD**2 + lam) + np.linalg.norm(Qdd) * normD
    rel = float(np.linalg.norm(residual) / scale)
    facts["opinf_normal_eq"] = rel
    if not rel <= 1e-9:
        problems.append(f"opinf operators miss the ridge normal equations at "
                        f"lambda={lam!r}: relative residual {rel:.3e}")
    return problems


def pencil_eigenvalues(M, E, K):
    """Eigenvalues of s^2 M + s E + K from the companion form of the
    congruent pencil s^2 I + s L^-1 E L^-T + L^-1 K L^-T, M = L L'."""
    L = la.cholesky(M, lower=True)
    Kt = la.solve_triangular(L, la.solve_triangular(L, K, lower=True).T, lower=True)
    Et = la.solve_triangular(L, la.solve_triangular(L, E, lower=True).T, lower=True)
    r = M.shape[0]
    A = np.block([[np.zeros((r, r)), np.eye(r)], [-Kt, -Et]])
    return la.eigvals(A)


def check_infer_constrained(w, outdir, facts, omega=1e-8):
    problems = []
    M, E, K = (read_mtx(os.path.join(outdir, "copinf", f"{n}.mtx"))
               for n in ("mass", "damping", "stiffness"))
    for name, A, floor in (("mass", M, omega), ("stiffness", K, omega),
                           ("damping", E, 0.0)):
        if not np.array_equal(A, A.T):
            problems.append(f"copinf {name} is not symmetric")
        lo = float(np.linalg.eigvalsh(A).min())
        facts[f"copinf_eigmin_{name}"] = lo
        if not lo >= floor - 64 * EPS * np.linalg.norm(A, 2):
            problems.append(f"copinf {name} eigmin {lo:.3e} is below {floor:.1e}")
    if problems:
        return problems
    s = pencil_eigenvalues(M, E, K)
    top = float(s.real.max())
    facts["copinf_pencil_max_real"] = top
    if not top <= 1e-8 * float(np.abs(s).max()):
        problems.append(f"copinf pencil has an eigenvalue with real part {top:.3e}")
    return problems


def check_evaluate(w, outdir, facts, replays):
    """Error series, projection floors, off-basis replays, and agreement
    of each stored replay with the benchmark's own replay ``replays``."""
    problems = []
    X, times, V = facts["X"], facts["times"], facts["V"]
    split = w.train_t_end
    train = times <= split + 1e-9 * max(1.0, abs(split))
    scale = np.linalg.norm(X, axis=0).max()
    floor = np.linalg.norm(X - V @ (V.T @ X), axis=0) / scale
    facts["floor_train"] = float(floor[train].max())
    facts["floor_test"] = float(floor[~train].max())
    M, E, K, B = w.chain.operators()
    pod = [read_mtx(os.path.join(outdir, "pod", f"{n}.mtx"))
           for n in ("mass", "damping", "stiffness", "input")]
    for name, got, want in zip(("mass", "damping", "stiffness", "input"), pod,
                               (V.T @ M @ V, V.T @ E @ V, V.T @ K @ V, V.T @ B)):
        if got.shape != want.shape or not np.allclose(got, want, rtol=0,
                                                      atol=1e-12 * np.abs(want).max()):
            problems.append(f"pod/{name}.mtx is not the congruence V' A V")
    for method in METHODS:
        Xr = read_rom_displacement(outdir, method, V)
        off = np.linalg.norm(Xr - V @ (V.T @ Xr)) / max(np.linalg.norm(Xr), 1e-300)
        if not off <= 1e-10:
            problems.append(f"rom_{method} replay lies off the basis ({off:.3e})")
        mine = replays.get(method)
        if mine is not None:
            gap = np.abs(mine - Xr).max() / max(np.abs(Xr).max(), 1e-300)
            if not gap <= 1e-9:
                problems.append(f"rom_{method} differs from a replay of its stored "
                                f"operators by {gap:.3e}")
        eps = np.linalg.norm(X - Xr, axis=0) / scale
        facts[f"err_train.{method}"] = float(eps[train].max())
        facts[f"err_test.{method}"] = float(eps[~train].max())
        t_file, e_file, phases = read_errors(os.path.join(outdir, f"errors_{method}.csv"))
        if (t_file.shape != times.shape or not np.allclose(t_file, times, rtol=0, atol=1e-12)
                or not np.allclose(e_file, eps, rtol=1e-12, atol=1e-15)):
            problems.append(f"errors_{method}.csv disagrees with the recomputed series")
        elif phases != ["train" if p else "test" for p in train]:
            problems.append(f"errors_{method}.csv labels the phases wrongly")
        below = eps < floor - 1e-12
        if below.any():
            problems.append(f"{method} error is below the projection floor at "
                            f"{int(below.sum())} instants")
    return problems


def rom_replayers(w, outdir, V):
    """Per method, a function that replays the stored ROM over the test
    window from rest through ``newmark.simulate`` and returns the lifted
    trajectory."""
    from mechrom.model import SecondOrderOperators
    from mechrom.newmark import IntegratorConfig, simulate

    B = w.chain.operators()[3]
    models = {m: SecondOrderOperators(*read_rom_operators(outdir, m, V, B))
              for m in METHODS}
    config = IntegratorConfig(dt=w.dt, t_end=w.test_t_end)
    omega = 2.0 * np.pi * w.chain.frequency
    amplitude = w.chain.amplitude
    zero = np.zeros(V.shape[1])

    def sampler(t):
        return np.array([amplitude * np.sin(omega * t)])

    def replayer(ops):
        return lambda: V @ simulate(ops, sampler, zero, zero, config).displacement

    return {m: replayer(ops) for m, ops in models.items()}


def check_all(w, outdir, replays):
    """Failure messages per stage, plus the figures the checks computed.

    A stage whose inputs could not be read fails together with every
    later stage that needs them.
    """
    facts = {}
    failures = {stage: [] for stage in STAGES}
    steps = (("simulate", lambda: check_simulate(w, outdir, facts)),
             ("basis", lambda: check_basis(w, outdir, facts)),
             ("infer", lambda: check_infer(w, outdir, facts)),
             ("infer_constrained", lambda: check_infer_constrained(w, outdir, facts)),
             ("evaluate", lambda: check_evaluate(w, outdir, facts, replays)))
    for stage, fn in steps:
        try:
            failures[stage] = fn()
        except (OSError, ValueError, KeyError, IndexError, la.LinAlgError) as exc:
            failures[stage] = [f"{stage} artifacts unreadable: {exc!r}"]
    return failures, facts

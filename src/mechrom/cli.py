"""Command line driver for the reduction pipeline.

Subcommands map to pipeline stages that exchange artifacts through an
output directory, so a chained stage-by-stage invocation reproduces a
single ``run`` byte for byte:

    simulate            integrate the full model, write snapshot CSVs
    basis               compute the orthogonal basis from training data
    infer               fit the mass-normalized reduced model
    infer-constrained   fit the symmetric definite reduced model
    evaluate            replay every reduced model and write error series
    run                 all of the above plus manifest and timings

Configuration lives in an INI file with one section per concern; any
value a flag also covers can be overridden on the command line. All
artifacts are plain text with 17 significant digits, so identical
configuration produces identical bytes.

Exit codes: 0 success, 1 usage or configuration error, 2 unreadable or
inconsistent data, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__
from .errors import (
    DegenerateInputError,
    DivergenceError,
    FormatError,
    IllConditionedModesError,
    InsufficientDataError,
    InvalidComparisonError,
    InvalidInputError,
    InvalidParameterError,
    MechromError,
    MissingDataError,
    NoViableLambdaError,
    NotSeparableError,
    SingularOperatorError,
)
from .evaluate import relative_error, save_error_series
from .model import (
    FLOAT_FORMAT,
    SecondOrderSystem,
    build_mass_spring_chain,
    load_matrix,
    load_system,
    save_matrix,
)
from .newmark import IntegratorConfig, simulate
from .opinf import infer, select_lambda
from .copinf import DEFAULT_OMEGA, infer_constrained
from .pod import PodBasis, compute_basis, intrusive_reduce
from .snapshots import (
    CSV_NAMES,
    TrajectoryData,
    assemble_force_data,
    assemble_opinf_data,
    load_csv,
    project,
    read_matrix_csv,
    save_csv,
    write_matrix_csv,
)

__all__ = ["ExperimentConfig", "load_config", "run", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

_METHODS = ("pod", "opinf", "copinf")
_WAVEFORMS = ("sine", "constant", "chirp")

# Default regularization sweep: no regularization plus a log-spaced
# ladder from 1e-12 to 1.
DEFAULT_LAMBDA_GRID = [0.0] + list(np.logspace(-12.0, 0.0, 13))


class UsageError(MechromError):
    """Configuration or invocation problem; maps to exit code 1."""


# ---------------------------------------------------------------------------
# Configuration.
# ---------------------------------------------------------------------------


def _parse_str(section, key, raw):
    return raw


def _parse_float(section, key, raw):
    try:
        value = float(raw)
    except ValueError:
        raise UsageError(f"[{section}] {key} must be a number, got {raw!r}")
    if not math.isfinite(value):
        raise UsageError(f"[{section}] {key} must be finite, got {raw!r}")
    return value


def _parse_int(section, key, raw):
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"[{section}] {key} must be an integer, got {raw!r}")


def _parse_float_list(section, key, raw):
    try:
        values = [float(p) for p in raw.split(",") if p.strip()]
    except ValueError:
        raise UsageError(
            f"[{section}] {key} must be a comma-separated number list"
        )
    if not all(math.isfinite(v) for v in values):
        raise UsageError(f"[{section}] {key} must be finite, got {raw!r}")
    return values


def _parse_int_list(section, key, raw):
    try:
        return [int(p) for p in raw.split(",") if p.strip()]
    except ValueError:
        raise UsageError(f"[{section}] {key} must be a comma list of ints")


def _parse_str_list(section, key, raw):
    return [p.strip() for p in raw.split(",") if p.strip()]


def _parse_grid(section, key, raw):
    if raw == "default":
        return list(DEFAULT_LAMBDA_GRID)
    return _parse_float_list(section, key, raw)


def _option(section, parse, default=None, *, key=None, factory=None):
    """A config field read from ``[section] key`` by ``parse``; the key
    is the field name unless given."""
    metadata = {"section": section, "key": key, "parse": parse}
    if factory is not None:
        return field(default_factory=factory, metadata=metadata)
    return field(default=default, metadata=metadata)


@dataclass
class ExperimentConfig:
    """Fully resolved pipeline configuration; every field has its final
    value, defaults included, so the manifest can dump it verbatim.

    Each field declares the INI section and key it is read from and the
    parser of its value; this table is the only list of config keys.
    """

    kind: str = _option("system", _parse_str, "chain")
    n: int | None = _option("system", _parse_int)
    masses: list = _option("system", _parse_float_list, factory=list)
    stiffnesses: list = _option("system", _parse_float_list, factory=list)
    alpha_r: float = _option("system", _parse_float, 0.0)
    beta_r: float = _option("system", _parse_float, 0.0)
    input_nodes: list = _option("system", _parse_int_list, factory=lambda: [0])
    x0: list = _option("system", _parse_float_list, factory=list)
    v0: list = _option("system", _parse_float_list, factory=list)
    mass_path: str | None = _option("system", _parse_str)
    damping_path: str | None = _option("system", _parse_str)
    stiffness_path: str | None = _option("system", _parse_str)
    input_path: str | None = _option("system", _parse_str)
    dt: float = _option("integrator", _parse_float, 0.0)
    gamma: float | None = _option("integrator", _parse_float)
    beta: float | None = _option("integrator", _parse_float)
    alpha: float = _option("integrator", _parse_float, 0.0)
    waveform: str = _option("input", _parse_str, "sine")
    amplitude: float = _option("input", _parse_float, 1.0)
    frequency: float | None = _option("input", _parse_float)
    angular_frequency: float | None = _option("input", _parse_float)
    phase: float = _option("input", _parse_float, 0.0)
    value: float = _option("input", _parse_float, 1.0)
    f0: float | None = _option("input", _parse_float)
    f1: float | None = _option("input", _parse_float)
    sweep_time: float | None = _option("input", _parse_float)
    train_t_end: float = _option("training", _parse_float, 0.0, key="t_end")
    test_t_end: float = _option("testing", _parse_float, 0.0, key="t_end")
    rank: int | None = _option("basis", _parse_int)
    tol: float | None = _option("basis", _parse_float)
    energy: float | None = _option("basis", _parse_float)
    methods: list = _option("inference", _parse_str_list,
                            factory=lambda: list(_METHODS))
    lambda_grid: list = _option("inference", _parse_grid,
                                factory=lambda: list(DEFAULT_LAMBDA_GRID))
    omega: float = _option("inference", _parse_float, DEFAULT_OMEGA)
    directory: str = _option("output", _parse_str, "")
    seed: int = _option("output", _parse_int, 0)

    def manifest_dict(self) -> dict:
        """The configuration by INI section and key, with the gamma and
        beta the integrator resolves when they are unset."""
        out = {}
        for name, (section, key) in _INI_KEYS.items():
            out.setdefault(section, {})[key] = getattr(self, name)
        scheme = _integrator(self)
        out["integrator"].update(gamma=scheme.gamma, beta=scheme.beta)
        return out


# Field name -> (section, key) for every config field.
_INI_KEYS = {
    f.name: (f.metadata["section"], f.metadata["key"] or f.name)
    for f in fields(ExperimentConfig)
}
_KNOWN_KEYS = {
    section: {k for s, k in _INI_KEYS.values() if s == section}
    for section, _ in _INI_KEYS.values()
}

# [system] keys read under one kind only; the other kind leaves them at
# their defaults.
_CHAIN_KEYS = ("n", "masses", "stiffnesses", "input_nodes")
_FILES_KEYS = ("mass_path", "damping_path", "stiffness_path", "input_path")


def load_config(path) -> ExperimentConfig:
    """Parse and validate an INI configuration file."""
    # No interpolation: a "%" in a value (a directory name, say) is literal.
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}")
    except configparser.Error as exc:
        raise UsageError(f"malformed config {path}: {exc}")

    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise UsageError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _KNOWN_KEYS[section]:
                raise UsageError(f"unknown key {key!r} in section [{section}]")

    def get(section, key, default=None):
        if parser.has_option(section, key):
            return parser.get(section, key).strip()
        return default

    cfg = ExperimentConfig()
    cfg.kind = get("system", "kind", cfg.kind)
    if cfg.kind not in ("chain", "files"):
        raise UsageError(f"[system] kind must be chain or files, got {cfg.kind!r}")
    if cfg.kind == "chain":
        skipped = _FILES_KEYS
        # a single value broadcasts to every mass or spring below
        cfg.masses, cfg.stiffnesses = [1.0], [1.0]
    else:
        skipped = _CHAIN_KEYS
    for f in fields(cfg):
        section, key = _INI_KEYS[f.name]
        raw = get(section, key)
        if raw is not None and f.name not in skipped:
            setattr(cfg, f.name, f.metadata["parse"](section, key, raw))

    # system
    if cfg.kind == "chain":
        if cfg.n is None:
            raise UsageError("[system] n is required for kind = chain")
        if cfg.n < 1:
            raise UsageError(f"[system] n must be >= 1, got {cfg.n}")
        if len(cfg.masses) == 1:
            cfg.masses = cfg.masses * cfg.n
        if len(cfg.stiffnesses) == 1:
            cfg.stiffnesses = cfg.stiffnesses * (cfg.n + 1)
    else:
        for key in _FILES_KEYS:
            if getattr(cfg, key) is None:
                raise UsageError(f"[system] {key} is required for kind = files")

    for section, key in (("integrator", "dt"), ("training", "t_end"),
                         ("testing", "t_end")):
        if get(section, key) is None:
            raise UsageError(f"[{section}] {key} is required")
    if cfg.dt <= 0.0:
        raise UsageError(f"[integrator] dt must be positive, got {cfg.dt}")

    # input signal
    if cfg.waveform not in _WAVEFORMS:
        raise UsageError(
            f"[input] waveform must be one of {', '.join(_WAVEFORMS)}, "
            f"got {cfg.waveform!r}"
        )
    if cfg.waveform == "sine":
        given = (cfg.frequency is not None) + (cfg.angular_frequency is not None)
        if given != 1:
            raise UsageError(
                "[input] sine needs exactly one of frequency, angular_frequency"
            )
    if cfg.waveform == "chirp":
        if cfg.f0 is None or cfg.f1 is None or cfg.sweep_time is None:
            raise UsageError("[input] chirp needs f0, f1, and sweep_time")
        if cfg.sweep_time <= 0.0:
            raise UsageError("[input] sweep_time must be positive")

    # horizons
    if cfg.train_t_end < cfg.dt:
        raise UsageError("[training] t_end must cover at least one step")
    if cfg.test_t_end < cfg.train_t_end:
        raise UsageError(
            f"[testing] t_end ({cfg.test_t_end}) must be >= "
            f"[training] t_end ({cfg.train_t_end})"
        )

    _check_basis_selectors(cfg)

    # inference
    if not cfg.methods:
        raise UsageError("[inference] methods must not be empty")
    for method in cfg.methods:
        if method not in _METHODS:
            raise UsageError(
                f"[inference] unknown method {method!r}; "
                f"choose from {', '.join(_METHODS)}"
            )
    if not cfg.lambda_grid:
        raise UsageError("[inference] lambda_grid must not be empty")
    if any(g < 0.0 for g in cfg.lambda_grid):
        raise UsageError("[inference] lambda_grid values must be >= 0")
    if cfg.omega <= 0.0:
        raise UsageError(f"[inference] omega must be positive, got {cfg.omega}")
    return cfg


def _check_basis_selectors(cfg: ExperimentConfig):
    given = sum(v is not None for v in (cfg.rank, cfg.tol, cfg.energy))
    if given != 1:
        raise UsageError(
            "[basis] exactly one of rank, tol, energy must be set"
        )
    if cfg.rank is not None and cfg.rank < 1:
        raise UsageError(f"[basis] rank must be >= 1, got {cfg.rank}")
    if cfg.tol is not None and not 0.0 < cfg.tol < 1.0:
        raise UsageError(f"[basis] tol must lie in (0, 1), got {cfg.tol}")
    if cfg.energy is not None and not 0.0 < cfg.energy < 1.0:
        raise UsageError(f"[basis] energy must lie in (0, 1), got {cfg.energy}")


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    if getattr(args, "out", None):
        cfg.directory = args.out
    if getattr(args, "method", None):
        methods = []
        for chunk in args.method:
            methods.extend(p.strip() for p in chunk.split(",") if p.strip())
        for method in methods:
            if method not in _METHODS:
                raise UsageError(f"--method: unknown method {method!r}")
        if not methods:
            raise UsageError("--method must name at least one method")
        cfg.methods = methods
    rank, tol = getattr(args, "rank", None), getattr(args, "tol", None)
    if rank is not None and tol is not None:
        raise UsageError("--rank and --tol are mutually exclusive")
    if rank is not None:
        cfg.rank, cfg.tol, cfg.energy = rank, None, None
    if tol is not None:
        cfg.rank, cfg.tol, cfg.energy = None, tol, None
    _check_basis_selectors(cfg)
    if getattr(args, "lam", None) is not None:
        if not math.isfinite(args.lam):
            raise UsageError(f"--lambda must be finite, got {args.lam}")
        if args.lam < 0.0:
            raise UsageError(f"--lambda must be >= 0, got {args.lam}")
        cfg.lambda_grid = [args.lam]
    if getattr(args, "omega", None) is not None:
        if not math.isfinite(args.omega):
            raise UsageError(f"--omega must be finite, got {args.omega}")
        if args.omega <= 0.0:
            raise UsageError(f"--omega must be positive, got {args.omega}")
        cfg.omega = args.omega
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if not cfg.directory:
        raise UsageError("no output directory: set [output] directory or --out")
    return cfg


# ---------------------------------------------------------------------------
# Shared stage pieces.
# ---------------------------------------------------------------------------


def _tag_stage(exc: BaseException, name: str) -> None:
    # First tag wins: the innermost stage is the one to report.
    if not hasattr(exc, "stage"):
        try:
            exc.stage = name
        except AttributeError:  # pragma: no cover
            pass


def _build_system(cfg: ExperimentConfig) -> SecondOrderSystem:
    if cfg.kind == "chain":
        try:
            return build_mass_spring_chain(
                cfg.n,
                cfg.masses,
                cfg.stiffnesses,
                alpha_r=cfg.alpha_r,
                beta_r=cfg.beta_r,
                input_nodes=cfg.input_nodes,
            )
        except (MechromError, OSError) as exc:
            _tag_stage(exc, "build_system")
            raise
    try:
        return load_system(
            cfg.mass_path,
            cfg.damping_path,
            cfg.stiffness_path,
            cfg.input_path,
            label="files",
        )
    except (MechromError, OSError) as exc:
        _tag_stage(exc, "load_system")
        raise


def _waveform(cfg: ExperimentConfig):
    if cfg.waveform == "sine":
        w = (
            cfg.angular_frequency
            if cfg.angular_frequency is not None
            else 2.0 * np.pi * cfg.frequency
        )
        return lambda t: cfg.amplitude * np.sin(w * t + cfg.phase)
    if cfg.waveform == "constant":
        return lambda t: cfg.value
    f0, f1, sweep = cfg.f0, cfg.f1, cfg.sweep_time

    def chirp(t):
        return cfg.amplitude * np.sin(
            cfg.phase + 2.0 * np.pi * (f0 * t + (f1 - f0) * t * t / (2.0 * sweep))
        )

    return chirp


def _input_sampler(cfg: ExperimentConfig, m: int):
    wave = _waveform(cfg)
    return lambda t: np.full(m, wave(t))


def _initial_conditions(cfg: ExperimentConfig, n: int):
    def expand(values, name):
        if not values:
            return np.zeros(n)
        if len(values) == 1:
            return np.full(n, values[0])
        if len(values) != n:
            raise InvalidInputError(
                f"[system] {name} has {len(values)} entries for dimension {n}"
            )
        return np.asarray(values)

    return expand(cfg.x0, "x0"), expand(cfg.v0, "v0")


def _integrator(cfg: ExperimentConfig) -> IntegratorConfig:
    """The scheme over the test window: the full model and every reduced
    replay integrate with it, and the manifest records its gamma, beta."""
    return IntegratorConfig(
        dt=cfg.dt, t_end=cfg.test_t_end, gamma=cfg.gamma, beta=cfg.beta,
        alpha=cfg.alpha,
    )


def _train_columns(cfg: ExperimentConfig) -> int:
    return IntegratorConfig(dt=cfg.dt, t_end=cfg.train_t_end).num_steps


def _check_training_window(count: int, available: int) -> None:
    if available < count:
        raise InvalidInputError(
            f"the training window needs {count} snapshots, fom/test holds "
            f"{available}"
        )


def _fom_paths(outdir, blocks) -> dict:
    """Paths of those of ``blocks`` that the stored full-model trajectory
    holds; it is written once, over the test window."""
    base = os.path.join(outdir, "fom", "test")
    paths = {key: os.path.join(base, CSV_NAMES[key]) for key in blocks}
    return {key: path for key, path in paths.items() if os.path.exists(path)}


def _load_fom_displacement(outdir, max_rows=None):
    """Times and displacement block of the stored full-model trajectory."""
    paths = _fom_paths(outdir, ("displacement",))
    if not paths:
        raise MissingDataError("no displacement file to load")
    return read_matrix_csv(paths["displacement"], max_rows)


def _load_training(cfg: ExperimentConfig, outdir, blocks) -> TrajectoryData:
    """The training window of the stored full-model trajectory: its
    first training columns, of ``blocks`` only."""
    count = _train_columns(cfg)
    data = load_csv(_fom_paths(outdir, blocks), max_rows=count)
    _check_training_window(count, data.num_snapshots)
    return data


def _basis_dir(outdir):
    return os.path.join(outdir, "basis")


def _load_basis(outdir) -> PodBasis:
    modes_path = os.path.join(_basis_dir(outdir), "modes.mtx")
    svals_path = os.path.join(_basis_dir(outdir), "singular_values.csv")
    if not (os.path.exists(modes_path) and os.path.exists(svals_path)):
        raise MissingDataError(
            f"no basis artifacts under {outdir}; run the basis stage first"
        )
    modes = load_matrix(modes_path)
    svals = []
    with open(svals_path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    for lineno, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        parts = ln.split(",")
        if len(parts) != 2:
            raise FormatError("expected 'index,sigma'", path=svals_path, line=lineno)
        try:
            svals.append(float(parts[1]))
        except ValueError:
            raise FormatError("non-numeric sigma", path=svals_path, line=lineno)
    return PodBasis(modes=modes, singular_values=np.asarray(svals))


def _save_operators(directory, symmetric, **operators) -> None:
    """Write each operator to ``<name>.mtx`` under ``directory``. The
    input map is rectangular, so it is stored general in any case."""
    os.makedirs(directory, exist_ok=True)
    for name, A in operators.items():
        symmetry = "symmetric" if symmetric and name != "input" else "general"
        save_matrix(os.path.join(directory, f"{name}.mtx"), A,
                    symmetry=symmetry)


def _load_operators(directory, names, stage) -> dict:
    """The operators ``names`` that ``stage`` wrote under ``directory``."""
    paths = {name: os.path.join(directory, f"{name}.mtx") for name in names}
    for name, path in paths.items():
        if not os.path.exists(path):
            raise MissingDataError(
                f"no {name}.mtx under {directory}; run the {stage} stage first"
            )
    return {name: load_matrix(path) for name, path in paths.items()}


def _write_table_csv(path, header, rows):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(FLOAT_FORMAT % v for v in row) + "\n")


# ---------------------------------------------------------------------------
# Stages.
# ---------------------------------------------------------------------------


def stage_simulate(cfg: ExperimentConfig, outdir) -> None:
    system = _build_system(cfg)
    sampler = _input_sampler(cfg, system.m)
    x0, v0 = _initial_conditions(cfg, system.n)
    data = simulate(system, sampler, x0, v0, _integrator(cfg))
    save_csv(data, os.path.join(outdir, "fom", "test"))
    print(f"simulate: {_train_columns(cfg)} training and "
          f"{data.num_snapshots} test snapshots")


def stage_basis(cfg: ExperimentConfig, outdir) -> None:
    count = _train_columns(cfg)
    times, X = _load_fom_displacement(outdir, count)
    _check_training_window(count, times.size)
    basis = compute_basis(X, rank=cfg.rank, tol=cfg.tol, energy=cfg.energy)
    bdir = _basis_dir(outdir)
    os.makedirs(bdir, exist_ok=True)
    save_matrix(os.path.join(bdir, "modes.mtx"), basis.modes, symmetry="general")
    s = basis.singular_values
    _write_table_csv(
        os.path.join(bdir, "singular_values.csv"),
        "index,sigma",
        [(i + 1, s[i]) for i in range(s.size)],
    )
    _write_table_csv(
        os.path.join(bdir, "decay.csv"),
        "index,ratio",
        [(i + 1, s[i] / s[0]) for i in range(s.size)],
    )
    print(f"basis: selected rank r = {basis.rank}")


def stage_infer(cfg: ExperimentConfig, outdir) -> None:
    if "opinf" not in cfg.methods:
        return
    train = _load_training(
        cfg, outdir, ("displacement", "velocity", "acceleration", "input")
    )
    basis = _load_basis(outdir)
    rdata = project(train, basis)
    D, rhs = assemble_opinf_data(rdata)
    lam, trials = select_lambda(D, rhs, cfg.lambda_grid, rdata)
    rom, report = infer(D, rhs, lam, basis=basis)
    mdir = os.path.join(outdir, "opinf")
    _save_operators(mdir, symmetric=False, damping=rom.damping,
                    stiffness=rom.stiffness, input=rom.input_map)
    _write_table_csv(
        os.path.join(mdir, "lambda_table.csv"),
        "lambda,train_residual,validation_error,operator_norm",
        [(t.lam, t.train_residual, t.validation_error, t.operator_norm)
         for t in trials],
    )
    print(f"infer: selected lambda = {FLOAT_FORMAT % lam} "
          f"(residual {report.residual:.3e})")


def stage_infer_constrained(cfg: ExperimentConfig, outdir) -> None:
    if "copinf" not in cfg.methods:
        return
    train = _load_training(
        cfg, outdir, ("displacement", "velocity", "acceleration", "force")
    )
    basis = _load_basis(outdir)
    D, rhs = assemble_force_data(project(train, basis))
    mdir = os.path.join(outdir, "copinf")
    os.makedirs(mdir, exist_ok=True)
    rom, report = infer_constrained(
        D, rhs, omega=cfg.omega, basis=basis,
        trace_path=os.path.join(mdir, "trace.csv"),
    )
    _save_operators(mdir, symmetric=True, mass=rom.mass, damping=rom.damping,
                    stiffness=rom.stiffness)
    print(
        f"infer-constrained: objective {report.objective:.6e} after "
        f"{report.iterations} iterations"
        + ("" if report.converged else " (iteration limit)")
    )


def stage_evaluate(cfg: ExperimentConfig, outdir) -> None:
    system = _build_system(cfg)
    basis = _load_basis(outdir)
    V = basis.modes
    times, X = _load_fom_displacement(outdir)
    x0, v0 = _initial_conditions(cfg, system.n)

    diverged = []
    for method in cfg.methods:
        if method == "pod":
            model = intrusive_reduce(system, basis)
            _save_operators(
                os.path.join(outdir, "pod"), symmetric=True,
                mass=model.mass, damping=model.damping,
                stiffness=model.stiffness, input=model.input_map,
            )
        elif method == "opinf":
            ops = _load_operators(os.path.join(outdir, "opinf"),
                                  ("damping", "stiffness", "input"), "infer")
            model = SecondOrderSystem(np.eye(basis.rank), ops["damping"],
                                      ops["stiffness"], ops["input"])
        else:
            model = SecondOrderSystem(
                **_load_operators(os.path.join(outdir, "copinf"),
                                  ("mass", "damping", "stiffness"),
                                  "infer-constrained"),
                input_map=V.T @ system.input_map,
            )

        # A diverged replay overflows quietly here; it is reported below,
        # once every method has written its artifacts.
        with np.errstate(over="ignore", invalid="ignore"):
            reduced = simulate(model, _input_sampler(cfg, model.m), V.T @ x0,
                               V.T @ v0, _integrator(cfg))
            lifted = V @ reduced.displacement
            if lifted.shape[1] != times.size:
                raise InvalidInputError(
                    f"replay produced {lifted.shape[1]} snapshots, test data "
                    f"has {times.size}"
                )
            series = relative_error(
                X, lifted, times=times, phase_split=cfg.train_t_end,
            )
        rom_dir = os.path.join(outdir, f"rom_{method}")
        os.makedirs(rom_dir, exist_ok=True)
        write_matrix_csv(
            os.path.join(rom_dir, "displacement.csv"), times, lifted, "x"
        )
        save_error_series(series, os.path.join(outdir, f"errors_{method}.csv"))
        print(f"evaluate: {method} max relative error {series.max_eps:.6e}")
        if not np.all(np.isfinite(lifted)):
            diverged.append(method)
    if diverged:
        raise DivergenceError(
            f"the replay of {', '.join(diverged)} left the finite range"
        )


_STAGES = [
    ("simulate", stage_simulate),
    ("basis", stage_basis),
    ("infer", stage_infer),
    ("infer_constrained", stage_infer_constrained),
    ("evaluate", stage_evaluate),
]


def run(cfg: ExperimentConfig, outdir) -> None:
    """Execute every stage, then write the manifest and stage timings.

    The manifest records the fully resolved configuration (defaults
    made explicit) and the tool version; per-stage wall-clock goes to a
    separate timings.csv, which is the only artifact that varies
    between identical runs.
    """
    os.makedirs(outdir, exist_ok=True)
    timings = []
    for name, fn in _STAGES:
        start = time.perf_counter()
        try:
            fn(cfg, outdir)
        except (MechromError, OSError) as exc:
            _tag_stage(exc, name)
            raise
        timings.append((name, time.perf_counter() - start))

    manifest = {
        "tool": "mechrom",
        "version": __version__,
        "config": cfg.manifest_dict(),
    }
    with open(os.path.join(outdir, "manifest.json"), "w", encoding="ascii",
              newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(outdir, "timings.csv"), "w", encoding="ascii",
              newline="\n") as fh:
        fh.write("stage,seconds\n")
        for name, seconds in timings:
            fh.write(f"{name},{seconds:.6f}\n")


# ---------------------------------------------------------------------------
# Argument parsing and dispatch.
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage problems, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="mechrom", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "simulate": "integrate the full model and write snapshot CSVs",
        "basis": "compute the orthogonal basis from training snapshots",
        "infer": "fit the mass-normalized reduced model",
        "infer-constrained": "fit the symmetric definite reduced model",
        "evaluate": "replay reduced models and write error series",
        "run": "run the whole pipeline and write the manifest",
    }
    for name, help_text in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="INI configuration file")
        p.add_argument("--out", help="artifact directory (overrides config)")
        p.add_argument("--method", action="append",
                       help="restrict methods (repeatable, comma lists allowed)")
        p.add_argument("--rank", type=int, help="basis rank (overrides config)")
        p.add_argument("--tol", type=float,
                       help="basis truncation tolerance (overrides config)")
        p.add_argument("--lambda", dest="lam", type=float,
                       help="single regularization weight (overrides the grid)")
        p.add_argument("--omega", type=float,
                       help="definiteness margin (overrides config)")
        p.add_argument("--seed", type=int, help="seed recorded in the manifest")
    return parser


_COMMANDS = {name.replace("_", "-"): (name, fn) for name, fn in _STAGES}

_DATA_ERRORS = (
    FormatError,
    InvalidInputError,
    InvalidComparisonError,
    MissingDataError,
    InsufficientDataError,
    OSError,
)
_NUMERICAL_ERRORS = (
    SingularOperatorError,
    DegenerateInputError,
    NotSeparableError,
    IllConditionedModesError,
    NoViableLambdaError,
    DivergenceError,
)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    stage = "configure"
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        outdir = cfg.directory
        if args.command == "run":
            stage = "run"
            run(cfg, outdir)
        else:
            stage, fn = _COMMANDS[args.command]
            os.makedirs(outdir, exist_ok=True)
            try:
                fn(cfg, outdir)
            except (MechromError, OSError) as exc:
                _tag_stage(exc, stage)
                raise
    except (UsageError, InvalidParameterError) as exc:
        error, code = exc, EXIT_USAGE
    except _NUMERICAL_ERRORS as exc:
        error, code = exc, EXIT_NUMERICAL
    except _DATA_ERRORS as exc:
        error, code = exc, EXIT_DATA
    else:
        return EXIT_OK
    print(f"error in stage '{getattr(error, 'stage', stage)}': {error}",
          file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

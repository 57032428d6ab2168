"""Command line driver for the reduction pipeline.

Subcommands map to pipeline stages that write their artifacts to an
output directory. Every trajectory file, a ``fom/test`` block or a
lifted replay, goes through ``snapshots.save_csv`` and ``load_csv``.
The stages of one command pass each other their results in memory; a
result that no stage of the command computed is parsed from the
directory the first time a stage asks for it, so ``run`` parses nothing
and a stage run on its own parses what it reads. Both paths see the
same doubles in the same layout and write the same bytes, so a chained
stage-by-stage invocation reproduces a single ``run`` byte for byte:

    simulate            integrate the full model, write snapshot CSVs
    basis               compute the orthogonal basis from training data
    infer               fit the mass-normalized reduced model
    infer-constrained   fit the symmetric definite reduced model
    evaluate            replay every reduced model and write error series
    run                 all of the above plus manifest and timings

Configuration lives in an INI file with one section per concern; each
flag overrides one INI key and is parsed and checked as that key. Every
setting is checked before the first stage, by the rule of the code that
uses it, except the length of x0 and v0 under kind = files: the system
files give the dimension. All artifacts are plain text with 17
significant digits, so identical configuration produces identical bytes
when the BLAS thread count is the same too: at another count a threaded
BLAS kernel may sum in another order. The manifest records the thread
counts of numpy's and scipy's OpenBLAS.

Exit codes: 0 success, 1 usage or configuration error, 2 unreadable or
inconsistent data, or data that does not fit in memory, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import configparser
import ctypes
import json
import math
import os
import platform
import sys
import time
from dataclasses import dataclass, field, fields, replace
from typing import get_args

import numpy as np
import scipy
from numpy.linalg import _umath_linalg
from scipy.linalg import _flapack

from . import __version__
from .errors import (
    DegenerateInputError,
    DivergenceError,
    FormatError,
    InsufficientDataError,
    InvalidInputError,
    InvalidParameterError,
    MechromError,
    MissingDataError,
    NoViableLambdaError,
    SingularOperatorError,
)
from .evaluate import (
    STABILITY_TOL,
    pencil_spectrum,
    relative_error,
    save_error_series,
)
from .model import (
    SecondOrderSystem,
    _check_chain,
    build_mass_spring_chain,
    load_matrix,
    load_system,
    save_matrix,
)
from .newmark import IntegratorConfig, simulate
from .opinf import infer, select_lambda
from .copinf import DEFAULT_OMEGA, _check_omega, infer_constrained
from .pod import PodBasis, _check_selector, compute_basis, intrusive_reduce
from .snapshots import (
    TrajectoryData,
    assemble_force_data,
    assemble_opinf_data,
    load_csv,
    project,
    save_csv,
)
from .textio import FLOAT_FORMAT, read_table, write_table

__all__ = ["ExperimentConfig", "load_config", "run", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

_METHODS = ("pod", "opinf", "copinf")

# Default regularization sweep: no regularization plus a log-spaced
# ladder from 1e-12 to 1.
DEFAULT_LAMBDA_GRID = [0.0] + list(np.logspace(-12.0, 0.0, 13))


class UsageError(MechromError):
    """Configuration or invocation problem; maps to exit code 1."""


# ---------------------------------------------------------------------------
# Configuration.
# ---------------------------------------------------------------------------


# What a bad value of a type must be instead, alone and in a comma list.
_TYPE_WORDS = {
    int: ("an integer, got {raw!r}", "a comma list of ints"),
    float: ("a number, got {raw!r}", "a comma-separated number list"),
}


def _parse(section, key, raw, type):
    """``raw`` read as a value of ``type``: ``str``, ``int``, ``float`` or
    a comma list of one of them (``list[float]``, say). ``lambda_grid``'s
    word ``default`` is the default grid."""
    if key == "lambda_grid" and raw == "default":
        return list(DEFAULT_LAMBDA_GRID)
    (item,) = get_args(type) or (type,)
    listed = item is not type
    texts = ([t.strip() for t in raw.split(",") if t.strip()] if listed
             else [raw])
    try:
        values = [item(text) for text in texts]
    except ValueError:
        words = _TYPE_WORDS[item][listed].format(raw=raw)
        raise UsageError(f"[{section}] {key} must be {words}")
    if item is float and not all(math.isfinite(v) for v in values):
        raise UsageError(f"[{section}] {key} must be finite, got {raw!r}")
    return values if listed else values[0]


def _option(section, type, default=None, *, key=None, kind=None,
            required=False):
    """A config field of value ``type`` (see :func:`_parse`) read from
    ``[section] key``, the key being the field name unless given; a list
    default is copied per config."""
    metadata = {"section": section, "key": key, "type": type,
                "kind": kind, "required": required}
    if isinstance(default, list):
        return field(default_factory=lambda: list(default), metadata=metadata)
    return field(default=default, metadata=metadata)


@dataclass
class ExperimentConfig:
    """Fully resolved pipeline configuration; every field has its final
    value, defaults included, so the manifest can dump it verbatim.

    Each field declares the INI section and key it is read from, the
    type of its value, whether it is required, and the system kind, if
    any, under which alone it is read. This table is the only list of
    config keys; ``kind`` comes first, as the fields read depend on it.
    """

    kind: str = _option("system", str, "chain")
    n: int | None = _option("system", int, kind="chain", required=True)
    masses: list = _option("system", list[float], [], kind="chain")
    stiffnesses: list = _option("system", list[float], [], kind="chain")
    alpha_r: float = _option("system", float, 0.0, kind="chain")
    beta_r: float = _option("system", float, 0.0, kind="chain")
    input_nodes: list = _option("system", list[int], [0], kind="chain")
    x0: list = _option("system", list[float], [])
    v0: list = _option("system", list[float], [])
    mass_path: str | None = _option("system", str, kind="files",
                                    required=True)
    damping_path: str | None = _option("system", str, kind="files",
                                       required=True)
    stiffness_path: str | None = _option("system", str, kind="files",
                                         required=True)
    input_path: str | None = _option("system", str, kind="files",
                                     required=True)
    dt: float = _option("integrator", float, 0.0, required=True)
    gamma: float | None = _option("integrator", float)
    beta: float | None = _option("integrator", float)
    alpha: float = _option("integrator", float, 0.0)
    waveform: str = _option("input", str, "sine")
    amplitude: float = _option("input", float, 1.0)
    frequency: float | None = _option("input", float)
    angular_frequency: float | None = _option("input", float)
    phase: float = _option("input", float, 0.0)
    value: float = _option("input", float, 1.0)
    f0: float | None = _option("input", float)
    f1: float | None = _option("input", float)
    sweep_time: float | None = _option("input", float)
    train_t_end: float = _option("training", float, 0.0, key="t_end",
                                 required=True)
    test_t_end: float = _option("testing", float, 0.0, key="t_end",
                                required=True)
    rank: int | None = _option("basis", int)
    tol: float | None = _option("basis", float)
    energy: float | None = _option("basis", float)
    methods: list = _option("inference", list[str], list(_METHODS))
    lambda_grid: list = _option("inference", list[float], DEFAULT_LAMBDA_GRID)
    omega: float = _option("inference", float, DEFAULT_OMEGA)
    directory: str = _option("output", str, "")
    seed: int = _option("output", int, 0)

    def manifest_dict(self) -> dict:
        """The configuration by INI section and key, with the gamma and
        beta the integrator resolves when they are unset. The output
        directory is left out: it is where the manifest is written, not
        part of the experiment."""
        out = {}
        for name, (section, key) in _INI_KEYS.items():
            if name != "directory":
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


def _check_section(section, check, *args) -> None:
    """Run ``check(*args)``; its InvalidParameterError becomes a usage
    error that names ``[section]``."""
    try:
        check(*args)
    except InvalidParameterError as exc:
        raise UsageError(f"[{section}] {exc}") from exc


def load_config(path, overrides=None) -> ExperimentConfig:
    """Parse and validate an INI configuration file.

    ``overrides`` maps ``(section, key)`` to a raw value that replaces
    the file's; it is parsed and checked as if the file held it. A
    ``[basis]`` override replaces every basis selector of the file.
    """
    # No interpolation: a "%" in a value (a directory name, say) is literal.
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#", ";"))
    try:
        # utf-8-sig: a leading byte-order mark is not part of the text.
        with open(path, "r", encoding="utf-8-sig") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise UsageError(f"malformed config {path}: {exc}")
    overrides = overrides or {}
    if any(s == "basis" for s, _ in overrides) and parser.has_section("basis"):
        for selector in ("rank", "tol", "energy"):
            parser.remove_option("basis", selector)
    for (section, key), raw in overrides.items():
        parser.read_dict({section: {key: raw}})

    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise UsageError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _KNOWN_KEYS[section]:
                raise UsageError(f"unknown key {key!r} in section [{section}]")

    cfg = ExperimentConfig()
    for f in fields(cfg):
        section, key = _INI_KEYS[f.name]
        kind, raw = f.metadata["kind"], parser.get(section, key, fallback=None)
        if kind not in (None, cfg.kind):
            continue
        if raw is not None:
            setattr(cfg, f.name,
                    _parse(section, key, raw.strip(), f.metadata["type"]))
        elif f.metadata["required"]:
            raise UsageError(f"[{section}] {key} is required"
                             + (f" for kind = {kind}" if kind else ""))
    if cfg.kind not in ("chain", "files"):
        raise UsageError(f"[system] kind must be chain or files, got {cfg.kind!r}")

    _check_section("input", _waveform, cfg)
    if cfg.test_t_end < cfg.train_t_end:
        raise UsageError(
            f"[testing] t_end ({cfg.test_t_end}) must be >= "
            f"[training] t_end ({cfg.train_t_end})"
        )

    # The rules of the code that uses these settings, run here so that
    # every command fails before its first stage.
    if cfg.kind == "chain":
        # One value, 1.0 where the key is unset, is every mass or spring.
        for name, count in (("masses", cfg.n), ("stiffnesses", cfg.n + 1)):
            given = parser.has_option("system", name)
            values = getattr(cfg, name) if given else [1.0]
            if len(values) == 1:
                setattr(cfg, name, values * count)
        _check_section("system", _check_chain, cfg.n, cfg.masses,
                       cfg.stiffnesses, cfg.alpha_r, cfg.beta_r,
                       cfg.input_nodes)
        try:
            _initial_conditions(cfg, cfg.n)
        except InvalidInputError as exc:
            raise UsageError(str(exc)) from exc
    _check_section("integrator", _integrator, cfg)
    _check_section("training", _train_columns, cfg)
    _check_section("basis", _check_selector, cfg.rank, cfg.tol, cfg.energy)

    # inference
    if not cfg.methods:
        raise UsageError("[inference] methods must not be empty")
    for method in cfg.methods:
        if method not in _METHODS:
            raise UsageError(
                f"[inference] methods: unknown method {method!r}; "
                f"choose from {', '.join(_METHODS)}"
            )
    if len(set(cfg.methods)) != len(cfg.methods):
        raise UsageError(
            f"[inference] methods must be distinct, got {', '.join(cfg.methods)}"
        )
    if not cfg.lambda_grid:
        raise UsageError("[inference] lambda_grid must not be empty")
    if any(g < 0.0 for g in cfg.lambda_grid):
        raise UsageError("[inference] lambda_grid values must be >= 0")
    if len(set(cfg.lambda_grid)) != len(cfg.lambda_grid):
        raise UsageError(
            "[inference] lambda_grid values must be distinct, got "
            + ", ".join(str(g) for g in cfg.lambda_grid)
        )
    _check_section("inference", _check_omega, cfg.omega)
    return cfg


# ---------------------------------------------------------------------------
# Shared stage pieces.
# ---------------------------------------------------------------------------


def _tag_stage(exc: BaseException, name: str) -> None:
    # First tag wins: the innermost stage is the one to report.
    if not hasattr(exc, "stage"):
        exc.stage = name


def _build_system(cfg: ExperimentConfig) -> SecondOrderSystem:
    chain = cfg.kind == "chain"
    try:
        if chain:
            return build_mass_spring_chain(
                cfg.n, cfg.masses, cfg.stiffnesses, alpha_r=cfg.alpha_r,
                beta_r=cfg.beta_r, input_nodes=cfg.input_nodes,
            )
        return load_system(cfg.mass_path, cfg.damping_path,
                           cfg.stiffness_path, cfg.input_path)
    except (MechromError, OSError, MemoryError) as exc:
        _tag_stage(exc, "build_system" if chain else "load_system")
        raise


def _waveform(cfg: ExperimentConfig):
    """The input signal that ``[input]`` names, a function of time;
    InvalidParameterError where its keys name none."""
    if cfg.waveform == "sine":
        if (cfg.frequency is None) == (cfg.angular_frequency is None):
            raise InvalidParameterError(
                "sine needs exactly one of frequency, angular_frequency")
        w = (
            cfg.angular_frequency
            if cfg.angular_frequency is not None
            else 2.0 * np.pi * cfg.frequency
        )
        return lambda t: cfg.amplitude * np.sin(w * t + cfg.phase)
    if cfg.waveform == "constant":
        return lambda t: cfg.value
    if cfg.waveform != "chirp":
        raise InvalidParameterError("waveform must be one of sine, constant, "
                                    f"chirp, got {cfg.waveform!r}")
    f0, f1, sweep = cfg.f0, cfg.f1, cfg.sweep_time
    if None in (f0, f1, sweep):
        raise InvalidParameterError("chirp needs f0, f1, and sweep_time")
    if sweep <= 0.0:
        raise InvalidParameterError("sweep_time must be positive")

    def chirp(t):
        return cfg.amplitude * np.sin(
            cfg.phase + 2.0 * np.pi * (f0 * t + (f1 - f0) * t * t / (2.0 * sweep))
        )

    return chirp


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


def _save_matrices(directory, result, names, symmetric=True):
    """Write the matrices ``names`` of ``result``, a model or a basis, to
    ``<name>.mtx`` under ``directory``; return ``result`` with them as
    :func:`load_matrix` reads them back: C-ordered, with the exact zeros,
    which the files leave out, positive (-0.0 + 0.0 is +0.0). ``input``,
    the input map, is rectangular, so it is stored general in any case;
    every producer's symmetric operators are exactly symmetric, so their
    stored lower triangles read back whole."""
    os.makedirs(directory, exist_ok=True)
    parsed = {}
    for name in names:
        field = "input_map" if name == "input" else name
        symmetry = "symmetric" if symmetric and name != "input" else "general"
        save_matrix(os.path.join(directory, f"{name}.mtx"),
                    getattr(result, field), symmetry=symmetry)
        parsed[field] = np.add(getattr(result, field), 0.0, order="C")
    return replace(result, **parsed)


class _Results(dict):
    """What the stages of one command pass each other: ``system``,
    ``train`` (the training window), ``train_displacement`` (its
    displacement block), ``test`` (the displacement of the test window),
    ``basis``, ``projected`` (the training window on the basis),
    ``opinf`` and ``copinf``.

    A stage puts here what it computes, as its files read back: the same
    doubles in the layout that the parsers return, so products with a
    result round alike wherever it came from. A result that no stage of
    the command has computed is loaded by its one loader,
    ``_load_<name>``, the first time a stage asks for it, and kept.
    """

    def __init__(self, cfg: ExperimentConfig, outdir):
        super().__init__()
        self.cfg, self.outdir = cfg, outdir

    def __missing__(self, name):
        result = self[name] = getattr(self, f"_load_{name}")()
        return result

    def _load_system(self) -> SecondOrderSystem:
        return _build_system(self.cfg)

    def _load_train(self, *blocks) -> TrajectoryData:
        """The first training columns of the ``fom/test`` block files
        named in ``blocks``, or of each one when none is named."""
        count = _train_columns(self.cfg)
        directory = self._artifact("simulate", "fom", "test")
        data = (load_csv(directory, blocks, max_rows=count) if blocks
                else load_csv(directory, max_rows=count))
        if data.num_snapshots < count:
            raise InvalidInputError(
                f"the training window needs {count} snapshots, fom/test "
                f"holds {data.num_snapshots}"
            )
        return data

    def _load_train_displacement(self) -> np.ndarray:
        """The displacement of ``train`` when a stage has put it here;
        else only that block is parsed, since nothing else of the window
        is needed."""
        if "train" in self:
            return self["train"].displacement
        return self._load_train("displacement").displacement

    def _load_test(self) -> TrajectoryData:
        return load_csv(self._artifact("simulate", "fom", "test"),
                        ["displacement"])

    def _load_basis(self) -> PodBasis:
        modes = load_matrix(self._artifact("basis", "basis", "modes.mtx"))
        svals_path = self._artifact("basis", "basis", "singular_values.csv")
        table = read_table(svals_path, 2, messages=[("expected 'index,sigma'",
                                                     "non-numeric sigma")])
        if not table.shape[0]:
            raise FormatError("no singular values: the file has no rows",
                              path=svals_path)
        return PodBasis(modes=modes, singular_values=table[:, 1])

    def _load_projected(self) -> TrajectoryData:
        """Computed, not parsed: no stage writes it. Nothing else reads
        the training window, whose blocks are the size of the full
        model, so it goes."""
        projected = project(self["train"], self["basis"])
        del self["train"]
        return projected

    def _load_opinf(self) -> SecondOrderSystem:
        damping, stiffness, input_map = (
            load_matrix(self._artifact("infer", "opinf", f"{name}.mtx"))
            for name in ("damping", "stiffness", "input"))
        return SecondOrderSystem(np.eye(self["basis"].rank), damping,
                                 stiffness, input_map)

    def _load_copinf(self) -> SecondOrderSystem:
        return SecondOrderSystem(*(
            load_matrix(self._artifact("infer-constrained", "copinf",
                                       f"{name}.mtx"))
            for name in ("mass", "damping", "stiffness")))

    def _artifact(self, stage, *parts):
        """The path of the artifact ``parts`` that ``stage`` writes."""
        path = os.path.join(self.outdir, *parts)
        if not os.path.exists(path):
            raise MissingDataError(f"no {path}; run the {stage} stage first")
        return path


# ---------------------------------------------------------------------------
# Stages.
# ---------------------------------------------------------------------------


def stage_simulate(cfg: ExperimentConfig, outdir, results) -> None:
    """Integrate the full model and write the snapshot CSVs."""
    system = results["system"]
    x0, v0 = _initial_conditions(cfg, system.n)
    data = simulate(system, _waveform(cfg), x0, v0, _integrator(cfg))
    save_csv(data, os.path.join(outdir, "fom", "test"))
    count = _train_columns(cfg)
    # Each block takes the layout that load_csv returns, the transpose
    # of a contiguous (N, n) copy. A column slice of the displacement
    # has it too, so the training window holds no second copy of it.
    X = data.displacement.T.copy().T
    results["test"] = TrajectoryData(times=data.times, displacement=X)
    results["train"] = TrajectoryData(
        times=data.times[:count], displacement=X[:, :count],
        **{key: getattr(data, key)[:, :count].T.copy().T
           for key in ("velocity", "acceleration", "input", "force")})
    print(f"simulate: {count} training and {data.num_snapshots} test snapshots")


def stage_basis(cfg: ExperimentConfig, outdir, results) -> None:
    """Compute the orthogonal basis from the training snapshots."""
    basis = compute_basis(results["train_displacement"], rank=cfg.rank,
                          tol=cfg.tol, energy=cfg.energy)
    bdir = os.path.join(outdir, "basis")
    results["basis"] = _save_matrices(bdir, basis, ("modes",), symmetric=False)
    s = basis.singular_values
    index = np.arange(1, s.size + 1)
    write_table(os.path.join(bdir, "singular_values.csv"), "index,sigma",
                np.column_stack([index, s]))
    print(f"basis: selected rank r = {basis.rank}")


def stage_infer(cfg: ExperimentConfig, outdir, results) -> None:
    """Fit the mass-normalized reduced model."""
    if "opinf" not in cfg.methods:
        return
    rdata = results["projected"]
    D, rhs = assemble_opinf_data(rdata)
    lam, trials = select_lambda(D, rhs, cfg.lambda_grid, rdata,
                                scheme=_integrator(cfg))
    rom, report = infer(D, rhs, lam)
    mdir = os.path.join(outdir, "opinf")
    results["opinf"] = _save_matrices(
        mdir, rom, ("damping", "stiffness", "input"), symmetric=False)
    write_table(
        os.path.join(mdir, "lambda_table.csv"),
        "lambda,train_residual,validation_error,operator_norm",
        [(t.lam, t.train_residual, t.validation_error, t.operator_norm)
         for t in trials],
    )
    print(f"infer: selected lambda = {FLOAT_FORMAT % lam} "
          f"(residual {report.residual:.3e})")
    # Stability is reported only; the selection does not consider it.
    # One QZ: the test of ``is_stable`` on the largest real part.
    growth = float(pencil_spectrum(rom.mass, rom.damping,
                                   rom.stiffness).real.max())
    print(f"infer: largest real part of the pencil spectrum {growth:+.3e}"
          + ("" if growth <= STABILITY_TOL else " (unstable)"))


# How the infer-constrained line names the solver's stop reason.
_STOP_LABELS = {
    "converged": "converged",
    "stalled": "objective stalled",
    "cap": "iteration limit",
}


def stage_infer_constrained(cfg: ExperimentConfig, outdir, results) -> None:
    """Fit the symmetric definite reduced model."""
    if "copinf" not in cfg.methods:
        return
    D, rhs = assemble_force_data(results["projected"])
    rom, report = infer_constrained(D, rhs, omega=cfg.omega)
    mdir = os.path.join(outdir, "copinf")
    results["copinf"] = _save_matrices(mdir, rom,
                                        ("mass", "damping", "stiffness"))
    write_table(os.path.join(mdir, "trace.csv"),
                "iteration,objective,primal_residual,dual_residual",
                report.trace)
    print(
        f"infer-constrained: objective {report.objective:.6e} after "
        f"{report.iterations} iterations ({_STOP_LABELS[report.stop_reason]})"
    )


def stage_evaluate(cfg: ExperimentConfig, outdir, results) -> None:
    """Replay the reduced models and write the error series."""
    system, basis = results["system"], results["basis"]
    V = basis.modes
    times, X = results["test"].times, results["test"].displacement
    x0, v0 = _initial_conditions(cfg, system.n)

    diverged = []
    for method in cfg.methods:
        if method == "pod":
            model = intrusive_reduce(system, basis)
            _save_matrices(os.path.join(outdir, "pod"), model,
                            ("mass", "damping", "stiffness", "input"))
        else:
            model = results[method]
        if model.input_map is None:  # fitted to forces
            model = replace(model, input_map=V.T @ system.input_map)

        # A diverged replay overflows quietly here; it is reported below,
        # once every method has written its artifacts.
        with np.errstate(over="ignore", invalid="ignore"):
            reduced = simulate(model, _waveform(cfg), V.T @ x0, V.T @ v0,
                               _integrator(cfg))
            lifted = V @ reduced.displacement
            if lifted.shape[1] != times.size:
                raise InvalidInputError(
                    f"replay produced {lifted.shape[1]} snapshots, test data "
                    f"has {times.size}"
                )
            series = relative_error(
                X, lifted, times=times,
                phase_split=times[_train_columns(cfg) - 1],
            )
        save_csv(TrajectoryData(times=times, displacement=lifted),
                 os.path.join(outdir, f"rom_{method}"))
        save_error_series(series, os.path.join(outdir, f"errors_{method}.csv"))
        print(f"evaluate: {method} max relative error {series.max_eps:.6e}")
        # The largest error decides: a non-finite replay entry makes its
        # instant's error non-finite, and the maximum keeps a NaN. A finite
        # replay can still overflow its error: the predictor state of
        # operators near the largest double cancels to values of 1e287.
        if not np.isfinite(series.max_eps):
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


def _run_stages(cfg: ExperimentConfig, outdir, names) -> list:
    """Run the stages ``names`` in pipeline order into ``outdir``; return
    each one's (name, seconds). An error is tagged with its stage. The
    stages share one :class:`_Results`, empty at the start of each call."""
    os.makedirs(outdir, exist_ok=True)
    results = _Results(cfg, outdir)
    timings = []
    for name, fn in _STAGES:
        if name in names:
            start = time.perf_counter()
            try:
                fn(cfg, outdir, results)
            except (MechromError, OSError, MemoryError) as exc:
                _tag_stage(exc, name)
                raise
            timings.append((name, time.perf_counter() - start))
    return timings


def run(cfg: ExperimentConfig, outdir) -> None:
    """Execute every stage, then write the manifest and stage timings.

    The manifest records the fully resolved configuration (defaults
    made explicit), the tool version and the numeric environment the
    bytes depend on; per-stage wall-clock goes to a separate
    timings.csv, which is the only artifact that varies between
    identical runs.
    """
    timings = _run_stages(cfg, outdir, [name for name, _ in _STAGES])

    # The system's files are recorded relative to the output directory,
    # so the manifest does not depend on where the run was made.
    config = cfg.manifest_dict()
    system = config["system"]
    for f in fields(cfg):
        if f.metadata["kind"] == "files" and system[f.name] is not None:
            system[f.name] = os.path.relpath(system[f.name], outdir)
    manifest = {
        "tool": "mechrom",
        "version": __version__,
        "config": config,
        "environment": _environment(),
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


def _environment() -> dict:
    """The Python, numpy and scipy versions, the name and version of the
    BLAS numpy was built with (None where its build does not say), and
    the thread counts of the BLAS numpy loaded and of the one scipy's
    LAPACK wrappers loaded (see ``_blas_threads``). scipy wheels bring
    their own OpenBLAS, with a thread pool of its own; the constrained
    solver's per-block decompositions run on it."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        # numpy before 1.25 only prints its build configuration.
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads(_umath_linalg),
                 "scipy_threads": _blas_threads(_flapack)},
    }


def _blas_threads(module) -> int | None:
    """The thread count of the OpenBLAS that the extension ``module``
    calls, asked of the library through ctypes; None where no OpenBLAS
    thread getter is found (another BLAS, or a platform whose loader does
    not resolve a module's dependencies by name)."""
    try:
        lib = ctypes.CDLL(module.__file__)
    except OSError:
        return None
    # scipy-openblas wheels (64- and 32-bit integers), then plain OpenBLAS.
    for name in ("scipy_openblas_get_num_threads64_",
                 "scipy_openblas_get_num_threads",
                 "openblas_get_num_threads64_", "openblas_get_num_threads"):
        getter = getattr(lib, name, None)
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            return int(getter())
    return None


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
    # Each command's help is the first line of its function's docstring.
    for name, fn in [*_STAGES, ("run", run)]:
        p = sub.add_parser(name.replace("_", "-"),
                           help=(fn.__doc__ or "").partition("\n")[0])
        p.add_argument("--config", required=True, help="INI configuration file")
        p.add_argument("--out", dest="directory",
                       help="artifact directory ([output] directory)")
        p.add_argument("--method", dest="methods", action="append",
                       help="methods ([inference] methods; repeatable, "
                            "comma lists allowed)")
        selector = p.add_mutually_exclusive_group()
        selector.add_argument("--rank", help="basis rank ([basis] rank)")
        selector.add_argument("--tol",
                              help="basis truncation tolerance ([basis] tol)")
        p.add_argument("--lambda", dest="lambda_grid",
                       help="regularization grid ([inference] lambda_grid)")
        p.add_argument("--omega",
                       help="definiteness margin ([inference] omega)")
    return parser


_DATA_ERRORS = (
    FormatError,
    InvalidInputError,
    MissingDataError,
    InsufficientDataError,
    OSError,
    MemoryError,
)
_NUMERICAL_ERRORS = (
    SingularOperatorError,
    DegenerateInputError,
    NoViableLambdaError,
    DivergenceError,
)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    stage = "configure"
    try:
        # Each flag's destination is the field whose key it overrides.
        overrides = {}
        for name, value in vars(args).items():
            if name in _INI_KEYS and value is not None:
                # repeated --method values join into one comma list
                overrides[_INI_KEYS[name]] = (
                    ",".join(value) if name == "methods" else value)
        cfg = load_config(args.config, overrides)
        if not cfg.directory:
            raise UsageError("no output directory: set [output] directory "
                             "or --out")
        if args.command == "run":
            stage = "run"
            run(cfg, cfg.directory)
        else:
            stage = args.command.replace("-", "_")
            _run_stages(cfg, cfg.directory, [stage])
    except (UsageError, InvalidParameterError) as exc:
        error, code = exc, EXIT_USAGE
    except _NUMERICAL_ERRORS as exc:
        error, code = exc, EXIT_NUMERICAL
    except _DATA_ERRORS as exc:
        error, code = exc, EXIT_DATA
    else:
        return EXIT_OK
    # A MemoryError that Python raises itself carries no message.
    print(f"error in stage '{getattr(error, 'stage', stage)}': "
          f"{str(error) or 'out of memory'}", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

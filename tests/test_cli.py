"""End-to-end tests for the command line pipeline driver."""

import dataclasses
import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest
import scipy
from numpy.linalg import _umath_linalg
from scipy.linalg import _flapack

from mechrom import __version__, cli, copinf, newmark, opinf, snapshots
from mechrom.cli import (
    _KNOWN_KEYS,
    DEFAULT_LAMBDA_GRID,
    UsageError,
    load_config,
    main,
)
from mechrom.evaluate import is_stable, pencil_spectrum
from mechrom.model import (
    SecondOrderSystem,
    build_mass_spring_chain,
    load_matrix,
    save_matrix,
)
from mechrom.newmark import IntegratorConfig, simulate
from mechrom.opinf import infer
from mechrom.pod import compute_basis
from mechrom.snapshots import assemble_opinf_data, load_csv

# A deliberately tiny experiment so full pipeline runs stay fast: a four
# mass chain driven at the first node, ten training columns, twenty one
# test snapshots.
BASE = {
    "system": {
        "kind": "chain",
        "n": "4",
        "masses": "1.0",
        "stiffnesses": "10.0",
        "alpha_r": "0.02",
        "beta_r": "0.005",
    },
    "integrator": {"dt": "0.02"},
    "input": {"waveform": "sine", "frequency": "1.0"},
    "training": {"t_end": "0.2"},
    "testing": {"t_end": "0.4"},
    "basis": {"rank": "2"},
}


def merged(updates=None, drop=None):
    sections = {name: dict(keys) for name, keys in BASE.items()}
    for name, keys in (updates or {}).items():
        sections.setdefault(name, {}).update(keys)
    for name, key in drop or []:
        del sections[name][key]
    return sections


def write_config(directory, sections, name="exp.ini"):
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        for key, value in keys.items():
            lines.append(f"{key} = {value}")
        lines.append("")
    path = directory / name
    path.write_text("\n".join(lines), encoding="ascii")
    return str(path)


def config_file(directory, updates=None, drop=None, name="exp.ini"):
    return write_config(directory, merged(updates, drop), name=name)


def tree_bytes(root, skip=()):
    """Relative path -> raw bytes for every file under root."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for fname in files:
            if fname in skip:
                continue
            full = os.path.join(dirpath, fname)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, root)] = fh.read()
    return out


def read_lines(path):
    with open(path, "r", encoding="ascii") as fh:
        return fh.read().splitlines()


def files_kind_config(directory):
    """Config of a three-mass chain read from ``.mtx`` files that it
    writes, as M, E, K and B, into ``directory``."""
    chain = build_mass_spring_chain(3, [1.0] * 3, [4.0] * 4,
                                    alpha_r=0.05, beta_r=0.01,
                                    input_nodes=[0])
    save_matrix(directory / "M.mtx", chain.mass, symmetry="symmetric")
    save_matrix(directory / "E.mtx", chain.damping, symmetry="symmetric")
    save_matrix(directory / "K.mtx", chain.stiffness, symmetry="symmetric")
    save_matrix(directory / "B.mtx", chain.input_map, symmetry="general")
    return write_config(directory, merged({
        "system": {
            "kind": "files",
            "mass_path": str(directory / "M.mtx"),
            "damping_path": str(directory / "E.mtx"),
            "stiffness_path": str(directory / "K.mtx"),
            "input_path": str(directory / "B.mtx"),
        },
    }, drop=[("system", "n")]))


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """One completed pipeline run on the tiny chain experiment."""
    root = tmp_path_factory.mktemp("small_run")
    cfg = config_file(root)
    out = root / "artifacts"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    return cfg, out


class TestLoadConfig:
    def test_chain_defaults_resolved(self, tmp_path):
        cfg = load_config(config_file(tmp_path))
        assert cfg.kind == "chain"
        assert cfg.n == 4
        assert cfg.masses == [1.0] * 4
        assert cfg.stiffnesses == [10.0] * 5
        assert cfg.input_nodes == [0]
        assert cfg.dt == 0.02
        assert cfg.gamma is None and cfg.beta is None and cfg.alpha == 0.0
        assert cfg.waveform == "sine"
        assert cfg.frequency == 1.0 and cfg.angular_frequency is None
        assert cfg.train_t_end == 0.2 and cfg.test_t_end == 0.4
        assert cfg.rank == 2 and cfg.tol is None and cfg.energy is None
        assert cfg.methods == ["pod", "opinf", "copinf"]
        assert cfg.lambda_grid == DEFAULT_LAMBDA_GRID
        assert cfg.omega == 1e-8
        assert cfg.directory == "" and cfg.seed == 0

    def test_explicit_lists_kept(self, tmp_path):
        cfg = load_config(config_file(tmp_path, {
            "system": {"masses": "1.0, 2.0, 3.0, 4.0",
                       "stiffnesses": "1, 2, 3, 4, 5",
                       "input_nodes": "1, 3"},
        }))
        assert cfg.masses == [1.0, 2.0, 3.0, 4.0]
        assert cfg.stiffnesses == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert cfg.input_nodes == [1, 3]

    def test_unknown_section_rejected(self, tmp_path):
        path = config_file(tmp_path, {"turbulence": {"model": "none"}})
        with pytest.raises(UsageError, match=r"unknown config section \[turbulence\]"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = config_file(tmp_path, {"system": {"springiness": "1"}})
        with pytest.raises(UsageError,
                           match=r"unknown key 'springiness' in section \[system\]"):
            load_config(path)

    def test_byte_order_mark_is_not_text(self, tmp_path):
        # Some editors start a UTF-8 file with the mark EF BB BF.
        plain = config_file(tmp_path)
        marked = tmp_path / "marked.ini"
        with open(plain, "rb") as fh:
            marked.write_bytes(b"\xef\xbb\xbf" + fh.read())
        assert load_config(marked) == load_config(plain)

    def test_text_without_section_is_malformed(self, tmp_path):
        path = tmp_path / "broken.ini"
        path.write_text("dt = 0.1\n", encoding="ascii")
        with pytest.raises(UsageError, match="malformed config"):
            load_config(str(path))

    def test_missing_file_reports_path(self, tmp_path):
        missing = str(tmp_path / "nope.ini")
        with pytest.raises(UsageError, match="cannot read config"):
            load_config(missing)

    def test_kind_validated(self, tmp_path):
        path = config_file(tmp_path, {"system": {"kind": "beam"}})
        with pytest.raises(UsageError, match="kind must be chain or files"):
            load_config(path)

    def test_chain_requires_dimension(self, tmp_path):
        path = config_file(tmp_path, drop=[("system", "n")])
        with pytest.raises(UsageError, match="n is required for kind = chain"):
            load_config(path)

    def test_dimension_must_be_positive(self, tmp_path):
        path = config_file(tmp_path, {"system": {"n": "0"}})
        with pytest.raises(UsageError, match="n must be >= 1"):
            load_config(path)

    def test_files_kind_requires_all_paths(self, tmp_path):
        path = config_file(tmp_path, {
            "system": {"kind": "files", "mass_path": "M.mtx"},
        })
        with pytest.raises(UsageError,
                           match="damping_path is required for kind = files"):
            load_config(path)

    def test_keys_of_the_other_kind_are_ignored(self, tmp_path):
        chain = load_config(config_file(
            tmp_path, {"system": {"mass_path": "nowhere.mtx"}}))
        assert chain.mass_path is None
        # Rayleigh damping is the chain builder's; the files give the
        # damping matrix.
        files = load_config(config_file(tmp_path, {"system": {
            **FILES_SYSTEM, "n": "abc", "alpha_r": "-1", "beta_r": "-1"}}))
        assert (files.n, files.alpha_r, files.beta_r) == (None, 0.0, 0.0)
        system = files.manifest_dict()["system"]
        assert (system["n"], system["alpha_r"], system["beta_r"]) == \
            (None, 0.0, 0.0)

    def test_dt_required(self, tmp_path):
        path = config_file(tmp_path, drop=[("integrator", "dt")])
        with pytest.raises(UsageError, match=r"\[integrator\] dt is required"):
            load_config(path)

    def test_dt_positive(self, tmp_path):
        path = config_file(tmp_path, {"integrator": {"dt": "-0.1"}})
        with pytest.raises(UsageError, match="dt must be positive"):
            load_config(path)

    def test_non_numeric_value_rejected(self, tmp_path):
        path = config_file(tmp_path, {"integrator": {"dt": "fast"}})
        with pytest.raises(UsageError, match="dt must be a number, got 'fast'"):
            load_config(path)

    @pytest.mark.parametrize("section, key, raw, message", [
        ("basis", "rank", "", "[basis] rank must be an integer, got ''"),
        ("system", "masses", "1, x",
         "[system] masses must be a comma-separated number list"),
    ])
    def test_value_not_of_its_kind_rejected(self, tmp_path, section, key,
                                            raw, message):
        path = config_file(tmp_path, {section: {key: raw}})
        with pytest.raises(UsageError) as excinfo:
            load_config(path)
        assert str(excinfo.value) == message

    def test_rank_must_be_integer(self, tmp_path):
        path = config_file(tmp_path, {"basis": {"rank": "2.5"}})
        with pytest.raises(UsageError, match="rank must be an integer"):
            load_config(path)

    def test_sine_needs_exactly_one_frequency_form(self, tmp_path):
        both = config_file(tmp_path, {"input": {"angular_frequency": "2.0"}})
        with pytest.raises(UsageError, match="exactly one of frequency"):
            load_config(both)
        neither = config_file(tmp_path, drop=[("input", "frequency")])
        with pytest.raises(UsageError, match="exactly one of frequency"):
            load_config(neither)

    def test_waveform_catalog(self, tmp_path):
        path = config_file(tmp_path, {"input": {"waveform": "square"}})
        with pytest.raises(UsageError,
                           match="waveform must be one of sine, constant, chirp"):
            load_config(path)

    # ``simulate`` evaluates the waveform once over the time grid; a numpy
    # whose vectorized ``sin`` rounds otherwise than its scalar one fails
    # here rather than moving every artifact.
    @pytest.mark.parametrize("wave", [
        {"frequency": "10.0"},
        {"angular_frequency": "7.3", "amplitude": "0.5", "phase": "0.3"},
        {"waveform": "chirp", "amplitude": "0.5", "phase": "0.3",
         "f0": "1.0", "f1": "40.0", "sweep_time": "3.0"},
    ], ids=["sine", "phase-shifted-sine", "chirp"])
    @pytest.mark.parametrize("dt", [1e-3, 2.5e-4])
    def test_waveform_on_the_grid_equals_each_instant(self, tmp_path, wave,
                                                      dt):
        path = config_file(tmp_path, {"input": wave},
                           drop=[] if "frequency" in wave
                           else [("input", "frequency")])
        waveform = cli._waveform(load_config(path))
        t0 = 0.37
        grid = np.concatenate(([t0], t0 + dt * np.arange(1, int(4.0 / dt) + 1)))
        alone = np.array([waveform(t) for t in grid.tolist()])
        assert np.array_equal(waveform(grid), alone)

    def test_constant_waveform_needs_no_frequency(self, tmp_path):
        path = config_file(
            tmp_path,
            {"input": {"waveform": "constant", "value": "2.5"}},
            drop=[("input", "frequency")],
        )
        cfg = load_config(path)
        assert cfg.waveform == "constant"
        assert cfg.value == 2.5

    def test_chirp_needs_sweep_parameters(self, tmp_path):
        path = config_file(
            tmp_path,
            {"input": {"waveform": "chirp", "f0": "1.0", "f1": "5.0"}},
            drop=[("input", "frequency")],
        )
        with pytest.raises(UsageError, match="chirp needs f0, f1, and sweep_time"):
            load_config(path)
        ok = config_file(
            tmp_path,
            {"input": {"waveform": "chirp", "f0": "1.0", "f1": "5.0",
                       "sweep_time": "-1.0"}},
            drop=[("input", "frequency")],
        )
        with pytest.raises(UsageError, match="sweep_time must be positive"):
            load_config(ok)

    def test_horizons_required(self, tmp_path):
        no_train = config_file(tmp_path, drop=[("training", "t_end")])
        with pytest.raises(UsageError, match=r"\[training\] t_end is required"):
            load_config(no_train)
        no_test = config_file(tmp_path, drop=[("testing", "t_end")])
        with pytest.raises(UsageError, match=r"\[testing\] t_end is required"):
            load_config(no_test)

    def test_training_window_covers_a_step(self, tmp_path):
        path = config_file(tmp_path, {"training": {"t_end": "0.001"}})
        with pytest.raises(UsageError, match=r"\[training\] horizon 0.001 "
                                             r"shorter than one step 0.02"):
            load_config(path)

    def test_testing_window_not_shorter_than_training(self, tmp_path):
        path = config_file(tmp_path, {"testing": {"t_end": "0.1"}})
        with pytest.raises(UsageError, match=r"t_end \(0.1\) must be >= .*\(0.2\)"):
            load_config(path)

    def test_basis_selector_exclusive(self, tmp_path):
        both = config_file(tmp_path, {"basis": {"tol": "1e-2"}})
        with pytest.raises(UsageError, match="exactly one of rank, tol, energy"):
            load_config(both)
        none = config_file(tmp_path, drop=[("basis", "rank")])
        with pytest.raises(UsageError, match="exactly one of rank, tol, energy"):
            load_config(none)

    def test_selector_ranges(self, tmp_path):
        bad_rank = config_file(tmp_path, {"basis": {"rank": "0"}})
        with pytest.raises(UsageError,
                           match=r"\[basis\] rank must be an integer >= 1"):
            load_config(bad_rank)
        bad_tol = config_file(tmp_path, {"basis": {"tol": "1.5"}},
                              drop=[("basis", "rank")])
        with pytest.raises(UsageError, match=r"\[basis\] tol must lie in \(0, 1\)"):
            load_config(bad_tol)
        bad_energy = config_file(tmp_path, {"basis": {"energy": "1.0"}},
                                 drop=[("basis", "rank")])
        with pytest.raises(UsageError,
                           match=r"\[basis\] energy must lie in \(0, 1\)"):
            load_config(bad_energy)

    def test_methods_parsed_and_validated(self, tmp_path):
        subset = config_file(tmp_path, {"inference": {"methods": "pod, copinf"}})
        assert load_config(subset).methods == ["pod", "copinf"]
        unknown = config_file(tmp_path, {"inference": {"methods": "pod, galerkin"}})
        with pytest.raises(UsageError, match="unknown method 'galerkin'"):
            load_config(unknown)
        empty = config_file(tmp_path, {"inference": {"methods": ""}})
        with pytest.raises(UsageError, match="methods must not be empty"):
            load_config(empty)
        repeated = config_file(
            tmp_path, {"inference": {"methods": "pod, pod, opinf"}}
        )
        with pytest.raises(UsageError,
                           match=r"\[inference\] methods must be distinct"):
            load_config(repeated)

    def test_lambda_grid_keyword_and_list(self, tmp_path):
        keyword = config_file(tmp_path, {"inference": {"lambda_grid": "default"}})
        assert load_config(keyword).lambda_grid == DEFAULT_LAMBDA_GRID
        explicit = config_file(
            tmp_path, {"inference": {"lambda_grid": "0.0, 1e-6, 1e-2"}}
        )
        assert load_config(explicit).lambda_grid == [0.0, 1e-6, 1e-2]
        negative = config_file(tmp_path, {"inference": {"lambda_grid": "-1.0"}})
        with pytest.raises(UsageError, match="lambda_grid values must be >= 0"):
            load_config(negative)

    @pytest.mark.parametrize("grid, shown", [
        ("1e-8, 1e-8, 0", "1e-08, 1e-08, 0.0"),
        # compared as floats: 0.0 and -0.0 are one weight
        ("0.0, 1e-6, -0.0", "0.0, 1e-06, -0.0"),
    ])
    def test_lambda_grid_values_distinct(self, tmp_path, grid, shown):
        path = config_file(tmp_path, {"inference": {"lambda_grid": grid}})
        with pytest.raises(UsageError) as excinfo:
            load_config(path)
        assert str(excinfo.value) == \
            f"[inference] lambda_grid values must be distinct, got {shown}"

    @pytest.mark.parametrize("key, value, message", [
        ("alpha", "0.5", r"alpha must lie in \[-1/3, 0\], got 0.5"),
        ("alpha", "-0.5", r"alpha must lie in \[-1/3, 0\], got -0.5"),
        ("gamma", "-1.0", "gamma and beta must be nonnegative"),
        ("beta", "-0.25", "gamma and beta must be nonnegative"),
    ])
    def test_scheme_parameters_checked(self, tmp_path, key, value, message):
        path = config_file(tmp_path, {"integrator": {key: value}})
        with pytest.raises(UsageError, match=r"^\[integrator\] " + message):
            load_config(path)

    def test_omega_positive(self, tmp_path):
        path = config_file(tmp_path, {"inference": {"omega": "0.0"}})
        with pytest.raises(UsageError, match="omega must be positive"):
            load_config(path)

    def test_input_nodes_must_be_ints(self, tmp_path):
        path = config_file(tmp_path, {"system": {"input_nodes": "0, x"}})
        with pytest.raises(UsageError, match="input_nodes must be a comma list"):
            load_config(path)

    @pytest.mark.parametrize("updates, message", [
        ({"integrator": {"dt": "nan"}}, r"\[integrator\] dt must be finite"),
        ({"training": {"t_end": "inf"}}, r"\[training\] t_end must be finite"),
        ({"inference": {"omega": "nan"}}, r"\[inference\] omega must be finite"),
        ({"inference": {"lambda_grid": "0.0, inf"}},
         r"\[inference\] lambda_grid must be finite"),
    ])
    def test_non_finite_numbers_rejected(self, tmp_path, updates, message):
        with pytest.raises(UsageError, match=message):
            load_config(config_file(tmp_path, updates))

    def test_output_section_parsed(self, tmp_path):
        path = config_file(tmp_path, {
            "output": {"directory": "artifacts", "seed": "7"},
        })
        cfg = load_config(path)
        assert cfg.directory == "artifacts"
        assert cfg.seed == 7


FILES_SYSTEM = {"kind": "files", "mass_path": "M.mtx",
                "damping_path": "E.mtx", "stiffness_path": "K.mtx",
                "input_path": "B.mtx"}

# (section, key) -> (field, raw value, parsed value), one per config key.
KEY_SAMPLES = {
    ("system", "kind"): ("kind", "files", "files"),
    ("system", "n"): ("n", "3", 3),
    ("system", "masses"): ("masses", "2.0", [2.0] * 4),
    ("system", "stiffnesses"): ("stiffnesses", "1, 2, 3, 4, 5",
                                [1.0, 2.0, 3.0, 4.0, 5.0]),
    ("system", "alpha_r"): ("alpha_r", "0.5", 0.5),
    ("system", "beta_r"): ("beta_r", "0.25", 0.25),
    ("system", "input_nodes"): ("input_nodes", "1, 2", [1, 2]),
    ("system", "x0"): ("x0", "0.1", [0.1]),
    ("system", "v0"): ("v0", "0.2, 0.3, 0.4, 0.5", [0.2, 0.3, 0.4, 0.5]),
    ("system", "mass_path"): ("mass_path", "M2.mtx", "M2.mtx"),
    ("system", "damping_path"): ("damping_path", "E2.mtx", "E2.mtx"),
    ("system", "stiffness_path"): ("stiffness_path", "K2.mtx", "K2.mtx"),
    ("system", "input_path"): ("input_path", "B2.mtx", "B2.mtx"),
    ("integrator", "dt"): ("dt", "0.01", 0.01),
    ("integrator", "gamma"): ("gamma", "0.6", 0.6),
    ("integrator", "beta"): ("beta", "0.3", 0.3),
    ("integrator", "alpha"): ("alpha", "-0.1", -0.1),
    ("input", "waveform"): ("waveform", "constant", "constant"),
    ("input", "amplitude"): ("amplitude", "2.0", 2.0),
    ("input", "frequency"): ("frequency", "3.0", 3.0),
    ("input", "angular_frequency"): ("angular_frequency", "6.0", 6.0),
    ("input", "phase"): ("phase", "0.5", 0.5),
    ("input", "value"): ("value", "2.5", 2.5),
    ("input", "f0"): ("f0", "1.5", 1.5),
    ("input", "f1"): ("f1", "4.5", 4.5),
    ("input", "sweep_time"): ("sweep_time", "0.75", 0.75),
    ("training", "t_end"): ("train_t_end", "0.3", 0.3),
    ("testing", "t_end"): ("test_t_end", "0.6", 0.6),
    ("basis", "rank"): ("rank", "3", 3),
    ("basis", "tol"): ("tol", "0.1", 0.1),
    ("basis", "energy"): ("energy", "0.9", 0.9),
    ("inference", "methods"): ("methods", "pod, opinf", ["pod", "opinf"]),
    ("inference", "lambda_grid"): ("lambda_grid", "0.0, 0.5", [0.0, 0.5]),
    ("inference", "omega"): ("omega", "1e-6", 1e-6),
    ("output", "directory"): ("directory", "elsewhere", "elsewhere"),
    ("output", "seed"): ("seed", "5", 5),
}


# Each command-line flag and the INI key it overrides.
FLAG_KEYS = {
    "--out": ("output", "directory"),
    "--method": ("inference", "methods"),
    "--rank": ("basis", "rank"),
    "--tol": ("basis", "tol"),
    "--lambda": ("inference", "lambda_grid"),
    "--omega": ("inference", "omega"),
}


class TestConfigTable:
    def test_samples_cover_every_key(self):
        assert set(KEY_SAMPLES) == {
            (section, key) for section, keys in _KNOWN_KEYS.items()
            for key in keys
        }

    @pytest.mark.parametrize("section, key", sorted(KEY_SAMPLES))
    def test_key_reaches_field_and_manifest(self, tmp_path, section, key):
        name, raw, parsed = KEY_SAMPLES[(section, key)]
        updates = {section: {key: raw}}
        drop = []
        if name in FILES_SYSTEM:
            updates["system"] = {**FILES_SYSTEM, **updates.get("system", {})}
            drop.append(("system", "n"))
        if name == "angular_frequency":
            drop.append(("input", "frequency"))
        if section == "basis" and key != "rank":
            drop.append(("basis", "rank"))
        cfg = load_config(config_file(tmp_path, updates, drop))
        assert getattr(cfg, name) == parsed
        manifest = cfg.manifest_dict()
        if name == "directory":
            # where the manifest is written, not part of the experiment
            assert key not in manifest[section]
        else:
            assert manifest[section][key] == parsed

    def test_manifest_keys_are_the_known_keys(self, tmp_path):
        manifest = load_config(config_file(tmp_path)).manifest_dict()
        recorded = {(section, key) for section, keys in manifest.items()
                    for key in keys}
        assert recorded == set(KEY_SAMPLES) - {("output", "directory")}

    @pytest.mark.parametrize("flag", sorted(FLAG_KEYS))
    def test_flag_takes_the_path_of_its_key(self, tmp_path, monkeypatch,
                                            flag):
        section, key = FLAG_KEYS[flag]
        name, raw, parsed = KEY_SAMPLES[(section, key)]
        base = {"output": {"directory": str(tmp_path / "o")}}
        drop = []
        if section == "basis" and key != "rank":
            drop.append(("basis", "rank"))  # the flag replaces the file's
        from_ini = load_config(config_file(
            tmp_path, {**base, section: {key: raw}}, drop, name="key.ini"))
        seen = []
        monkeypatch.setattr(cli, "run", lambda cfg, outdir: seen.append(cfg))
        argv = ["run", "--config", config_file(tmp_path, base), flag, raw]
        assert main(argv) == 0
        [from_flag] = seen
        assert getattr(from_flag, name) == parsed
        assert from_flag == from_ini
        assert from_flag.manifest_dict() == from_ini.manifest_dict()


class TestInvocationErrors:
    def test_missing_output_directory(self, tmp_path, capsys):
        cfg = config_file(tmp_path)
        assert main(["run", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "no output directory: set [output] directory or --out" in err
        assert "stage 'configure'" in err

    def test_unknown_method_override(self, tmp_path, capsys):
        cfg = config_file(tmp_path)
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--method", "bogus"])
        assert code == 1
        assert "unknown method 'bogus'" in capsys.readouterr().err

    def test_negative_lambda_override(self, tmp_path, capsys):
        cfg = config_file(tmp_path)
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--lambda", "-1.0"])
        assert code == 1
        assert "[inference] lambda_grid values must be >= 0" in \
            capsys.readouterr().err

    def test_nonpositive_omega_override(self, tmp_path, capsys):
        cfg = config_file(tmp_path)
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--omega", "0.0"])
        assert code == 1
        assert "[inference] omega must be positive" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--omega", "--lambda"])
    def test_non_finite_override(self, tmp_path, capsys, flag):
        cfg = config_file(tmp_path)
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                     flag, "nan"])
        assert code == 1
        err = capsys.readouterr().err
        section, key = FLAG_KEYS[flag]
        assert f"[{section}] {key} must be finite" in err
        assert "stage 'configure'" in err
        assert not (tmp_path / "o").exists()

    def test_rank_and_tol_together_rejected(self, tmp_path, capsys):
        cfg = config_file(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["basis", "--config", cfg, "--out", str(tmp_path / "o"),
                  "--rank", "3", "--tol", "0.5"])
        assert excinfo.value.code == 1
        assert "argument --tol: not allowed with argument --rank" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--omega", "0"), ("--omega", "nan"), ("--lambda", "-1"),
        ("--rank", "0"), ("--tol", "2"), ("--method", "bogus"),
        ("--method", ""), ("--method", "pod,pod,opinf"),
        ("--lambda", "1e-8,1e-8,0"), ("--lambda", "0,-0"),
    ])
    def test_bad_flag_value_fails_the_check_of_its_key(self, tmp_path, capsys,
                                                       flag, value):
        cfg = config_file(tmp_path)
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--out", str(out),
                     flag, value]) == 1
        err = capsys.readouterr().err
        section, key = FLAG_KEYS[flag]
        assert f"error in stage 'configure': [{section}] {key}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "basis", "infer",
                                         "infer-constrained", "evaluate",
                                         "run"])
    def test_bad_scheme_fails_every_command_at_configure(self, tmp_path,
                                                         capsys, command):
        cfg = config_file(tmp_path, {"integrator": {"alpha": "0.5"}})
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        assert "error in stage 'configure': [integrator] alpha must lie in " \
            "[-1/3, 0], got 0.5" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "basis", "infer",
                                         "infer-constrained", "evaluate",
                                         "run"])
    @pytest.mark.parametrize("updates, message", [
        ({"system": {"n": "0"}}, "[system] n must be >= 1, got 0"),
        ({"system": {"masses": "-1"}}, "[system] all masses must be positive"),
        ({"system": {"masses": "1, 1, 1"}},
         "[system] expected 4 masses, got 3"),
        ({"system": {"stiffnesses": "0"}},
         "[system] all stiffnesses must be positive"),
        ({"system": {"input_nodes": "7"}},
         "[system] input_nodes entry 7 outside range [0, 3]"),
        ({"system": {"input_nodes": ""}},
         "[system] input_nodes must not be empty"),
        ({"system": {"alpha_r": "-1"}},
         "[system] alpha_r and beta_r must be nonnegative"),
        ({"system": {"x0": "0.1, 0.2"}},
         "[system] x0 has 2 entries for dimension 4"),
        ({"inference": {"omega": "0"}},
         "[inference] omega must be positive, got 0.0"),
        ({"inference": {"lambda_grid": ","}},
         "[inference] lambda_grid must not be empty"),
    ], ids=["n", "masses", "mass-count", "stiffnesses", "input-node",
            "no-input-node", "alpha_r", "x0", "omega", "no-lambda"])
    def test_bad_setting_fails_every_command_at_configure(
            self, tmp_path, capsys, command, updates, message):
        cfg = config_file(tmp_path, updates)
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        assert f"error in stage 'configure': {message}" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_unknown_flag_exits_with_usage_code(self, tmp_path):
        cfg = config_file(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--config", cfg, "--frobnicate"])
        assert excinfo.value.code == 1

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == __version__

    def test_unreadable_config_is_usage_error(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "absent.ini")])
        assert code == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_non_utf8_config_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "exp.ini"
        path.write_bytes(b"[system]\nkind = chain\n# \xff\n")
        assert main(["run", "--config", str(path)]) == 1
        assert f"malformed config {path}" in capsys.readouterr().err

    def test_uncountable_step_count_is_usage_error(self, tmp_path, capsys):
        # t_end / dt overflows to inf.
        cfg = config_file(tmp_path, {"integrator": {"dt": "1e-320"}})
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 1
        assert "[integrator] t_end / dt overflows" in capsys.readouterr().err
        assert not out.exists()

    def test_step_count_beyond_any_array_is_usage_error(self, tmp_path,
                                                         capsys):
        # 4e300 steps: finite, but no array holds the time grid.
        cfg = config_file(tmp_path, {"integrator": {"dt": "1e-300"},
                                     "training": {"t_end": "2"},
                                     "testing": {"t_end": "4"}})
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 1
        assert ("error in stage 'configure': [integrator] t_end / dt gives "
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["basis", "infer", "infer-constrained"])
    def test_stage_before_simulate_names_the_stage_to_run(
            self, tmp_path, capsys, command):
        cfg = config_file(tmp_path)
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        stage = command.replace("-", "_")
        assert capsys.readouterr().err == (
            f"error in stage '{stage}': no {out / 'fom' / 'test'}; run the "
            f"simulate stage first\n")

    def test_command_help_is_the_stage_docstring(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        help_text = capsys.readouterr().out
        for name, fn in [*cli._STAGES, ("run", cli.run)]:
            line = fn.__doc__.partition("\n")[0]
            assert name.replace("_", "-") in help_text
            assert line in " ".join(help_text.split())

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mechrom", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == __version__


class TestPipeline:
    def test_run_reports_each_stage(self, tmp_path, capsys):
        cfg = config_file(tmp_path)
        out = tmp_path / "artifacts"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "simulate: 10 training and 20 test snapshots" in stdout
        assert "basis: selected rank r = 2" in stdout
        assert "infer: selected lambda = " in stdout
        assert "infer-constrained: objective " in stdout
        for method in ("pod", "opinf", "copinf"):
            assert f"evaluate: {method} max relative error " in stdout

    @pytest.mark.parametrize("lam, unstable", [("0", False), ("1e-6", True)])
    def test_infer_reports_pencil_stability(self, tmp_path, capsys, lam,
                                            unstable):
        # On the tiny chain at rank 2, lambda = 0 gives a stable opinf
        # model (largest real part about -0.045) and lambda = 1e-6 an
        # unstable one (about +0.70).
        cfg = config_file(tmp_path)
        out = tmp_path / "artifacts"
        assert main(["run", "--config", cfg, "--out", str(out),
                     "--method", "opinf", "--lambda", lam]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("infer: largest real part")]
        damping = load_matrix(out / "opinf" / "damping.mtx")
        stiffness = load_matrix(out / "opinf" / "stiffness.mtx")
        rom = SecondOrderSystem(np.eye(damping.shape[0]), damping, stiffness)
        growth = pencil_spectrum(rom).real.max()
        assert is_stable(rom) is not unstable
        assert lines == [
            f"infer: largest real part of the pencil spectrum {growth:+.3e}"
            + (" (unstable)" if unstable else "")
        ]
        assert (growth > 0) == unstable

    @pytest.mark.parametrize("max_iter, ending", [
        (None, "iterations (converged)"),
        (None, "iterations (objective stalled)"),
        (5, "after 5 iterations (iteration limit)"),
    ])
    def test_constrained_line_names_stop_reason(self, tmp_path, capsys,
                                                monkeypatch, max_iter,
                                                ending):
        # The test experiment is fitted almost exactly, and its solve
        # converges. With the residual tolerances at zero only the
        # objective stall stops it; a low cap stops it at the limit.
        if ending.endswith("(objective stalled)"):
            monkeypatch.setattr(copinf, "_TOL_ABS", 0.0)
            monkeypatch.setattr(copinf, "_TOL_REL", 0.0)
        if max_iter is not None:
            solve = cli.infer_constrained
            monkeypatch.setattr(
                cli, "infer_constrained",
                lambda *args, **kw: solve(*args, max_iter=max_iter, **kw),
            )
        cfg = config_file(tmp_path)
        out = tmp_path / "artifacts"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("infer-constrained: ")]
        assert len(lines) == 1
        assert lines[0].endswith(ending)

    def test_run_writes_expected_tree(self, small_run):
        _, out = small_run
        tree = tree_bytes(out)
        fom = {f"fom/test/{block}.csv"
               for block in ("displacement", "velocity", "acceleration",
                             "input", "force")}
        expected = fom | {
            "basis/modes.mtx", "basis/singular_values.csv",
            "opinf/damping.mtx", "opinf/stiffness.mtx", "opinf/input.mtx",
            "opinf/lambda_table.csv",
            "copinf/mass.mtx", "copinf/damping.mtx", "copinf/stiffness.mtx",
            "copinf/trace.csv",
            "pod/mass.mtx", "pod/damping.mtx", "pod/stiffness.mtx",
            "pod/input.mtx",
            "rom_pod/displacement.csv", "rom_opinf/displacement.csv",
            "rom_copinf/displacement.csv",
            "errors_pod.csv", "errors_opinf.csv", "errors_copinf.csv",
            "manifest.json", "timings.csv",
        }
        assert {path.replace(os.sep, "/") for path in tree} == expected
        assert (read_lines(out / "copinf" / "trace.csv")[0]
                == "iteration,objective,primal_residual,dual_residual")

    def test_snapshot_counts_match_config(self, small_run, tmp_path, capsys):
        cfg, out = small_run
        test = load_csv(os.path.join(out, "fom", "test"))
        assert test.num_snapshots == 20
        assert test.n == 4
        # the training window is the first ten columns of the one store
        assert not (out / "fom" / "train").exists()
        np.testing.assert_array_equal(
            load_matrix(out / "basis" / "modes.mtx"),
            compute_basis(test.displacement[:, :10], rank=2).modes,
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert ("simulate: 10 training and 20 test snapshots"
                in capsys.readouterr().out)

    def test_manifest_records_resolved_defaults(self, small_run):
        _, out = small_run
        with open(os.path.join(out, "manifest.json"), encoding="ascii") as fh:
            manifest = json.load(fh)
        assert manifest["tool"] == "mechrom"
        assert manifest["version"] == __version__
        cfg = manifest["config"]
        assert set(cfg) == {"system", "integrator", "input", "training",
                            "testing", "basis", "inference", "output"}
        # defaults the config file never mentioned are spelled out
        assert cfg["integrator"]["gamma"] == 0.5
        assert cfg["integrator"]["beta"] == 0.25
        assert cfg["integrator"]["alpha"] == 0.0
        assert cfg["system"]["masses"] == [1.0] * 4
        assert cfg["system"]["input_nodes"] == [0]
        assert cfg["input"]["amplitude"] == 1.0
        assert cfg["inference"]["lambda_grid"] == DEFAULT_LAMBDA_GRID
        assert cfg["inference"]["omega"] == 1e-8
        assert cfg["output"]["seed"] == 0
        assert cfg["basis"] == {"rank": 2, "tol": None, "energy": None}
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert manifest["environment"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": {"name": blas["name"], "version": blas["version"],
                     "threads": cli._blas_threads(_umath_linalg),
                     "scipy_threads": cli._blas_threads(_flapack)},
        }

    def test_manifest_paths_are_relative_to_the_output(self, tmp_path):
        # Absolute system paths and two output directories whose paths
        # differ in length give the same manifest bytes.
        cfg = files_kind_config(tmp_path)
        outs = [tmp_path / "a" / "out", tmp_path / "a_longer_name" / "out"]
        for out in outs:
            assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        first, second = ((out / "manifest.json").read_bytes() for out in outs)
        assert first == second
        system = json.loads(first)["config"]["system"]
        for key, name in (("mass_path", "M.mtx"), ("damping_path", "E.mtx"),
                          ("stiffness_path", "K.mtx"), ("input_path", "B.mtx")):
            assert not os.path.isabs(system[key])
            for out in outs:
                assert os.path.samefile(out / system[key], tmp_path / name)

    def test_manifest_without_blas_build_dicts(self, tmp_path, monkeypatch):
        # numpy before 1.25 has no show_config(mode=...); it only prints
        # its build configuration, so the BLAS name and version are unknown.
        monkeypatch.setattr(np, "show_config", lambda: None)
        out = tmp_path / "o"
        assert main(["run", "--config", config_file(tmp_path),
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text("ascii"))
        assert manifest["environment"]["blas"] == {
            "name": None, "version": None,
            "threads": cli._blas_threads(_umath_linalg),
            "scipy_threads": cli._blas_threads(_flapack)}

    @pytest.mark.parametrize("library", ["unloadable", "no getter"])
    def test_blas_thread_probe_without_openblas(self, monkeypatch, library):
        # Another BLAS, or a loader that cannot open the extension by its
        # path: the thread count is unknown.
        def load(path):
            if library == "unloadable":
                raise OSError(f"cannot load {path}")
            return object()

        monkeypatch.setattr(cli.ctypes, "CDLL", load)
        assert cli._blas_threads(_umath_linalg) is None

    def test_blas_thread_probe_reads_the_environment(self):
        # OpenBLAS takes its thread count from OPENBLAS_NUM_THREADS when it
        # loads; numpy's and scipy's copies each read it. The variable is
        # passed on as set, so that a run under each thread count checks
        # that count.
        threads = os.environ.get("OPENBLAS_NUM_THREADS", "1")
        proc = subprocess.run(
            [sys.executable, "-c", "from mechrom import cli; "
             "blas = cli._environment()['blas']; "
             "print(blas['threads'], blas['scipy_threads'])"],
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [threads, threads]

    def test_timings_cover_every_stage(self, small_run):
        _, out = small_run
        lines = read_lines(os.path.join(out, "timings.csv"))
        assert lines[0] == "stage,seconds"
        stages = [ln.split(",")[0] for ln in lines[1:]]
        assert stages == ["simulate", "basis", "infer", "infer_constrained",
                          "evaluate"]
        assert all(float(ln.split(",")[1]) >= 0.0 for ln in lines[1:])

    def test_lambda_table_covers_grid(self, small_run):
        _, out = small_run
        lines = read_lines(os.path.join(out, "opinf", "lambda_table.csv"))
        assert lines[0] == "lambda,train_residual,validation_error,operator_norm"
        grid = [float(ln.split(",")[0]) for ln in lines[1:]]
        assert grid == pytest.approx(DEFAULT_LAMBDA_GRID)

    def test_error_series_split_train_and_test(self, small_run):
        _, out = small_run
        lines = read_lines(os.path.join(out, "errors_pod.csv"))
        assert lines[0] == "t,eps,phase"
        phases = [ln.split(",")[2] for ln in lines[1:]]
        assert len(phases) == 20
        # snapshots start at t = dt, so exactly ten fall inside [0, 0.2]
        assert phases == ["train"] * 10 + ["test"] * 10

    def test_train_rows_are_the_fitted_columns(self, tmp_path):
        # floor(t_end / dt + 1e-9) fits 9 columns; the tenth instant,
        # 5e-12 after t_end, is a test row.
        cfg = config_file(tmp_path, {
            "integrator": {"dt": "1e-3"},
            "training": {"t_end": "0.009999999995"},
            "testing": {"t_end": "0.02"},
            "inference": {"methods": "pod"},
        })
        out = tmp_path / "artifacts"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        lines = read_lines(os.path.join(out, "errors_pod.csv"))
        phases = [ln.split(",")[2] for ln in lines[1:]]
        assert phases == ["train"] * 9 + ["test"] * 11

    def test_train_rows_at_a_tiny_step(self, tmp_path):
        # At dt = 1e-10 the fitted columns are counted, not found by time:
        # a time tolerance of 1e-9 would take ten test instants as train.
        cfg = config_file(tmp_path, {
            "integrator": {"dt": "1e-10"},
            "training": {"t_end": "1e-7"},
            "testing": {"t_end": "2e-7"},
            "inference": {"methods": "pod"},
        })
        out = tmp_path / "artifacts"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        lines = read_lines(os.path.join(out, "errors_pod.csv"))
        phases = [ln.split(",")[2] for ln in lines[1:]]
        assert phases == ["train"] * 1000 + ["test"] * 1000

    @pytest.mark.parametrize("wave, closed_form", [
        ({"waveform": "constant", "value": "2.5"},
         lambda t: np.full_like(t, 2.5)),
        ({"waveform": "chirp", "amplitude": "0.5", "phase": "0.3",
          "f0": "1.0", "f1": "5.0", "sweep_time": "0.3"},
         lambda t: 0.5 * np.sin(0.3 + 2.0 * np.pi * (t + 4.0 * t * t / 0.6))),
    ], ids=["constant", "chirp"])
    def test_waveform_is_the_stored_input(self, tmp_path, wave, closed_form):
        cfg = config_file(tmp_path, {"input": wave},
                          drop=[("input", "frequency")])
        out = tmp_path / "artifacts"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        data = load_csv(os.path.join(out, "fom", "test"))
        assert data.input.shape == (1, 20)
        np.testing.assert_allclose(data.input[0], closed_form(data.times),
                                   rtol=0.0, atol=1e-15)

    def test_full_length_initial_displacement(self, tmp_path):
        cfg = config_file(tmp_path, {"system": {"x0": "0.1, -0.2, 0.3, -0.4"}})
        out = tmp_path / "artifacts"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        config = load_config(cfg)
        expected = simulate(cli._build_system(config),
                            cli._waveform(config),
                            [0.1, -0.2, 0.3, -0.4], None,
                            cli._integrator(config))
        stored = load_csv(os.path.join(out, "fom", "test"))
        np.testing.assert_array_equal(stored.displacement,
                                      expected.displacement)

    def test_methods_pod_only_skips_inference(self, tmp_path):
        cfg = config_file(tmp_path, {"inference": {"methods": "pod"}})
        out = tmp_path / "artifacts"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "pod" / "mass.mtx").exists()
        assert (out / "rom_pod" / "displacement.csv").exists()
        assert (out / "errors_pod.csv").exists()
        assert not (out / "opinf").exists()
        assert not (out / "copinf").exists()
        assert not (out / "errors_opinf.csv").exists()

    def test_override_flags_reach_manifest(self, tmp_path):
        cfg = config_file(tmp_path, {"basis": {"tol": "1e-2"}},
                          drop=[("basis", "rank")])
        out = tmp_path / "artifacts"
        code = main([
            "run", "--config", cfg, "--out", str(out),
            "--rank", "2", "--method", "pod,opinf",
            "--lambda", "0.001", "--omega", "1e-6",
        ])
        assert code == 0
        with open(out / "manifest.json", encoding="ascii") as fh:
            config = json.load(fh)["config"]
        assert config["basis"] == {"rank": 2, "tol": None, "energy": None}
        assert config["inference"]["methods"] == ["pod", "opinf"]
        assert config["inference"]["lambda_grid"] == [0.001]
        assert config["inference"]["omega"] == 1e-6
        assert not (out / "copinf").exists()

    def test_lambda_sweep_replays_with_the_run_scheme(self, tmp_path):
        # alpha = -0.3 sets gamma = 0.8 and beta = 0.4225 as well: every
        # candidate's validation error is that of a replay with them.
        cfg_path = config_file(tmp_path, {
            "integrator": {"alpha": "-0.3"},
            "inference": {"methods": "opinf", "lambda_grid": "0, 1e-6, 1e-2"},
        })
        out = tmp_path / "artifacts"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
        table = np.loadtxt(out / "opinf" / "lambda_table.csv", delimiter=",",
                           skiprows=1)
        rdata = cli._Results(load_config(cfg_path), str(out))["projected"]
        D, rhs = assemble_opinf_data(rdata)
        window = IntegratorConfig(dt=rdata.dt,
                                  t_end=rdata.times[-1] - rdata.times[0],
                                  alpha=-0.3)
        U = rdata.input

        def sampler(t):
            return U[:, np.rint((t - rdata.times[0]) / rdata.dt).astype(int)]

        for lam, error in zip(table[:, 0], table[:, 2]):
            rom, _ = infer(D, rhs, lam)
            replay = simulate(
                rom, sampler, rdata.displacement[:, 0], rdata.velocity[:, 0],
                window, t0=rdata.times[0])
            Q = rdata.displacement
            expected = (np.linalg.norm(replay.displacement - Q[:, 1:], axis=0).max()
                        / np.linalg.norm(Q, axis=0).max())
            assert error == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("rank", ["2", "4"])
    def test_basis_line_reports_the_spectrum(self, tmp_path, capsys, rank):
        # sigma_r / sigma_1, sigma_r+1 / sigma_1 (zero past the last
        # singular value) and the count of singular values above
        # max(n, N) eps sigma_1, for the 4 x 10 training snapshots.
        cfg = config_file(tmp_path, {"basis": {"rank": rank}})
        out = tmp_path / "artifacts"
        for command in ("simulate", "basis"):
            assert main([command, "--config", cfg, "--out", str(out)]) == 0
        s = np.loadtxt(out / "basis" / "singular_values.csv", delimiter=",",
                       skiprows=1)[:, 1]
        r = int(rank)
        trailing = s[r] if r < s.size else 0.0
        numerical = np.count_nonzero(s > 10 * np.finfo(float).eps * s[0])
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"basis: selected rank r = {r} (sigma_r/sigma_1 "
            f"{s[r - 1] / s[0]:.3e}, sigma_r+1/sigma_1 {trailing / s[0]:.3e}, "
            f"numerical rank {numerical})")

    def test_chosen_row_scores_the_written_model(self, tmp_path, capsys):
        # The chosen row's validation error is the replay error of the
        # operators in opinf/*.mtx, bit for bit: the stage writes the
        # model that the row scored.
        cfg_path = config_file(tmp_path, {
            "integrator": {"alpha": "-0.3"},
            "inference": {"methods": "opinf"},
        })
        out = tmp_path / "artifacts"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        lam = float(stdout.split("infer: selected lambda = ", 1)[1].split()[0])
        table = np.loadtxt(out / "opinf" / "lambda_table.csv", delimiter=",",
                           skiprows=1, ndmin=2)
        [row] = table[table[:, 0] == lam]
        cfg = load_config(cfg_path)
        parsed = cli._Results(cfg, str(out))
        rdata, scheme = parsed["projected"], cli._integrator(cfg)
        window = IntegratorConfig(
            dt=rdata.dt, t_end=rdata.dt * (rdata.num_snapshots - 1),
            gamma=scheme.gamma, beta=scheme.beta, alpha=scheme.alpha)
        denom = np.linalg.norm(rdata.displacement, axis=0).max()
        assert row[2] == opinf._replay_error(parsed["opinf"], rdata, window,
                                             denom)

    def test_infer_stage_factors_its_data_once(self, tmp_path, monkeypatch):
        # One SVD of the regression data serves every candidate of the
        # sweep and the model the stage writes.
        cfg = config_file(tmp_path, {"inference": {"methods": "opinf"}})
        out = str(tmp_path / "artifacts")
        for command in ("simulate", "basis"):
            assert main([command, "--config", cfg, "--out", out]) == 0
        shapes, svd = [], opinf.la.svd

        def spy_svd(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(opinf.la, "svd", spy_svd)
        assert main(["infer", "--config", cfg, "--out", out]) == 0
        assert len(shapes) == 1

    def test_repeat_run_is_byte_identical(self, tmp_path):
        cfg = config_file(tmp_path, {"output": {"seed": "3"}})
        out = tmp_path / "artifacts"
        argv = ["run", "--config", cfg, "--out", str(out)]
        assert main(argv) == 0
        first = tree_bytes(out, skip={"timings.csv"})
        assert main(argv) == 0
        second = tree_bytes(out, skip={"timings.csv"})
        assert first == second

    def test_artifacts_do_not_depend_on_the_output_path(self, tmp_path):
        cfg = config_file(tmp_path)
        short, long = tmp_path / "o", tmp_path / "a-longer-output-name"
        for out in (short, long):
            assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert tree_bytes(short, skip={"timings.csv"}) \
            == tree_bytes(long, skip={"timings.csv"})

    def test_staged_invocation_matches_run(self, tmp_path):
        cfg = config_file(tmp_path)
        staged = tmp_path / "staged"
        whole = tmp_path / "whole"
        for command in ("simulate", "basis", "infer", "infer-constrained",
                        "evaluate"):
            assert main([command, "--config", cfg, "--out", str(staged)]) == 0
        assert main(["run", "--config", cfg, "--out", str(whole)]) == 0

        staged_tree = tree_bytes(staged)
        whole_tree = tree_bytes(whole, skip={"manifest.json", "timings.csv"})
        assert staged_tree == whole_tree
        # the bookkeeping files belong to run alone
        assert not (staged / "manifest.json").exists()
        assert not (staged / "timings.csv").exists()
        assert (whole / "manifest.json").exists()


class TestStageResults:
    """The stages of a command pass each other their results in memory;
    a result that no stage of the command computed is parsed from the
    tree."""

    def test_run_parses_nothing(self, tmp_path, monkeypatch):
        calls = {name: [] for name in ("load_csv", "load_matrix",
                                       "read_table", "_build_system",
                                       "project")}
        for name, record in calls.items():
            def spy(*args, fn=getattr(cli, name), record=record, **kwargs):
                record.append((args[0], kwargs.get("max_rows")))
                return fn(*args, **kwargs)
            monkeypatch.setattr(cli, name, spy)
        cfg = config_file(tmp_path)
        out = tmp_path / "artifacts"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert [len(calls[name]) for name in calls] == [0, 0, 0, 1, 1]
        # basis alone parses the training window's displacement: its
        # first ten rows
        calls["load_csv"].clear()
        assert main(["basis", "--config", cfg, "--out", str(out)]) == 0
        assert calls["load_csv"] == [(str(out / "fom" / "test"), 10)]

    def test_basis_parses_the_displacement_alone(self, tmp_path,
                                                 monkeypatch):
        cfg = config_file(tmp_path)
        out = tmp_path / "artifacts"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        parsed = []
        read_block = snapshots._read_block

        def recording(path, max_rows=None):
            parsed.append((os.path.relpath(path, out), max_rows))
            return read_block(path, max_rows)

        monkeypatch.setattr(snapshots, "_read_block", recording)
        assert main(["basis", "--config", cfg, "--out", str(out)]) == 0
        assert parsed == [(os.path.join("fom", "test", "displacement.csv"), 10)]

    def test_nothing_carries_over_between_commands(self, tmp_path, capsys):
        cfg = config_file(tmp_path)
        out = tmp_path / "artifacts"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        path = out / "fom" / "test" / "displacement.csv"
        lines = path.read_text(encoding="ascii").splitlines()
        lines[3] = ",".join(["abc"] * 5)
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
        capsys.readouterr()
        code = main(["evaluate", "--config", cfg, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error in stage 'evaluate'" in err
        assert f"{path}:4: non-numeric field" in err

    def test_held_results_are_the_parsed_results(self, tmp_path,
                                                 monkeypatch):
        # The .mtx files leave out exact zeros, so a -0.0 operator entry
        # reads back as +0.0; opinf's input map is a column view of its
        # fit. The held results must match the parsed ones all the same.
        sweep = cli.select_lambda

        def sweep_with_negative_zero(*args, **kwargs):
            lam, rom, trials = sweep(*args, **kwargs)
            damping = rom.damping.copy()
            damping[0, 1] = -0.0
            return lam, dataclasses.replace(rom, damping=damping), trials

        monkeypatch.setattr(cli, "select_lambda", sweep_with_negative_zero)
        cfg = load_config(config_file(tmp_path))
        out = str(tmp_path / "artifacts")
        results, held = cli._Results(cfg, out), {}
        for _, stage in cli._STAGES:
            stage(cfg, out, results)
            # the training window goes once it is projected
            held.update(results)
        assert "train" not in results
        parsed = cli._Results(cfg, out)
        # basis took the training window's displacement from train
        a, b = held["train_displacement"], parsed["train_displacement"]
        assert a.strides == b.strides and a.tobytes() == b.tobytes()
        arrays = {
            "train": ("times", "displacement", "velocity", "acceleration",
                      "input", "force"),
            "test": ("times", "displacement"),
            "basis": ("modes", "singular_values"),
            "opinf": ("mass", "damping", "stiffness", "input_map"),
            "copinf": ("mass", "damping", "stiffness"),
        }
        assert not np.signbit(held["opinf"].damping[0, 1])
        assert held["copinf"].input_map is parsed["copinf"].input_map is None
        assert held["test"].velocity is parsed["test"].velocity is None
        for key, names in arrays.items():
            for name in names:
                a, b = getattr(held[key], name), getattr(parsed[key], name)
                assert a.dtype == b.dtype and a.shape == b.shape, (key, name)
                assert a.strides == b.strides, (key, name)
                assert a.tobytes() == b.tobytes(), (key, name)

    def test_staged_commands_match_run_on_negative_zeros(self, tmp_path,
                                                         monkeypatch):
        # A chain long enough, and a training window short enough, that
        # the far masses stay at rest: their displacements underflow to
        # exact zeros and the basis holds negative zeros, as on the
        # n = 1000 benchmark chain. On such data a held result that does
        # not keep the layout and zero signs of the parsed one moves bytes.
        cfg = config_file(tmp_path, {
            "system": {"n": "160", "stiffnesses": "1e4", "alpha_r": "0.01",
                       "beta_r": "1e-4"},
            "integrator": {"dt": "1e-3"},
            "input": {"frequency": "10.0"},
            "training": {"t_end": "0.04"},
            "testing": {"t_end": "0.08"},
        })
        bases = []

        def recorded(*args, **kwargs):
            bases.append(compute_basis(*args, **kwargs))
            return bases[-1]

        monkeypatch.setattr(cli, "compute_basis", recorded)
        staged, whole = tmp_path / "staged", tmp_path / "whole"
        for command in ("simulate", "basis", "infer", "infer-constrained",
                        "evaluate"):
            assert main([command, "--config", cfg, "--out", str(staged)]) == 0
        assert main(["run", "--config", cfg, "--out", str(whole)]) == 0
        for basis in bases:
            modes = basis.modes
            assert np.any((modes == 0.0) & np.signbit(modes))
        assert tree_bytes(staged) == tree_bytes(
            whole, skip={"manifest.json", "timings.csv"})

    def test_evaluate_alone_loads_the_system(self, tmp_path, capsys):
        cfg = files_kind_config(tmp_path)
        out = tmp_path / "artifacts"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        os.remove(tmp_path / "M.mtx")
        capsys.readouterr()
        code = main(["evaluate", "--config", cfg, "--out", str(out)])
        assert code == 2
        assert "error in stage 'load_system'" in capsys.readouterr().err


@pytest.fixture(scope="module")
def station_run(tmp_path_factory):
    """Run mirroring the orbital-structure test protocol: 0.01 s steps, a
    1 rad/s sinusoid, training on [0, 7] s, testing on [0, 21] s, rank 4."""
    root = tmp_path_factory.mktemp("station")
    cfg = write_config(root, {
        "system": {"kind": "chain", "n": "8", "stiffnesses": "5.0",
                   "alpha_r": "0.02", "beta_r": "0.01"},
        "integrator": {"dt": "0.01"},
        "input": {"waveform": "sine", "angular_frequency": "1.0"},
        "training": {"t_end": "7.0"},
        "testing": {"t_end": "21.0"},
        "basis": {"rank": "4"},
    })
    out = root / "artifacts"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    return cfg, out


class TestStationProtocol:
    def test_emits_all_artifacts(self, station_run, tmp_path, capsys):
        cfg, out = station_run
        test = load_csv(os.path.join(out, "fom", "test"))
        assert test.num_snapshots == 2100
        assert not (out / "fom" / "train").exists()
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert ("simulate: 700 training and 2100 test snapshots"
                in capsys.readouterr().out)
        for method in ("pod", "opinf", "copinf"):
            assert (out / f"errors_{method}.csv").exists()
            assert (out / f"rom_{method}" / "displacement.csv").exists()
        assert (out / "manifest.json").exists()

    def test_basis_tolerance_override_prints_rank(self, station_run, capsys):
        # rerun just the basis stage with a tolerance selector on the
        # 700 column training matrix
        cfg, out = station_run
        code = main(["basis", "--config", cfg, "--out", str(out),
                     "--tol", "1e-2"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "basis: selected rank r = " in stdout
        rank = int(stdout.split("r = ", 1)[1].split()[0])
        assert rank >= 1
        lines = read_lines(os.path.join(out, "basis", "singular_values.csv"))
        assert lines[0] == "index,sigma"
        assert len(lines) - 1 >= rank


class TestStageFailures:
    def test_missing_system_matrix_names_load_stage(self, tmp_path, capsys):
        cfg = write_config(tmp_path, merged({
            "system": {
                "kind": "files",
                "mass_path": str(tmp_path / "M.mtx"),
                "damping_path": str(tmp_path / "E.mtx"),
                "stiffness_path": str(tmp_path / "K.mtx"),
                "input_path": str(tmp_path / "B.mtx"),
            },
        }, drop=[("system", "n")]))
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error in stage 'load_system'" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, target, stage", [
        ("chain", "simulate", "simulate"),
        ("files", "load_system", "load_system"),
    ])
    @pytest.mark.parametrize("message, shown", [
        ("Unable to allocate 7.28 TiB", "Unable to allocate 7.28 TiB"),
        ("", "out of memory"),
    ], ids=["numpy", "bare"])
    def test_out_of_memory_names_its_stage(self, tmp_path, capsys, monkeypatch,
                                           kind, target, stage, message,
                                           shown):
        # Raised, not provoked: a real allocation that large could succeed
        # under overcommit and be killed later.
        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, target, exhausted)
        cfg = (files_kind_config(tmp_path) if kind == "files"
               else config_file(tmp_path))
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error in stage '{stage}': {shown}\n")

    def test_files_kind_loads_saved_matrices(self, tmp_path):
        cfg = files_kind_config(tmp_path)
        out = tmp_path / "artifacts"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        data = load_csv(os.path.join(out, "fom", "test"))
        assert data.n == 3

    def test_training_window_beyond_stored_trajectory(self, tmp_path, capsys):
        cfg = config_file(tmp_path)
        out = tmp_path / "artifacts"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        longer = config_file(
            tmp_path, {"training": {"t_end": "0.5"}, "testing": {"t_end": "0.5"}},
            name="longer.ini",
        )
        code = main(["basis", "--config", longer, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error in stage 'basis'" in err
        assert "needs 25 snapshots, fom/test holds 20" in err

    def test_evaluate_before_pipeline_is_data_error(self, tmp_path, capsys):
        cfg = config_file(tmp_path)
        code = main(["evaluate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error in stage 'evaluate'" in err
        assert "run the basis stage first" in err

    def test_infer_before_simulate_is_data_error(self, tmp_path, capsys):
        cfg = config_file(tmp_path)
        code = main(["infer", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error in stage 'infer'" in capsys.readouterr().err

    def test_stages_read_only_the_blocks_they_need(self, tmp_path, capsys):
        cfg = config_file(tmp_path)
        out = tmp_path / "artifacts"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        fom = out / "fom" / "test"
        os.remove(fom / "velocity.csv")
        os.remove(fom / "acceleration.csv")
        before = tree_bytes(out)
        # basis and evaluate need the displacement alone: each rewrites
        # its artifacts, removed first, byte for byte.
        for command, written in (("basis", ("basis/*",)),
                                 ("evaluate", ("pod/*", "rom_*/*",
                                               "errors_*.csv"))):
            for pattern in written:
                for path in out.glob(pattern):
                    os.remove(path)
            assert main([command, "--config", cfg, "--out", str(out)]) == 0
            assert tree_bytes(out) == before
        capsys.readouterr()
        for command, named in (("infer", "velocity"),
                               ("infer-constrained", "acceleration")):
            assert main([command, "--config", cfg, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert f"error in stage '{command.replace('-', '_')}'" in err
            assert f"{named} block is required and absent" in err
        assert tree_bytes(out) == before

    def test_evaluate_missing_inferred_operators(self, tmp_path, capsys):
        cfg = config_file(tmp_path, {"inference": {"methods": "opinf"}})
        out = tmp_path / "artifacts"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert main(["basis", "--config", cfg, "--out", str(out)]) == 0
        code = main(["evaluate", "--config", cfg, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "run the infer stage first" in err

    @pytest.mark.parametrize("text", ["", "index,sigma\n"],
                             ids=["empty", "header-only"])
    def test_basis_without_singular_values_is_data_error(self, tmp_path,
                                                         capsys, text):
        cfg = config_file(tmp_path, {"inference": {"methods": "opinf"}})
        out = tmp_path / "artifacts"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert main(["basis", "--config", cfg, "--out", str(out)]) == 0
        path = out / "basis" / "singular_values.csv"
        path.write_text(text, encoding="ascii")
        capsys.readouterr()
        code = main(["infer", "--config", cfg, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error in stage 'infer'" in err
        assert f"{path}: no singular values: the file has no rows" in err

    @pytest.mark.parametrize("row, message", [
        (b"2,nan\n", "singular values must be finite"),
        (b"2,\xff\n", ":3: non-numeric sigma"),
    ], ids=["nan", "non-ascii"])
    def test_bad_singular_values_are_data_error(self, tmp_path, capsys, row,
                                                message):
        cfg = config_file(tmp_path, {"inference": {"methods": "opinf"}})
        out = tmp_path / "artifacts"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert main(["basis", "--config", cfg, "--out", str(out)]) == 0
        path = out / "basis" / "singular_values.csv"
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:2]) + row + b"".join(lines[3:]))
        capsys.readouterr()
        code = main(["infer", "--config", cfg, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error in stage 'infer'" in err
        assert message in err

    def test_zero_motion_data_is_numerical_error(self, tmp_path, capsys):
        cfg = config_file(tmp_path, {"input": {"amplitude": "0.0"}})
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert "error in stage 'basis'" in err
        assert "identically zero" in err

    def test_initial_condition_length_mismatch(self, tmp_path, capsys):
        # A chain's dimension is a setting, so this is a configuration
        # error, found before any stage runs.
        cfg = config_file(tmp_path, {"system": {"x0": "0.1, 0.2"}})
        out = tmp_path / "o"
        code = main(["simulate", "--config", cfg, "--out", str(out)])
        assert code == 1
        assert "error in stage 'configure': [system] x0 has 2 entries " \
            "for dimension 4" in capsys.readouterr().err
        assert not out.exists()

    def test_initial_condition_length_mismatch_with_system_files(
            self, tmp_path, capsys):
        # The system files give the dimension: the first stage that reads
        # them finds the mismatch.
        cfg = files_kind_config(tmp_path)
        with open(cfg, "r+", encoding="ascii") as fh:
            text = fh.read().replace("[system]\n", "[system]\nx0 = 0.1, 0.2\n")
            fh.seek(0)
            fh.write(text)
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error in stage 'simulate': [system] x0 has 2 entries for " \
            "dimension 3" in capsys.readouterr().err

    def test_diverging_replay_is_numerical_error(self, tmp_path, capsys):
        # At dt = 1e-4 the trapezoidal rule maps the unstable pair +-1e4 of
        # q'' = 1e8 q to the step multiplier 3, so 1000 steps overflow.
        cfg = config_file(tmp_path, {
            "integrator": {"dt": "1e-4"},
            "training": {"t_end": "0.001"},
            "testing": {"t_end": "0.1"},
        })
        out = tmp_path / "artifacts"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert main(["basis", "--config", cfg, "--out", str(out)]) == 0
        os.makedirs(out / "opinf")
        save_matrix(out / "opinf" / "damping.mtx", np.zeros((2, 2)))
        save_matrix(out / "opinf" / "stiffness.mtx", -1e8 * np.eye(2))
        save_matrix(out / "opinf" / "input.mtx", np.ones((2, 1)))
        capsys.readouterr()
        code = main(["evaluate", "--config", cfg, "--out", str(out),
                     "--method", "opinf,pod"])
        assert code == 3
        err = capsys.readouterr().err
        assert "error in stage 'evaluate'" in err
        assert "opinf" in err and "pod" not in err
        # every method still writes its error series
        for method in ("opinf", "pod"):
            assert os.path.exists(out / f"errors_{method}.csv")

    def test_run_stops_on_a_diverging_opinf_model(self, tmp_path, capsys,
                                                  monkeypatch):
        # The same growing pair as above, now as the model that `run`
        # fits: its rank-2 replay goes through the banded solve, whose
        # overflow ends the run as a numerical error.
        sweep = cli.select_lambda

        def diverging_sweep(*args, **kwargs):
            lam, rom, trials = sweep(*args, **kwargs)
            return lam, dataclasses.replace(
                rom, stiffness=-1e8 * np.eye(rom.n)), trials

        monkeypatch.setattr(cli, "select_lambda", diverging_sweep)
        cfg = config_file(tmp_path, {
            "integrator": {"dt": "1e-4"},
            "training": {"t_end": "0.001"},
            "testing": {"t_end": "0.1"},
        })
        out = tmp_path / "artifacts"
        assert newmark._BANDED_MAX_WIDTH >= 4
        code = main(["run", "--config", cfg, "--out", str(out),
                     "--method", "opinf,pod"])
        assert code == 3
        err = capsys.readouterr().err
        assert "error in stage 'evaluate'" in err
        assert "opinf" in err and "pod" not in err

    def test_all_diverged_sweep_keeps_its_table(self, tmp_path, capsys,
                                                monkeypatch):
        # Every candidate's replay diverges: the run stops in infer, and
        # the table shows each weight with its infinite validation error.
        monkeypatch.setattr(opinf, "_replay_error",
                            lambda *args: float("inf"))
        cfg = config_file(tmp_path, {"inference": {"methods": "opinf"}})
        out = tmp_path / "artifacts"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "error in stage 'infer'" in err
        assert "every regularization weight" in err
        lines = read_lines(os.path.join(out, "opinf", "lambda_table.csv"))
        assert lines[0] == "lambda,train_residual,validation_error,operator_norm"
        rows = [ln.split(",") for ln in lines[1:]]
        assert [float(row[0]) for row in rows] == pytest.approx(
            sorted(DEFAULT_LAMBDA_GRID))
        assert [row[2] for row in rows] == ["inf"] * len(DEFAULT_LAMBDA_GRID)
        assert not (out / "opinf" / "stiffness.mtx").exists()

    @pytest.mark.parametrize("x0, damping, stiffness, input_scale", [
        # Operators near the largest double: the predictor transition is
        # finite, but the replay from x0 cancels to values near 1e287,
        # whose error overflows; the factorized step from x0 overflows.
        ("0.05", 1.79e308, 1.79e308, 1.0),
        # A finite transition whose force term g overflows: negative
        # damping leaves an effective matrix of 0.01 I at dt = 0.02.
        ("0.0", -99.0, 0.0, 1e307),
    ])
    def test_non_finite_transition_is_numerical_error(
            self, tmp_path, capsys, x0, damping, stiffness, input_scale):
        cfg = config_file(tmp_path, {"system": {"x0": x0}})
        out = tmp_path / "artifacts"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert main(["basis", "--config", cfg, "--out", str(out)]) == 0
        os.makedirs(out / "opinf")
        save_matrix(out / "opinf" / "damping.mtx", damping * np.eye(2))
        save_matrix(out / "opinf" / "stiffness.mtx", stiffness * np.eye(2))
        save_matrix(out / "opinf" / "input.mtx", input_scale * np.ones((2, 1)))
        capsys.readouterr()
        code = main(["evaluate", "--config", cfg, "--out", str(out),
                     "--method", "opinf,pod"])
        assert code == 3
        err = capsys.readouterr().err
        assert "error in stage 'evaluate'" in err
        assert "opinf" in err and "pod" not in err

    def test_percent_in_config_value_is_literal(self, tmp_path):
        cfg = config_file(tmp_path, {"output": {"directory": "out%1"}})
        cwd = os.getcwd()
        os.chdir(tmp_path)
        try:
            assert main(["simulate", "--config", cfg]) == 0
        finally:
            os.chdir(cwd)
        assert os.path.isdir(tmp_path / "out%1" / "fom" / "test")

    def test_evaluate_mismatched_lengths_names_both(self, small_run, tmp_path,
                                                    capsys):
        # reuse the finished artifacts but ask evaluate for a longer test
        # window than the stored snapshots cover
        _, out = small_run
        cfg = config_file(tmp_path, {"testing": {"t_end": "0.6"}})
        code = main(["evaluate", "--config", cfg, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "replay produced 30 snapshots, test data has 20" in err

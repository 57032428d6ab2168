"""Workload definitions: one INI config per workload, plus seeded inputs.

Each workload is a fixed experiment run through ``mechrom run``. The
seed only draws the masses and spring constants of the seeded chains
(``wide`` and ``sweep``); ``readme`` is the README experiment verbatim
and ignores the seed. The drawn values stay within 0.01% of a uniform
chain, so every seed poses the same problem up to small perturbations:
the same basis ranks, the same stage split and errors of one size.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

# Relative half-width of the uniform perturbation applied to the seeded
# masses and spring constants.
SPREAD = 1e-4

ALPHA_R = 0.01
BETA_R = 1e-4


@dataclass(frozen=True)
class Chain:
    """Fixed-fixed mass-spring chain with Rayleigh damping, driven by
    ``amplitude * sin(2 pi frequency t)`` at node 0 from rest.

    The benchmark keeps its own copy of the operators so the checks
    never depend on the program's builders or readers.
    """

    masses: np.ndarray
    springs: np.ndarray
    frequency: float
    amplitude: float = 1.0
    alpha_r: float = ALPHA_R
    beta_r: float = BETA_R

    @property
    def n(self) -> int:
        return self.masses.size

    def operators(self):
        """Dense (M, E, K, B) assembled with numpy alone."""
        k = self.springs
        M = np.diag(self.masses)
        K = np.diag(k[:-1] + k[1:]) - np.diag(k[1:-1], 1) - np.diag(k[1:-1], -1)
        E = self.alpha_r * M + self.beta_r * K
        B = np.zeros((self.n, 1))
        B[0, 0] = 1.0
        return M, E, K, B


@dataclass(frozen=True)
class Workload:
    name: str
    chain: Chain
    dt: float
    train_t_end: float
    test_t_end: float
    basis: tuple          # ("tol", 1e-2) or ("rank", 8)
    lambda_grid: str      # "default" or an explicit comma list
    from_files: bool = False

    @property
    def test_steps(self) -> int:
        return int(np.floor(self.test_t_end / self.dt + 1e-9))

    @property
    def train_steps(self) -> int:
        return int(np.floor(self.train_t_end / self.dt + 1e-9))

    def write_inputs(self, workdir) -> str:
        """Write the config (and for ``files`` workloads the operator
        files, through the program's own ``model.save_system``) into
        ``workdir``; return the config path."""
        os.makedirs(workdir, exist_ok=True)
        c = self.chain
        if self.from_files:
            from mechrom.model import SecondOrderSystem, save_system

            paths = {key: os.path.join(workdir, f"{key}.mtx")
                     for key in ("mass", "damping", "stiffness", "input")}
            save_system(SecondOrderSystem(*c.operators(), label=self.name),
                        paths["mass"], paths["damping"], paths["stiffness"],
                        paths["input"])
            system = "\n".join(["kind = files"] + [
                f"{key}_path = {path}" for key, path in paths.items()])
        else:
            system = "\n".join([
                "kind = chain",
                f"n = {c.n}",
                "masses = " + _floats(c.masses),
                "stiffnesses = " + _floats(c.springs),
                f"alpha_r = {c.alpha_r!r}",
                f"beta_r = {c.beta_r!r}",
                "input_nodes = 0",
            ])
        basis_key, basis_value = self.basis
        text = f"""[system]
{system}

[integrator]
dt = {self.dt!r}

[input]
waveform = sine
frequency = {c.frequency!r}
amplitude = {c.amplitude!r}
phase = 0.0

[training]
t_end = {self.train_t_end!r}

[testing]
t_end = {self.test_t_end!r}

[basis]
{basis_key} = {basis_value!r}

[inference]
methods = pod, opinf, copinf
lambda_grid = {self.lambda_grid}
omega = 1e-8

[output]
directory = results
seed = 0
"""
        path = os.path.join(workdir, "experiment.ini")
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
        return path


def to_json(w: Workload) -> str:
    """The workload as JSON, so a replay process can rebuild it."""
    import dataclasses
    import json

    d = dataclasses.asdict(w)
    d["chain"] = {k: (v.tolist() if isinstance(v, np.ndarray) else v)
                  for k, v in d["chain"].items()}
    return json.dumps(d)


def from_json(text: str) -> Workload:
    import json

    d = json.loads(text)
    chain = d.pop("chain")
    chain["masses"] = np.asarray(chain["masses"])
    chain["springs"] = np.asarray(chain["springs"])
    d["basis"] = tuple(d["basis"])
    return Workload(chain=Chain(**chain), **d)


def _floats(values) -> str:
    # A uniform list is written as the one scalar the config broadcasts.
    if np.all(values == values[0]):
        return repr(float(values[0]))
    return ", ".join(repr(float(v)) for v in values)


def _seeded_chain(n, seed, stiffness, frequency) -> Chain:
    rng = np.random.default_rng(seed)
    masses = 1.0 + SPREAD * rng.uniform(-1.0, 1.0, n)
    springs = stiffness * (1.0 + SPREAD * rng.uniform(-1.0, 1.0, n + 1))
    return Chain(masses=masses, springs=springs, frequency=frequency)


# 0 plus 37 log-spaced weights from 1e-12 to 1: three per decade.
SWEEP_GRID = ", ".join(["0.0"] + [repr(float(v)) for v in np.logspace(-12.0, 0.0, 37)])


# Each workload loads different layers, so that a change to one layer
# shows on one workload and predicts no change on another:
#   readme  the README experiment; the capped constrained solve is nearly
#           all of the time (solver changes show here);
#   wide    full-model Newmark, CSV/.mtx artifact I/O and the SVD; the
#           constrained solve converges in ~1,000 iterations;
#   sweep   the lambda sweep's fits and replays and the ROM replays; the
#           constrained solve converges, so a stop-rule change must not
#           slow it.
def make(name: str, seed: int) -> Workload:
    """The workload ``name`` with inputs drawn from ``seed``."""
    if name == "readme":
        chain = Chain(masses=np.ones(200), springs=np.full(201, 1e4),
                      frequency=10.0)
        return Workload(name, chain, dt=1e-3, train_t_end=0.5,
                        test_t_end=1.0, basis=("tol", 1e-2),
                        lambda_grid="default")
    if name == "wide":
        return Workload(name, _seeded_chain(1000, seed, 1e4, 10.0),
                        dt=1e-3, train_t_end=0.25, test_t_end=0.5,
                        basis=("rank", 8), lambda_grid="default",
                        from_files=True)
    if name == "sweep":
        return Workload(name, _seeded_chain(40, seed, 1e4, 2.0),
                        dt=1e-3, train_t_end=2.0, test_t_end=4.0,
                        basis=("rank", 4), lambda_grid=SWEEP_GRID)
    raise KeyError(name)


NAMES = ("readme", "wide", "sweep")

"""Benchmark of the mechrom pipeline (``mechrom run``) on three workloads.

    python3 perfbench/run.py --workload readme|wide|sweep --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.
Every process runs with one BLAS thread on one pinned CPU, and all load
comes from one process at a time: this script spawns the pipeline
processes one after the other and waits for each. Every timing is
reported in reference seconds: wall time weighted by the speed probe
that runs beside the timed work on the same CPU (see ``speed.py``).

Untraced (``--trace 0``): set up in several fresh interpreters, then run
whole pipelines in fresh interpreters until ``--seconds`` have passed
(at least one), check the artifacts, replay the learned reduced models,
and report the end-to-end metrics (medians over rounds).

Traced (``--trace 1``): one traced pipeline run, which gives the
per-layer metrics. The tracing overhead is its pipeline time minus that
of untraced runs of the same source and inputs, recorded by earlier
runs in ``.perfbench/runs``; without such a record an untraced pipeline
runs first.

An operation is one stage of one pipeline run. It fails when the
program exits non-zero in it or before it, when a check of its
artifacts fails, when a rerun of the same source and inputs does not
reproduce its artifacts byte for byte, or, for ``infer_constrained``,
when the solver stops at its iteration cap. A failing stage still gives
a result (``correct`` false, unmeasurable metrics None); exit code 2
without a result means the benchmark cannot run here. The last line of
standard output is the JSON result; the line before it is the run
record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

from tracing import STAGES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
ROM_BUILD_STAGES = ("basis", "infer", "infer_constrained")
SETUP_SAMPLES = 4
# Seconds of reduced-model replay behind rom_steps_per_s.
REPLAY_SECONDS = 2.5
# Every run must end within 180 s of its start; no child may run past
# this many seconds after main() starts.
DEADLINE_S = 172.0

# Seconds kept free after the last round for checks and replays.
AFTER_ROUNDS_S = 20.0

# perf_counter reading by which every child must have ended; main() sets
# it, so a caller of measure() alone has no deadline.
_deadline = float("inf")


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def child_env():
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def spawn(args, log):
    """Run child.py with ``args``, probing the CPU's speed while it runs.

    Returns (spawn clock, the child's record, stdout, stderr, the
    SpeedTrace). The child's output goes to ``log``.out and ``log``.err.
    """
    from speed import INTERVAL_S, SpeedTrace

    remaining = _deadline - time.perf_counter()
    if remaining <= 1.0:
        raise BenchError("out of time before the next pipeline process")
    with open(log + ".out", "w") as out, open(log + ".err", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py")] + args,
                                env=child_env(), cwd=ROOT, stdout=out, stderr=err)
        trace = SpeedTrace()
        try:
            while proc.poll() is None:
                if time.perf_counter() - start > remaining:
                    raise BenchError(f"pipeline process still running after "
                                     f"{remaining:.0f} s")
                time.sleep(INTERVAL_S)
                trace.sample()
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    trace.sample()
    with open(log + ".out") as out, open(log + ".err") as err:
        stdout, stderr = out.read(), err.read()
    lines = [ln for ln in stdout.splitlines() if ln.startswith("PERFBENCH ")]
    if proc.returncode != 0 or not lines:
        raise BenchError(f"pipeline process failed ({proc.returncode}):\n"
                         + stderr[-2000:])
    record = json.loads(lines[-1][len("PERFBENCH "):])
    return start, record, stdout, stderr, trace


def tree_digest(outdir):
    """sha256 of every artifact except timings.csv, by relative path."""
    digest = {}
    for base, _, files in os.walk(outdir):
        for name in files:
            path = os.path.join(base, name)
            rel = os.path.relpath(path, outdir)
            if rel == "timings.csv":
                continue
            with open(path, "rb") as fh:
                digest[rel] = [hashlib.sha256(fh.read()).hexdigest(),
                               os.path.getsize(path)]
    return digest


class RunStore:
    """What earlier runs of the same source and inputs left in ``store``.

    One JSON file per pair of a digest of ``src/`` and a hash of the
    input files holds the artifact digest that every run of that pair
    must reproduce (the first run records its own) and the untraced
    ``pipeline_s`` of each earlier round. A change to the program's
    source starts a new file, so runs of different code are never
    compared.
    """

    def __init__(self, store, inputs_dir, src_sha):
        key = hashlib.sha256(src_sha.encode() + b"\0")
        for name in sorted(os.listdir(inputs_dir)):
            with open(os.path.join(inputs_dir, name), "rb") as fh:
                key.update(name.encode() + b"\0" + fh.read())
        self.path = os.path.join(store, key.hexdigest() + ".json")
        self.data = {"digest": None, "pipeline_s": []}
        if os.path.exists(self.path):
            with open(self.path, "r", encoding="ascii") as fh:
                self.data = json.load(fh)

    def reference_digest(self, digest):
        """The recorded digest, or ``digest`` recorded as the reference."""
        if self.data["digest"] is None:
            self.data["digest"] = digest
            self._save()
        return self.data["digest"]

    def add_pipeline_s(self, values):
        self.data["pipeline_s"].extend(values)
        self._save()

    def _save(self):
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        with open(self.path, "w", encoding="ascii") as fh:
            json.dump(self.data, fh)


def owner_stage(rel):
    """The stage that writes an artifact, from its top-level name."""
    return {"fom": "simulate", "basis": "basis", "opinf": "infer",
            "copinf": "infer_constrained"}.get(rel.split(os.sep)[0], "evaluate")


def read_timings(outdir):
    path = os.path.join(outdir, "timings.csv")
    out = {}
    if os.path.exists(path):
        with open(path, "r", encoding="ascii") as fh:
            next(fh)
            for line in fh:
                parts = line.strip().split(",")
                out[parts[0]] = float(parts[1])
    return out


def run_pipeline(config, outdir, spans=None):
    """One ``mechrom run`` in a fresh interpreter, into an empty ``outdir``."""
    shutil.rmtree(outdir, ignore_errors=True)
    args = ["--config", config, "--out", outdir]
    if spans:
        args += ["--spans", spans]
    start, record, stdout, stderr, trace = spawn(
        args, os.path.join(os.path.dirname(outdir), "pipeline"))
    record["trace"] = trace
    record["traced"] = bool(spans)
    record["raw_setup_s"] = record["ready"] - start
    record["setup_s"] = trace.seconds(start, record["ready"])
    record["stdout"] = stdout
    record["stderr"] = stderr
    # Stages run back to back from the pipeline's start.
    record["timings"] = {}
    clock = record["start"]
    for stage, seconds in read_timings(outdir).items():
        record["timings"][stage] = trace.seconds(clock, clock + seconds)
        clock += seconds
    record["raw_pipeline_s"] = record["end"] - record["start"]
    record["pipeline_s"] = trace.seconds(record["start"], record["end"])
    record["digest"] = tree_digest(outdir)
    return record


def failed_stages(record, reference, check_failures):
    """Stages of one pipeline round that count as failed, with reasons."""
    failed = {}
    if record["exit"] != 0:
        match = re.search(r"error in stage '(\w+)'", record["stderr"])
        first = STAGES.index(match.group(1)) if match and match.group(1) in STAGES else 0
        for stage in STAGES[first:]:
            failed[stage] = f"exit code {record['exit']}"
    if re.search(r"infer-constrained: .*\(iteration limit\)", record["stdout"]):
        failed.setdefault("infer_constrained", "solver stopped at its iteration cap")
    digest = record["digest"]
    for rel in sorted(set(digest) | set(reference)):
        if digest.get(rel) != reference.get(rel):
            failed.setdefault(owner_stage(rel), f"rerun changed {rel}")
    for stage, problems in check_failures.items():
        if problems:
            failed.setdefault(stage, "; ".join(problems))
    return failed


def reference_kernel():
    """Milliseconds of a fixed pure-Python loop and of a 200x200 GEMM x20."""
    import numpy as np

    A = np.random.default_rng(0).standard_normal((200, 200))
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    loop_ms = 1e3 * (time.perf_counter() - start)
    start = time.perf_counter()
    for _ in range(20):
        A @ A
    return loop_ms, 1e3 * (time.perf_counter() - start)


def reference_medians(samples=5):
    runs = [reference_kernel() for _ in range(samples)]
    return {"py_loop_ms": statistics.median(r[0] for r in runs),
            "gemm_ms": statistics.median(r[1] for r in runs)}


def blas_threads():
    """Thread count reported by each loaded OpenBLAS, by library file."""
    import ctypes

    out = {}
    with open("/proc/self/maps", "r", encoding="ascii", errors="replace") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def filesystem_of(path):
    best, fstype = "", "unknown"
    with open("/proc/self/mounts", "r", encoding="ascii", errors="replace") as fh:
        for line in fh:
            parts = line.split()
            mount = parts[1]
            if (path == mount or path.startswith(mount.rstrip("/") + "/")) \
                    and len(mount) > len(best):
                best, fstype = mount, parts[2]
    return {"mount": best, "type": fstype}


def source_digest():
    """sha256 over the relative path and bytes of every .py file in src/."""
    sha = hashlib.sha256()
    for base, _, files in sorted(os.walk(SRC)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                sha.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    sha.update(fh.read())
    return sha.hexdigest()


def source_commit():
    """The commit when the checkout is a git work tree, else None."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.SubprocessError):
            proc = None
        if proc is not None and proc.returncode == 0:
            commit = proc.stdout.strip()
    return commit


def run_record(args, workdir):
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS)

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": source_commit(),
        "src_sha256": source_digest(),
        "cpu_count": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads(),
                 "env": {k: os.environ.get(k) for k in THREAD_ENV}},
        "artifact_fs": filesystem_of(workdir),
    }


def load_declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def measure(wl, workdir, seconds, trace, end_to_end, per_layer):
    """Run workload ``wl`` in ``workdir``; return (result, run record facts).

    ``end_to_end`` and ``per_layer`` map the declared metric names to
    their units; the result reports the first set untraced and the
    second traced. A metric that a failed stage left unmeasurable is
    reported with the value None, and ``correct`` is then false.
    """
    import checks
    import workloads
    from tracing import layer_metrics

    shutil.rmtree(workdir, ignore_errors=True)
    outdir = os.path.join(workdir, "out")
    config = wl.write_inputs(os.path.join(workdir, "inputs"))
    store = RunStore(os.path.join(os.path.dirname(workdir), "runs"),
                     os.path.dirname(config), source_digest())
    earlier_pipeline_s = list(store.data["pipeline_s"])
    setup = []
    rounds = []
    if trace:
        # The tracing overhead compares the traced pipeline with untraced
        # runs of the same code and inputs; this run makes one only when
        # no earlier run in this checkout recorded any.
        if not earlier_pipeline_s:
            rounds.append(run_pipeline(config, outdir))
        spans_path = os.path.join(workdir, "spans.json")
        rounds.append(run_pipeline(config, outdir, spans=spans_path))
    else:
        args = ["--config", config, "--setup-only"]
        log = os.path.join(workdir, "setup")
        spawn(args, log)  # fills the bytecode cache
        for _ in range(SETUP_SAMPLES):
            start, ready, _, _, trace_ = spawn(args, log)
            setup.append(trace_.seconds(start, ready["ready"]))
        begin = time.perf_counter()
        while not rounds or time.perf_counter() - begin < seconds:
            if rounds and time.perf_counter() + AFTER_ROUNDS_S + 2.0 * (
                    time.perf_counter() - begin) / len(rounds) > _deadline:
                break
            rounds.append(run_pipeline(config, outdir))

    replays = {}
    replay_problem = None
    try:
        V = checks.read_basis(outdir)
        replays = {method: fn()
                   for method, fn in checks.rom_replayers(wl, outdir, V).items()}
    except Exception as exc:  # any fault of the stored models fails the run
        replay_problem = f"stored reduced models cannot be replayed: {exc!r}"
    replay_rate = None
    if replays and not trace:
        path = os.path.join(workdir, "workload.json")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(workloads.to_json(wl))
        _, record, _, _, speed = spawn(
            ["--replay", str(REPLAY_SECONDS), "--workload", path, "--out", outdir],
            os.path.join(workdir, "replay"))
        windows = record["windows"]
        replay_rate = (sum(w[2] for w in windows)
                       / sum(speed.seconds(w[0], w[1]) for w in windows))
    check_failures, facts = checks.check_all(wl, outdir, replays)
    if replay_problem:
        check_failures["evaluate"].append(replay_problem)

    reference = store.reference_digest(rounds[0]["digest"])
    store.add_pipeline_s([r["pipeline_s"] for r in rounds
                          if not r["traced"] and r["exit"] == 0])
    failed = 0
    reasons = {}
    for i, rnd in enumerate(rounds):
        stages = failed_stages(rnd, reference, check_failures)
        failed += len(stages)
        if stages:
            reasons[f"round{i}"] = stages
    correct = not any(check_failures.values()) and all(
        r["exit"] == 0 and r["digest"] == reference for r in rounds)

    if trace:
        traced = rounds[-1]
        with open(spans_path, "r", encoding="ascii") as fh:
            values = layer_metrics(json.load(fh), outdir, traced["trace"].seconds)
        values["pod.floor_train"] = facts.get("floor_train")
        values["pod.floor_test"] = facts.get("floor_test")
        values["evaluate.write_bytes"] = sum(
            size for rel, (_, size) in traced["digest"].items()
            if owner_stage(rel) == "evaluate" and rel != "manifest.json")
        untraced = [r["pipeline_s"] for r in rounds[:-1]] or earlier_pipeline_s
        values["trace.overhead_s"] = traced["pipeline_s"] - statistics.median(untraced)
        units = per_layer
    else:
        med = statistics.median
        values = {
            "pipeline_s": med(r["pipeline_s"] for r in rounds),
            "rom_build_s": med(sum(r["timings"].get(s, float("nan"))
                                   for s in ROM_BUILD_STAGES) for r in rounds),
            "setup_s": med(setup + [r["setup_s"] for r in rounds]),
            "rom_steps_per_s": replay_rate,
            "peak_rss_mb": med(r["maxrss_kb"] / 1024.0 for r in rounds),
            "artifact_bytes": sum(size for _, size in rounds[-1]["digest"].values()),
        }
        for method in checks.METHODS:
            for phase in ("train", "test"):
                key = f"err_{phase}.{method}"
                values[key] = facts.get(key)
        units = end_to_end

    absent = sorted(name for name in units
                    if not isinstance(values.get(name), (int, float))
                    or values[name] != values[name])
    if absent and correct:
        raise BenchError(f"metrics not measured: {', '.join(absent)}")
    result = {
        "correct": correct,
        "attempted": len(STAGES) * len(rounds),
        "failed": failed,
        "metrics": {name: {"value": None if name in absent else values[name],
                           "unit": unit}
                    for name, unit in units.items()},
    }
    record = {
        "rounds": len(rounds),
        "round_pipeline_s": [r["pipeline_s"] for r in rounds],
        "round_raw_pipeline_s": [r["raw_pipeline_s"] for r in rounds],
        "round_speed": [r["pipeline_s"] / r["raw_pipeline_s"] for r in rounds],
        "raw_setup_s": [r["raw_setup_s"] for r in rounds],
        "stage_s": rounds[-1]["timings"],
        "checks": {k: v for k, v in facts.items() if isinstance(v, float)},
        "failures": reasons,
    }
    if trace:
        record["untraced_pipeline_s"] = untraced
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    global _deadline
    _deadline = time.perf_counter() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "mechrom", "cli.py")):
        raise BenchError(f"no mechrom sources under {SRC}")
    # The BLAS reads its thread count when numpy loads, so set it first.
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.NAMES:
        raise BenchError(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.NAMES)}")
    end_to_end, per_layer = load_declared()
    workdir = os.path.join(WORK, args.workload)
    record = run_record(args, workdir)
    # The pipeline processes inherit this CPU, so the speed probe runs on
    # the CPU that does the timed work.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    record["cpu_pinned"] = cpu
    record["reference_before"] = reference_medians()
    result, facts = measure(workloads.make(args.workload, args.seed), workdir,
                            args.seconds, args.trace, end_to_end, per_layer)
    record["reference_after"] = reference_medians()
    record.update(facts)
    print(json.dumps({"run_record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        raise SystemExit(2)

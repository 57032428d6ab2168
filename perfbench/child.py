"""One pipeline process: set up, then run ``mechrom run`` once.

Run as ``python3 child.py --config C [--out O] [--setup-only] [--spans P]``
with the BLAS thread variables already in the environment, or as
``python3 child.py --replay S --workload W --out O`` to replay the
learned reduced models found in O for S seconds. Set-up is
what a fresh interpreter does before the first stage: imports, config
parse, and building (``kind = chain``) or reading (``kind = files``) the
full model. The last line of standard output is ``PERFBENCH <json>``
with the monotonic clock reading at the end of set-up, and, unless
``--setup-only``, the readings at the pipeline's start and end, its exit
code and the peak RSS. An exception that escapes ``cli.main`` is a fault
of the program, not of this process: it is reported on standard error as
an error in the stage it escaped from, and the exit code is 1.

With ``--spans`` the public functions of every layer are wrapped before
the run and the recorded spans are written to that JSON file.

A replay process reports the clock readings around each replay and its
step count, so the caller can convert each window to reference time.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback


def _setup(config_path):
    from mechrom import cli, model

    cfg = cli.load_config(config_path)
    if cfg.kind == "chain":
        model.build_mass_spring_chain(
            cfg.n, cfg.masses, cfg.stiffnesses, alpha_r=cfg.alpha_r,
            beta_r=cfg.beta_r, input_nodes=cfg.input_nodes)
    else:
        model.load_system(cfg.mass_path, cfg.damping_path, cfg.stiffness_path,
                          cfg.input_path)
    return cli


def _failing_stage(exc):
    """The pipeline stage an exception escaped from, from its traceback."""
    from tracing import STAGES

    for frame, _ in traceback.walk_tb(exc.__traceback__):
        name = frame.f_code.co_name
        if name.startswith("stage_") and name[len("stage_"):] in STAGES:
            return name[len("stage_"):]
    return "run"


def _replay(workload_path, outdir, seconds):
    """(start, end, steps) of each replay: at least three rounds of every
    method, and more until ``seconds`` have passed."""
    import checks
    import workloads

    with open(workload_path, "r", encoding="ascii") as fh:
        wl = workloads.from_json(fh.read())
    replayers = checks.rom_replayers(wl, outdir, checks.read_basis(outdir))
    for fn in replayers.values():
        fn()
    windows = []
    begin = time.perf_counter()
    rounds = 0
    while rounds < 3 or time.perf_counter() - begin < seconds:
        for fn in replayers.values():
            start = time.perf_counter()
            steps = fn().shape[1]
            windows.append((start, time.perf_counter(), steps))
        rounds += 1
    return windows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config")
    parser.add_argument("--out")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("--replay", type=float)
    parser.add_argument("--workload")
    args = parser.parse_args(argv)

    if args.replay is not None:
        windows = _replay(args.workload, args.out, args.replay)
        print("PERFBENCH " + json.dumps({"windows": windows}), flush=True)
        return 0
    cli = _setup(args.config)
    record = {"ready": time.perf_counter()}
    if not args.setup_only:
        tracer = None
        if args.spans:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        record["start"] = time.perf_counter()
        try:
            code = cli.main(["run", "--config", args.config, "--out", args.out])
        except Exception as exc:
            traceback.print_exc()
            print(f"error in stage '{_failing_stage(exc)}': {exc!r}",
                  file=sys.stderr)
            code = 1
        record["end"] = time.perf_counter()
        record["exit"] = code
        import resource

        record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            with open(args.spans, "w", encoding="ascii") as fh:
                json.dump(tracer.spans, fh)
    sys.stdout.flush()
    print("PERFBENCH " + json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Spans around the public functions of each mechrom layer.

The program is not modified: :meth:`Tracer.install` replaces each traced
function, in every loaded ``mechrom`` module namespace that holds it,
by a wrapper that records a span (name, parent span, start, end, and a
few counts). The pipeline stages are wrapped through the stage table
``cli.run`` iterates, so every layer span nests under the ``cli`` stage
that called it. :func:`layer_metrics` turns the spans into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import os
import sys
import time

STAGES = ("simulate", "basis", "infer", "infer_constrained", "evaluate")


def _steps(args, kwargs, result):
    return {"steps": int(result.displacement.shape[1])}


def _written(args, kwargs, result):
    return {"bytes": sum(os.path.getsize(p) for p in result)}


def _read(args, kwargs, result):
    source = args[0] if args else kwargs["source"]
    if isinstance(source, (str, os.PathLike)):
        paths = [os.path.join(source, f) for f in os.listdir(source)]
    else:
        paths = list(dict(source).values())
    return {"bytes": sum(os.path.getsize(p) for p in paths)}


def _file_size(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _rank(args, kwargs, result):
    return {"rank": int(result.modes.shape[1])}


def _solve(args, kwargs, result):
    report = result[1]
    return {"iterations": int(report.iterations),
            "converged": int(bool(report.converged))}


# (module, public function, attribute recorder)
TARGETS = [
    ("newmark", "simulate", _steps),
    ("snapshots", "save_csv", _written),
    ("snapshots", "load_csv", _read),
    ("snapshots", "project", None),
    ("model", "save_matrix", _file_size),
    ("model", "load_matrix", None),
    ("pod", "compute_basis", _rank),
    ("opinf", "select_lambda", None),
    ("opinf", "infer", None),
    ("copinf", "infer_constrained", _solve),
    ("evaluate", "relative_error", None),
    ("evaluate", "save_error_series", None),
]


class Tracer:
    """In-memory span recorder; spans are plain dicts so they dump as JSON."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": name,
                    "parent": self._stack[-1] if self._stack else None,
                    "start": time.perf_counter()}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            return result

        return wrapper

    def install(self):
        from mechrom import cli

        modules = [m for key, m in sys.modules.items()
                   if key == "mechrom" or key.startswith("mechrom.")]
        for module_name, func_name, attrs in TARGETS:
            original = getattr(sys.modules[f"mechrom.{module_name}"], func_name, None)
            if original is None:
                continue
            wrapper = self.wrap(f"{module_name}.{func_name}", original, attrs)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        stages = getattr(cli, "_STAGES", [])
        stages[:] = [(name, self.wrap(f"cli.{name}", fn)) for name, fn in stages]


def _stage_of(spans, index):
    while index is not None:
        name = spans[index]["name"]
        if name.startswith("cli."):
            return name[4:]
        index = spans[index]["parent"]
    return None


def _has_ancestor(spans, index, name):
    index = spans[index]["parent"]
    while index is not None:
        if spans[index]["name"] == name:
            return True
        index = spans[index]["parent"]
    return False


def layer_metrics(spans, outdir, seconds) -> dict:
    """Per-layer totals from one traced pipeline run.

    ``seconds(start, end)`` converts a span's clock readings into the
    duration to report.

    Full-model and reduced-model Newmark runs are told apart by the
    stage that called them: the ``simulate`` stage integrates the full
    model, every other stage replays reduced models.
    """
    def dur(s):
        return seconds(s["start"], s["end"])

    def total(name, key=None, where=None):
        picked = [(i, s) for i, s in enumerate(spans) if s["name"] == name
                  and (where is None or where(i))]
        if key is None:
            return sum(dur(s) for _, s in picked)
        return sum(s.get(key, 0) for _, s in picked)

    out = {}
    for stage in STAGES:
        out[f"cli.{stage}_s"] = total(f"cli.{stage}")

    solves = [s for s in spans if s["name"] == "copinf.infer_constrained"]
    solve_s = sum(dur(s) for s in solves)
    iterations = sum(s.get("iterations", 0) for s in solves)
    trace_path = os.path.join(outdir, "copinf", "trace.csv")
    out["copinf.solve_s"] = solve_s
    out["copinf.iterations"] = iterations
    out["copinf.ms_per_iter"] = 1e3 * solve_s / iterations if iterations else 0.0
    out["copinf.trace_bytes"] = (os.path.getsize(trace_path)
                                 if os.path.exists(trace_path) else 0)
    out["copinf.converged"] = min((s.get("converged", 0) for s in solves),
                                  default=0)

    def fom(i):
        return _stage_of(spans, i) == "simulate"

    def rom(i):
        return not fom(i)

    for kind, where in (("fom", fom), ("rom", rom)):
        steps = total("newmark.simulate", "steps", where)
        busy = total("newmark.simulate", where=where)
        out[f"newmark.{kind}_steps"] = steps
        out[f"newmark.{kind}_s"] = busy
        out[f"newmark.{kind}_us_per_step"] = 1e6 * busy / steps if steps else 0.0

    out["snapshots.write_bytes"] = total("snapshots.save_csv", "bytes")
    out["snapshots.write_s"] = total("snapshots.save_csv")
    out["snapshots.read_bytes"] = total("snapshots.load_csv", "bytes")
    out["snapshots.read_s"] = total("snapshots.load_csv")
    out["snapshots.project_s"] = total("snapshots.project")

    out["model.mtx_write_bytes"] = total("model.save_matrix", "bytes")
    out["model.mtx_write_s"] = total("model.save_matrix")
    out["model.mtx_read_s"] = total("model.load_matrix")

    out["pod.basis_s"] = total("pod.compute_basis")
    out["pod.rank"] = max((s.get("rank", 0) for s in spans
                           if s["name"] == "pod.compute_basis"), default=0)

    out["opinf.sweep_s"] = total("opinf.select_lambda")
    out["opinf.fits"] = sum(1 for s in spans if s["name"] == "opinf.infer")
    out["opinf.replay_s"] = total(
        "newmark.simulate",
        where=lambda i: _has_ancestor(spans, i, "opinf.select_lambda"))

    out["evaluate.error_s"] = (total("evaluate.relative_error")
                               + total("evaluate.save_error_series"))
    return out

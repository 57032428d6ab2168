"""Tests of the benchmark itself, at reduced workload sizes.

    python3 -m pytest perfbench/tests

Each workload runs end to end through ``run.measure`` at a size that
takes seconds, and each output check is shown to fail on an artifact
corrupted the way the check is meant to catch.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from mechrom.model import save_matrix  # noqa: E402


def small(name, seed=3):
    """The workload at a size that runs in seconds, same kind of problem."""
    wl = workloads.make(name, seed)
    if name == "readme":
        chain = workloads.Chain(masses=np.ones(24), springs=np.full(25, 1e4),
                                frequency=10.0)
        return dataclasses.replace(wl, chain=chain, train_t_end=0.1, test_t_end=0.2)
    if name == "wide":
        return dataclasses.replace(wl, chain=workloads._seeded_chain(60, seed, 1e4, 10.0),
                                   train_t_end=0.1, test_t_end=0.2, basis=("rank", 4))
    return dataclasses.replace(wl, chain=workloads._seeded_chain(12, seed, 1e4, 2.0),
                               train_t_end=0.3, test_t_end=0.6, basis=("rank", 3),
                               lambda_grid="0.0, 1e-8, 1e-4, 1.0")


@pytest.fixture(scope="module")
def declared():
    return run.load_declared()


def _measure(name, tmp_path, declared, trace=0):
    os.environ.update(run.THREAD_ENV)
    return run.measure(small(name), str(tmp_path / name), 0.0, trace, *declared)


@pytest.mark.parametrize("name", ["wide", "sweep"])
def test_reduced_workload_passes_every_check(name, tmp_path, declared):
    result, record = _measure(name, tmp_path, declared)
    assert result["correct"], record["failures"]
    assert result["failed"] == 0, record["failures"]
    assert result["attempted"] == 5 * record["rounds"]
    assert set(result["metrics"]) == set(declared[0])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_capped_solve_counts_as_one_failed_operation(tmp_path, declared):
    result, record = _measure("readme", tmp_path, declared)
    assert result["correct"]
    assert result["failed"] == record["rounds"] == 1
    assert set(record["failures"]["round0"]) == {"infer_constrained"}
    assert "iteration cap" in record["failures"]["round0"]["infer_constrained"]


def test_failed_stages_reads_the_cap_and_exit_codes():
    base = {"exit": 0, "stdout": "", "stderr": "", "digest": {"a": 1}}
    capped = dict(base, stdout="infer-constrained: objective 1e-3 after 50000 "
                               "iterations (iteration limit)\n")
    assert run.failed_stages(base, {"a": 1}, {}) == {}
    assert set(run.failed_stages(capped, {"a": 1}, {})) == {"infer_constrained"}
    crashed = dict(base, exit=3, stderr="error in stage 'infer': boom")
    assert set(run.failed_stages(crashed, {"a": 1}, {})) == {
        "infer", "infer_constrained", "evaluate"}
    changed = dict(base, digest={"a": 2})
    assert set(run.failed_stages(changed, {"a": 1}, {})) == {"evaluate"}


def test_reruns_are_compared_only_with_runs_of_the_same_source_and_inputs(tmp_path):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    (inputs / "experiment.ini").write_text("[system]\n")
    store = str(tmp_path / "runs")
    first = {"fom/test/displacement.csv": ["abc", 3]}
    other = {"fom/test/displacement.csv": ["def", 3]}
    assert run.RunStore(store, str(inputs), "src1").reference_digest(first) == first
    assert run.RunStore(store, str(inputs), "src1").reference_digest(other) == first
    # Changed source: the changed artifacts are not flagged.
    changed = run.RunStore(store, str(inputs), "src2")
    assert changed.reference_digest(other) == other
    assert run.failed_stages({"exit": 0, "stdout": "", "stderr": "", "digest": other},
                             changed.reference_digest(other), {}) == {}
    (inputs / "experiment.ini").write_text("[system]\nn = 2\n")
    assert run.RunStore(store, str(inputs), "src1").reference_digest(other) == other


def test_failing_stage_gives_a_result_with_its_failures(tmp_path, declared):
    # rank 100 passes the config parse but exceeds the 12 snapshots' span,
    # so the program exits non-zero in the basis stage.
    wl = dataclasses.replace(small("sweep"), basis=("rank", 100))
    os.environ.update(run.THREAD_ENV)
    result, record = run.measure(wl, str(tmp_path / "bad"), 0.0, 0, *declared)
    assert not result["correct"]
    assert result["attempted"] == 5
    assert set(record["failures"]["round0"]) == {
        "basis", "infer", "infer_constrained", "evaluate"}
    assert result["failed"] == 4
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(values) == set(declared[0])
    assert values["pipeline_s"] > 0 and values["rom_steps_per_s"] is None
    assert values["err_test.copinf"] is None


def test_traced_run_reports_every_layer_metric(tmp_path, declared):
    result, record = _measure("sweep", tmp_path, declared, trace=1)
    assert result["correct"] and result["failed"] == 0, record["failures"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(declared[1])
    assert metrics["opinf.fits"] == 5           # 4 grid values + the refit
    assert metrics["copinf.converged"] == 1
    assert metrics["newmark.fom_steps"] == 600
    # 4 sweep replays of the 299 training steps after the first,
    # then 3 test-window replays of 600 steps.
    assert metrics["newmark.rom_steps"] == 4 * 299 + 3 * 600
    stages = sum(metrics[f"cli.{s}_s"] for s in run.STAGES)
    assert stages <= record["round_pipeline_s"][1]
    # A second traced run finds the untraced pipeline time recorded by
    # the first and makes only the traced pipeline run.
    again, record = _measure("sweep", tmp_path, declared, trace=1)
    assert again["attempted"] == 5 and record["rounds"] == 1
    assert len(record["untraced_pipeline_s"]) == 1


def test_uncaught_exception_is_charged_to_its_stage():
    import child

    def stage_infer():
        raise RuntimeError("boom")

    def run_stages():
        stage_infer()

    try:
        run_stages()
    except RuntimeError as exc:
        assert child._failing_stage(exc) == "infer"


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """A checked reduced sweep run whose artifacts the tests corrupt."""
    os.environ.update(run.THREAD_ENV)
    root = tmp_path_factory.mktemp("artifacts")
    wl = small("sweep")
    config = wl.write_inputs(str(root / "inputs"))
    run.run_pipeline(config, str(root / "out"))
    return wl, str(root / "out")


def _checked(artifacts, tmp_path):
    wl, out = artifacts
    copy = str(tmp_path / "out")
    shutil.copytree(out, copy)
    return wl, copy


def _replays(wl, out):
    replayers = checks.rom_replayers(wl, out, checks.read_basis(out))
    return {method: fn() for method, fn in replayers.items()}


def test_clean_artifacts_pass(artifacts, tmp_path):
    wl, out = _checked(artifacts, tmp_path)
    failures, facts = checks.check_all(wl, out, _replays(wl, out))
    assert not any(failures.values()), failures
    assert facts["fom_error"] < facts["fom_error_bound"]


def _rewrite_csv(path, transform):
    times, A = checks.read_csv_matrix(path)
    A = transform(A)
    with open(path) as fh:
        header = fh.readline()
    with open(path, "w") as fh:
        fh.write(header)
        for j in range(times.size):
            fh.write(",".join("%.17g" % v for v in [times[j], *A[:, j]]) + "\n")


def test_replay_pushed_off_the_basis_fails(artifacts, tmp_path):
    wl, out = _checked(artifacts, tmp_path)
    V = checks.read_basis(out)
    replays = _replays(wl, out)
    normal = np.linalg.svd(V, full_matrices=True)[0][:, -1]   # orthogonal to V

    def push(A):
        A = A.copy()
        A[:, -1] += 1e-3 * np.abs(A).max() * normal
        return A

    _rewrite_csv(os.path.join(out, "rom_opinf", "displacement.csv"), push)
    failures, _ = checks.check_all(wl, out, replays)
    assert any("rom_opinf replay lies off the basis" in p for p in failures["evaluate"])


def test_mass_with_negative_eigenvalue_fails(artifacts, tmp_path):
    wl, out = _checked(artifacts, tmp_path)
    path = os.path.join(out, "copinf", "mass.mtx")
    M = checks.read_mtx(path)
    shift = np.linalg.eigvalsh(M).min() + 1e-3
    save_matrix(path, M - shift * np.eye(M.shape[0]), symmetry="symmetric")
    failures, _ = checks.check_all(wl, out, _replays(wl, out))
    assert any("copinf mass eigmin" in p for p in failures["infer_constrained"])


def test_error_series_that_disagrees_fails(artifacts, tmp_path):
    wl, out = _checked(artifacts, tmp_path)
    path = os.path.join(out, "errors_copinf.csv")
    with open(path) as fh:
        lines = fh.readlines()
    t, e, phase = lines[5].strip().split(",")
    lines[5] = f"{t},{float(e) * 1.001!r},{phase}\n"
    with open(path, "w") as fh:
        fh.writelines(lines)
    failures, _ = checks.check_all(wl, out, _replays(wl, out))
    assert failures["evaluate"] == [
        "errors_copinf.csv disagrees with the recomputed series"]


def test_full_model_off_the_closed_form_fails(artifacts, tmp_path):
    wl, out = _checked(artifacts, tmp_path)
    _rewrite_csv(os.path.join(out, "fom", "test", "displacement.csv"),
                 lambda A: A * 1.01)
    failures, _ = checks.check_all(wl, out, {})
    assert any("second-order bound" in p for p in failures["simulate"])


def test_basis_rank_off_the_rule_fails(artifacts, tmp_path):
    wl, out = _checked(artifacts, tmp_path)
    path = os.path.join(out, "basis", "modes.mtx")
    save_matrix(path, checks.read_mtx(path)[:, :-1])
    failures, _ = checks.check_all(wl, out, {})
    assert any("rank 2" in p for p in failures["basis"])


def test_stored_operators_that_miss_the_normal_equations_fail(artifacts, tmp_path):
    wl, out = _checked(artifacts, tmp_path)
    path = os.path.join(out, "opinf", "stiffness.mtx")
    save_matrix(path, checks.read_mtx(path) * 1.001)
    failures, _ = checks.check_all(wl, out, {})
    assert any("normal equations" in p for p in failures["infer"])


def test_modal_reference_converges_at_second_order():
    """The closed form is the limit the program's integrator approaches:
    halving dt cuts the gap about fourfold."""
    from mechrom.newmark import IntegratorConfig, simulate
    from mechrom.model import SecondOrderSystem

    wl = small("sweep")
    system = SecondOrderSystem(*wl.chain.operators())
    omega = 2 * np.pi * wl.chain.frequency
    gaps = []
    for dt in (2e-3, 1e-3):
        data = simulate(system, lambda t: np.array([np.sin(omega * t)]), None, None,
                        IntegratorConfig(dt=dt, t_end=0.3))
        ref, bound = checks.modal_reference(wl.chain, data.times)
        gap = np.linalg.norm(data.displacement - ref, axis=0).max()
        assert gap <= bound
        gaps.append(gap)
    assert 3.0 < gaps[0] / gaps[1] < 5.0

"""Tests of the benchmark itself (not of fastla).

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import BENCH

import checks
import fastla
import jobs
import runner
from jobs import Call, Workload
from speed import SpeedProbe
from tracing import Tracer, call_coverage

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def run_all(trace: int) -> dict:
    """Every workload for one job (one traced round) through the real command."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--seed", "3",
           "--seconds", "0", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True,
                          timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_every_workload_emits_the_declared_metrics(trace, section):
    result = run_all(trace)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    for workload in (w["name"] for w in SPEC["workloads"]):
        emitted = {key.split("/", 1)[1]: metric for key, metric in result["metrics"].items()
                   if key.startswith(workload + "/")}
        assert set(emitted) == set(declared), workload
        for name, metric in emitted.items():
            assert metric["unit"] == declared[name]
            assert np.isfinite(metric["value"])
        if trace:
            assert emitted["trace.coverage"]["value"] == 1.0, workload


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(jobs.WORKLOADS)


def test_checker_counts_perturbed_and_nan_results_as_failed():
    workload = jobs.WORKLOADS["dense"]
    inputs = workload.make_inputs(5, 0)
    done = runner.run_calls(workload, inputs)
    assert runner.check_calls(workload, inputs, done).failed == 0

    qr = done.outputs["qrr"]
    qr.r[0, 1] += 1e-3 * np.linalg.norm(inputs["a"])  # far above the QR budget
    done.outputs["gen_inv"][0][3, 4] = np.nan
    job = runner.check_calls(workload, inputs, done)
    failed = {o.name: o for o in job.outcomes if not o.ok}
    assert set(failed) == {"qrr", "gen_inv"}
    assert failed["qrr"].ratio > 1.0
    assert failed["gen_inv"].error == "non-finite output"

    metrics = runner.end_to_end([job], job, [1.0], 1.0)
    assert metrics["ok_frac"][0] == pytest.approx(1.0 - 2 / len(workload.calls))


def test_inverse_check_binds_at_benchmark_sizes():
    # The library's predicted_spd_bound is clamped to 1 at n=384, so a 10%
    # error would pass a forward-error check against it; this one fails it.
    workload = jobs.WORKLOADS["dense"]
    inputs = workload.make_inputs(5, 0)
    x, _ = fastla.gen_inv(inputs["a"], with_report=False)
    assert checks.inverse_normal_eq(inputs, x, fastla.matmul.CONVENTIONAL) < 1e-6
    assert checks.inverse_normal_eq(inputs, 1.1 * x, fastla.matmul.CONVENTIONAL) > 1.0


def test_nan_input_is_failed_not_passed():
    # The library's own QR/LU reports turn a NaN residual into 0.0; the
    # benchmark's checks must not.
    workload = jobs.WORKLOADS["dense"]
    inputs = workload.make_inputs(5, 1)
    inputs["a"] = inputs["a"].copy()
    inputs["a"][7, 2] = np.nan
    done = runner.run_calls(workload, inputs)
    job = runner.check_calls(workload, inputs, done)
    assert job.failed == len(workload.calls)


def test_raising_and_overlong_calls_are_failed():
    def spin(d, rep):
        end = time.perf_counter() + 5.0
        while time.perf_counter() < end:
            pass

    def boom(d, rep):
        raise ZeroDivisionError("singular")

    workload = Workload("t", 1, lambda seed, job: {}, (
        Call("spin", spin, lambda d, out: 0.0),
        Call("boom", boom, lambda d, out: 0.0),
        Call("fine", lambda d, rep: 1, lambda d, out: 0.5),
    ), lambda d: None, 1)
    done = runner.run_calls(workload, {}, cap_s=0.2)
    assert done.call_seconds["spin"] < 2.0
    job = runner.check_calls(workload, {}, done)
    assert [o.ok for o in job.outcomes] == [False, False, True]
    assert "CallTimeout" in job.outcomes[0].error
    assert job.err_budget == 0.5


def _counts(name: str) -> tuple:
    tracer = Tracer()
    runner.traced_run(jobs.WORKLOADS[name], 4, 0.0, tracer, SpeedProbe())
    return (tracer.matmul_ops, tracer.calls("sylvester.sylr"),
            tracer.calls("eig.sign.iter"), tracer.calls("matmul"))


def test_exact_counts_repeat():
    first = _counts("spectral")
    assert first == _counts("spectral")
    assert all(c > 0 for c in first)


def test_wrappers_reach_aliased_names_and_are_removed():
    import fastla
    from fastla import eig, lu, matmul

    original = matmul.multiply
    tracer = Tracer()
    tracer.install()
    try:
        # Every module that imported ``multiply`` by name sees the wrapper.
        assert lu.multiply is eig.multiply is fastla.multiply is not original
        fastla.lur(np.random.default_rng(0).standard_normal((32, 32)), with_report=False)
    finally:
        tracer.uninstall()
    assert lu.multiply is eig.multiply is fastla.multiply is original
    assert tracer.calls("lu") > 0 and tracer.calls("matmul") > 0
    assert tracer.edges[("job", "lu")] == 1


def test_coverage_counts_a_binding_the_wrappers_miss(monkeypatch):
    from fastla import lu, matmul

    workload = jobs.WORKLOADS["dense"]
    inputs = workload.make_inputs(5, 0)

    def job():
        runner.run_calls(workload, inputs)

    assert call_coverage(job) == 1.0
    # A name bound to something other than the defining module's function is
    # not wrapped, so the profiler sees lu's products and the tracer does not.
    original = matmul.multiply
    monkeypatch.setattr(lu, "multiply", lambda *args, **kwargs: original(*args, **kwargs))
    assert call_coverage(job) < 1.0

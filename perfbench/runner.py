"""Job execution, the closed-loop measurement and the traced run.

One client runs one job at a time and starts the next only when the
previous one has finished and been checked (a closed loop with one
client).  Only the ``fastla`` calls are inside a job's time; input
generation and checks are not.
"""

from __future__ import annotations

import math
import signal
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import checks
from jobs import Workload
from speed import ScaledClock, SpeedProbe
from tracing import Tracer

# A call running longer than this is stopped and counted as failed.
CALL_CAP_S = 20.0


class CallTimeout(Exception):
    """A call ran past ``CALL_CAP_S``."""


def _on_alarm(signum, frame):
    raise CallTimeout("call ran past its time cap")


@dataclass
class CallOutcome:
    name: str
    ratio: float | None  # measured error / documented bound
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.ratio is not None and self.ratio <= 1.0


@dataclass
class JobResult:
    seconds: float
    outcomes: list = field(default_factory=list)
    call_seconds: dict = field(default_factory=dict)
    speed: float = 1.0  # reference speed over the machine's speed around the job

    @property
    def scaled_seconds(self) -> float:
        return self.seconds * self.speed

    @property
    def failed(self) -> int:
        return sum(not o.ok for o in self.outcomes)

    @property
    def err_budget(self) -> float:
        ratios = [o.ratio for o in self.outcomes if o.ratio is not None]
        return max(ratios) if ratios else math.nan


@dataclass
class Calls:
    """Outputs of one job's calls, or the error each raised, and their times."""

    seconds: float = 0.0
    outputs: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)
    call_seconds: dict = field(default_factory=dict)


def run_calls(workload: Workload, inputs: dict, reports: bool = True,
              cap_s: float = CALL_CAP_S, clock: ScaledClock | None = None) -> Calls:
    """Run the job's calls one after another, each under the time cap.

    With a clock, each call's seconds are also added to it, scaled.
    """
    done = Calls()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        for call in workload.calls:
            signal.setitimer(signal.ITIMER_REAL, cap_s)
            t0 = perf_counter()
            try:
                done.outputs[call.name] = call.run(inputs, reports)
            except Exception as exc:  # any raise is a failed call, recorded by name
                done.errors[call.name] = f"{type(exc).__name__}: {exc}"
            finally:
                dt = perf_counter() - t0
                signal.setitimer(signal.ITIMER_REAL, 0.0)
            done.call_seconds[call.name] = dt
            done.seconds += dt
            if clock is not None:
                clock.add(dt)
    finally:
        signal.signal(signal.SIGALRM, previous)
    if clock is not None:
        clock.flush()
    return done


def check_calls(workload: Workload, inputs: dict, done: Calls) -> JobResult:
    outcomes = []
    for call in workload.calls:
        if call.name in done.errors:
            outcomes.append(CallOutcome(call.name, None, done.errors[call.name]))
            continue
        try:
            ratio = float(call.check(inputs, done.outputs[call.name]))
        except checks.CheckFailure as exc:
            outcomes.append(CallOutcome(call.name, None, str(exc)))
            continue
        except Exception as exc:  # output the check cannot evaluate fails the call
            outcomes.append(CallOutcome(call.name, None,
                                        f"check raised {type(exc).__name__}: {exc}"))
            continue
        error = None if ratio <= 1.0 else "error above bound"  # NaN fails here too
        outcomes.append(CallOutcome(call.name, ratio, error))
    return JobResult(done.seconds, outcomes, done.call_seconds)


def closed_loop(workload: Workload, seed: int, seconds: float, probe: SpeedProbe):
    """Jobs 0, 1, 2, ... back to back until ``seconds`` have passed.

    Each job's time is also scaled to the reference speed by probes between
    its calls (``speed.ScaledClock``).
    """
    results = []
    clock = ScaledClock(probe)
    start = perf_counter()
    while not results or perf_counter() - start < seconds:
        inputs = workload.make_inputs(seed, len(results))
        scaled_before = clock.total
        done = run_calls(workload, inputs, clock=clock)
        job = check_calls(workload, inputs, done)
        job.speed = (clock.total - scaled_before) / done.seconds
        results.append(job)
    return results


# -- end-to-end metrics --------------------------------------------------------


def p90(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(results: list, warmup: JobResult, setup_samples: list,
               peak_rss_mb: float) -> dict:
    """The end-to-end metrics of the closed loop's jobs.

    Times are scaled to the reference machine speed (``speed.py``); the raw
    median is given in the note.  ``err_budget.max`` is the warm-up job's
    worst call: its inputs are the same on every run, so the figure repeats
    exactly and moves only when a routine's accuracy does.  Every measured
    job still counts in ``ok_frac``.
    """
    job_ms = [1e3 * r.scaled_seconds for r in results]
    raw_ms = statistics.median(1e3 * r.seconds for r in results)
    jobs = f"{len(job_ms)} jobs"
    attempted = sum(len(r.outcomes) for r in results)
    failed = sum(r.failed for r in results)
    return {
        "job_ms.p50": (statistics.median(job_ms), "ms", f"{jobs}; unscaled {raw_ms:.6g} ms"),
        "job_ms.p90": (p90(job_ms), "ms", jobs),
        "jobs_per_s": (len(job_ms) / sum(r.scaled_seconds for r in results), "1/s", jobs),
        "ok_frac": (1.0 - failed / attempted, "fraction",
                    f"{attempted - failed} of {attempted} calls passed"),
        "err_budget.max": (warmup.err_budget, "ratio",
                           f"worst of {len(warmup.outcomes)} calls on the fixed warm-up inputs"),
        "setup_s": (statistics.median(setup_samples), "s",
                    f"{len(setup_samples)} set-ups"),
        "peak_rss_mb": (peak_rss_mb, "MB", "1 process"),
    }


# -- traced run ------------------------------------------------------------------


@dataclass
class Round:
    """One round over the traced run's fixed jobs: seconds of each pass.

    Pass times are scaled by the speed probes on either side of the pass,
    so that comparing passes (overhead, report share, slowdown) does not
    measure the machine's drift; ``traced_wall`` is the unscaled traced
    time that the layer shares divide.
    """

    plain: float = 0.0      # untraced, reports on
    traced: float = 0.0     # traced, reports on
    no_report: float = 0.0  # untraced, reports off
    reference: list = field(default_factory=list)  # LAPACK seconds per job
    traced_wall: float = 0.0


def traced_run(workload: Workload, seed: int, seconds: float, tracer: Tracer,
               probe: SpeedProbe):
    """Rounds over jobs 0..trace_jobs-1 until ``seconds`` have passed.

    Each round runs the jobs untraced with reports on, traced, and untraced
    with reports off, in an order that rotates from round to round so that
    no pass always runs first, then through LAPACK.  Returns (rounds, job
    results, the seconds of traced jobs outside every span).
    """
    jobs = range(workload.trace_jobs)
    inputs = {j: workload.make_inputs(seed, j) for j in jobs}
    results = []
    outside = 0.0

    def plain(j):
        done = run_calls(workload, inputs[j])
        results.append(check_calls(workload, inputs[j], done))
        return done.seconds

    def traced(j):
        nonlocal outside
        tracer.install()
        try:
            done = run_calls(workload, inputs[j])
        finally:
            tracer.uninstall()
        outside += done.seconds - tracer.take_top_level()
        results.append(check_calls(workload, inputs[j], done))
        return done.seconds

    def no_report(j):
        return run_calls(workload, inputs[j], reports=False).seconds

    def reference(j):
        t0 = perf_counter()
        workload.reference(inputs[j])
        return perf_counter() - t0

    passes = [plain, traced, no_report]
    rounds = []
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        k = len(rounds) % len(passes)
        scaled = {}
        before = probe.factor()
        for run in passes[k:] + passes[:k] + [reference]:
            raw = [run(j) for j in jobs]
            after = probe.factor()
            scaled[run.__name__] = [s * 0.5 * (before + after) for s in raw]
            before = after
            if run is traced:
                traced_wall = sum(raw)
        rounds.append(Round(sum(scaled["plain"]), sum(scaled["traced"]),
                            sum(scaled["no_report"]), scaled["reference"], traced_wall))
    return rounds, results, outside


def blas_gflops(n: int, repeats: int = 5) -> float:
    """Rate of ``a @ a`` at size n, best of ``repeats``."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((n, n))
    best = math.inf
    for _ in range(repeats):
        t0 = perf_counter()
        a @ a
        best = min(best, perf_counter() - t0)
    return 2.0 * n ** 3 / best / 1e9


def per_layer(workload: Workload, rounds: list, tracer: Tracer, outside: float,
              mu_cache_s: float, gflops_blas: float, coverage: float) -> dict:
    """Per-job layer metrics from the traced run; ``coverage`` is from
    ``tracing.call_coverage``."""
    jobs = len(rounds) * workload.trace_jobs
    wall = sum(r.traced_wall for r in rounds)
    plain = statistics.median(r.plain for r in rounds)
    traced = statistics.median(r.traced for r in rounds)
    no_report = statistics.median(r.no_report for r in rounds)
    ref_ms = statistics.median(1e3 * s for r in rounds for s in r.reference)
    job_ms = 1e3 * plain / workload.trace_jobs

    def calls(*names):
        return sum(tracer.calls(n) for n in names) / jobs

    def share(*names):
        return sum(tracer.self_time(n) for n in names) / wall

    def incl_share(name):
        return tracer.incl(name) / wall

    matmul_s = tracer.self_time("matmul")
    gflops = tracer.matmul_ops / matmul_s / 1e9 if matmul_s > 0 else 0.0
    splits = tracer.calls("eig.split")
    sep_calls = tracer.edges[("sylvester.sep", "sylvester.sylr")]
    return {
        "matmul.calls": (calls("matmul"), "count/job"),
        "matmul.ops": (tracer.matmul_ops / jobs, "ops/job"),
        "matmul.share": (share("matmul"), "fraction"),
        "matmul.gflops": (gflops, "Gop/s"),
        "matmul.vs_blas": (gflops / gflops_blas, "ratio"),
        "baseline.panel.calls": (calls("baseline.panel"), "count/job"),
        "baseline.panel.share": (share("baseline.panel"), "fraction"),
        "trisolve.calls": (calls("trisolve"), "count/job"),
        "trisolve.share": (share("trisolve"), "fraction"),
        "lu.cond_est.calls": (calls("lu.cond_est"), "count/job"),
        "lu.cond_est.share": (share("lu.cond_est"), "fraction"),
        "report.share": ((plain - no_report) / plain, "fraction"),
        "core.norm.share": (share("core.norm"), "fraction"),
        "qr.share": (share("qr"), "fraction"),
        "lu.share": (share("lu"), "fraction"),
        "inverse.share": (share("inverse", "inverse.mu_cache"), "fraction"),
        "inverse.mu_cache_s": (mu_cache_s, "s"),
        "dd.matmul.calls": (calls("dd.matmul"), "count/job"),
        "dd.matmul.share": (share("dd.matmul"), "fraction"),
        "dd.share": (share("dd", "dd.matmul"), "fraction"),
        "eig.share": (share("eig", "eig.split", "eig.sign", "eig.sign.iter"), "fraction"),
        "eig.sign.calls": (calls("eig.sign"), "count/job"),
        "eig.sign.iters": (calls("eig.sign.iter"), "count/job"),
        "eig.sign.share": (incl_share("eig.sign"), "fraction"),
        "eig.split.calls": (calls("eig.split"), "count/job"),
        "eig.split.accept_ratio": (tracer.split_accepted / splits if splits else 0.0,
                                   "fraction"),
        "eig.split.rurv_attempts": (tracer.edges[("eig.split", "rurv")] / jobs, "count/job"),
        "rurv.share": (incl_share("rurv"), "fraction"),
        "sylvester.sylr.calls": (calls("sylvester.sylr"), "count/job"),
        "sylvester.sylr.share": (share("sylvester", "sylvester.sylr"), "fraction"),
        "sylvester.base.share": (share("sylvester.base"), "fraction"),
        "sylvester.sep.calls": (calls("sylvester.sep"), "count/job"),
        "sylvester.sep.iters": (sep_calls / 2 / jobs, "count/job"),
        "sylvester.sep.share": (incl_share("sylvester.sep"), "fraction"),
        "other.share": (outside / wall, "fraction"),
        "ref.lapack.job_ms.p50": (ref_ms, "ms"),
        "ref.blas.gflops": (gflops_blas, "Gop/s"),
        "ref.slowdown": (job_ms / ref_ms, "ratio"),
        "trace.overhead": ((traced - plain) / plain, "fraction"),
        "trace.coverage": (coverage, "fraction"),
    }

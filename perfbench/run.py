"""fastla benchmark: closed-loop jobs, end-to-end metrics and a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload dense --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

``--trace 0`` measures the end-to-end metrics with no wrapper installed;
``--trace 1`` runs the traced run and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

import os

# Pin the BLAS to one thread before numpy is imported: with one thread per
# core, the time of a product on a small shared machine depends on whether
# the other cores are busy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("dense", "fastmm", "extended", "spectral")
# The warm-up job's inputs do not depend on --seed, so every run sets up with
# the same work; its index keeps it apart from the measured jobs.
WARMUP_SEED, WARMUP_JOB = 0, 1_000_000
SETUP_REPEATS = 3
PROBE_TIMEOUT_S = 150


class CheckoutError(RuntimeError):
    """The program's sources are not in this checkout."""


def require_sources() -> None:
    if not (SRC / "fastla" / "__init__.py").is_file():
        raise CheckoutError(f"no fastla sources under {SRC}")


def import_fastla():
    """Import ``fastla`` from this checkout's ``src`` and nowhere else."""
    require_sources()
    sys.path.insert(0, str(SRC))
    import fastla

    if SRC not in Path(fastla.__file__).resolve().parents:
        raise CheckoutError(f"fastla was imported from {fastla.__file__}, not {SRC}")
    return fastla


def set_up(name: str, tracer=None):
    """Import plus the first warm-up job: (seconds, workload, checked warm-up job).

    The seconds are scaled to the reference machine speed by a probe run
    right after the warm-up.  Input generation and the checks are not part
    of the set-up time.  With a tracer, the warm-up job runs traced, so lazy
    caches filled there show in its spans.
    """
    t0 = perf_counter()
    import_fastla()
    import jobs
    import runner
    from speed import SpeedProbe

    seconds = perf_counter() - t0
    workload = jobs.WORKLOADS[name]
    inputs = workload.make_inputs(WARMUP_SEED, WARMUP_JOB)
    if tracer is not None:
        tracer.install()
    try:
        done = runner.run_calls(workload, inputs)
    finally:
        if tracer is not None:
            tracer.uninstall()
    speed = SpeedProbe().factor()
    return ((seconds + done.seconds) * speed, workload,
            runner.check_calls(workload, inputs, done))


def probe_setup(name: str) -> float:
    """Set-up time of a fresh interpreter running this script."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    """BLAS build, BLAS thread count, numpy version and cores."""
    import ctypes
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
    if libs:
        lib = ctypes.CDLL(str(libs[0]))
        fn = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_int
            threads = fn()
    return {
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads if threads is not None else os.environ["OPENBLAS_NUM_THREADS"],
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def finish(results: list, metrics: dict) -> None:
    """Print the calls, every metric, and last the result line."""
    report_calls(results)
    failed = sum(r.failed for r in results)
    emit(failed == 0, sum(len(r.outcomes) for r in results), failed, metrics)


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    for name, (value, unit, *note) in metrics.items():
        extra = f"  ({note[0]})" if note else ""
        print(f"{name:<26} {value:>14.6g} {unit}{extra}")
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v[0]), "unit": v[1]} for k, v in metrics.items()},
    }
    bad = [k for k, v in result["metrics"].items() if not math.isfinite(v["value"])]
    if bad:
        raise ValueError(f"non-finite metrics: {', '.join(bad)}")
    print(json.dumps(result))


def report_calls(results) -> None:
    """Per call: median time and worst error over bound; then every failed call."""
    import statistics

    for name in results[0].call_seconds:
        ms = statistics.median(1e3 * r.call_seconds[name] for r in results)
        ratios = [o.ratio for r in results for o in r.outcomes
                  if o.name == name and o.ratio is not None]
        worst = f"{max(ratios):.3g}" if ratios else "-"
        print(f"# call {name:<18} median {ms:10.3f} ms   worst error/bound {worst}")
    for index, job in enumerate(results):
        for o in job.outcomes:
            if not o.ok:
                ratio = "" if o.ratio is None else f", error/bound {o.ratio:.3g}"
                print(f"# failed: result {index} {o.name}: {o.error}{ratio}")


def measure(args) -> None:
    first, workload, warmup = set_up(args.workload)
    samples = [first] + [probe_setup(args.workload) for _ in range(SETUP_REPEATS - 1)]
    import scipy.linalg  # noqa: F401  (used by checks; imported before timing starts)
    import runner
    from speed import SpeedProbe

    print(f"# env {json.dumps(environment())}")
    results = runner.closed_loop(workload, args.seed, args.seconds, SpeedProbe())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = runner.end_to_end(results, warmup, samples, peak_rss_mb)
    finish(results, metrics)


def measure_traced(args) -> None:
    from speed import SpeedProbe
    from tracing import Tracer, call_coverage

    tracer = Tracer()
    _, workload, _ = set_up(args.workload, tracer)
    import runner

    mu_cache_s = tracer.incl("inverse.mu_cache")
    tracer.reset()
    import scipy.linalg  # noqa: F401

    print(f"# env {json.dumps(environment())}")
    rounds, results, outside = runner.traced_run(workload, args.seed, args.seconds,
                                                 tracer, SpeedProbe())
    gflops = runner.blas_gflops(workload.n)
    inputs = workload.make_inputs(args.seed, 0)
    coverage = call_coverage(lambda: runner.run_calls(workload, inputs))
    metrics = runner.per_layer(workload, rounds, tracer, outside, mu_cache_s, gflops,
                               coverage)
    print(f"# traced run: {len(rounds)} rounds of {workload.trace_jobs} jobs")
    finish(results, metrics)


def measure_all(args) -> None:
    """Every workload in its own process; prints each, then one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        # No timeout here: every call runs under runner.CALL_CAP_S.
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        print(f"## {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(combined))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        require_sources()
        if args.setup_probe:
            print(set_up(args.workload)[0])
        elif args.workload == "all":
            measure_all(args)
        elif args.trace:
            measure_traced(args)
        else:
            measure(args)
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

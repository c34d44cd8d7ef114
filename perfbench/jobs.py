"""The benchmark's workloads.

A job is a fixed sequence of public ``fastla`` calls on inputs generated
from ``RngStream(seed).split(job_index)`` (the Schur factors of ``spectral``
come from a fixed pool; see ``EVEC_POOL``).  Every call has an independent
check (``checks``) and every job a numpy/scipy LAPACK counterpart, timed in
the traced run for reference.  Calls go through the ``fastla`` package
attributes so that the traced run's wrappers see them.

Why each workload exists is recorded in ``BENCHMARK.json`` and README.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import fastla as fl
from fastla.core import RngStream, gaussian_matrix

import checks

STRASSEN = fl.MmEngine("strassen")


@dataclass(frozen=True)
class Call:
    """One public call of a job: ``run(inputs, reports) -> output``,
    ``check(inputs, output) -> error / bound``."""

    name: str
    run: Callable
    check: Callable


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    make_inputs: Callable  # (seed, job index) -> inputs
    calls: tuple
    reference: Callable
    trace_jobs: int  # jobs per round of the traced run


def job_stream(seed: int, job: int) -> RngStream:
    return RngStream(seed).split(job)


def _gaussian_pair(n: int):
    def make(seed: int, job: int) -> dict:
        rng = job_stream(seed, job)
        return {"a": gaussian_matrix(n, n, rng.split(0)),
                "b": gaussian_matrix(n, 1, rng.split(1))}
    return make


# -- dense --------------------------------------------------------------------

DENSE_N = 384

DENSE_CALLS = (
    Call("qrr", lambda d, rep: fl.qrr(d["a"], with_report=rep),
         lambda d, out: checks.qr(d["a"], out)),
    Call("lur", lambda d, rep: fl.lur(d["a"], with_report=rep),
         lambda d, out: checks.lu(d["a"], out)),
    Call("gen_inv", lambda d, rep: fl.gen_inv(d["a"], with_report=rep),
         lambda d, out: checks.inverse_normal_eq(d, out[0], fl.matmul.CONVENTIONAL)),
    Call("solve_linear", lambda d, rep: fl.solve_linear(d["a"], d["b"]),
         checks.solve_lu),
    Call("solve_ls", lambda d, rep: fl.solve_ls(d["a"], d["b"]),
         checks.solve_backward),
)


def _dense_reference(d: dict) -> None:
    from scipy.linalg import lu_factor

    a, b = d["a"], d["b"]
    np.linalg.qr(a)
    lu_factor(a)
    np.linalg.inv(a)
    np.linalg.solve(a, b)
    np.linalg.lstsq(a, b, rcond=None)


# -- fastmm -------------------------------------------------------------------

FASTMM_N = 512


def _fastmm_inputs(seed: int, job: int) -> dict:
    rng = job_stream(seed, job)
    return {"a": gaussian_matrix(FASTMM_N, FASTMM_N, rng.split(0)),
            "c": gaussian_matrix(FASTMM_N, FASTMM_N, rng.split(1))}


FASTMM_CALLS = (
    Call("multiply", lambda d, rep: fl.multiply(d["a"], d["c"], STRASSEN),
         lambda d, out: checks.product(d["a"], d["c"], out, STRASSEN)),
    Call("qrr", lambda d, rep: fl.qrr(d["a"], STRASSEN, with_report=rep),
         lambda d, out: checks.qr(d["a"], out, STRASSEN)),
    Call("lur", lambda d, rep: fl.lur(d["a"], STRASSEN, with_report=rep),
         lambda d, out: checks.lu(d["a"], out)),
    Call("gen_inv", lambda d, rep: fl.gen_inv(d["a"], STRASSEN, with_report=rep),
         lambda d, out: checks.inverse_normal_eq(d, out[0], STRASSEN)),
)


def _fastmm_reference(d: dict) -> None:
    from scipy.linalg import lu_factor

    a = d["a"]
    a @ d["c"]
    np.linalg.qr(a)
    lu_factor(a)
    np.linalg.inv(a)


# -- extended -----------------------------------------------------------------

EXTENDED_N = 128


def _extended_inputs(seed: int, job: int) -> dict:
    d = _gaussian_pair(EXTENDED_N)(seed, job)
    d["t"] = np.triu(d["a"]) + EXTENDED_N * np.eye(EXTENDED_N)
    return d


EXTENDED_CALLS = (
    Call("gen_inv", lambda d, rep: fl.gen_inv(d["a"], precision="extended", with_report=rep),
         lambda d, out: checks.inverse_backward(d, "a", out[0])),
    Call("solve_via_inverse",
         lambda d, rep: fl.solve_via_inverse(d["a"], d["b"], precision="extended"),
         checks.solve_backward),
    Call("tri_inv", lambda d, rep: fl.tri_inv(d["t"], precision="extended", with_report=rep),
         lambda d, out: checks.upper_inverse(d, "t", out[0])),
)


def _extended_reference(d: dict) -> None:
    from scipy.linalg import solve_triangular

    np.linalg.inv(d["a"])
    np.linalg.solve(d["a"], d["b"])
    solve_triangular(d["t"], np.eye(EXTENDED_N))


# -- spectral -----------------------------------------------------------------

SPECTRAL_N = 64
EVEC_N = 16
# evecr's time on the Schur factor of a 16x16 Gaussian varies about tenfold
# between inputs (the power iterations of sep_estimate), so one draw per job
# moved a run's median job time by ~19% from seed to seed.  The factors come
# from a fixed pool of EVEC_POOL Gaussians instead, which the jobs of a run
# walk through from an offset set by the seed: every run of about EVEC_POOL
# jobs sees the same inputs, slow ones included.
EVEC_POOL = 16
EVEC_POOL_SEED = 0xE7EC


def _spectral_inputs(seed: int, job: int) -> dict:
    from scipy.linalg import schur

    rng = job_stream(seed, job)
    a = gaussian_matrix(SPECTRAL_N, SPECTRAL_N, rng.split(0))
    pool = RngStream(EVEC_POOL_SEED).split((seed + job) % EVEC_POOL)
    t, _ = schur(gaussian_matrix(EVEC_N, EVEC_N, pool), output="real")
    return {"a": a, "s": a + a.T, "t": np.triu(t, -1), "rng": rng.split(2)}


SPECTRAL_CALLS = (
    Call("schur_dandc", lambda d, rep: fl.schur_dandc(d["a"], rng=d["rng"].split(0)),
         lambda d, out: checks.schur(d["a"], out)),
    Call("symmetric_eig", lambda d, rep: fl.symmetric_eig(d["s"], rng=d["rng"].split(1)),
         lambda d, out: checks.symmetric_eig(d["s"], out)),
    Call("svd_via_gram", lambda d, rep: fl.svd_via_gram(d["a"], rng=d["rng"].split(2)),
         lambda d, out: checks.svd(d["a"], out)),
    Call("evecr", lambda d, rep: fl.evecr(d["t"]),
         lambda d, out: checks.eigenvectors(d["t"], out)),
)


def _spectral_reference(d: dict) -> None:
    from scipy.linalg import schur

    schur(d["a"], output="real")
    np.linalg.eigh(d["s"])
    np.linalg.svd(d["a"])
    np.linalg.eig(d["t"])


WORKLOADS = {
    "dense": Workload("dense", DENSE_N, _gaussian_pair(DENSE_N), DENSE_CALLS,
                      _dense_reference, 4),
    "fastmm": Workload("fastmm", FASTMM_N, _fastmm_inputs, FASTMM_CALLS,
                       _fastmm_reference, 2),
    "extended": Workload("extended", EXTENDED_N, _extended_inputs, EXTENDED_CALLS,
                         _extended_reference, 2),
    "spectral": Workload("spectral", SPECTRAL_N, _spectral_inputs, SPECTRAL_CALLS,
                         _spectral_reference, 1),
}

"""Randomized rank-revealing URV decomposition.

RURV multiplies A against the transpose of a Haar-distributed orthogonal
matrix (QR of a Gaussian matrix with the R-diagonal sign fix) and QR-
factorizes the result: U R = A V^T, so U R V = A.  With high probability
sigma_min(R(1:r,1:r)) tracks sigma_r of A and the trailing block tracks
sigma_{r+1}; the quality is governed by f, the smallest singular value of
the leading r-by-r corner of a Haar orthogonal matrix.

The singular values of ``exact_rank_probe`` come from the one-sided
Jacobi oracle (desk scale), as do those by which ``verify.suite_rurv``
checks the rank-revealing bounds on R's blocks; the algorithms themselves
never consume them.  ``f_statistic_experiment`` reads sigma_min of each
Haar corner from LAPACK's SVD, since it samples thousands of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .baseline import jacobi_svd
from . import bounds
from .core import (EPS, FROBENIUS, DimensionError, RngStream, as_matrix, gaussian_matrix,
                   norm, require_finite)
from .matmul import CONVENTIONAL, MmEngine, multiply
from .qr import positive_q, qrr
from .results import StabilityReport, WYFactor


@dataclass
class UrvResult:
    u: WYFactor
    r: np.ndarray
    v: np.ndarray
    report: StabilityReport | None


@dataclass
class FStatSummary:
    n: int
    r: int
    trials: int
    samples: np.ndarray
    prob_below: dict = field(default_factory=dict)
    quantiles: dict = field(default_factory=dict)


def haar_orthogonal(n: int, rng: RngStream, engine: MmEngine = CONVENTIONAL) -> np.ndarray:
    """A Haar-distributed n-by-n orthogonal matrix.

    QR of a Gaussian matrix is Haar only after multiplying each column of
    Q by the sign of the matching R diagonal entry (equivalently, forcing
    the R diagonal nonnegative).
    """
    if n < 1:
        raise DimensionError("haar_orthogonal needs n >= 1")
    return positive_q(gaussian_matrix(n, n, rng), engine)


def rurv(a, engine: MmEngine = CONVENTIONAL, rng: RngStream = None, counter=None,
         with_report: bool = True) -> UrvResult:
    """Randomized URV: U R V = A with U, V orthogonal, R upper triangular."""
    a = as_matrix(a)
    n = a.shape[0]
    if a.shape[1] != n:
        raise DimensionError("rurv requires a square matrix")
    require_finite("rurv", a)
    if rng is None:
        rng = RngStream(0)
    v = haar_orthogonal(n, rng, engine)
    ahat = multiply(a, np.ascontiguousarray(v.T), engine, counter)
    ures = qrr(ahat, engine, counter, with_report=False)
    result = UrvResult(u=ures.q, r=ures.r, v=v, report=None)
    if with_report:
        recon = reconstruct(result, engine)
        na = norm(a, FROBENIUS)
        resid = norm(a - recon, FROBENIUS) / na if na != 0.0 else 0.0
        orth = norm(v.T @ v - np.eye(n), FROBENIUS)
        result.report = StabilityReport(residual=resid, bound=bounds.backward(n, engine),
                                        orth_defect=orth)
    return result


def reconstruct(res: UrvResult, engine: MmEngine = CONVENTIONAL) -> np.ndarray:
    """U @ R @ V from the factored form."""
    ur = res.u.apply_q(res.r, engine)
    return multiply(ur, res.v, engine)


def exact_rank_probe(a, engine: MmEngine = CONVENTIONAL, rng: RngStream = None) -> int:
    """Numerical rank read off R's singular-value gaps.

    Returns the smallest k with sigma_{k+1}(R) <= n eps sigma_1(R), or n
    (the full-rank sentinel) when no gap crosses the threshold.
    """
    res = rurv(a, engine, rng, with_report=False)
    n = res.r.shape[0]
    sigma = jacobi_svd(res.r)[1]
    if sigma[0] == 0.0:
        return 0
    threshold = n * EPS * sigma[0]
    below = np.flatnonzero(sigma <= threshold)
    return int(below[0]) if below.size else n


def f_statistic_experiment(n: int, r: int, trials: int, rng: RngStream) -> FStatSummary:
    """Monte Carlo sample of f = sigma_min(V(1:r,1:r)) over Haar V.

    Reports the empirical Pr[f < 1/(r^(a+1) sqrt(n))] for a = 0.5 and 1.
    """
    if not (1 <= r < n):
        raise DimensionError("need 1 <= r < n")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    samples = np.empty(trials)
    for t in range(trials):
        v = haar_orthogonal(n, rng.split(t))
        samples[t] = np.linalg.svd(v[:r, :r], compute_uv=False)[-1]
    prob = {}
    for a in (0.5, 1.0):
        threshold = 1.0 / (r ** (a + 1.0) * np.sqrt(n))
        prob[a] = float(np.mean(samples < threshold))
    qs = {q: float(np.quantile(samples, q)) for q in (0.05, 0.25, 0.5, 0.75, 0.95)}
    return FStatSummary(n=n, r=r, trials=trials, samples=samples, prob_below=prob, quantiles=qs)

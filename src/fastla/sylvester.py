"""Recursive Sylvester solver with sep(A,B) conditioning diagnostics.

``sylr`` solves A R - R B = -C for (quasi-)upper-triangular A and B by
splitting all blocks in half: the lower-left equation is solved first,
its solution feeds the right-hand sides of the diagonal equations, and
the upper-right equation closes the square.  Every right-hand-side
update is materialized through the multiplication engine.

2x2 diagonal bumps (complex conjugate pairs of a real Schur form) are
respected: splits only land on block boundaries.  The base case divides
for a pair of 1x1 blocks and otherwise makes one LAPACK solve of the (at
most 4-by-4) Kronecker system.

sep(A,B) = sigma_min(K), K = I (x) A - B^T (x) I, comes from Lanczos on
K^-T K^-1, each step two LAPACK trsyl solves: O(nm(n+m)) flops, plus O(k nm)
for reorthogonalisation at step k.  A run cut at SEP_MAX_ITERS steps returns
a value flagged as an upper bound on sep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .baseline import SylvesterSingularError, conventional_sylvester
from .core import EPS, FROBENIUS, DimensionError, RngStream, as_matrix, norm, require_finite
from .matmul import CONVENTIONAL, MmEngine, multiply
from .results import StabilityReport

SEP_MAX_ITERS = 500
# Calibration constant multiplying the sylr error recurrence.
SYLR_BOUND_CONST = 10.0


class NotTriangularError(ValueError):
    """Input is not (quasi-)upper-triangular with the declared block pattern."""


@dataclass(frozen=True)
class SylvesterProblem:
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        a, b, c = as_matrix(self.a), as_matrix(self.b), as_matrix(self.c)
        n, m = c.shape
        if a.shape != (n, n) or b.shape != (m, m):
            raise DimensionError("SylvesterProblem shape mismatch")


@dataclass
class SepEstimate:
    value: float
    is_upper_bound: bool = False


def block_boundaries(t) -> list:
    """Boundaries of the quasi-triangular block pattern of t (2x2 bumps)."""
    t = as_matrix(t)
    n = t.shape[0]
    bounds = [0]
    i = 0
    while i < n:
        if i + 1 < n and t[i + 1, i] != 0.0:
            i += 2
        else:
            i += 1
        bounds.append(i)
    return bounds


def block_eigenvalues(t, bounds=None) -> np.ndarray:
    """Complex eigenvalues of a quasi-triangular matrix, block by block."""
    t = as_matrix(t)
    if bounds is None:
        bounds = block_boundaries(t)
    eigs = []
    for lo, hi in zip(bounds, bounds[1:]):
        if hi - lo == 1:
            eigs.append(complex(t[lo, lo]))
        else:
            tr = t[lo, lo] + t[lo + 1, lo + 1]
            det = t[lo, lo] * t[lo + 1, lo + 1] - t[lo, lo + 1] * t[lo + 1, lo]
            disc = tr * tr - 4.0 * det
            if disc >= 0.0:
                root = np.sqrt(disc)
                eigs.extend([complex((tr + root) / 2.0), complex((tr - root) / 2.0)])
            else:
                root = np.sqrt(-disc)
                eigs.extend([complex(tr / 2.0, root / 2.0), complex(tr / 2.0, -root / 2.0)])
    return np.asarray(eigs)


def _check_pattern(t, bounds, name):
    mask = np.tril(np.ones(t.shape, dtype=bool), -1)
    for lo, hi in zip(bounds, bounds[1:]):
        mask[lo:hi, lo:hi] = False
    if np.any(t[mask] != 0.0):
        raise NotTriangularError(f"{name} is not upper triangular outside its blocks")


def min_spectral_gap(a, b, a_blocks=None, b_blocks=None) -> float:
    """min |lambda_i(A) - mu_j(B)| over the block spectra."""
    la = block_eigenvalues(a, a_blocks)
    lb = block_eigenvalues(b, b_blocks)
    return float(np.min(np.abs(la[:, None] - lb[None, :])))


def sylr(a, b, c, engine: MmEngine = CONVENTIONAL, counter=None,
         a_blocks=None, b_blocks=None, with_report: bool = True):
    """Solve A R - R B = -C recursively; returns (R, StabilityReport)."""
    a = as_matrix(a)
    b = as_matrix(b)
    c = as_matrix(c)
    n, m = c.shape
    if a.shape != (n, n) or b.shape != (m, m):
        raise DimensionError("sylr shape mismatch")
    require_finite("sylr", a, b, c)
    ab = a_blocks if a_blocks is not None else block_boundaries(a)
    bb = b_blocks if b_blocks is not None else block_boundaries(b)
    _check_pattern(a, ab, "A")
    _check_pattern(b, bb, "B")
    if min_spectral_gap(a, b, ab, bb) == 0.0:
        raise SylvesterSingularError("spectra of A and B are not disjoint")
    r = _sylr_rec(a, b, c, engine, counter, np.asarray(ab), np.asarray(bb))
    if not with_report:
        return r, StabilityReport(0.0)
    resid = norm(a @ r - r @ b + c, FROBENIUS)
    denom = (norm(a, FROBENIUS) + norm(b, FROBENIUS)) * norm(r, FROBENIUS)
    report = StabilityReport(residual=resid / denom if denom > 0.0 else resid)
    return r, report


def _nearest_cut(bounds, target):
    interior = bounds[1:-1]
    return int(interior[np.argmin(np.abs(interior - target))])


def _sylr_rec(a, b, c, engine, counter, ab, bb):
    n, m = c.shape
    a_atomic = len(ab) == 2
    b_atomic = len(bb) == 2
    if a_atomic and b_atomic:
        return _base_solve(a, b, c, counter)
    if a_atomic:
        sb = _nearest_cut(bb, m / 2.0)
        bb_l = bb[bb <= sb]
        bb_r = bb[bb >= sb] - sb
        r1 = _sylr_rec(a, b[:sb, :sb], c[:, :sb], engine, counter, ab, bb_l)
        c2 = c[:, sb:] - multiply(r1, b[:sb, sb:], engine, counter)
        if counter is not None:
            counter.count(adds=c2.size)
        r2 = _sylr_rec(a, b[sb:, sb:], c2, engine, counter, ab, bb_r)
        return np.hstack([r1, r2])
    if b_atomic:
        sa = _nearest_cut(ab, n / 2.0)
        ab_t = ab[ab <= sa]
        ab_b = ab[ab >= sa] - sa
        r2 = _sylr_rec(a[sa:, sa:], b, c[sa:, :], engine, counter, ab_b, bb)
        c1 = c[:sa, :] + multiply(a[:sa, sa:], r2, engine, counter)
        if counter is not None:
            counter.count(adds=c1.size)
        r1 = _sylr_rec(a[:sa, :sa], b, c1, engine, counter, ab_t, bb)
        return np.vstack([r1, r2])
    sa = _nearest_cut(ab, n / 2.0)
    sb = _nearest_cut(bb, m / 2.0)
    ab_t = ab[ab <= sa]
    ab_b = ab[ab >= sa] - sa
    bb_l = bb[bb <= sb]
    bb_r = bb[bb >= sb] - sb
    a11, a12, a22 = a[:sa, :sa], a[:sa, sa:], a[sa:, sa:]
    b11, b12, b22 = b[:sb, :sb], b[:sb, sb:], b[sb:, sb:]
    r21 = _sylr_rec(a22, b11, c[sa:, :sb], engine, counter, ab_b, bb_l)
    c11 = c[:sa, :sb] + multiply(a12, r21, engine, counter)
    c22 = c[sa:, sb:] - multiply(r21, b12, engine, counter)
    if counter is not None:
        counter.count(adds=c11.size + c22.size)
    r11 = _sylr_rec(a11, b11, c11, engine, counter, ab_t, bb_l)
    r22 = _sylr_rec(a22, b22, c22, engine, counter, ab_b, bb_r)
    c12 = c[:sa, sb:] - multiply(r11, b12, engine, counter) + multiply(a12, r22, engine, counter)
    if counter is not None:
        counter.count(adds=2 * c12.size)
    r12 = _sylr_rec(a11, b22, c12, engine, counter, ab_t, bb_r)
    return np.vstack([np.hstack([r11, r12]), np.hstack([r21, r22])])


def _base_solve(a, b, c, counter):
    n, m = c.shape
    if n == 1 and m == 1:
        if counter is not None:
            counter.count(mults=1, adds=1)
        return np.array([[-c[0, 0] / (a[0, 0] - b[0, 0])]])
    # Bumps: one LAPACK solve of the Kronecker system of size k = n*m <= 4,
    # tallied as Gaussian elimination with back substitution.
    k = n * m
    kron = np.kron(np.eye(m), a) - np.kron(b.T, np.eye(n))
    try:
        x = np.linalg.solve(kron, -c.flatten(order="F"))
    except np.linalg.LinAlgError as exc:
        raise SylvesterSingularError("singular bump system in sylr base case") from exc
    if counter is not None:
        counter.count(mults=k * k * k // 3 + k * k, adds=k * k * k // 3 + k * k)
    return x.reshape((m, n)).T


# ---------------------------------------------------------------------------
# sep(A, B)


def sep_estimate(a, b, a_blocks=None, b_blocks=None) -> SepEstimate:
    """sigma_min(I (x) A - B^T (x) I) by Lanczos on M = K^-T K^-1.

    Lanczos with full reorthogonalisation from a seeded Gaussian gives the
    largest Ritz value theta of M, and sep = theta^(-1/2).  It stops when
    the Krylov space is exhausted or the Ritz residual is <= 10 eps theta.
    A run cut at SEP_MAX_ITERS steps is flagged ``is_upper_bound``: theta
    <= lambda_max(M), so its value is >= sep.  K^-1 and K^-T are trsyl
    solves; where trsyl finds eigenvalues of A and B within roundoff of
    each other (info = 1) it perturbs them, and the value is then within
    roundoff of sigma_min.  Step k costs O(nm(n+m) + k nm) flops.
    """
    # Imported here: a fresh scipy.linalg.lapack import takes ~0.3 s.
    from scipy.linalg.lapack import dtrsyl

    a = as_matrix(a)
    b = as_matrix(b)
    require_finite("sep_estimate", a, b)
    n, m = a.shape[0], b.shape[0]
    ab = a_blocks if a_blocks is not None else block_boundaries(a)
    bb = b_blocks if b_blocks is not None else block_boundaries(b)
    _check_pattern(a, ab, "A")
    _check_pattern(b, bb, "B")
    if min_spectral_gap(a, b, ab, bb) == 0.0:
        return SepEstimate(value=0.0)

    def solve(x, trans):  # K^-1 x for trans "N", K^-T x for "T"
        r, scale, _ = dtrsyl(a, b, x.reshape(m, n).T, trans, trans, -1)
        return (r / scale).T.ravel()

    g = RngStream(0x5E9A).gaussians(n * m)
    basis = (g / np.linalg.norm(g))[None, :]
    alphas, betas = [], []
    while True:
        w = solve(solve(basis[-1], "N"), "T")
        alphas.append(float(basis[-1] @ w))
        for _ in range(2):
            w -= basis.T @ (basis @ w)
        beta = float(np.linalg.norm(w))
        ritz, s = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
        k = len(alphas)
        done = beta == 0.0 or k == n * m or beta * abs(s[-1, -1]) <= 10.0 * EPS * ritz[-1]
        if done or k == SEP_MAX_ITERS:
            return SepEstimate(value=float(ritz[-1] ** -0.5), is_upper_bound=not done)
        betas.append(beta)
        basis = np.vstack([basis, w / beta])


def predicted_sylr_bound(n: int, norm_a: float, norm_b: float, sep: float,
                         mu_const: float = 1.0) -> float:
    """Relative forward-error bound from the recursive solver's recurrence.

    err(n)/||R|| = O(n^(1+log2 3) mu(n/2) eps ((||A||+||B||)/sep)^(1+log2 n)),
    evaluated in logs and clamped at 1 (above 1, no accuracy is promised).
    """
    if sep <= 0.0:
        return 1.0
    n = max(n, 2)
    log_b = math.log10(SYLR_BOUND_CONST * mu_const * EPS)
    log_b += (1.0 + math.log2(3.0)) * math.log10(n)
    log_b += (1.0 + math.log2(n)) * math.log10(max((norm_a + norm_b) / sep, 1.0))
    return 1.0 if log_b >= 0.0 else 10.0 ** log_b


def sylr_oracle_equivalence(problems, engine: MmEngine = CONVENTIONAL) -> float:
    """Max normalized difference between sylr and the conventional solve.

    For each triangular problem, computes both routes and returns
    max ||R_sylr - R_conv||_F / (eps * ||R||_F * (||A|| + ||B||) / sep);
    the two perform the same scalar operations in a different order, so
    the statistic is O(1)-to-moderate, not zero.
    """
    worst = 0.0
    for p in problems:
        a, b, c = as_matrix(p.a), as_matrix(p.b), as_matrix(p.c)
        r1, _ = sylr(a, b, c, engine, with_report=False)
        r2 = conventional_sylvester(a, b, c)
        nr = norm(r2, FROBENIUS)
        if nr == 0.0:
            if norm(r1, FROBENIUS) != 0.0:
                worst = max(worst, np.inf)
            continue
        sep = sep_estimate(a, b).value
        scale = EPS * nr * (norm(a, FROBENIUS) + norm(b, FROBENIUS)) / sep
        worst = max(worst, norm(r1 - r2, FROBENIUS) / scale)
    return float(worst)

"""Recursive Sylvester solver with sep(A,B) conditioning diagnostics.

``sylr`` solves A R - R B = -C for (quasi-)upper-triangular A and B by
splitting one operand in two (Jonsson & Kagstrom, ACM TOMS 2002): the one
with more diagonal blocks, B on a tie.  Splitting B solves for R's left
columns first and feeds them through C2 - R1 B12 to the right ones;
splitting A solves for R's bottom rows first and feeds them through
C1 + A12 R2 to the top ones.  With equal block counts, the B split and
then the A split in each half make the classic four-way step.  Every
right-hand-side update is materialized through the multiplication
engine.

The block patterns are read from the operands: a nonzero subdiagonal
entry opens a 2x2 bump (a complex conjugate pair of a real Schur form),
and splits only land on block boundaries.  The base case divides
for a pair of 1x1 blocks and otherwise makes one LAPACK solve of the (at
most 4-by-4) Kronecker system.

sep(A,B) = sigma_min(K), K = I (x) A - B^T (x) I, comes from Lanczos on
K^-T K^-1, each step two LAPACK trsyl solves: O(nm(n+m)) flops, plus O(k nm)
for reorthogonalisation at step k.  A run cut at SEP_MAX_ITERS steps returns
a value flagged as an upper bound on sep.

The report of ``sylr`` carries its residual bound ``bounds.backward(n + m)``;
the forward-error bound of its recurrence is ``bounds.sylr``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bounds
from .baseline import SylvesterSingularError, conventional_sylvester
from .core import EPS, FROBENIUS, DimensionError, RngStream, as_matrix, norm, require_finite
from .matmul import CONVENTIONAL, MmEngine, multiply
from .results import StabilityReport

SEP_MAX_ITERS = 500


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
    cuts = [0]
    i = 0
    while i < n:
        if i + 1 < n and t[i + 1, i] != 0.0:
            i += 2
        else:
            i += 1
        cuts.append(i)
    return cuts


def block_eigenvalues(t) -> np.ndarray:
    """Complex eigenvalues of a quasi-triangular matrix, block by block."""
    t = as_matrix(t)
    cuts = block_boundaries(t)
    eigs = []
    for lo, hi in zip(cuts, cuts[1:]):
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


def _checked_blocks(t, name) -> np.ndarray:
    """t's block boundaries, after checking that t is zero below its blocks."""
    cuts = block_boundaries(t)
    mask = np.tril(np.ones(t.shape, dtype=bool), -1)
    for lo, hi in zip(cuts, cuts[1:]):
        mask[lo:hi, lo:hi] = False
    if np.any(t[mask] != 0.0):
        raise NotTriangularError(f"{name} is not upper triangular outside its blocks")
    return np.asarray(cuts)


def min_spectral_gap(a, b) -> float:
    """min |lambda_i(A) - mu_j(B)| over the block spectra."""
    la = block_eigenvalues(a)
    lb = block_eigenvalues(b)
    return float(np.min(np.abs(la[:, None] - lb[None, :])))


def sylr(a, b, c, engine: MmEngine = CONVENTIONAL, counter=None, with_report: bool = True):
    """Solve A R - R B = -C recursively; returns (R, StabilityReport or None).

    The block patterns of A and B are read from their subdiagonals.  Each
    step splits the operand with more diagonal blocks, B on a tie, at the
    block boundary nearest its middle.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    c = as_matrix(c)
    n, m = c.shape
    if a.shape != (n, n) or b.shape != (m, m):
        raise DimensionError("sylr shape mismatch")
    require_finite("sylr", a, b, c)
    ab = _checked_blocks(a, "A")
    bb = _checked_blocks(b, "B")
    if min_spectral_gap(a, b) == 0.0:
        raise SylvesterSingularError("spectra of A and B are not disjoint")
    r = _sylr_rec(a, b, c, engine, counter, ab, bb)
    if not with_report:
        return r, None
    resid = norm(a @ r - r @ b + c, FROBENIUS)
    denom = (norm(a, FROBENIUS) + norm(b, FROBENIUS)) * norm(r, FROBENIUS)
    return r, StabilityReport(residual=resid / denom if denom > 0.0 else resid,
                              bound=bounds.backward(n + m))


def _nearest_cut(cuts, target):
    interior = cuts[1:-1]
    return int(interior[np.argmin(np.abs(interior - target))])


def _sylr_rec(a, b, c, engine, counter, ab, bb):
    n, m = c.shape
    if len(ab) == 2 and len(bb) == 2:
        return _base_solve(a, b, c, counter)
    if len(bb) >= len(ab):
        # R = [R1, R2]: A R1 - R1 B11 = -C1, then A R2 - R2 B22 = -(C2 - R1 B12).
        sb = _nearest_cut(bb, m / 2.0)
        r1 = _sylr_rec(a, b[:sb, :sb], c[:, :sb], engine, counter, ab, bb[bb <= sb])
        c2 = c[:, sb:] - multiply(r1, b[:sb, sb:], engine, counter)
        if counter is not None:
            counter.count(adds=c2.size)
        r2 = _sylr_rec(a, b[sb:, sb:], c2, engine, counter, ab, bb[bb >= sb] - sb)
        return np.hstack([r1, r2])
    # R = [R1; R2]: A22 R2 - R2 B = -C2, then A11 R1 - R1 B = -(C1 + A12 R2).
    sa = _nearest_cut(ab, n / 2.0)
    r2 = _sylr_rec(a[sa:, sa:], b, c[sa:, :], engine, counter, ab[ab >= sa] - sa, bb)
    c1 = c[:sa, :] + multiply(a[:sa, sa:], r2, engine, counter)
    if counter is not None:
        counter.count(adds=c1.size)
    r1 = _sylr_rec(a[:sa, :sa], b, c1, engine, counter, ab[ab <= sa], bb)
    return np.vstack([r1, r2])


def _base_solve(a, b, c, counter):
    n, m = c.shape
    if n == 1 and m == 1:
        if counter is not None:
            counter.count(mults=1, adds=1)
        return np.array([[-c[0, 0] / (a[0, 0] - b[0, 0])]])
    # Bumps: one LAPACK solve of the Kronecker system of size k = n*m <= 4,
    # tallied as Gaussian elimination with back substitution.  The system
    # I (x) A - B^T (x) I is filled by index: A on the diagonal blocks,
    # minus B^T on the entries whose row and column agree mod n.
    k = n * m
    kron = np.zeros((k, k))
    for j in range(m):
        kron[j * n : (j + 1) * n, j * n : (j + 1) * n] = a
    for i in range(n):
        kron[i::n, i::n] -= b.T
    try:
        x = np.linalg.solve(kron, -c.flatten(order="F"))
    except np.linalg.LinAlgError as exc:
        raise SylvesterSingularError("singular bump system in sylr base case") from exc
    if counter is not None:
        counter.count(mults=k * k * k // 3 + k * k, adds=k * k * k // 3 + k * k)
    return x.reshape((m, n)).T


# ---------------------------------------------------------------------------
# sep(A, B)


def sep_estimate(a, b) -> SepEstimate:
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
    _checked_blocks(a, "A")
    _checked_blocks(b, "B")
    if min_spectral_gap(a, b) == 0.0:
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

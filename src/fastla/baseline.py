"""Conventional reference algorithms, blocked LU/QR and the triangular solve.

These are the slow-but-trusted routines: Householder QR in WY form,
right-looking Gaussian elimination with partial pivoting, a column-by-column
triangular Sylvester solve, one-sided Jacobi SVD and two-sided Jacobi
eigensolvers (the desk-scale oracles), plus the classic blocked LU/QR whose
trailing updates run through a pluggable multiplication engine.  The blocked
algorithms process b columns at a time; the cost-minimizing block size for a
multiplication exponent gamma is n^(1/(4-gamma)).

``solve_triangular`` is the library's one triangular-solve kernel: the 2x2
block recursion solves one diagonal block, subtracts its off-diagonal
product (through ``multiply``, so under the caller's engine) and solves the
other.  Blocks of at most ``_TRI_LEAF`` rows are one ``np.linalg.solve``
call on the block's upper triangle (a lower block is reversed into upper
form).  LAPACK's LU with partial pivoting interchanges no rows there: below
a nonzero diagonal pivot an upper triangular matrix holds exact zeros, so
the leaf is plain back substitution with no Python loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DimensionError, as_matrix
from .matmul import CONVENTIONAL, MmEngine, multiply
from .results import WYFactor


# Largest triangular block solved by one LAPACK call instead of a split,
# and the upper-triangle mask whose top-left corner every leaf reads.
_TRI_LEAF = 64
_UPPER = np.triu(np.ones((_TRI_LEAF, _TRI_LEAF), dtype=bool))


class SingularMatrixError(ValueError):
    """Exact singularity where an invertible matrix is required."""


class SylvesterSingularError(ValueError):
    """Sylvester spectra overlap: some A_ii equals some B_jj."""


@dataclass(frozen=True)
class BlockConfig:
    block_size: int
    gamma: float = 3.0

    def __post_init__(self):
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        if not (2.0 < self.gamma <= 3.0):
            raise ValueError("gamma must lie in (2, 3]")


def recommended_block_size(n: int, gamma: float) -> int:
    """The cost-balancing block size b = round(n^(1/(4-gamma)))."""
    b = int(round(n ** (1.0 / (4.0 - gamma))))
    return max(1, min(n, b))


def block_cost_exponent(gamma: float) -> float:
    """Exponent (9 - 2*gamma)/(4 - gamma) of the blocked algorithms at optimal b."""
    return (9.0 - 2.0 * gamma) / (4.0 - gamma)


# ---------------------------------------------------------------------------
# Householder panels and conventional QR


def _reflector(x, counter=None):
    """Unit Householder data (w, r) with (I - 2 w w^T) x = r e_1.

    Normalized so ||w|| = 1 and the paired Y row is 2 w^T (norm 2); the
    sign choice r = -sign(x_0) ||x|| avoids cancellation.  A zero column
    yields the degenerate w = e_1 with a zero Y row.
    """
    k = x.shape[0]
    sigma = float(np.sqrt(np.sum(x * x)))
    if counter is not None:
        counter.count(mults=k, adds=k - 1)
    if sigma == 0.0:
        w = np.zeros(k)
        w[0] = 1.0
        return w, 0.0, True
    s = 1.0 if x[0] >= 0.0 else -1.0
    v = x.copy()
    v[0] += s * sigma
    vnorm = float(np.sqrt(np.sum(v * v)))
    if counter is not None:
        counter.count(mults=2 * k, adds=k)
    return v / vnorm, -s * sigma, False


def panel_qr_wy(a, counter=None):
    """In-place Householder QR of a panel, accumulating the WY form.

    Overwrites ``a`` with R (exact zeros below the diagonal) and returns
    (W, Y, degenerate_columns) for Q^T = I - W Y on the panel's row range.
    """
    n, m = a.shape
    w_acc = np.zeros((n, m))
    y_acc = np.zeros((m, n))
    degenerate = []
    for j in range(min(n, m)):
        w, r, degen = _reflector(a[j:, j], counter)
        if degen:
            degenerate.append(j)
        wf = np.zeros(n)
        wf[j:] = w
        yf = np.zeros(n)
        if not degen:
            yf[j:] = 2.0 * w
        if not degen and j + 1 < m:
            t = yf[j:] @ a[j:, j + 1 :]
            a[j:, j + 1 :] -= np.outer(w, t)
            if counter is not None:
                k = n - j
                cols = m - j - 1
                counter.count(mults=2 * k * cols, adds=(2 * k - 1) * cols)
        a[j, j] = r
        a[j + 1 :, j] = 0.0
        if j > 0 and not degen:
            t = yf @ w_acc[:, :j]
            w_acc[:, :j] -= np.outer(wf, t)
            if counter is not None:
                counter.count(mults=2 * n * j, adds=2 * n * j)
        w_acc[:, j] = wf
        y_acc[j, :] = yf
    return w_acc, y_acc, degenerate


def householder_qr(a, nonneg_diag=True, counter=None):
    """Conventional QR via Householder reflections: A = Q R.

    Returns the explicit n-by-n orthogonal Q and the n-by-m upper
    triangular R.  With ``nonneg_diag`` the factors are sign-fixed so the
    diagonal of R is nonnegative; the raw reflector convention
    (R_jj = -sign(a_jj) ||a_j||) is available with ``nonneg_diag=False``.
    """
    a = as_matrix(a).copy()
    n, m = a.shape
    if n < m:
        raise DimensionError("householder_qr requires rows >= cols")
    w, y, _ = panel_qr_wy(a, counter)
    q = np.eye(n) - (w @ y).T
    r = a
    if nonneg_diag:
        d = np.where(np.diag(r)[:m] < 0.0, -1.0, 1.0)
        r[:m, :] *= d[:, None]
        q[:, :m] *= d[None, :]
    return q, r


# ---------------------------------------------------------------------------
# Gaussian elimination with partial pivoting


def _gepp_panel(a, counter=None):
    """Right-looking GEPP on a (tall) panel, in place.

    On return the strict lower part of ``a`` holds the L multipliers and
    the upper part holds U.  Returns (perm, zero_pivot) where ``perm`` is
    the row order such that original[perm] was factorized.
    """
    n, m = a.shape
    perm = np.arange(n)
    zero_pivot = False
    for j in range(min(n, m)):
        piv = j + int(np.argmax(np.abs(a[j:, j])))
        if piv != j:
            a[[j, piv], :] = a[[piv, j], :]
            perm[[j, piv]] = perm[[piv, j]]
        pivot = a[j, j]
        if pivot == 0.0:
            zero_pivot = True
            continue
        a[j + 1 :, j] /= pivot
        if j + 1 < m:
            a[j + 1 :, j + 1 :] -= np.outer(a[j + 1 :, j], a[j, j + 1 :])
            if counter is not None:
                rows = n - j - 1
                cols = m - j - 1
                counter.count(mults=rows + rows * cols, adds=rows * cols)
        elif counter is not None:
            counter.count(mults=n - j - 1)
    return perm, zero_pivot


def gepp_lu(a, counter=None):
    """LU with partial pivoting: a[perm] = L @ U.

    L is unit lower triangular with |L_ij| <= 1; a zero pivot is left in
    U (the caller checks the diagonal for exact singularity).
    """
    a = as_matrix(a)
    n, m = a.shape
    if n != m:
        raise DimensionError("gepp_lu requires a square matrix")
    work = a.copy()
    perm, _ = _gepp_panel(work, counter)
    l = np.tril(work, -1) + np.eye(n)
    u = np.triu(work)
    return perm, l, u


def pivot_growth(a, u) -> float:
    """Pivot growth g = max|U| / max|A| (infinity-style)."""
    denom = float(np.max(np.abs(a)))
    if denom == 0.0:
        return 1.0
    return float(np.max(np.abs(u))) / denom


# ---------------------------------------------------------------------------
# Conventional Sylvester solve (back substitution, column by column)


def conventional_sylvester(a, b, c, counter=None):
    """Solve A R - R B = -C for upper triangular A, B by substitution.

    The Kronecker system is a permuted triangular system whose diagonal
    entries are A_ii - B_jj; equal diagonal pairs are rejected.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    c = as_matrix(c)
    n, m = c.shape
    if a.shape != (n, n) or b.shape != (m, m):
        raise DimensionError("conventional_sylvester shape mismatch")
    if np.min(np.abs(np.subtract.outer(np.diag(a), np.diag(b)))) == 0.0:
        raise SylvesterSingularError("A and B share a diagonal entry")
    r = np.zeros((n, m))
    for j in range(m):
        rhs = -c[:, j]
        if j > 0:
            rhs = rhs + r[:, :j] @ b[:j, j]
            if counter is not None:
                counter.count(mults=n * j, adds=n * j)
        shift = b[j, j]
        x = np.zeros(n)
        for i in range(n - 1, -1, -1):
            acc = rhs[i]
            if i + 1 < n:
                acc -= a[i, i + 1 :] @ x[i + 1 :]
            x[i] = acc / (a[i, i] - shift)
        if counter is not None:
            counter.count(mults=n * (n + 1) // 2, adds=n * (n - 1) // 2)
        r[:, j] = x
    return r


# ---------------------------------------------------------------------------
# Blocked LU and QR (conventional panels + engine updates)


def block_lu(a, cfg: BlockConfig, engine: MmEngine, counter=None, update_counter=None):
    """Blocked LU with partial pivoting: a[perm] = L @ U.

    Panels of ``cfg.block_size`` columns are factorized conventionally;
    each Schur complement update A22 - L21 U12 runs through the engine.
    When ``update_counter`` is given, the engine products are tallied there
    instead of ``counter``, separating the two terms of the cost model.
    """
    a = as_matrix(a)
    n, m = a.shape
    if n != m:
        raise DimensionError("block_lu requires a square matrix")
    b = min(cfg.block_size, n)
    upd_counter = update_counter if update_counter is not None else counter
    work = a.copy()
    perm = np.arange(n)
    for i in range(0, n, b):
        end = min(i + b, n)
        local, _ = _gepp_panel(work[i:, i:end], counter)
        # Permute the already-computed L columns and the trailing block.
        work[i:, :i] = work[i:, :i][local]
        work[i:, end:] = work[i:, end:][local]
        perm[i:] = perm[i:][local]
        if end < n:
            u12 = solve_triangular(work[i:end, i:end], work[i:end, end:], lower=True,
                                   unit_diag=True, counter=counter)
            work[i:end, end:] = u12
            upd = multiply(work[end:, i:end], u12, engine, upd_counter)
            work[end:, end:] -= upd
            if upd_counter is not None:
                upd_counter.count(adds=(n - end) * (n - end))
    l = np.tril(work, -1) + np.eye(n)
    u = np.triu(work)
    return perm, l, u


def solve_unit_lower(l, rhs, counter=None):
    """Forward substitution with a unit lower triangular matrix."""
    return solve_triangular(l, rhs, lower=True, unit_diag=True, counter=counter)


# ---------------------------------------------------------------------------
# Recursive triangular solve


def solve_triangular(t, rhs, lower=False, unit_diag=False, engine: MmEngine = CONVENTIONAL,
                     counter=None):
    """Solve T x = rhs for triangular T by the 2x2 block recursion.

    Only the triangle named by ``lower`` is read, and with ``unit_diag``
    not the diagonal either, so compact LU storage can be passed as is.
    The off-diagonal block updates run through ``multiply`` under
    ``engine``; blocks of at most ``_TRI_LEAF`` rows go to LAPACK.
    """
    t = as_matrix(t)
    k = t.shape[0]
    if t.shape[1] != k:
        raise DimensionError("solve_triangular requires a square matrix")
    if not unit_diag and not t.diagonal().all():
        raise SingularMatrixError("zero diagonal in triangular solve")
    x = np.array(rhs, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] != k:
        raise DimensionError(f"solve_triangular: rhs shape {np.shape(rhs)} for a {k}x{k} matrix")
    _solve_tri_rec(t, x, lower, unit_diag, engine, counter)
    return x[:, 0] if squeeze else x


def _solve_tri_rec(t, x, lower, unit_diag, engine, counter):
    """Overwrite the view ``x`` with T^-1 x."""
    k = x.shape[0]
    if k <= _TRI_LEAF:
        _solve_tri_leaf(t, x, lower, unit_diag, counter)
        return
    h = k // 2
    # Lower: x1 = T11^-1 x1, x2 -= T21 x1, x2 = T22^-1 x2; upper mirrors it.
    first, second = (slice(0, h), slice(h, k)) if lower else (slice(h, k), slice(0, h))
    _solve_tri_rec(t[first, first], x[first], lower, unit_diag, engine, counter)
    x[second] -= multiply(t[second, first], x[first], engine, counter)
    if counter is not None:
        counter.count(adds=x[second].size)
    _solve_tri_rec(t[second, second], x[second], lower, unit_diag, engine, counter)


def _solve_tri_leaf(t, x, lower, unit_diag, counter):
    """One LAPACK solve of a leaf block, reversed into upper form when lower."""
    k, cols = x.shape
    # Reversing rows and columns maps the lower triangle onto the upper one.
    u = np.where(_UPPER[:k, :k], t[::-1, ::-1] if lower else t, 0.0)
    if unit_diag:
        np.fill_diagonal(u, 1.0)
    if lower:
        x[::-1] = np.linalg.solve(u, x[::-1])
    else:
        x[:] = np.linalg.solve(u, x)
    if counter is not None:
        tri = k * (k - 1) // 2 * cols
        counter.count(mults=tri if unit_diag else tri + k * cols, adds=tri)


def block_qr(a, cfg: BlockConfig, engine: MmEngine, counter=None):
    """Blocked Householder QR: A = Q R with Q^T = I - W Y accumulated.

    Panels are factorized with ``panel_qr_wy``; the trailing matrix update
    A2 - W1 (Y1 A2) and the WY merges use the engine.
    """
    a = as_matrix(a)
    n, m = a.shape
    if n < m:
        raise DimensionError("block_qr requires rows >= cols")
    b = min(cfg.block_size, m)
    work = a.copy()
    w_tot = None
    y_tot = None
    for i in range(0, m, b):
        end = min(i + b, m)
        wp, yp, _ = panel_qr_wy(work[i:, i:end], counter)
        wf = np.zeros((n, end - i))
        wf[i:, :] = wp
        yf = np.zeros((end - i, n))
        yf[:, i:] = yp
        if end < m:
            t = multiply(yf[:, i:], work[i:, end:], engine, counter)
            upd = multiply(wf[i:, :], t, engine, counter)
            work[i:, end:] -= upd
            if counter is not None:
                counter.count(adds=(n - i) * (m - end))
        if w_tot is None:
            w_tot, y_tot = wf, yf
        else:
            # Q^T = (I - Wp Yp)(I - W Y) = I - [W - Wp (Yp W), Wp] [Y; Yp]
            t = multiply(yf, w_tot, engine, counter)
            corr = multiply(wf, t, engine, counter)
            if counter is not None:
                counter.count(adds=w_tot.size)
            w_tot = np.hstack([w_tot - corr, wf])
            y_tot = np.vstack([y_tot, yf])
    r = np.triu(work[:m, :])
    return WYFactor(w_tot, y_tot), r


# ---------------------------------------------------------------------------
# Jacobi oracles (desk scale)


def jacobi_svd(a):
    """One-sided Jacobi SVD: A = U diag(s) V^T with s descending.

    The oracle route for singular values in reports and tests (n <= 256).
    Up to 40 sweeps, each rotating every column pair whose cosine exceeds
    1e-14; columns of exactly zero norm produce zero columns in U.
    """
    a = as_matrix(a)
    n, m = a.shape
    g = a.copy()
    v = np.eye(m)
    for _ in range(40):
        rotated = False
        for p in range(m - 1):
            for q in range(p + 1, m):
                gp = g[:, p]
                gq = g[:, q]
                alpha = float(gp @ gp)
                beta = float(gq @ gq)
                gamma = float(gp @ gq)
                if abs(gamma) <= 1e-14 * np.sqrt(alpha * beta):
                    continue
                rotated = True
                zeta = (beta - alpha) / (2.0 * gamma)
                t = np.sign(zeta) / (abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                if zeta == 0.0:
                    t = 1.0
                cs = 1.0 / np.sqrt(1.0 + t * t)
                sn = cs * t
                gp_new = cs * gp - sn * gq
                gq_new = sn * gp + cs * gq
                g[:, p] = gp_new
                g[:, q] = gq_new
                vp = v[:, p].copy()
                v[:, p] = cs * vp - sn * v[:, q]
                v[:, q] = sn * vp + cs * v[:, q]
        if not rotated:
            break
    sigma = np.sqrt(np.sum(g * g, axis=0))
    order = np.argsort(-sigma)
    sigma = sigma[order]
    g = g[:, order]
    v = v[:, order]
    u = np.zeros_like(g)
    nz = sigma > 0.0
    u[:, nz] = g[:, nz] / sigma[nz]
    return u, sigma, v


def jacobi_eig(s):
    """Cyclic two-sided Jacobi for symmetric matrices: S = Q diag(lam) Q^T.

    Up to 60 sweeps, stopping once the off-diagonal norm is within
    1e-15 n max|S_ij|; entries below 1e-15 max|S_ij| are not rotated.
    """
    s = as_matrix(s)
    n = s.shape[0]
    a = s.copy()
    q = np.eye(n)
    scale = float(np.max(np.abs(a))) or 1.0
    for _ in range(60):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off <= 1e-15 * scale * n:
            break
        for p in range(n - 1):
            for r in range(p + 1, n):
                apr = a[p, r]
                if abs(apr) <= 1e-15 * scale:
                    continue
                theta = (a[r, r] - a[p, p]) / (2.0 * apr)
                t = np.sign(theta) / (abs(theta) + np.sqrt(1.0 + theta * theta))
                if theta == 0.0:
                    t = 1.0
                cs = 1.0 / np.sqrt(1.0 + t * t)
                sn = cs * t
                rows_p = a[p, :].copy()
                rows_r = a[r, :].copy()
                a[p, :] = cs * rows_p - sn * rows_r
                a[r, :] = sn * rows_p + cs * rows_r
                cols_p = a[:, p].copy()
                cols_r = a[:, r].copy()
                a[:, p] = cs * cols_p - sn * cols_r
                a[:, r] = sn * cols_p + cs * cols_r
                qp = q[:, p].copy()
                q[:, p] = cs * qp - sn * q[:, r]
                q[:, r] = sn * qp + cs * q[:, r]
    lam = np.diag(a).copy()
    order = np.argsort(-lam)
    return q[:, order], lam[order]

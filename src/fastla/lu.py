"""Recursive LU decomposition with partial pivoting (LUR).

The recursion factorizes the left half of the column range, solves a unit
lower triangular system for the upper-right block of U, updates the Schur
complement through the multiplication engine, and recurses on the trailing
block.  Pivoting happens inside the conventional base panels; the row
permutations are applied across the full row range, so the output satisfies
a[perm] = L U with |L_ij| <= 1.

The upper-right update (step b) defaults to a triangular solve; the
invert-and-multiply variant, whose work is all engine products, is kept
behind ``step_b="invert"``.  Stability is conditional on L being well
conditioned: a 1-norm condition estimate of every solved leading block is
tracked and a warning flag raised above 1e3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baseline import SingularMatrixError, _gepp_panel, pivot_growth, solve_unit_lower
from .core import FROBENIUS, DimensionError, as_matrix, norm
from .matmul import CONVENTIONAL, MmEngine, multiply
from .qr import solve_upper_triangular
from .results import StabilityReport

DEFAULT_PANEL_CUTOFF = 8
L_COND_WARN = 1e3

STEP_B_SOLVE = "solve"
STEP_B_INVERT = "invert"


@dataclass
class LuResult:
    p: np.ndarray
    l: np.ndarray
    u: np.ndarray
    report: StabilityReport
    l_cond: float
    zero_pivot: bool


def lur(a, engine: MmEngine = CONVENTIONAL, counter=None,
        panel_cutoff: int = DEFAULT_PANEL_CUTOFF, step_b: str = STEP_B_SOLVE,
        with_report: bool = True) -> LuResult:
    """Recursive LU of an n-by-m matrix (n >= m): a[perm] = L U."""
    a = as_matrix(a)
    n, m = a.shape
    if n < m:
        raise DimensionError("lur requires rows >= cols")
    if step_b not in (STEP_B_SOLVE, STEP_B_INVERT):
        raise ValueError(f"unknown step_b mode {step_b!r}")
    work = a.copy()
    perm, l_cond, zero_piv = _lur_rec(work, engine, counter, max(1, panel_cutoff), step_b)
    l = np.tril(work[:, :m], -1)
    l[np.arange(m), np.arange(m)] = 1.0
    u = np.triu(work[:m, :m])
    flags = []
    if zero_piv:
        flags.append("zero-pivot")
    if l_cond > L_COND_WARN:
        flags.append("l-ill-conditioned")
    if with_report:
        na = norm(a, FROBENIUS)
        resid = norm(a[perm] - l @ u, FROBENIUS) / na if na != 0.0 else 0.0
        report = StabilityReport(residual=resid, norm_kind=FROBENIUS, flags=flags)
    else:
        report = StabilityReport(0.0, flags=flags)
    return LuResult(p=perm, l=l, u=u, report=report, l_cond=l_cond, zero_pivot=zero_piv)


def _lur_rec(a, engine, counter, panel_cutoff, step_b):
    """Factorize the view in place (compact storage); returns (perm, l_cond, zero_pivot)."""
    n, m = a.shape
    if m <= panel_cutoff or m == 1:
        perm, zero_piv = _gepp_panel(a, counter)
        return perm, 1.0, zero_piv
    m2 = m // 2
    perm1, cond1, zp1 = _lur_rec(a[:, :m2], engine, counter, panel_cutoff, step_b)
    a[:, m2:] = a[:, m2:][perm1]
    l11 = np.tril(a[:m2, :m2], -1) + np.eye(m2)
    cond_here = _unit_lower_cond1(l11)
    if step_b == STEP_B_SOLVE:
        a[:m2, m2:] = solve_unit_lower(l11, a[:m2, m2:], counter)
    else:
        from .inverse import tri_inv

        linv = tri_inv(l11.T, engine, counter=counter, with_report=False)[0].T
        a[:m2, m2:] = multiply(linv, a[:m2, m2:], engine, counter)
    upd = multiply(a[m2:, :m2], a[:m2, m2:], engine, counter)
    a[m2:, m2:] -= upd
    if counter is not None:
        counter.count(adds=(n - m2) * (m - m2))
    perm2, cond2, zp2 = _lur_rec(a[m2:, m2:], engine, counter, panel_cutoff, step_b)
    a[m2:, :m2] = a[m2:, :m2][perm2]
    perm = np.concatenate([perm1[:m2], perm1[m2:][perm2]])
    return perm, max(cond1, cond_here, cond2), zp1 or zp2


def _unit_lower_cond1(l) -> float:
    """Hager-style 1-norm condition estimate of a unit lower triangular block."""
    k = l.shape[0]
    if k == 1:
        return 1.0
    norm_l = float(np.max(np.sum(np.abs(l), axis=0)))
    x = np.full(k, 1.0 / k)
    est = 0.0
    for _ in range(5):
        y = _fwd(l, x)
        est = float(np.sum(np.abs(y)))
        xi = np.where(y >= 0.0, 1.0, -1.0)
        z = _bwd_t(l, xi)
        j = int(np.argmax(np.abs(z)))
        if np.abs(z[j]) <= float(z @ x):
            break
        x = np.zeros(k)
        x[j] = 1.0
    return norm_l * est


def _fwd(l, b):
    x = b.astype(np.float64).copy()
    for i in range(1, l.shape[0]):
        x[i] -= l[i, :i] @ x[:i]
    return x


def _bwd_t(l, b):
    # Solve L^T z = b (unit diagonal upper system).
    k = l.shape[0]
    z = b.astype(np.float64).copy()
    for i in range(k - 1, -1, -1):
        if i + 1 < k:
            z[i] -= l[i + 1 :, i] @ z[i + 1 :]
    return z


def solve_triangular(t, rhs, lower=False, unit_diag=False, counter=None):
    """Forward/back substitution with a triangular matrix."""
    t = as_matrix(t)
    if t.shape[0] != t.shape[1]:
        raise DimensionError("solve_triangular requires a square matrix")
    if not unit_diag and np.any(np.diag(t) == 0.0):
        raise SingularMatrixError("zero diagonal in triangular solve")
    if lower:
        if unit_diag:
            return solve_unit_lower(t, rhs, counter)
        x = np.array(rhs, dtype=np.float64, copy=True)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[:, None]
        for i in range(t.shape[0]):
            if i > 0:
                x[i, :] -= t[i, :i] @ x[:i, :]
            x[i, :] /= t[i, i]
        if counter is not None:
            k, cols = t.shape[0], x.shape[1]
            counter.count(mults=k * (k + 1) // 2 * cols, adds=k * (k - 1) // 2 * cols)
        return x[:, 0] if squeeze else x
    if unit_diag:
        x = np.array(rhs, dtype=np.float64, copy=True)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[:, None]
        for i in range(t.shape[0] - 1, -1, -1):
            if i + 1 < t.shape[0]:
                x[i, :] -= t[i, i + 1 :] @ x[i + 1 :, :]
        if counter is not None:
            k, cols = t.shape[0], x.shape[1]
            counter.count(mults=k * (k - 1) // 2 * cols, adds=k * (k - 1) // 2 * cols)
        return x[:, 0] if squeeze else x
    return solve_upper_triangular(t, rhs, counter)


def solve_linear(a, b, engine: MmEngine = CONVENTIONAL, counter=None):
    """Solve A x = b via LUR and two triangular solves."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionError("solve_linear requires a square matrix")
    res = lur(a, engine, counter, with_report=False)
    if res.zero_pivot or np.any(np.diag(res.u) == 0.0):
        raise SingularMatrixError("matrix is exactly singular")
    b = np.asarray(b, dtype=np.float64)
    rhs = b[:, None] if b.ndim == 1 else b
    y = solve_unit_lower(res.l[: a.shape[0], :], rhs[res.p], counter)
    x = solve_upper_triangular(res.u, y, counter)
    return x[:, 0] if b.ndim == 1 else x

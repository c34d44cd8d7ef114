"""Recursive LU decomposition with partial pivoting (LUR).

The recursion factorizes the left half of the column range, solves a unit
lower triangular system for the upper-right block of U, updates the Schur
complement through the multiplication engine, and recurses on the trailing
block.  Pivoting happens inside the conventional base panels; the row
permutations are applied across the full row range, so the output satisfies
a[perm] = L U with |L_ij| <= 1.

The upper-right block (step b) is the recursive triangular solve of
``baseline.solve_triangular``, whose block updates are engine products too;
it reads only the strict lower triangle of the compact storage.  Stability
is conditional on the solved blocks being well conditioned.  Each is a
diagonal block of the final L, and such a block's norm and inverse norm
are at most L's, so with a report one Hager 1-norm estimate of kappa_1(L),
made after the recursion with plain triangular solves, bounds them all: it
is the report's ``kappa``, flagged above 1e3.  Without a report
(``solve_linear``, and through it the sign iteration and
``moebius_apply``) no estimate is made.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bounds
from .baseline import SingularMatrixError, _gepp_panel, pivot_growth, solve_triangular
from .core import FROBENIUS, DimensionError, as_matrix, norm, require_finite
from .matmul import CONVENTIONAL, MmEngine, multiply
from .results import StabilityReport

DEFAULT_PANEL_CUTOFF = 8
L_COND_WARN = 1e3


@dataclass
class LuResult:
    p: np.ndarray
    l: np.ndarray
    u: np.ndarray
    report: StabilityReport | None
    zero_pivot: bool


def lur(a, engine: MmEngine = CONVENTIONAL, counter=None,
        with_report: bool = True) -> LuResult:
    """Recursive LU of an n-by-m matrix (n >= m): a[perm] = L U.

    With ``with_report`` the report carries the relative residual, its
    growth-scaled bound, one Hager estimate of kappa_1(L) as ``kappa`` (it
    bounds every block the recursion solved with, each a diagonal block of
    L) and the flags ``zero-pivot`` and ``l-ill-conditioned`` (kappa above
    1e3).  Without it the report is None and ``zero_pivot`` is the one
    diagnostic; P, L and U are the same either way.
    """
    a = as_matrix(a)
    n, m = a.shape
    if n < m:
        raise DimensionError("lur requires rows >= cols")
    require_finite("lur", a)
    work = a.copy()
    perm, zero_piv = _lur_rec(work, engine, counter)
    l = np.tril(work[:, :m], -1)
    l[np.arange(m), np.arange(m)] = 1.0
    u = np.triu(work[:m, :m])
    report = None
    if with_report:
        l_cond = _unit_lower_cond1(l[:m])
        flags = ["zero-pivot"] if zero_piv else []
        if l_cond > L_COND_WARN:
            flags.append("l-ill-conditioned")
        na = norm(a, FROBENIUS)
        resid = norm(a[perm] - l @ u, FROBENIUS) / na if na != 0.0 else 0.0
        report = StabilityReport(residual=resid, bound=bounds.backward(n) * pivot_growth(a, u),
                                 kappa=l_cond, flags=flags)
    return LuResult(p=perm, l=l, u=u, report=report, zero_pivot=zero_piv)


def _lur_rec(a, engine, counter):
    """Factorize the view in place (compact storage); returns (perm, zero_pivot)."""
    n, m = a.shape
    if m <= DEFAULT_PANEL_CUTOFF:
        return _gepp_panel(a, counter)
    m2 = m // 2
    perm1, zp1 = _lur_rec(a[:, :m2], engine, counter)
    a[:, m2:] = a[:, m2:][perm1]
    a[:m2, m2:] = solve_triangular(a[:m2, :m2], a[:m2, m2:], lower=True, unit_diag=True,
                                   engine=engine, counter=counter)
    upd = multiply(a[m2:, :m2], a[:m2, m2:], engine, counter)
    a[m2:, m2:] -= upd
    if counter is not None:
        counter.count(adds=(n - m2) * (m - m2))
    perm2, zp2 = _lur_rec(a[m2:, m2:], engine, counter)
    a[m2:, :m2] = a[m2:, :m2][perm2]
    perm = np.concatenate([perm1[:m2], perm1[m2:][perm2]])
    return perm, zp1 or zp2


def _unit_lower_cond1(l) -> float:
    """Hager-style 1-norm condition estimate of a unit lower triangular matrix."""
    k = l.shape[0]
    if k == 1:
        return 1.0
    norm_l = float(np.max(np.sum(np.abs(l), axis=0)))
    lt = np.ascontiguousarray(l.T)
    x = np.full(k, 1.0 / k)
    est = 0.0
    for _ in range(5):
        y = solve_triangular(l, x, lower=True, unit_diag=True)
        est = float(np.sum(np.abs(y)))
        xi = np.where(y >= 0.0, 1.0, -1.0)
        z = solve_triangular(lt, xi, unit_diag=True)
        j = int(np.argmax(np.abs(z)))
        if np.abs(z[j]) <= float(z @ x):
            break
        x = np.zeros(k)
        x[j] = 1.0
    return norm_l * est


def solve_linear(a, b, engine: MmEngine = CONVENTIONAL, counter=None):
    """Solve A x = b via LUR and two triangular solves."""
    a = as_matrix(a)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[0] != a.shape[1]:
        raise DimensionError("solve_linear requires a square matrix")
    require_finite("solve_linear", a, b)
    res = lur(a, engine, counter, with_report=False)
    if res.zero_pivot or np.any(np.diag(res.u) == 0.0):
        raise SingularMatrixError("matrix is exactly singular")
    y = solve_triangular(res.l, b[res.p], lower=True, unit_diag=True, engine=engine,
                         counter=counter)
    return solve_triangular(res.u, y, engine=engine, counter=counter)

"""Recursive QR decomposition in WY form, least squares and determinants.

``qrr`` halves the column range, factorizes the left half, applies its
orthogonal factor to the right half through the multiplication engine,
recurses on the trailing block, and merges the two WY factors:

    Q^T = (I - [0; W_R][0, Y_R]) (I - W_L Y_L)
        = I - [W_L - [0; W_R (Y_R W_L_low)], [0; W_R]] [Y_L; [0, Y_R]]

The base case is the Householder panel ``panel_qr_wy``, one LAPACK
``dgeqrf`` call (reflector sign R_jj = -sign(a_jj) ||a_j||; a column that is
already triangular is not reflected), on blocks of at most
``DEFAULT_PANEL_CUTOFF`` = 8 columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bounds
from .baseline import panel_qr_wy, solve_triangular
from .core import FROBENIUS, DimensionError, as_matrix, norm, require_finite
from .matmul import CONVENTIONAL, MmEngine, multiply
from .results import StabilityReport, WYFactor

DEFAULT_PANEL_CUTOFF = 8


class RankDeficientError(ValueError):
    """A triangular solve hit an exactly zero diagonal entry."""


@dataclass
class QrResult:
    r: np.ndarray
    q: WYFactor
    report: StabilityReport | None


def qrr(a, engine: MmEngine = CONVENTIONAL, counter=None,
        with_report: bool = True) -> QrResult:
    """Recursive QR of an n-by-m matrix (n >= m): A = Q [R; 0]."""
    a = as_matrix(a)
    n, m = a.shape
    if n < m:
        raise DimensionError("qrr requires rows >= cols")
    require_finite("qrr", a)
    work = a.copy()
    w, y = _qrr_rec(work, engine, counter)
    r = np.triu(work[:m, :])
    q = WYFactor(w, y)
    report = _qr_report(a, q, r, bounds.backward(n, engine)) if with_report else None
    return QrResult(r=r, q=q, report=report)


def positive_q(a, engine: MmEngine = CONVENTIONAL, counter=None) -> np.ndarray:
    """The explicit Q of A = Q R with the R diagonal forced nonnegative.

    The sign fix makes Q unique for full-rank A: a Gaussian A gives a
    Haar-distributed Q, and an A with nearly orthonormal columns gives a Q
    close to A rather than one with columns of flipped sign.
    """
    res = qrr(a, engine, counter, with_report=False)
    q = res.q.explicit_q(engine, counter)
    signs = np.where(np.diag(res.r) < 0.0, -1.0, 1.0)
    return q * signs[None, :]


def _qrr_rec(a, engine, counter):
    """Factorize the view ``a`` in place; returns (W, Y)."""
    n, m = a.shape
    if m <= DEFAULT_PANEL_CUTOFF or n == 1:
        w, y, _ = panel_qr_wy(a, counter)
        return w, y
    m2 = m // 2
    wl, yl = _qrr_rec(a[:, :m2], engine, counter)
    # Apply Q_L^T to the right half: A_R - W_L (Y_L A_R).
    t = multiply(yl, a[:, m2:], engine, counter)
    a[:, m2:] -= multiply(wl, t, engine, counter)
    if counter is not None:
        counter.count(adds=n * (m - m2))
    wr, yr = _qrr_rec(a[m2:, m2:], engine, counter)
    # Merge: X = W_L - [0; W_R (Y_R W_L(m2:, :))].
    t = multiply(yr, wl[m2:, :], engine, counter)
    corr = multiply(wr, t, engine, counter)
    x = wl.copy()
    x[m2:, :] -= corr
    if counter is not None:
        counter.count(adds=(n - m2) * m2)
    w = np.zeros((n, m))
    w[:, :m2] = x
    w[m2:, m2:] = wr
    y = np.zeros((m, n))
    y[:m2, :] = yl
    y[m2:, m2:] = yr
    return w, y


def _qr_report(a, q, r, bound):
    """Residual and orthogonality defect of Q^T = I - W Y, in plain numpy products."""
    n, m = a.shape
    qt = np.eye(n) - q.w @ q.y
    na = norm(a, FROBENIUS)
    residual = norm(a - qt[:m].T @ r, FROBENIUS) / na if na != 0.0 else 0.0
    orth = norm(qt.T @ qt - np.eye(n), FROBENIUS)
    return StabilityReport(residual=residual, bound=bound, orth_defect=orth)


def apply_qt(q: WYFactor, b, engine: MmEngine = CONVENTIONAL, counter=None):
    """(I - W Y) @ b, the action of Q^T on a block of columns."""
    b = as_matrix(b)
    if b.shape[0] != q.n:
        raise DimensionError(f"apply_qt: b has {b.shape[0]} rows, Q expects {q.n}")
    return q.apply_qt(b, engine, counter)


def solve_upper_triangular(r, rhs, counter=None):
    """Back substitution R x = rhs; exact zero diagonal raises."""
    _check_full_rank(r)
    return solve_triangular(r, rhs, counter=counter)


def _check_full_rank(r):
    if np.any(np.diag(r) == 0.0):
        raise RankDeficientError("zero diagonal in triangular solve")


def solve_ls(a, b, engine: MmEngine = CONVENTIONAL, counter=None):
    """Least squares min ||A x - b||_2 via x = R^{-1} (Q^T b)(1:m)."""
    a = as_matrix(a)
    b = np.asarray(b, dtype=np.float64)
    require_finite("solve_ls", a, b)
    rhs = b[:, None] if b.ndim == 1 else b
    res = qrr(a, engine, counter, with_report=False)
    _check_full_rank(res.r)
    c = apply_qt(res.q, rhs, engine, counter)[: a.shape[1], :]
    x = solve_triangular(res.r, c, engine=engine, counter=counter)
    return x[:, 0] if b.ndim == 1 else x


def determinant(a, engine: MmEngine = CONVENTIONAL, counter=None) -> float:
    """det(A) = (-1)^k * prod(R_ii) from the QR decomposition.

    k is the number of reflections applied, the nonzero rows of Y: a column
    that is already triangular is not reflected.
    """
    a = as_matrix(a)
    n, m = a.shape
    if n != m:
        raise DimensionError("determinant requires a square matrix")
    res = qrr(a, engine, counter, with_report=False)
    reflections = int(np.count_nonzero(res.q.y.any(axis=1)))
    sign = -1.0 if reflections % 2 else 1.0
    return sign * float(np.prod(np.diag(res.r)))


@dataclass
class ScaledDecomposition:
    """Result of a columnwise-scaled decomposition wrap."""

    result: object
    column_norms: np.ndarray
    zero_columns: list


def columnwise_scale_wrap(a, inner):
    """Columnwise backward-error wrapper around a QR- or LU-style factorization.

    Divides each column by its infinity norm, runs ``inner`` on the scaled
    matrix, and multiplies the columns of the triangular factor (``r`` or
    ``u``) back.  Zero columns pass through unscaled and are flagged.
    """
    a = as_matrix(a)
    norms = np.max(np.abs(a), axis=0)
    zero_cols = [int(j) for j in np.flatnonzero(norms == 0.0)]
    scale = np.where(norms == 0.0, 1.0, norms)
    result = inner(a / scale[None, :])
    if hasattr(result, "r"):
        result.r = result.r * scale[None, :]
    elif hasattr(result, "u"):
        result.u = result.u * scale[None, :]
    else:
        raise TypeError("inner decomposition must expose an 'r' or 'u' factor")
    return ScaledDecomposition(result=result, column_norms=norms, zero_columns=zero_cols)

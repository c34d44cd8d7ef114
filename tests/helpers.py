"""Test-only oracles and constructors.

Everything here is deliberately independent of the library's fast paths:
column-by-column reference panels, extended-precision dense oracles
(GEPP, solves, inverses, residuals), the exact determinant of a small
integer matrix, dense Kronecker operators and two hand-built spectral
inputs.  The input builders and contract checks that the acceptance
criteria share with ``fastla verify`` live in ``fastla.verify``.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from fastla import dd
from fastla.core import RngStream, as_matrix
from fastla.baseline import jacobi_svd
from fastla.rurv import haar_orthogonal


def dd_residual_qr(a, q_explicit, r_full) -> float:
    """||A - Q R||_F / ||A||_F with the product and difference in extended precision."""
    prod = dd.DD(q_explicit) @ dd.DD(r_full)
    diff = dd.DD(a) - prod
    return float(np.linalg.norm(diff.to_float64()) / np.linalg.norm(a))


def dd_residual_lu(a_permuted, l, u) -> float:
    """||PA - L U||_F / ||A||_F in extended precision."""
    prod = dd.DD(l) @ dd.DD(u)
    diff = dd.DD(a_permuted) - prod
    return float(np.linalg.norm(diff.to_float64()) / np.linalg.norm(a_permuted))


def exact_det(a) -> Fraction:
    """Exact determinant of a small integer matrix by cofactor expansion."""
    n = a.shape[0]
    rows = [[Fraction(int(a[i, j])) for j in range(n)] for i in range(n)]

    def det(m):
        k = len(m)
        if k == 1:
            return m[0][0]
        total = Fraction(0)
        for j in range(k):
            if m[0][j] == 0:
                continue
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            sign = -1 if j % 2 else 1
            total += sign * m[0][j] * det(minor)
        return total

    return det(rows)


def pairs_over_zero() -> np.ndarray:
    """A 17x17 with eigenvalues 0 and +-k i for k = 1..8, Haar-rotated:
    every vertical line crosses the spectrum or leaves it on one side, and
    only a circle splits it.  It has one row more than the spectral
    driver's leaf, so the driver has to split it."""
    n = 17
    t = np.zeros((n, n))
    for k in range(1, 9):
        t[2 * k - 1 : 2 * k + 1, 2 * k - 1 : 2 * k + 1] = [[0.0, k], [-k, 0.0]]
    q = haar_orthogonal(n, RngStream(7).split(9))
    return q @ t @ q.T


def tiny_tail_embedding() -> np.ndarray:
    """H = [[0, A], [A^T, 0]] for A = P diag(s) Q^T with P, Q Haar from
    RngStream(2024) and s 32 values in [1, 2] plus a tail from 1e-8 down to
    1e-12: 64 eigenvalues of H sit within 1e-8 of 0, where no dividing line
    of the driver splits them."""
    p = haar_orthogonal(64, RngStream(2024).split(0))
    q = haar_orthogonal(64, RngStream(2024).split(1))
    a = p @ np.diag(np.concatenate([np.linspace(1.0, 2.0, 32), np.logspace(-8, -12, 32)])) @ q.T
    return np.block([[np.zeros((64, 64)), a], [a.T, np.zeros((64, 64))]])


def oracle_sigma(a) -> np.ndarray:
    return jacobi_svd(a)[1]


def oracle_kappa2(a) -> float:
    s = oracle_sigma(a)
    return float(s[0] / s[-1])


def strassen_reference(a, b, cutoff: int) -> np.ndarray:
    """Plain depth-first Winograd-Strassen on one square pair.

    The engine's schedule written as the textbook 2-D recursion: a zero
    row and column pad odd sizes, then the S/T sums, the seven products
    (conventional at or below ``cutoff``) and the U combination, in the
    same order, so the engine must match it bit for bit.
    """
    n = a.shape[0]
    if n <= cutoff or n == 1:
        return a @ b
    if n % 2:
        a = np.pad(a, ((0, 1), (0, 1)))
        b = np.pad(b, ((0, 1), (0, 1)))
    h = a.shape[0] // 2
    a11, a12, a21, a22 = a[:h, :h], a[:h, h:], a[h:, :h], a[h:, h:]
    b11, b12, b21, b22 = b[:h, :h], b[:h, h:], b[h:, :h], b[h:, h:]
    s1 = a21 + a22
    s2 = s1 - a11
    s3 = a11 - a21
    s4 = a12 - s2
    t1 = b12 - b11
    t2 = b22 - t1
    t3 = b22 - b12
    t4 = t2 - b21
    m1, m2, m3, m4, m5, m6, m7 = (
        strassen_reference(np.ascontiguousarray(x), np.ascontiguousarray(y), cutoff)
        for x, y in ((a11, b11), (a12, b21), (s4, b22), (a22, t4), (s1, t1), (s2, t2), (s3, t3)))
    u2 = m1 + m6
    u3 = u2 + m7
    u4 = u2 + m5
    c = np.block([[m1 + m2, u4 + m3], [u3 - m4, u3 + m5]])
    return c[:n, :n]


# ---------------------------------------------------------------------------
# Column-by-column reference panels: the library's GEPP panel must match its
# reference bit for bit and its Householder panel normwise, op tallies
# included for both.


def reflector_reference(x, counter=None):
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


def panel_qr_wy_reference(a, counter=None):
    """In-place Householder QR of a panel, accumulating the WY form.

    Overwrites ``a`` with R (exact zeros below the diagonal) and returns
    (W, Y, degenerate_columns) for Q^T = I - W Y on the panel's row range.
    """
    n, m = a.shape
    w_acc = np.zeros((n, m))
    y_acc = np.zeros((m, n))
    degenerate = []
    for j in range(min(n, m)):
        w, r, degen = reflector_reference(a[j:, j], counter)
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


def gepp_panel_reference(a, counter=None):
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


# ---------------------------------------------------------------------------
# Extended-precision dense oracles


def dd_gepp(a):
    """LU with partial pivoting in extended precision: a[p] == L @ U."""
    a = dd.DD(as_matrix(a)).copy()
    n = a.shape[0]
    perm = np.arange(n)
    for k in range(n):
        piv = k + int(np.argmax(np.abs(a.hi[k:, k])))
        if piv != k:
            perm[[k, piv]] = perm[[piv, k]]
            a.hi[[k, piv], :] = a.hi[[piv, k], :]
            a.lo[[k, piv], :] = a.lo[[piv, k], :]
        if a.hi[k, k] == 0.0:
            raise ZeroDivisionError("exactly singular matrix in dd gepp")
        col = a[k + 1 :, k : k + 1] / a[k, k]
        a[k + 1 :, k : k + 1] = col
        a[k + 1 :, k + 1 :] = a[k + 1 :, k + 1 :] - col @ a[k : k + 1, k + 1 :]
    return perm, a


def dd_solve(a, b):
    """Solve A x = b in extended precision via GEPP (b a DD vector or matrix)."""
    perm, lu = dd_gepp(a)
    rhs = b if b.hi.ndim == 2 else dd.DD(b.hi[:, None], b.lo[:, None])
    rhs = rhs[perm, :]
    y = dd.solve_lower(lu, rhs, unit_diag=True)
    x = dd.solve_upper(lu, y)
    return x if b.hi.ndim == 2 else dd.DD(x.hi[:, 0], x.lo[:, 0])


def dd_inv(a):
    """Extended-precision inverse via GEPP column solves."""
    return dd_solve(a, dd.DD(np.eye(as_matrix(a).shape[0])))


def kron_operator(a, b) -> np.ndarray:
    """The dense Kronecker matrix I (x) A - B^T (x) I."""
    a = as_matrix(a)
    b = as_matrix(b)
    return np.kron(np.eye(b.shape[0]), a) - np.kron(b.T, np.eye(a.shape[0]))

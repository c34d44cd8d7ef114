"""Shared oracles and constructors for the test suite.

Everything here is deliberately independent of the library's fast paths:
extended-precision recomputation, exact rational arithmetic, dense
Kronecker solves, and planted-spectrum constructions whose answers are
known before any library code runs.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from fastla import dd
from fastla.core import RngStream, gaussian_matrix
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


def random_triangular(n: int, rng: RngStream, diag_scale=None, shift=0.0) -> np.ndarray:
    """Random upper triangular matrix with controllable diagonal."""
    t = np.triu(gaussian_matrix(n, n, rng))
    if diag_scale is not None:
        t[np.arange(n), np.arange(n)] = diag_scale
    else:
        d = t[np.arange(n), np.arange(n)]
        t[np.arange(n), np.arange(n)] = np.where(d >= 0, d + shift, d - shift) if shift else d
    return t


def triangular_with_condition(n: int, kappa: float, rng: RngStream) -> np.ndarray:
    """Upper triangular with geometrically graded diagonal, kappa-ish conditioning.

    Off-diagonal entries are scaled down so the measured condition number
    stays within a small factor of the diagonal grading.
    """
    t = np.triu(gaussian_matrix(n, n, rng), 1)
    d = kappa ** (-np.arange(n) / max(n - 1, 1))
    scale = 0.1 * np.minimum.outer(d, np.ones(n))
    t = t * scale
    t[np.arange(n), np.arange(n)] = d
    return t


def spd_with_condition(n: int, kappa: float, rng: RngStream) -> np.ndarray:
    """SPD matrix with exact 2-norm condition number kappa (Haar conjugated)."""
    q = haar_orthogonal(n, rng)
    lam = kappa ** (-np.arange(n) / max(n - 1, 1))
    h = (q * lam[None, :]) @ q.T
    return 0.5 * (h + h.T)


def planted_svd(n: int, sigma, rng: RngStream):
    """A = P diag(sigma) Q^T with Haar P, Q; returns (a, p, q)."""
    sigma = np.asarray(sigma, dtype=np.float64)
    p = haar_orthogonal(n, rng.split(0))
    q = haar_orthogonal(n, rng.split(1))
    a = (p * sigma[None, :]) @ q.T
    return a, p, q


def planted_nonsymmetric(n: int, eigs, rng: RngStream, bump_scale: float = 0.5):
    """Orthogonally conjugated quasi-triangular matrix with planted spectrum.

    ``eigs`` is a list of reals and/or complex-conjugate pair markers
    (complex numbers with positive imaginary part, each consuming two
    dimensions).  Returns (a, complex eigenvalue array).
    """
    t = np.triu(gaussian_matrix(n, n, rng.split(0)), 1) * bump_scale
    lam = []
    i = 0
    for e in eigs:
        if isinstance(e, complex) and e.imag != 0.0:
            re, im = e.real, abs(e.imag)
            t[i, i] = re
            t[i + 1, i + 1] = re
            t[i, i + 1] = im
            t[i + 1, i] = -im
            lam.extend([complex(re, im), complex(re, -im)])
            i += 2
        else:
            t[i, i] = float(e.real if isinstance(e, complex) else e)
            lam.append(complex(t[i, i]))
            i += 1
    assert i == n
    q = haar_orthogonal(n, rng.split(1))
    return q @ t @ q.T, np.asarray(lam)


def match_eigs(found, expected) -> float:
    """Max matching distance between two complex multisets (greedy)."""
    found = list(found)
    expected = list(expected)
    worst = 0.0
    for e in expected:
        dists = [abs(f - e) for f in found]
        j = int(np.argmin(dists))
        worst = max(worst, dists[j])
        found.pop(j)
    return worst


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

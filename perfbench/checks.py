"""Independent correctness checks of every benchmarked call.

Each check recomputes the call's error from its outputs with numpy/scipy
(residuals, orthogonality, LAPACK references) and never reads the
library's own report.  It returns the ratio of the measured error to the
call's documented bound, so a ratio above 1 is a failure, or raises
``CheckFailure`` for output that is non-finite or structurally wrong.

The bounds are the ones the acceptance suite (``tests/test_acceptance.py``)
holds the library to:

* backward-error budget ``c * 1e3 * n^2 * eps`` for QR, products and
  solves, with engine slack c = 10 for Strassen (criterion 4);
* LU residual ``1e3 * n^2 * eps * g`` with pivot growth g (criterion 5);
* working-precision inversion, which goes through the normal equations
  ``A^T (A A^T)^-1``: ``||X A - I||_F <= c * 1e3 n^2 eps kappa^2`` with the
  engine slack c, the form ``tests/test_inverse.py`` uses for this route.
  (The library's own ``predicted_spd_bound`` raises kappa^2 to the power
  ``4 + 4 log2 n`` and is clamped to 1 at these sizes, so it cannot bind);
* extended-precision inversion: ``||X A - I||_F <= 1e3 n^2 eps kappa``
  (criterion 7);
* Schur reconstruction ``10 * splits * split_tol * ||A||``, eigen- and
  singular values within ``1e4 * eps * ||A||`` (criteria 12, 13);
* eigenvector residuals within ``EigError.predicted_evec_bound``
  (criterion 14).
"""

from __future__ import annotations

import numpy as np

from fastla.eig import default_split_tol

EPS = float(np.finfo(np.float64).eps)
STRASSEN_SLACK = 10.0


class CheckFailure(ValueError):
    """Output that is non-finite or breaks the call's structural contract."""


def fro(x) -> float:
    return float(np.linalg.norm(x))


def require_finite(*arrays) -> None:
    for x in arrays:
        if not np.all(np.isfinite(x)):
            raise CheckFailure("non-finite output")


def budget(n: int, engine=None) -> float:
    slack = STRASSEN_SLACK if engine is not None and engine.kind == "strassen" else 1.0
    return slack * 1e3 * n * n * EPS


def orth_defect(q) -> float:
    return fro(q.T @ q - np.eye(q.shape[1]))


def kappa(inp: dict, key: str) -> float:
    """2-norm condition number of ``inp[key]`` (from LAPACK's SVD, cached)."""
    cache = inp.setdefault("_kappa", {})
    if key not in cache:
        s = np.linalg.svd(inp[key], compute_uv=False)
        cache[key] = float(s[0] / s[-1])
    return cache[key]


def growth(inp: dict) -> float:
    """Pivot growth max|U| / max|A| of LAPACK's GEPP on ``inp['a']`` (cached)."""
    if "_growth" not in inp:
        from scipy.linalg import lu_factor

        lu, _ = lu_factor(inp["a"])
        a = inp["a"]
        inp["_growth"] = float(np.max(np.abs(np.triu(lu))) / np.max(np.abs(a)))
    return inp["_growth"]


def backward_error(a, b, x) -> float:
    """Normwise (Rigal-Gaches) backward error of a solution of A x = b."""
    require_finite(x)
    return fro(a @ x - b) / (fro(a) * fro(x) + fro(b))


# -- factorizations ---------------------------------------------------------


def qr(a, res, engine=None) -> float:
    r, w, y = res.r, res.q.w, res.q.y
    require_finite(r, w, y)
    n, m = a.shape
    if np.any(np.tril(r, -1) != 0.0):
        raise CheckFailure("R is not upper triangular")
    qt = np.eye(n) - w @ y
    rfull = np.zeros((n, m))
    rfull[:m] = r
    resid = fro(a - qt.T @ rfull) / fro(a)
    orth = fro(qt @ qt.T - np.eye(n))
    return max(resid, orth) / budget(n, engine)


def lu(a, res) -> float:
    p, l, u = res.p, res.l, res.u
    require_finite(l, u)
    n = a.shape[0]
    if not np.array_equal(np.sort(p), np.arange(n)):
        raise CheckFailure("row order is not a permutation")
    if np.max(np.abs(l)) > 1.0 + 4 * EPS:
        raise CheckFailure("|L| exceeds 1 under partial pivoting")
    g = float(np.max(np.abs(u)) / np.max(np.abs(a)))
    resid = fro(a[p] - l @ u) / fro(a)
    return resid / (1e3 * n * n * EPS * g)


def product(a, b, c, engine) -> float:
    require_finite(c)
    err = fro(c - a @ b) / (fro(a) * fro(b))
    return err / budget(a.shape[0], engine)


# -- inversion and solves ---------------------------------------------------


def inverse_normal_eq(inp: dict, x, engine) -> float:
    """Working-precision inverse via A^T (A A^T)^-1: ||X A - I||_F within
    the engine's budget times kappa^2."""
    require_finite(x)
    a = inp["a"]
    n = a.shape[0]
    return fro(x @ a - np.eye(n)) / (budget(n, engine) * kappa(inp, "a") ** 2)


def inverse_backward(inp: dict, key: str, x) -> float:
    """Extended-precision inverse: ||X A - I||_F within 1e3 n^2 eps kappa."""
    require_finite(x)
    a = inp[key]
    n = a.shape[0]
    return fro(x @ a - np.eye(n)) / (1e3 * n * n * EPS * kappa(inp, key))


def upper_inverse(inp: dict, key: str, x) -> float:
    if np.any(np.tril(x, -1) != 0.0):
        raise CheckFailure("inverse of an upper triangular matrix is not upper triangular")
    return inverse_backward(inp, key, x)


def solve_lu(inp: dict, x) -> float:
    a = inp["a"]
    n = a.shape[0]
    return backward_error(a, inp["b"], x) / (1e3 * n * n * EPS * growth(inp))


def solve_backward(inp: dict, x) -> float:
    a = inp["a"]
    return backward_error(a, inp["b"], x) / budget(a.shape[0])


# -- spectral ---------------------------------------------------------------


def schur(a, res) -> float:
    q, t = res.q, res.t
    require_finite(q, t)
    n = a.shape[0]
    if not res.flags:
        sub = np.diag(t, -1) != 0.0
        if np.any(np.tril(t, -2) != 0.0) or np.any(sub[1:] & sub[:-1]):
            raise CheckFailure("T is not quasi-upper-triangular")
    resid = fro(a - q @ t @ q.T) / (10 * max(res.n_splits, 1) * default_split_tol(n) * fro(a))
    return max(resid, orth_defect(q) / budget(n))


def symmetric_eig(s, out) -> float:
    q, lam = out
    require_finite(q, lam)
    n = s.shape[0]
    ref = np.linalg.eigvalsh(s)[::-1]
    ns = fro(s)
    err = float(np.max(np.abs(lam - ref))) / (1e4 * EPS * ns)
    recon = fro(s - (q * lam) @ q.T) / (10 * (n - 1) * default_split_tol(n) * ns)
    return max(err, recon, orth_defect(q) / budget(n))


def svd(a, out) -> float:
    u, s, v, _flags = out
    require_finite(u, s, v)
    n = a.shape[0]
    ref = np.linalg.svd(a, compute_uv=False)
    scale = 1e4 * EPS * fro(a)
    err = float(np.max(np.abs(s - ref))) / scale
    recon = fro(a - (u * s) @ v.T) / scale
    return max(err, recon, orth_defect(u) / budget(n), orth_defect(v) / budget(n))


def eigenvectors(t, out) -> float:
    """Residual of each diagonal block's invariant subspace, over the bound."""
    v, err = out
    require_finite(v)
    n = t.shape[0]
    worst = 0.0
    i = 0
    while i < n:
        width = 2 if i + 1 < n and t[i + 1, i] != 0.0 else 1
        cols = v[:, i : i + width]
        if width == 1:
            resid = fro(t @ cols - t[i, i] * cols)
        else:
            m = np.linalg.lstsq(cols, t @ cols, rcond=None)[0]
            resid = fro(t @ cols - cols @ m)
        worst = max(worst, resid / fro(t))
        i += width
    return worst / err.predicted_evec_bound

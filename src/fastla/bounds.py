"""The documented error bounds, one definition each.

The reports, the CLI's checks and the tests read their bounds here.
Callers scale a bound after the call: the report builders of LU and
inversion scale the backward budget by the pivot growth g and by kappa or
kappa^2 (``results.StabilityReport``), and the spectral checks scale the
spectral bound by a norm.  Each value keeps one floating-point order, so
``spectral(na) * nb`` is not ``spectral(na * nb)``.
"""

from __future__ import annotations

import math

from .core import EPS

STRASSEN_SLACK = 10.0
# Symmetry asked of spd_inv and the symmetric spectral driver, relative in
# the Frobenius norm.
SYMMETRY_TOL = 1e-12

# Calibration constants multiplying the paper's recurrences; the
# recurrences are worst case, so modest constants dominate measured errors.
TRI_BOUND_CONST = 100.0
SPD_BOUND_CONST = 100.0
SYLR_BOUND_CONST = 10.0
EVEC_EXPONENT = 3.0  # calibrated c' in the eigenvector error bound


def backward(n: int, engine=None) -> float:
    """c * 1e3 * n^2 * eps, with c = STRASSEN_SLACK on the Strassen engine
    and 1 otherwise: QR, RURV, products, solves; ``backward(n + m)`` is the
    Sylvester residual bound."""
    slack = STRASSEN_SLACK if engine is not None and engine.kind == "strassen" else 1.0
    return slack * 1e3 * n * n * EPS


def spectral(scale: float = 1.0) -> float:
    """1e4 * eps * scale, scale = ||A||_F: eigenvalues, singular values and
    the SVD reconstruction."""
    return 1e4 * EPS * scale


def split_tol(n: int) -> float:
    """n times 1e3 eps: ``split_once``'s budget at n = 1, relative to the
    block's Frobenius norm, and the per-split factor of the Schur residual
    bound of an n-row input."""
    return 1e3 * n * EPS


def schur(n: int, splits: int) -> float:
    """||A - Q T Q^T||_F / ||A||_F of an n-row Schur form with ``splits`` splits."""
    return 10.0 * max(splits, 1) * split_tol(n)


def _clamp(log_b: float) -> float:
    """10^log_b, at most 1 (a bound of 1 promises no accuracy)."""
    return 1.0 if log_b >= 0.0 else 10.0 ** log_b


def tri_inv(kappa: float, n: int, mu: float) -> float:
    """Relative forward error of triangular inversion, for the engine's
    measured error-model constant mu."""
    if n <= 1:
        return min(1.0, TRI_BOUND_CONST * EPS * kappa)
    growth = (2.0 * (kappa + 1.0)) ** math.log2(n)
    return min(1.0, TRI_BOUND_CONST * mu * EPS * kappa * growth)


def spd_inv(kappa: float, n: int, mu: float) -> float:
    """Relative forward error of SPD inversion, evaluated in log10: the
    kappa^(4 + 4 log2 n) factor overflows floats fast."""
    if n <= 1:
        return min(1.0, SPD_BOUND_CONST * EPS * kappa)
    log_b = math.log10(SPD_BOUND_CONST * mu * EPS)
    log_b += math.log2(10.0) * math.log10(n)  # the n^{log2 10} factor
    log_b += (4.0 + 4.0 * math.log2(n)) * math.log10(kappa)
    return _clamp(log_b)


def sylr(n: int, norm_a: float, norm_b: float, sep: float, mu: float = 1.0) -> float:
    """Relative forward error of the recursive Sylvester solver,
    O(n^(1+log2 3) mu(n/2) eps ((||A||+||B||)/sep)^(1+log2 n))."""
    if sep <= 0.0:
        return 1.0
    n = max(n, 2)
    log_b = math.log10(SYLR_BOUND_CONST * mu * EPS)
    log_b += (1.0 + math.log2(3.0)) * math.log10(n)
    log_b += (1.0 + math.log2(n)) * math.log10(max((norm_a + norm_b) / sep, 1.0))
    return _clamp(log_b)


def evecr(n: int, norm_t: float, s_floor: float) -> float:
    """Eigenvector residual over ||T||_F, n^EVEC_EXPONENT eps
    (||T||_F / s_floor)^(2 + log2 n), s_floor the least sep of the splits."""
    if s_floor <= 0.0:
        return 1.0
    log_b = EVEC_EXPONENT * math.log10(max(n, 2)) + math.log10(EPS)
    log_b += (2.0 + math.log2(max(n, 2))) * math.log10(max(norm_t / s_floor, 1.0))
    return _clamp(log_b)

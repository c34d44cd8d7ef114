"""Logarithmically stable recursive inversion.

Triangular inversion uses the 2x2 block formula with the off-diagonal
product parenthesized as (T11^-1 T12) T22^-1; SPD inversion follows the
divide-and-conquer Schur-complement pseudocode; general inversion reduces
to the SPD case through A^-1 = A^T (A A^T)^-1.

These recursions are forward stable only up to a condition-number power
that grows with log2(n); running them in extended (double-word) precision
recovers backward-stable-grade accuracy at working precision.  Each
algorithm has one recursion body, generic over its operand type: the entry
points lift the input to a ``dd.DD`` array when ``precision="extended"``,
``multiply`` turns double-word operands into double-word products, and the
result is rounded to working precision at the end.  Small helpers
(``_like``, ``_hi``, ``_symmetrize``) hide the representation; the one
place the bodies tell the types apart is the double-word base case: a DD
block of at most ``_DD_LEAF`` rows first tries the leaf ``_dd_leaf_inv``,
in which numpy's float64 LAPACK inverse of the block's hi part seeds
Newton-Schulz steps X <- X + X (I - T X) in double-word arithmetic
(Schulz 1933; Higham, Accuracy and Stability of Numerical Algorithms,
ch. 14).  A leaf whose seed is non-finite, whose first residual
||I - T X||_inf is not below 1/2, or whose last residual exceeds EPS is
rejected, and the block splits as in working precision, down to the
shared 1x1 pivots that detect indefiniteness.  The SPD recursion reads only the upper triangle of each
block, so its leaf inverts the block as read from that triangle and
returns the symmetric part (X + X^T)/2 of the refined inverse; otherwise
Newton would invert the roundoff asymmetry of the double-word Schur
complements exactly, and the asymmetry would grow down the recursion.

``predicted_bound`` in the report evaluates the error recurrences with the
measured condition number and the engine's measured error-model constant,
clamped at 1 (a bound of 1 means no accuracy is promised).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dd
from .baseline import SingularMatrixError
from .core import (EPS, EXTENDED, INF, TWO, WORKING, DimensionError, RngStream, as_matrix,
                   norm, require_finite)
from .matmul import CONVENTIONAL, MmEngine, measure_mm_error, multiply

# Calibration constants multiplying the paper-recurrence bounds; the
# recurrences are worst case, so modest constants dominate measured errors.
TRI_BOUND_CONST = 100.0
SPD_BOUND_CONST = 100.0

_SYMMETRY_TOL = 1e-12

# Double-word blocks of at most this many rows try the Newton leaf
# (see _dd_leaf_inv); 16 and 64 were both slower on n = 128 inputs.
_DD_LEAF = 32

_mu_cache: dict = {}


class NotPositiveDefiniteError(ValueError):
    """SPD inversion hit a nonpositive 1x1 pivot or non-finite Schur complement."""


class AsymmetricMatrixError(ValueError):
    """Input to spd_inv is not symmetric within tolerance."""


@dataclass
class InvReport:
    residual_left: float
    residual_right: float
    kappa: float
    precision_used: str
    predicted_bound: float


def engine_mu_constant(engine: MmEngine) -> float:
    """Measured error-model constant of the engine at n = 32 (cached, fixed seed)."""
    key = (engine.kind, engine.cutoff)
    if key not in _mu_cache:
        model = measure_mm_error(32, engine, trials=2, rng=RngStream(0xF457))
        _mu_cache[key] = max(1.0, model.observed_constant)
    return _mu_cache[key]


def predicted_tri_bound(kappa: float, n: int, mu_const: float) -> float:
    """Relative forward-error bound from the triangular-inversion recurrence."""
    if n <= 1:
        return min(1.0, TRI_BOUND_CONST * EPS * kappa)
    growth = (2.0 * (kappa + 1.0)) ** math.log2(n)
    return min(1.0, TRI_BOUND_CONST * mu_const * EPS * kappa * growth)


def predicted_spd_bound(kappa: float, n: int, mu_const: float) -> float:
    """Relative forward-error bound from the SPD-inversion recurrence."""
    if n <= 1:
        return min(1.0, SPD_BOUND_CONST * EPS * kappa)
    # Work in log10: the kappa^(4 + 4 log2 n) factor overflows floats fast.
    log_b = math.log10(SPD_BOUND_CONST * mu_const * EPS)
    log_b += math.log2(10.0) * math.log10(n)  # the n^{log2 10} factor
    log_b += (4.0 + 4.0 * math.log2(n)) * math.log10(kappa)
    return 1.0 if log_b >= 0.0 else 10.0 ** log_b


def _report(a, x, precision, kappa, predicted) -> InvReport:
    n = a.shape[0]
    eye = np.eye(n)
    return InvReport(
        residual_left=float(np.linalg.norm(x @ a - eye)),
        residual_right=float(np.linalg.norm(a @ x - eye)),
        kappa=kappa,
        precision_used=precision,
        predicted_bound=predicted,
    )


def _lift(x, precision):
    """x as an operand of ``precision``: a DD array when extended."""
    return dd.DD(x) if precision == EXTENDED else x


def _round(x):
    """A result rounded to working precision."""
    return x.to_float64() if isinstance(x, dd.DD) else x


def _hi(x):
    """The working-precision part of a block, for sign and finiteness tests."""
    return x.hi if isinstance(x, dd.DD) else x


def _like(x, values):
    """The float64 array ``values`` as a block of x's operand type."""
    return dd.DD(values) if isinstance(x, dd.DD) else values


def _symmetrize(x):
    """(X + X^T) / 2; halving is exact, so a DD block halves both parts."""
    s = x + x.T
    return dd.DD(0.5 * s.hi, 0.5 * s.lo) if isinstance(s, dd.DD) else 0.5 * s


# ---------------------------------------------------------------------------
# Triangular inversion


def tri_inv(t, engine: MmEngine = CONVENTIONAL, precision: str = WORKING,
            counter=None, with_report: bool = True):
    """Invert an upper triangular matrix recursively.

    Returns (X, InvReport).  With ``precision="extended"`` the whole
    recursion runs in double-word arithmetic and the result is rounded to
    working precision at the end.
    """
    t = as_matrix(t)
    n = t.shape[0]
    if t.shape[1] != n:
        raise DimensionError("tri_inv requires a square matrix")
    require_finite("tri_inv", t)
    if np.any(np.diag(t) == 0.0):
        raise SingularMatrixError("zero diagonal entry in triangular matrix")
    x = _round(_tri_inv_rec(_lift(t, precision), engine, counter))
    if not with_report:
        return x, None
    kappa = max(1.0, norm(t, TWO) * norm(x, TWO))
    bound = predicted_tri_bound(kappa, n, engine_mu_constant(engine))
    return x, _report(t, x, precision, kappa, bound)


def _tri_inv_rec(t, engine, counter):
    n = t.shape[0]
    if n == 1:
        if counter is not None:
            counter.count(mults=1)
        return _like(t, np.ones((1, 1))) / t
    if n <= _DD_LEAF and isinstance(t, dd.DD):
        # No LinAlgError: tri_inv rejects zero diagonals, so every pivot is
        # a nonzero diagonal entry.
        x = _dd_leaf_inv(t, np.triu(np.linalg.inv(t.hi)), engine, counter)
        if x is not None:
            return x
    s = n // 2
    x11 = _tri_inv_rec(t[:s, :s], engine, counter)
    x22 = _tri_inv_rec(t[s:, s:], engine, counter)
    m = multiply(multiply(x11, t[:s, s:], engine, counter), x22, engine, counter)
    x = _like(t, np.zeros((n, n)))
    x[:s, :s] = x11
    x[s:, s:] = x22
    x[:s, s:] = -m
    return x


def _dd_leaf_inv(t, seed, engine, counter):
    """Refine the float64 inverse ``seed`` of the DD block t by Newton steps.

    Returns the double-word inverse, or None when the leaf is rejected:
    the seed is missing or non-finite, the first residual ||I - T X||_inf
    is not below 1/2, or the last is above EPS.  Steps go on while the
    residual at least halves, so the loop ends on any input.
    """
    if seed is None or not np.all(np.isfinite(seed)):
        return None
    eye = dd.DD(np.eye(t.shape[0]))
    x = dd.DD(seed)
    r = eye - multiply(t, x, engine, counter)
    res = norm(r.hi, INF)
    if not res < 0.5:
        return None
    while res > 0.0:
        x_next = x + multiply(x, r, engine, counter)
        r_next = eye - multiply(t, x_next, engine, counter)
        res_next = norm(r_next.hi, INF)
        if not res_next <= 0.5 * res:
            break
        x, r, res = x_next, r_next, res_next
    return x if res <= EPS else None


# ---------------------------------------------------------------------------
# SPD inversion


def spd_inv(h, engine: MmEngine = CONVENTIONAL, precision: str = WORKING,
            counter=None, with_report: bool = True):
    """Invert a symmetric positive definite matrix recursively.

    Follows the Schur-complement pseudocode (Ai, AiB, BAiB, S, Si, AiBSi,
    AiBSiBAi); positive definiteness is detected lazily at the 1x1 base
    case.  The output is symmetrized, since the exact-arithmetic symmetry
    of the formula is lost to roundoff.
    """
    h = as_matrix(h)
    n = h.shape[0]
    if h.shape[1] != n:
        raise DimensionError("spd_inv requires a square matrix")
    require_finite("spd_inv", h)
    nh = norm(h)
    if float(np.linalg.norm(h - h.T)) > _SYMMETRY_TOL * max(nh, 1e-300):
        raise AsymmetricMatrixError("matrix is not symmetric within 1e-12 relative")
    x = _symmetrize(_round(_spd_inv_rec(_lift(h, precision), engine, counter)))
    if not with_report:
        return x, None
    kappa = max(1.0, norm(h, TWO) * norm(x, TWO))
    bound = predicted_spd_bound(kappa, n, engine_mu_constant(engine))
    return x, _report(h, x, precision, kappa, bound)


def _spd_inv_rec(h, engine, counter):
    n = h.shape[0]
    if n == 1:
        if _hi(h)[0, 0] <= 0.0:
            raise NotPositiveDefiniteError("nonpositive pivot in spd_inv")
        if counter is not None:
            counter.count(mults=1)
        return _like(h, np.ones((1, 1))) / h
    if n <= _DD_LEAF and isinstance(h, dd.DD):
        # The block as the recursion reads it: its upper triangle.
        hs = dd.DD(np.triu(h.hi) + np.triu(h.hi, 1).T, np.triu(h.lo) + np.triu(h.lo, 1).T)
        try:
            np.linalg.cholesky(hs.hi)
            seed = np.linalg.inv(hs.hi)
        except np.linalg.LinAlgError:
            seed = None
        x = _dd_leaf_inv(hs, seed, engine, counter)
        if x is not None:
            return _symmetrize(x)
    s = n // 2
    a = h[:s, :s]
    b = h[:s, s:]
    c = h[s:, s:]
    ai = _spd_inv_rec(a, engine, counter)
    aib = multiply(ai, b, engine, counter)
    baib = multiply(b.T, aib, engine, counter)
    sc = c - baib
    if counter is not None:
        counter.count(adds=(n - s) ** 2)
    if not np.all(np.isfinite(_hi(sc))):
        raise NotPositiveDefiniteError("non-finite Schur complement in spd_inv")
    si = _spd_inv_rec(sc, engine, counter)
    aibsi = multiply(aib, si, engine, counter)
    aibsibai = multiply(aibsi, aib.T, engine, counter)
    hi11 = ai + aibsibai
    if counter is not None:
        counter.count(adds=s * s)
    x = _like(h, np.zeros((n, n)))
    x[:s, :s] = hi11
    x[:s, s:] = -aibsi
    x[s:, :s] = -aibsi.T
    x[s:, s:] = si
    return x


# perfbench/tracing.py still wraps the inversion bodies under these names.
_tri_inv_rec_dd = _tri_inv_rec
_spd_inv_rec_dd = _spd_inv_rec


# ---------------------------------------------------------------------------
# General inversion via the normal-equations trick


def _gram_inverse(a, engine, counter):
    """(A A^T)^-1, with the Gram matrix symmetrized before inversion."""
    return _spd_inv_rec(_symmetrize(multiply(a, a.T, engine, counter)), engine, counter)


def gen_inv(a, engine: MmEngine = CONVENTIONAL, precision: str = WORKING,
            counter=None, with_report: bool = True):
    """Invert a general square matrix via A^-1 = A^T (A A^T)^-1.

    Forming A A^T squares the condition number; in extended precision the
    Gram matrix, the SPD inversion and the final product are all carried
    in double-word arithmetic.
    """
    a = as_matrix(a)
    n = a.shape[0]
    if a.shape[1] != n:
        raise DimensionError("gen_inv requires a square matrix")
    require_finite("gen_inv", a)
    al = _lift(a, precision)
    mi = _symmetrize(_gram_inverse(al, engine, counter))
    x = _round(multiply(al.T, mi, engine, counter))
    if not with_report:
        return x, None
    kappa_a = max(1.0, norm(a, TWO) * norm(x, TWO))
    bound = predicted_spd_bound(kappa_a ** 2, n, engine_mu_constant(engine))
    return x, _report(a, x, precision, kappa_a, bound)


def solve_via_inverse(a, b, engine: MmEngine = CONVENTIONAL, precision: str = WORKING,
                      counter=None):
    """Solve A x = b as x = A^T ((A A^T)^-1 b)."""
    a = as_matrix(a)
    b = np.asarray(b, dtype=np.float64)
    require_finite("solve_via_inverse", a, b)
    rhs = b[:, None] if b.ndim == 1 else b
    al = _lift(a, precision)
    t = multiply(_gram_inverse(al, engine, counter), _lift(rhs, precision), engine, counter)
    x = _round(multiply(al.T, t, engine, counter))
    return x[:, 0] if b.ndim == 1 else x


def theorem1_embedding(a, b, inverter=None):
    """Extract A @ B from the inverse of [[I, A, 0], [0, I, B], [0, 0, I]].

    A and B are scaled to unit Frobenius norm first so the block matrix is
    very well conditioned; the (1,3) block of the inverse is A B (up to
    sign and the scales).
    """
    a = as_matrix(a)
    b = as_matrix(b)
    p, q = a.shape
    q2, r = b.shape
    if q != q2:
        raise DimensionError("theorem1_embedding: a.cols must equal b.rows")
    sa = norm(a) or 1.0
    sb = norm(b) or 1.0
    m = np.eye(p + q + r)
    m[:p, p : p + q] = a / sa
    m[p : p + q, p + q :] = b / sb
    if inverter is None:
        inverter = lambda t: tri_inv(t, with_report=False)[0]
    minv = inverter(m)
    return minv[:p, p + q :] * (sa * sb)

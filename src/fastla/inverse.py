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
(``_like``, ``_hi``, ``_symmetrize``) hide the representation.

Both precisions stop the SPD recursion at blocks of at most ``_DD_LEAF``
rows, a base case of bounded size on which the paper's exponent does not
depend.  The leaf ``_spd_leaf_inv`` reads the block from its upper
triangle, as the recursion does, and takes numpy's LAPACK inverse once the
block's Cholesky factorization succeeds.  A working-precision block returns
the symmetric part of that inverse and tallies what splitting it would
have.  A double-word block, SPD or triangular, refines the float64 inverse
of its hi part in ``_dd_leaf_inv`` by Newton-Schulz steps
X <- X + X (I - T X) in double-word arithmetic (Schulz 1933; Higham,
Accuracy and Stability of Numerical Algorithms, ch. 14).  A leaf whose seed
is non-finite, whose first residual ||I - T X||_inf is not below 1/2, or
whose last residual exceeds EPS is rejected.  The SPD leaf returns the
symmetric part (X + X^T)/2 of the refined inverse; otherwise Newton would
invert the roundoff asymmetry of the double-word Schur complements exactly,
and the asymmetry would grow down the recursion.  A rejected leaf, or one
whose Cholesky factorization fails, splits as a larger block does, down to
the shared 1x1 pivots that detect indefiniteness.  Working-precision
triangular blocks recurse to 1x1 pivots.

The report's ``forward_bound`` evaluates the error recurrences of
``bounds`` with the measured condition number and the engine's measured
error-model constant, clamped at 1 (a bound of 1 means no accuracy is
promised).  Its ``bound`` is backward grade instead, c(n) eps kappa for
||XA - I||_F (kappa^2 for the normal-equations route of ``gen_inv`` in
working precision), since the recurrence bounds clamp to 1 at modest sizes
and would pass any X with ||XA - I||_F <= 1.  The symmetry tolerance of
``spd_inv`` is ``bounds.SYMMETRY_TOL``.
"""

from __future__ import annotations

import functools

import numpy as np

from . import bounds, dd
from .baseline import SingularMatrixError
from .core import (EPS, EXTENDED, INF, TWO, WORKING, DimensionError, RngStream, as_matrix,
                   norm, require_finite)
from .matmul import CONVENTIONAL, MmEngine, OpCounter, measure_mm_error, multiply
from .results import StabilityReport

# Blocks of at most this many rows try a LAPACK leaf: SPD blocks in both
# precisions, triangular ones in double-word (see _spd_leaf_inv and
# _dd_leaf_inv); 16 and 64 were both slower on n = 128 double-word inputs.
_DD_LEAF = 32

_mu_cache: dict = {}


class NotPositiveDefiniteError(ValueError):
    """SPD inversion hit a nonpositive 1x1 pivot or non-finite Schur complement."""


class AsymmetricMatrixError(ValueError):
    """Input to spd_inv is not symmetric within tolerance."""


def engine_mu_constant(engine: MmEngine) -> float:
    """Measured error-model constant of the engine at n = 32 (cached, fixed seed)."""
    key = (engine.kind, engine.cutoff)
    if key not in _mu_cache:
        model = measure_mm_error(32, engine, trials=2, rng=RngStream(0xF457))
        _mu_cache[key] = max(1.0, model.observed_constant)
    return _mu_cache[key]


def _report(a, x, engine, precision, forward, squared=False) -> StabilityReport:
    """The report of an inverse X of A: ||XA - I||_F, kappa = ||A||_2 ||X||_2,
    and the bounds of the module docstring, with ``forward`` the recurrence
    bound (``bounds.tri_inv`` or ``bounds.spd_inv``) and ``squared`` when
    the route squares kappa."""
    n = a.shape[0]
    kappa = max(1.0, norm(a, TWO) * norm(x, TWO))
    k = kappa ** 2 if squared else kappa
    if precision == EXTENDED:
        bound = bounds.backward(n) * kappa
    else:
        bound = bounds.backward(n, engine) * k
    return StabilityReport(residual=float(np.linalg.norm(x @ a - np.eye(n))), bound=bound,
                           kappa=kappa, forward_bound=forward(k, n, engine_mu_constant(engine)))


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

    Returns (X, StabilityReport or None).  With ``precision="extended"`` the whole
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
    return x, _report(t, x, engine, precision, bounds.tri_inv)


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
    AiBSiBAi) down to blocks of at most ``_DD_LEAF`` rows, which are
    inverted by LAPACK once their Cholesky factorization succeeds.  A block
    whose factorization fails splits on, and indefiniteness is detected at
    the 1x1 pivots.  The output is symmetrized, since the exact-arithmetic
    symmetry of the formula is lost to roundoff.
    """
    h = as_matrix(h)
    n = h.shape[0]
    if h.shape[1] != n:
        raise DimensionError("spd_inv requires a square matrix")
    require_finite("spd_inv", h)
    nh = norm(h)
    if float(np.linalg.norm(h - h.T)) > bounds.SYMMETRY_TOL * max(nh, 1e-300):
        raise AsymmetricMatrixError(
            f"matrix is not symmetric within {bounds.SYMMETRY_TOL:g} relative")
    x = _symmetrize(_round(_spd_inv_rec(_lift(h, precision), engine, counter)))
    if not with_report:
        return x, None
    return x, _report(h, x, engine, precision, bounds.spd_inv)


def _spd_inv_rec(h, engine, counter):
    n = h.shape[0]
    if n == 1:
        if _hi(h)[0, 0] <= 0.0:
            raise NotPositiveDefiniteError("nonpositive pivot in spd_inv")
        if counter is not None:
            counter.count(mults=1)
        return _like(h, np.ones((1, 1))) / h
    if n <= _DD_LEAF:
        x = _spd_leaf_inv(h, engine, counter)
        if x is not None:
            return x
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


def _spd_leaf_inv(h, engine, counter):
    """The inverse of a leaf block from its Cholesky-checked LAPACK inverse.

    The block is read as the recursion reads it, from its upper triangle.
    Returns None, and the block splits, when the Cholesky factorization of
    its working-precision part fails or the inverse is not finite.  A DD
    block refines the inverse by ``_dd_leaf_inv``; a working-precision
    block takes it as is and tallies what the split would have.
    """
    up = np.triu(_hi(h))
    hs = up + np.triu(up, 1).T
    try:
        np.linalg.cholesky(hs)
        seed = np.linalg.inv(hs)
    except np.linalg.LinAlgError:
        return None
    if isinstance(h, dd.DD):
        lo = np.triu(h.lo)
        x = _dd_leaf_inv(dd.DD(hs, lo + np.triu(lo, 1).T), seed, engine, counter)
        return None if x is None else _symmetrize(x)
    if not np.all(np.isfinite(seed)):
        return None
    if counter is not None:
        counter.count(*_spd_split_tally(h.shape[0], engine))
    return _symmetrize(seed)


@functools.lru_cache(maxsize=None)
def _spd_split_tally(n, engine):
    """(mults, adds) that ``_spd_inv_rec`` tallies splitting an n-row block
    to 1x1 pivots: C(1) = (1, 0), and C(n) = C(s) + C(n - s) plus the four
    products and the (n - s)^2 + s^2 adds, each product tallied as
    ``multiply`` tallies it under ``engine``."""
    if n == 1:
        return 1, 0
    s = n // 2
    t = n - s
    probe = OpCounter()
    for p, q, r in ((s, s, t), (t, s, t), (s, t, t), (s, t, s)):
        multiply(np.zeros((p, q)), np.zeros((q, r)), engine, probe)
    (m1, a1), (m2, a2) = _spd_split_tally(s, engine), _spd_split_tally(t, engine)
    return m1 + m2 + probe.scalar_mults, a1 + a2 + probe.scalar_adds + t * t + s * s


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
    return x, _report(a, x, engine, precision, bounds.spd_inv, squared=True)


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

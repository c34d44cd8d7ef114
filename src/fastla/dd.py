"""Double-word (compensated) floating point arithmetic on numpy arrays.

A value is represented as an unevaluated sum hi + lo of two binary64
numbers with |lo| <= ulp(hi)/2, giving an effective mantissa of ~106 bits
(unit roundoff ~2^-105, comfortably below 4 * eps64^2).  No FMA is assumed.

Elementwise sums and products are error-free transformations: Knuth's
two_sum, and Dekker's two_prod applied to the frexp mantissas of its
operands.  Matrix products are error-free transformations of another kind
(Ozaki, Ogita, Oishi and Rump 2012): both operands are cut into
integer-valued float64 slices whose products ordinary float64 BLAS calls
sum exactly, and the exact sums are accumulated in double-word arithmetic
(see ``DD.__matmul__``).

This is the "extended" precision of the scalar abstraction: twice the
working mantissa, realized on working-precision hardware.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# 2^27 + 1, exact in binary64; splits a double into two 26-bit halves.
_SPLITTER = 134217729.0

# Unit roundoff of a renormalized double-word value.
DD_EPS = 2.0 ** -105

# A product's slices and levels are kept until what they drop is below
# k * 2^-_DROPPED_BITS * max|A_row| * max|B_col| (see DD.__matmul__).
_DROPPED_BITS = 105


def two_sum(a, b):
    """Error-free sum: returns (s, e) with s + e == a + b exactly."""
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    return s, e


def quick_two_sum(a, b):
    """Error-free sum assuming |a| >= |b| elementwise."""
    s = a + b
    e = b - (s - a)
    return s, e


def _split(a):
    c = _SPLITTER * a
    big = c - a
    hi = c - big
    lo = a - hi
    return hi, lo


def two_prod(a, b):
    """Error-free product: p + e == a * b exactly.

    Dekker's splitting runs on the frexp mantissas, so ``_SPLITTER * a``
    cannot overflow however large the operands are; the exponents come
    back exactly through ldexp.  Exactness requires a * b and its rounding
    error to stay in the normal binary64 range (no underflow/overflow).
    """
    ma, ea = np.frexp(a)
    mb, eb = np.frexp(b)
    p = ma * mb
    ahi, alo = _split(ma)
    bhi, blo = _split(mb)
    e = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    scale = ea + eb
    return np.ldexp(p, scale), np.ldexp(e, scale)


@functools.lru_cache(maxsize=256)
def _slicing(k):
    """Slice width beta and level count for inner dimension k.

    Level u sums the products of at most u + 1 <= levels - 1 slice pairs,
    each an inner product of k integers of magnitude <= 2^beta.  beta is
    the largest width with (levels - 1) k 2^(2 beta) <= 2^53, so that every
    partial sum a BLAS call can form is an integer below 2^53 and exact.
    With levels - 1 slices per operand and levels 0 .. levels - 2 kept, what
    is left out of an entry is about (levels + 2) k 2^(2 beta) 2^(-(levels-1)
    beta) in the scaled units, where max|A_row| max|B_col| >= 2^(2 beta - 2);
    levels are added until that is below k 2^-_DROPPED_BITS of the latter.
    """
    levels = 2
    while True:
        pairs = levels - 1
        beta = (53 - (pairs * k - 1).bit_length()) // 2
        if beta < 1:
            raise ValueError(f"dd matmul: inner dimension {k} is too large to slice exactly")
        if pairs * beta >= _DROPPED_BITS + 2 + math.log2(levels + 2):
            return beta, levels
        levels += 1


def _slices(x, beta, count):
    """Integer-valued slices s[:, j] of the rows of x[0] + x[1] (hi and lo).

    Each step peels rint off both parts, which leaves them in [-1/2, 1/2],
    and scales what is left by 2^beta; every operation is exact.  So
    x[0] + x[1] == sum_j s[:, j] 2^(-j beta) + r with |r| <= 2^(-(J-1) beta)
    for J = count slices, and if |x[0]| + |x[1]| < 2^beta, every slice is
    an integer of magnitude <= 2^beta.  x is overwritten.
    """
    s = np.empty((x.shape[1], count, x.shape[2]))
    t = np.empty_like(x)
    for j in range(count):
        np.rint(x, out=t)
        x -= t
        x *= 2.0 ** beta
        np.add(t[0], t[1], out=s[:, j])
    return s


def _add(xh, xl, yh, yl):
    s, e = two_sum(xh, yh)
    t, f = two_sum(xl, yl)
    e = e + t
    s, e = quick_two_sum(s, e)
    e = e + f
    return quick_two_sum(s, e)


def _mul(xh, xl, yh, yl):
    p, e = two_prod(xh, yh)
    e = e + (xh * yl + xl * yh)
    return quick_two_sum(p, e)


class DD:
    """A dense array of double-word scalars.

    Supports the slicing, arithmetic and matmul operations the recursive
    algorithms need, so the same recursion body can run in working or
    extended precision.
    """

    __slots__ = ("hi", "lo")

    def __init__(self, hi, lo=None):
        hi = np.asarray(hi, dtype=np.float64)
        self.hi = hi
        self.lo = np.zeros_like(hi) if lo is None else np.asarray(lo, dtype=np.float64)

    @property
    def shape(self):
        return self.hi.shape

    @property
    def T(self):
        return DD(self.hi.T, self.lo.T)

    def copy(self):
        return DD(self.hi.copy(), self.lo.copy())

    def to_float64(self):
        """Round to working precision (the correctly rounded hi part)."""
        s, e = two_sum(self.hi, self.lo)
        return s

    def __getitem__(self, key):
        return DD(self.hi[key], self.lo[key])

    def __setitem__(self, key, value):
        value = _coerce(value)
        self.hi[key] = value.hi
        self.lo[key] = value.lo

    def __neg__(self):
        return DD(-self.hi, -self.lo)

    def __add__(self, other):
        other = _coerce(other)
        return DD(*_add(self.hi, self.lo, other.hi, other.lo))

    def __sub__(self, other):
        other = _coerce(other)
        return DD(*_add(self.hi, self.lo, -other.hi, -other.lo))

    def __mul__(self, other):
        other = _coerce(other)
        return DD(*_mul(self.hi, self.lo, other.hi, other.lo))

    def __truediv__(self, other):
        other = _coerce(other)
        # Two Newton-ish correction steps; relative error O(DD_EPS).
        q1 = self.hi / other.hi
        r = self - other * DD(q1)
        q2 = r.hi / other.hi
        r = r - other * DD(q2)
        q3 = r.hi / other.hi
        s, e = two_sum(q1, q2)
        s, e = quick_two_sum(s, e + q3)
        return DD(s, e)

    def __matmul__(self, other):
        """Double-word matrix product by error-free slicing (Ozaki et al. 2012).

        Each row of A and column of B is scaled by a power of two to
        max(|hi| + |lo|) < 2^beta and cut into integer-valued float64
        slices with x == sum_i X_i 2^(-i beta) (``_slices``), |X_i| <= 2^beta.
        Level u collects the slice pairs with i + j == u; its products go
        into one float64 GEMM of [A_i ..] by [B_(u-i); ..].  beta depends on
        the inner dimension k alone (``_slicing``) and keeps every level's
        sum of at most (u + 1) k such products at or below 2^53, so each
        level is an exact integer sum, whatever order, blocking or FMA use
        the BLAS picks.  The levels are added smallest first with two_sum
        and the scaling is undone with ldexp.

        The slices and levels left out change each entry by no more than about
        k 2^-105 max|A_row| max|B_col|, and the two_sum accumulation and
        the final rounding to double-word add about 2^-105 |C|; the error is
        thus of the order of a double-word inner product's.  Each entry is
        a function of its row of A and column of B alone, so the result is
        the same bit for bit on any BLAS and under any blocking.
        """
        other = _coerce(other)
        n, k = self.shape
        k2, m = other.shape
        if k != k2:
            raise ValueError("dd matmul dimension mismatch")
        beta, levels = _slicing(k)
        # The rows of A and the columns of B are scaled and sliced together,
        # hi parts in x[0] and lo parts in x[1].
        x = np.empty((2, n + m, k))
        x[0, :n], x[1, :n], x[0, n:], x[1, n:] = self.hi, self.lo, other.hi.T, other.lo.T
        _, up = np.frexp(np.maximum.reduce(np.abs(x[0]) + np.abs(x[1]), axis=1, initial=0.0))
        up = beta - up[:, None]
        count = levels - 1
        slices = _slices(np.ldexp(x, up, out=x), beta, count)
        # sa = [A_0 A_1 ..] and sb = [B_(count-1) .. B_1 B_0]^T, blocks of k
        # columns, so level u is sa's first u + 1 blocks by sb's last u + 1.
        sa = slices[:n].reshape(n, count * k)
        sb = slices[n:, ::-1].reshape(m, count * k)

        def level(u):
            prod = sa[:, :(u + 1) * k] @ sb[:, (count - 1 - u) * k:].T
            prod *= 2.0 ** (-u * beta)
            return prod

        ch, cl = level(levels - 2), 0.0
        for u in range(levels - 3, -1, -1):
            ch, err = two_sum(ch, level(u))
            cl = cl + err
        ch, cl = quick_two_sum(ch, cl)
        down = -(up[:n] + up[n:].T)
        return DD(np.ldexp(ch, down), np.ldexp(cl, down))


def _coerce(x):
    if isinstance(x, DD):
        return x
    return DD(np.asarray(x, dtype=np.float64))


def solve_upper(u, b, unit_diag=False):
    """Back substitution U x = b in extended precision (b may be a matrix)."""
    u = _coerce(u)
    b = _coerce(b)
    n = u.shape[0]
    rhs = b if b.hi.ndim == 2 else DD(b.hi[:, None], b.lo[:, None])
    m = rhs.shape[1]
    x = DD(np.zeros((n, m)))
    for i in range(n - 1, -1, -1):
        acc = rhs[i : i + 1, :]
        if i + 1 < n:
            acc = acc - u[i : i + 1, i + 1 :] @ x[i + 1 :, :]
        if not unit_diag:
            acc = acc / u[i, i]
        x[i : i + 1, :] = acc
    return x if b.hi.ndim == 2 else DD(x.hi[:, 0], x.lo[:, 0])


def solve_lower(l, b, unit_diag=False):
    """Forward substitution L x = b in extended precision: back substitution
    on the system with its rows and columns reversed."""
    b = _coerce(b)
    return solve_upper(_coerce(l)[::-1, ::-1], b[::-1], unit_diag)[::-1]


def inv_upper(u):
    """Substitution-based inverse of an upper triangular matrix."""
    u = _coerce(u)
    n = u.shape[0]
    return solve_upper(u, DD(np.eye(n)))


def cholesky(h):
    """Extended-precision Cholesky factor: H = L L^T."""
    h = _coerce(h).copy()
    n = h.shape[0]
    l = DD(np.zeros((n, n)))
    for j in range(n):
        acc = h[j, j]
        if j > 0:
            s = l[j : j + 1, :j] @ l[j : j + 1, :j].T
            acc = acc - DD(s.hi[0, 0], s.lo[0, 0])
        if acc.hi <= 0.0:
            raise ZeroDivisionError("matrix not positive definite in dd cholesky")
        # sqrt via one Newton step on the double estimate
        r0 = np.sqrt(acc.hi)
        r = DD(r0)
        r = (r + acc / r) * DD(0.5)
        r = (r + acc / r) * DD(0.5)
        l[j, j] = r
        if j + 1 < n:
            rest = h[j + 1 :, j : j + 1]
            if j > 0:
                rest = rest - l[j + 1 :, :j] @ l[j : j + 1, :j].T
            l[j + 1 :, j : j + 1] = rest / r
    return l


def spd_inv(h):
    """Extended-precision inverse of an SPD matrix via Cholesky."""
    l = cholesky(h)
    n = l.shape[0]
    y = solve_lower(l, DD(np.eye(n)))
    return solve_upper(l.T, y)

"""Pluggable matrix multiplication engines with scalar operation counting.

Three engines share one contract (a normwise error bounded by
mu(n) * eps * ||A|| * ||B||):

* ``conv``      -- conventional product,
* ``blocked``   -- conventional product on square sub-blocks,
* ``strassen``  -- Winograd's 7-multiplication / 15-addition variant,
  recursing down to a cutoff (default 64) and padding odd sizes with a
  zero row/column at each level.

The Strassen recursion is executed in batched form: all sibling
subproblems of one recursion level are stacked along a leading axis and
advanced together, so the scalar arithmetic is exactly the recursive
algorithm's while the interpreter overhead stays O(log n) per product.

Rectangular products are partitioned into squares of the smallest
dimension; fringe strips fall back to the conventional product.

``OpCounter`` tallies the scalar multiplies (divisions count as
multiplies) and additions of the engine products and of the explicitly
counted conventional kernels elsewhere in the library; O(n^2)-per-level
bookkeeping such as scalings and padding is not tallied.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dd
from .core import EPS, RngStream, as_matrix, gaussian_matrix

CONV = "conv"
STRASSEN = "strassen"
BLOCKED = "blocked"
ENGINE_KINDS = (CONV, STRASSEN, BLOCKED)

# Cap on the projected element count at the bottom recursion level of one
# batched Strassen call; larger batches are processed in slices.
_BATCH_BUDGET = 8_000_000


@dataclass
class OpCounter:
    """Monotone tallies of scalar multiplies and additions."""

    scalar_mults: int = 0
    scalar_adds: int = 0

    def count(self, mults: int = 0, adds: int = 0) -> None:
        self.scalar_mults += int(mults)
        self.scalar_adds += int(adds)


@dataclass(frozen=True)
class MmEngine:
    kind: str = CONV
    cutoff: int = 64

    def __post_init__(self):
        if self.kind not in ENGINE_KINDS:
            raise ValueError(f"unknown engine kind {self.kind!r}")
        if self.cutoff < 1:
            raise ValueError("strassen cutoff must be >= 1")


CONVENTIONAL = MmEngine(CONV)


@dataclass
class ErrorModel:
    """Fitted error-growth model: max observed ||dC||/(eps ||A|| ||B||) ~ n^c."""

    mu_exponent: float
    observed_constant: float
    samples: dict = field(default_factory=dict)


def multiply(a, b, engine: MmEngine = CONVENTIONAL, counter: OpCounter | None = None):
    """Product a @ b under the selected engine, tallying scalar ops.

    A double-word left operand (``dd.DD``) takes the double-word slicing
    product ``a @ b`` (b is lifted if it is float64) whatever the engine
    kind, tallied as a conventional product.
    """
    if isinstance(a, dd.DD):
        return _conv(a, b, counter)
    a = as_matrix(a)
    b = as_matrix(b)
    p, q = a.shape
    q2, r = b.shape
    if q != q2:
        raise ValueError(f"dimension mismatch: {a.shape} @ {b.shape}")
    if engine.kind == CONV:
        return _conv(a, b, counter)
    if engine.kind == BLOCKED:
        return _partitioned(a, b, counter, _conv_square_batch)
    return _partitioned(a, b, counter, lambda ab, bb, c: _strassen_batch(ab, bb, engine.cutoff, c))


def _conv(a, b, counter):
    p, q = a.shape
    r = b.shape[1]
    if counter is not None:
        counter.count(mults=p * q * r, adds=p * (q - 1) * r)
    return a @ b


def _conv_square_batch(abatch, bbatch, counter):
    nb, s, _ = abatch.shape
    if counter is not None:
        counter.count(mults=nb * s * s * s, adds=nb * s * s * (s - 1))
    return np.matmul(abatch, bbatch)


def _partitioned(a, b, counter, square_batch):
    """Square-partitioned product: all full s-by-s blocks advance as one batch."""
    p, q = a.shape
    r = b.shape[1]
    s = min(p, q, r)
    pb, qb, rb = p // s, q // s, r // s
    ps, qs, rs = pb * s, qb * s, rb * s
    c = np.zeros((p, r))
    # Stack every (i, j, k) combination of full blocks into one batch.
    ablk = a[:ps, :qs].reshape(pb, s, qb, s).swapaxes(1, 2)  # (pb, qb, s, s)
    bblk = b[:qs, :rs].reshape(qb, s, rb, s).swapaxes(1, 2)  # (qb, rb, s, s)
    ab = np.broadcast_to(ablk[:, None], (pb, rb, qb, s, s)).reshape(-1, s, s)
    bb = np.broadcast_to(bblk.swapaxes(0, 1)[None], (pb, rb, qb, s, s)).reshape(-1, s, s)
    prod = square_batch(ab, bb, counter).reshape(pb, rb, qb, s, s)
    summed = prod.sum(axis=2)
    if counter is not None and qb > 1:
        counter.count(adds=pb * rb * (qb - 1) * s * s)
    c[:ps, :rs] = summed.swapaxes(1, 2).reshape(ps, rs)
    # Fringe strips (dimensions not divisible by s) go through the
    # conventional product.
    if qs < q:
        c[:ps, :rs] += _conv(a[:ps, qs:], b[qs:, :rs], counter)
        if counter is not None:
            counter.count(adds=ps * rs)
    if ps < p:
        c[ps:, :] = _conv(a[ps:, :], b, counter)
    if rs < r:
        c[:ps, rs:] = _conv(a[:ps, :], b[:, rs:], counter)
    return c


def _strassen_bottom_elems(s: int, cutoff: int) -> int:
    """Projected per-pair element count at the recursion bottom."""
    elems = 1
    while s > cutoff and s > 1:
        if s % 2:
            s += 1
        s //= 2
        elems *= 7
    return elems * s * s


def _strassen_batch(abatch, bbatch, cutoff, counter):
    """Batched Winograd-Strassen on a stack of square pairs."""
    nb, s, _ = abatch.shape
    if s <= cutoff or s == 1:
        return _conv_square_batch(abatch, bbatch, counter)
    if nb > 1:
        bottom = _strassen_bottom_elems(s, cutoff)
        if nb * bottom > _BATCH_BUDGET:
            chunk = max(1, _BATCH_BUDGET // bottom)
            parts = [
                _strassen_batch(abatch[i : i + chunk], bbatch[i : i + chunk], cutoff, counter)
                for i in range(0, nb, chunk)
            ]
            return np.concatenate(parts, axis=0)
    trim = None
    if s % 2:
        trim = s
        ap = np.zeros((nb, s + 1, s + 1))
        bp = np.zeros((nb, s + 1, s + 1))
        ap[:, :s, :s] = abatch
        bp[:, :s, :s] = bbatch
        abatch, bbatch = ap, bp
        s += 1
    h = s // 2
    a11 = abatch[:, :h, :h]
    a12 = abatch[:, :h, h:]
    a21 = abatch[:, h:, :h]
    a22 = abatch[:, h:, h:]
    b11 = bbatch[:, :h, :h]
    b12 = bbatch[:, :h, h:]
    b21 = bbatch[:, h:, :h]
    b22 = bbatch[:, h:, h:]

    s1 = a21 + a22
    s2 = s1 - a11
    s3 = a11 - a21
    s4 = a12 - s2
    t1 = b12 - b11
    t2 = b22 - t1
    t3 = b22 - b12
    t4 = t2 - b21
    if counter is not None:
        counter.count(adds=8 * nb * h * h)

    left = np.empty((7, nb, h, h))
    right = np.empty((7, nb, h, h))
    left[0], right[0] = a11, b11
    left[1], right[1] = a12, b21
    left[2], right[2] = s4, b22
    left[3], right[3] = a22, t4
    left[4], right[4] = s1, t1
    left[5], right[5] = s2, t2
    left[6], right[6] = s3, t3

    m = _strassen_batch(
        left.reshape(7 * nb, h, h), right.reshape(7 * nb, h, h), cutoff, counter
    ).reshape(7, nb, h, h)

    u2 = m[0] + m[5]
    u3 = u2 + m[6]
    u4 = u2 + m[4]
    c = np.empty((nb, s, s))
    c[:, :h, :h] = m[0] + m[1]
    c[:, :h, h:] = u4 + m[2]
    c[:, h:, :h] = u3 - m[3]
    c[:, h:, h:] = u3 + m[4]
    if counter is not None:
        counter.count(adds=7 * nb * h * h)
    if trim is not None:
        c = np.ascontiguousarray(c[:, :trim, :trim])
    return c


def fit_exponent(sizes, counts) -> float:
    """Least-squares slope of log2(count) against log2(n).

    Sizes must be at least three strictly increasing powers of two.
    """
    sizes = [int(n) for n in sizes]
    counts = [float(c) for c in counts]
    if len(sizes) < 3 or len(sizes) != len(counts):
        raise ValueError("need at least 3 (size, count) pairs")
    for prev, cur in zip(sizes, sizes[1:]):
        if cur <= prev:
            raise ValueError("sizes must be strictly increasing")
    for n in sizes:
        if n < 1 or n & (n - 1):
            raise ValueError(f"size {n} is not a power of 2")
    x = np.log2(np.asarray(sizes, dtype=np.float64))
    y = np.log2(np.asarray(counts, dtype=np.float64))
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


def measure_mm_error(n: int, engine: MmEngine, trials: int, rng: RngStream) -> ErrorModel:
    """Empirical error model against the double-word product.

    The reference is ``DD @ DD`` rounded to float64, whose own error, of
    order 2^-105 times the inner dimension (see ``dd.DD.__matmul__``), is
    far below the engine's.
    For sizes n/4, n/2, n (those >= 2) and ``trials`` Gaussian pairs each,
    measures max ||C_engine - C_extended||_F / (||A||_F ||B||_F eps); the
    observed constant is the maximum at size n, the exponent the log-log
    slope across the sizes.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    sizes = sorted({m for m in (n // 4, n // 2, n) if m >= 2})
    samples = {}
    for idx, m in enumerate(sizes):
        worst = 0.0
        for t in range(trials):
            sub = rng.split(idx * trials + t)
            a = gaussian_matrix(m, m, sub.split(0))
            b = gaussian_matrix(m, m, sub.split(1))
            c = multiply(a, b, engine)
            c_ext = (dd.DD(a) @ dd.DD(b)).to_float64()
            num = float(np.linalg.norm(c - c_ext))
            den = float(np.linalg.norm(a)) * float(np.linalg.norm(b)) * EPS
            if den > 0.0:
                worst = max(worst, num / den)
        samples[m] = worst
    xs = np.log2(np.asarray(sizes, dtype=np.float64))
    ys = np.asarray([samples[m] for m in sizes])
    if len(sizes) >= 2 and np.all(ys > 0.0):
        slope, _ = np.polyfit(xs, np.log2(ys), 1)
        exponent = max(0.0, float(slope))
    else:
        exponent = 0.0
    return ErrorModel(mu_exponent=exponent, observed_constant=samples[sizes[-1]], samples=samples)

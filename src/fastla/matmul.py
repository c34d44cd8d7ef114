"""Pluggable matrix multiplication engines with scalar operation counting.

Three engines share one contract (a normwise error bounded by
mu(n) * eps * ||A|| * ||B||):

* ``conv``      -- conventional product,
* ``blocked``   -- conventional product on square sub-blocks,
* ``strassen``  -- Winograd's 7-multiplication / 15-addition variant,
  recursing down to a cutoff (default 64) and padding odd sizes with a
  zero row/column at each level.

Each Strassen level forms Winograd's four S and four T sums with ``out=``
and no other temporaries. While a level's operand stack (7 nb h^2 elements
for nb pairs of half size h) fits in ``_BATCH_BUDGET``, the sums go into
the slots of two (7, nb, h, h) stacks and the seven products recurse as
one batch, so the interpreter's cost per level does not grow with nb; the
U sums then reuse the product slots in place. Larger levels recurse on
the seven products one at a time (depth first) on the schedule of Boyer,
Dumas, Pernet & Zhou (2009): the products land in the quadrants of C and
two temporaries, so the working set stays a small multiple of the
operands'. Both orders perform the recursive algorithm's scalar
operations in the same order, so results do not depend on the budget.
Products whose smallest dimension is at most the cutoff are conventional
products.

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

# Largest operand stack (7 nb h^2 elements, 512 KiB) a Strassen level
# recurses on as one batch; above it the seven products go depth first.
_BATCH_BUDGET = 2 ** 16


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
    if engine.kind == CONV or (engine.kind == STRASSEN and min(p, q, r) <= engine.cutoff):
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


def _conv_square_batch(abatch, bbatch, counter, out=None):
    nb, s, _ = abatch.shape
    if counter is not None:
        counter.count(mults=nb * s * s * s, adds=nb * s * s * (s - 1))
    return np.matmul(abatch, bbatch, out=out)


def _partitioned(a, b, counter, square_batch):
    """Square-partitioned product: all full s-by-s blocks advance as one batch."""
    p, q = a.shape
    r = b.shape[1]
    s = min(p, q, r)
    pb, qb, rb = p // s, q // s, r // s
    ps, qs, rs = pb * s, qb * s, rb * s
    # Stack every (i, j, k) combination of full blocks into one batch.
    ablk = a[:ps, :qs].reshape(pb, s, qb, s).swapaxes(1, 2)  # (pb, qb, s, s)
    bblk = b[:qs, :rs].reshape(qb, s, rb, s).swapaxes(1, 2)  # (qb, rb, s, s)
    ab = np.broadcast_to(ablk[:, None], (pb, rb, qb, s, s)).reshape(-1, s, s)
    bb = np.broadcast_to(bblk.swapaxes(0, 1)[None], (pb, rb, qb, s, s)).reshape(-1, s, s)
    prod = square_batch(ab, bb, counter).reshape(pb, rb, qb, s, s)
    summed = prod.sum(axis=2).swapaxes(1, 2).reshape(ps, rs)
    if counter is not None and qb > 1:
        counter.count(adds=pb * rb * (qb - 1) * s * s)
    if (ps, qs, rs) == (p, q, r):
        return summed
    c = np.empty((p, r))
    c[:ps, :rs] = summed
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


def _strassen_batch(abatch, bbatch, cutoff, counter, out=None):
    """Winograd-Strassen on a stack of square pairs, into ``out`` if given."""
    nb, s, _ = abatch.shape
    if s <= cutoff or s == 1:
        return _conv_square_batch(abatch, bbatch, counter, out)
    if out is None:
        out = np.empty((nb, s, s))
    if s % 2:
        abatch = _pad(abatch)
        bbatch = _pad(bbatch)
    h = (s + 1) // 2
    if 7 * nb * h * h <= _BATCH_BUDGET:
        _winograd_breadth_first(abatch, bbatch, out, cutoff, counter)
    elif s % 2:
        padded = np.empty((nb, s + 1, s + 1))
        out[...] = _winograd_depth_first(abatch, bbatch, padded, cutoff, counter)[:, :s, :s]
    else:
        _winograd_depth_first(abatch, bbatch, out, cutoff, counter)
    if counter is not None:
        counter.count(adds=15 * nb * h * h)  # 8 S/T sums and 7 U sums
    return out


def _pad(batch):
    """The stack with a zero row and column appended to each matrix."""
    nb, s, _ = batch.shape
    padded = np.zeros((nb, s + 1, s + 1))
    padded[:, :s, :s] = batch
    return padded


def _winograd_breadth_first(a, b, c, cutoff, counter):
    """One level whose seven products recurse as a single (7 nb) batch.

    The S and T sums go straight into the slots of the operand stacks;
    U2, U3 and U4 overwrite the slots of M6 and M7. ``c`` may be one
    row and column smaller than ``a``: the padded ones are not written.
    """
    nb, s, _ = a.shape
    h = s // 2
    a11, a12, a21, a22 = a[:, :h, :h], a[:, :h, h:], a[:, h:, :h], a[:, h:, h:]
    b11, b12, b21, b22 = b[:, :h, :h], b[:, :h, h:], b[:, h:, :h], b[:, h:, h:]
    left = np.empty((7, nb, h, h))
    right = np.empty((7, nb, h, h))
    left[0], left[1], left[3] = a11, a12, a22
    np.add(a21, a22, out=left[4])  # S1
    np.subtract(left[4], a11, out=left[5])  # S2
    np.subtract(a11, a21, out=left[6])  # S3
    np.subtract(a12, left[5], out=left[2])  # S4
    right[0], right[1], right[2] = b11, b21, b22
    np.subtract(b12, b11, out=right[4])  # T1
    np.subtract(b22, right[4], out=right[5])  # T2
    np.subtract(b22, b12, out=right[6])  # T3
    np.subtract(right[5], b21, out=right[3])  # T4
    m = _strassen_batch(left.reshape(7 * nb, h, h), right.reshape(7 * nb, h, h),
                        cutoff, counter).reshape(7, nb, h, h)
    np.add(m[0], m[5], out=m[5])  # U2
    np.add(m[5], m[6], out=m[6])  # U3
    np.add(m[5], m[4], out=m[5])  # U4
    k = c.shape[1] - h
    np.add(m[0], m[1], out=c[:, :h, :h])
    np.add(m[5, :, :, :k], m[2, :, :, :k], out=c[:, :h, h:])
    np.subtract(m[6, :, :k], m[3, :, :k], out=c[:, h:, :h])
    np.add(m[6, :, :k, :k], m[4, :, :k, :k], out=c[:, h:, h:])


def _winograd_depth_first(a, b, c, cutoff, counter):
    """One level whose seven products recurse one at a time; returns ``c``.

    Boyer, Dumas, Pernet & Zhou's schedule: the products land in the
    quadrants of ``c`` and two temporaries, and the U sums accumulate there.
    """
    nb, s, _ = a.shape
    h = s // 2
    a11, a12, a21, a22 = a[:, :h, :h], a[:, :h, h:], a[:, h:, :h], a[:, h:, h:]
    b11, b12, b21, b22 = b[:, :h, :h], b[:, :h, h:], b[:, h:, :h], b[:, h:, h:]
    c11, c12, c21, c22 = c[:, :h, :h], c[:, :h, h:], c[:, h:, :h], c[:, h:, h:]
    x = np.empty((nb, h, h))
    y = np.empty((nb, h, h))

    def product(p, q, into):
        _strassen_batch(p, q, cutoff, counter, into)

    np.subtract(a11, a21, out=x)  # S3
    np.subtract(b22, b12, out=y)  # T3
    product(x, y, c21)  # M7
    np.add(a21, a22, out=x)  # S1
    np.subtract(b12, b11, out=y)  # T1
    product(x, y, c22)  # M5
    np.subtract(x, a11, out=x)  # S2
    np.subtract(b22, y, out=y)  # T2
    product(x, y, c12)  # M6
    np.subtract(a12, x, out=x)  # S4
    product(x, b22, c11)  # M3
    product(a11, b11, x)  # M1
    np.add(x, c12, out=c12)  # U2 = M1 + M6
    np.add(c12, c21, out=c21)  # U3 = U2 + M7
    np.add(c12, c22, out=c12)  # U4 = U2 + M5
    np.add(c21, c22, out=c22)  # U7 = U3 + M5
    np.add(c12, c11, out=c12)  # U5 = U4 + M3
    np.subtract(y, b21, out=y)  # T4
    product(a22, y, c11)  # M4
    np.subtract(c21, c11, out=c21)  # U6 = U3 - M4
    product(a12, b21, c11)  # M2
    np.add(x, c11, out=c11)  # U1 = M1 + M2
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

"""Matrix storage conventions, norms, random streams and serialization.

Matrices are dense, real, row-major ``numpy.ndarray`` objects of dtype
float64; the recursive algorithms partition them by index ranges (numpy
views), never by copying.  Scalars come in two precisions: ``working``
(binary64) and ``extended`` (double-word arithmetic, see :mod:`fastla.dd`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dd

# Working machine epsilon (spacing of 1.0) and the extended unit roundoff.
EPS = float(np.finfo(np.float64).eps)
EXTENDED_EPS = dd.DD_EPS

WORKING = "working"
EXTENDED = "extended"
PRECISIONS = (WORKING, EXTENDED)

FROBENIUS = "frobenius"
TWO = "two"
ONE = "one"
INF = "inf"
ENTRYWISE_SUM = "entrywise-sum"
NORM_KINDS = (FROBENIUS, TWO, ONE, INF, ENTRYWISE_SUM)

_TWO_NORM_ITERS = 50
_TWO_NORM_TOL = 1e-8


class DimensionError(ValueError):
    """A matrix dimension precondition was violated."""


class NonFiniteInputError(ValueError):
    """An input matrix holds NaN or infinite entries."""


class MatrixParseError(ValueError):
    """A matrix file is malformed (bad header, wrong length, non-finite)."""


def as_matrix(a):
    """Validate and return a 2-D float64 C-order array."""
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise DimensionError(f"matrix dimensions must be >= 1, got {m.shape}")
    return m


def require_finite(name, *mats):
    """Raise NonFiniteInputError unless every entry of every operand is finite."""
    for x in mats:
        if not np.isfinite(x).all():
            raise NonFiniteInputError(f"{name} requires finite entries")


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream with splittable substreams.

    Built on Philox, so the same (seed, path) pair yields bit-identical
    output on every platform and run.  ``split(i)`` derives an independent
    substream; substreams of distinct paths never overlap.
    """

    seed: int
    path: tuple = ()

    def split(self, index: int) -> "RngStream":
        return RngStream(self.seed, self.path + (int(index),))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(ss))

    def uniforms(self, count: int) -> np.ndarray:
        return self.generator().random(count)

    def gaussians(self, count: int) -> np.ndarray:
        """i.i.d. N(0,1) via Box-Muller on the stream's uniforms."""
        pairs = (count + 1) // 2
        u = self.generator().random(2 * pairs)
        u1 = 1.0 - u[:pairs]  # in (0, 1], keeps log finite
        u2 = u[pairs:]
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = 2.0 * np.pi * u2
        z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
        return z[:count]


def gaussian_matrix(n: int, m: int, rng: RngStream) -> np.ndarray:
    """An n-by-m matrix of i.i.d. standard Gaussians, deterministic in rng."""
    if n < 1 or m < 1:
        raise DimensionError(f"gaussian_matrix dimensions must be >= 1, got {n}x{m}")
    return rng.gaussians(n * m).reshape(n, m)


def norm(a, kind: str = FROBENIUS) -> float:
    """Matrix norm of the named kind.

    The two-norm is a power-iteration estimate (relative accuracy ~1e-6);
    it is meant for reports and diagnostics, not algorithm control flow.
    """
    a = as_matrix(a)
    if kind == FROBENIUS:
        return float(np.sqrt(np.sum(a * a)))
    if kind == ONE:
        return float(np.max(np.sum(np.abs(a), axis=0)))
    if kind == INF:
        return float(np.max(np.sum(np.abs(a), axis=1)))
    if kind == ENTRYWISE_SUM:
        return float(np.sum(np.abs(a)))
    if kind == TWO:
        return _two_norm(a)
    raise ValueError(f"unknown norm kind {kind!r}")


def _two_norm(a) -> float:
    n, m = a.shape
    if n == 1 or m == 1:
        return float(np.sqrt(np.sum(a * a)))
    # Power iteration on A^T A with a fixed full-spectrum start vector.
    x = np.cos(np.arange(m) + 0.5)
    x /= np.sqrt(np.sum(x * x))
    sigma = 0.0
    for _ in range(_TWO_NORM_ITERS):
        y = a @ x
        z = a.T @ y
        nz = float(np.sqrt(np.sum(z * z)))
        if nz == 0.0:
            return 0.0
        new_sigma = float(np.sqrt(np.sum(y * y)))
        x = z / nz
        if abs(new_sigma - sigma) <= _TWO_NORM_TOL * max(new_sigma, 1e-300):
            return new_sigma
        sigma = new_sigma
    return sigma


def write_matrix(path, a) -> None:
    """Write the ASCII header "rows cols" then row-major little-endian binary64."""
    a = as_matrix(a)
    with open(path, "wb") as fh:
        fh.write(f"{a.shape[0]} {a.shape[1]}\n".encode("ascii"))
        fh.write(a.astype("<f8", copy=False).tobytes(order="C"))


def read_matrix(path) -> np.ndarray:
    """Read a matrix written by :func:`write_matrix` (bit-exact round trip)."""
    with open(path, "rb") as fh:
        header = fh.readline()
        payload = fh.read()
    parts = header.split()
    if len(parts) != 2:
        raise MatrixParseError(f"bad header {header!r}: expected 'rows cols'")
    try:
        rows, cols = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise MatrixParseError(f"bad header {header!r}") from exc
    if rows < 1 or cols < 1:
        raise MatrixParseError(f"dimensions must be >= 1, got {rows}x{cols}")
    expected = rows * cols * 8
    if len(payload) != expected:
        raise MatrixParseError(
            f"payload holds {len(payload)} bytes, header {rows}x{cols} needs {expected}"
        )
    data = np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(rows, cols)
    if not np.all(np.isfinite(data)):
        raise MatrixParseError("matrix file contains non-finite values")
    return data

"""Shared result types: WY-form orthogonal factors and stability reports."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class WYFactor:
    """Compact orthogonal factor Q^T = I - W Y.

    W is n-by-m with unit-norm columns, Y is m-by-n with rows of norm 2;
    both are lower/upper trapezoidal respectively.  A column the panel did
    not reflect (already triangular, or zero) has a zero Y row.  Products
    against Q or Q^T never form the n-by-n matrix unless explicitly
    requested.
    """

    w: np.ndarray
    y: np.ndarray

    @property
    def n(self) -> int:
        return self.w.shape[0]

    @property
    def m(self) -> int:
        return self.w.shape[1]

    def apply_qt(self, b, engine, counter=None):
        """(I - W Y) @ b computed as b - W (Y b)."""
        from .matmul import multiply

        t = multiply(self.y, b, engine, counter)
        wt = multiply(self.w, t, engine, counter)
        if counter is not None:
            counter.count(adds=b.shape[0] * b.shape[1])
        return b - wt

    def apply_q(self, b, engine, counter=None):
        """(I - W Y)^T @ b computed as b - Y^T (W^T b)."""
        from .matmul import multiply

        t = multiply(np.ascontiguousarray(self.w.T), b, engine, counter)
        yt = multiply(np.ascontiguousarray(self.y.T), t, engine, counter)
        if counter is not None:
            counter.count(adds=b.shape[0] * b.shape[1])
        return b - yt

    def explicit_q(self, engine, counter=None):
        """The n-by-n orthogonal Q = (I - W Y)^T, formed explicitly."""
        from .matmul import multiply

        wy = multiply(self.w, self.y, engine, counter)
        return np.eye(self.n) - wy.T

    def thin_q(self, engine, counter=None):
        """The leading n-by-m columns of Q, I[:, :m] - (W[:m] Y)^T."""
        from .matmul import multiply

        wy = multiply(self.w[: self.m], self.y, engine, counter)
        return np.eye(self.n, self.m) - wy.T


@dataclass
class StabilityReport:
    """Measured residual and orthogonality defect of one decomposition."""

    residual: float
    orth_defect: float = 0.0
    flags: list = field(default_factory=list)

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
    """The measured error of one result and the bound it is judged by.

    ``residual`` and ``bound`` per entry point, with ``bound`` read from
    ``fastla.bounds`` (g the pivot growth, kappa the field below):

    * ``qrr``: ||A - Q R||_F / ||A||_F, ``backward(rows, engine)``;
    * ``rurv``: ||A - U R V||_F / ||A||_F, ``backward(n, engine)``;
    * ``lur``: ||A[p] - L U||_F / ||A||_F, ``backward(rows) * g``;
    * ``sylr``: ||A R - R B + C||_F / ((||A||_F + ||B||_F) ||R||_F),
      ``backward(n + m)``;
    * ``tri_inv``, ``spd_inv``, ``gen_inv``: ||X A - I||_F,
      ``backward(n, engine) * kappa`` (kappa^2 for ``gen_inv``, whose
      normal equations square it) in working precision and
      ``backward(n) * kappa`` in extended precision.

    ``orth_defect`` is ||Q^T Q - I||_F for ``qrr`` and ||V^T V - I||_F for
    ``rurv``, judged by the same bound, and None elsewhere.  ``kappa`` is
    the 2-norm condition number of an inverted matrix and, for ``lur``, the
    largest 1-norm condition estimate of L's solved blocks; None elsewhere.
    ``forward_bound`` is the relative forward error that the recurrence of
    an inversion predicts (``bounds.tri_inv``, or ``bounds.spd_inv`` of
    kappa, or of kappa^2 for ``gen_inv``), and None elsewhere.  An entry
    point called with ``with_report=False`` returns None for its report.
    """

    residual: float
    bound: float
    orth_defect: float | None = None
    kappa: float | None = None
    forward_bound: float | None = None
    flags: list = field(default_factory=list)

    def holds(self) -> bool:
        """The residual, and the orthogonality defect if any, within the bound."""
        return self.residual <= self.bound and (
            self.orth_defect is None or self.orth_defect <= self.bound)

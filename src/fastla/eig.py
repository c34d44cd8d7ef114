"""Spectral divide-and-conquer: Schur form, symmetric eigenproblem, SVD,
and eigenvector assembly.

One split works like this: a Moebius transform maps the chosen dividing
line (or circle, tried for a nonsymmetric block when no line splits it) to
the imaginary axis, the sign iteration drives the transformed matrix to its
sign (each step is the Newton step X <- (X + X^-1)/2 or, once
||I - X^2||_1 <= 1/2, the Newton-Schulz step X <- X + X(I - X^2)/2, which
needs products only), P+ = (sign + I)/2 is the spectral projector, and a
randomized rank-revealing factorization of P+ yields an orthogonal Q whose
leading columns span the invariant subspace.  The split dimension r is
chosen by minimizing the entrywise-sum norm of the below-block of Q^T A Q
over all r in O(n^2) (ColSum/RowSum recurrences); a split is accepted only
when that norm is at most 1e3 eps ||A||_F, so each split drops a block
below the eigenvalue and SVD bounds of 1e4 eps ||A||_F.
These bounds, the Schur residual bound and the eigenvector bound of
``evecr`` are evaluated in ``bounds``.
A rejected split is retried with a fresh random factorization a few times,
and then the next region is tried.

Real arithmetic throughout: dividing lines are vertical, and circles are
centered on the real axis.  A block of at most EIG_LEAF rows is not split:
one LAPACK call finishes it (a symmetric eigendecomposition, or a real
Schur form whose complex conjugate pairs are standardized 2x2 bumps), and
its orthogonal factor is applied as an accepted split's is.  The paper's
cost claim is asymptotic, and a leaf of constant size b adds O(n b^2) work.

The symmetric eigenproblem is the same driver with every compressed
block re-symmetrized; its off-diagonal blocks are then exactly zero, so
each split's orthogonal factor is applied to Q alone.
``schur_dandc(symmetric=True)`` holds the symmetry check
(``bounds.SYMMETRY_TOL``, after the finiteness check), and ``symmetric_eig``
is that call plus a sort.  The SVD goes through the
polar decomposition A = W H (Nakatsukasa & Higham, SISC 2013): W comes
from the QR-based dynamically weighted Halley iteration (QDWH;
Nakatsukasa, Bai & Gygi, SIMAX 2010), which needs only ``qrr`` and
products, and the symmetric driver runs once on the n-by-n H = W^T A.  ``svd_via_gram`` keeps the name
of the Gram-matrix route it replaced because its callers use that name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bounds
from .baseline import SingularMatrixError, SylvesterSingularError
from .core import (EPS, FROBENIUS, DimensionError, NonFiniteInputError, RngStream,
                   as_matrix, norm, require_finite)
from .lu import solve_linear
from .matmul import CONVENTIONAL, MmEngine, multiply
from .qr import positive_q, qrr
from .rurv import rurv
from .sylvester import _checked_blocks, _sylr_rec, block_eigenvalues, sep_estimate

DEFAULT_MAX_ATTEMPTS = 3
DEFAULT_SIGN_ITERS = 40
SIGN_CONV_TOL = math.sqrt(EPS)
# The sign iteration takes a product-only Newton-Schulz step once
# ||I - X^2||_1 is at most this (see sign_function).
SCHULZ_SWITCH = 0.5
DEFAULT_LINE_BUDGET = 7
# Blocks of at most this many rows finish with one LAPACK call (see
# _leaf_schur): below it a split's sign iteration and RURV cost mostly
# Python overhead.  A larger leaf is faster still, but hands more of each
# input to LAPACK: at 32, a 64-row input is split only once, and clusters
# of up to 32 rows that no dividing line splits would end in leaves,
# hiding the region search's weakness on them rather than fixing it.
EIG_LEAF = 16
POLAR_L0 = EPS  # assumed lower bound on sigma_min(A) / ||A||_F in the polar iteration
# perfbench/checks.py imports the split tolerance under this name.
default_split_tol = bounds.split_tol


class SignDivergenceError(RuntimeError):
    """The sign iteration failed to converge (eigenvalues on the split curve)."""


@dataclass(frozen=True)
class SplitRegion:
    """A spectrum-dividing region: everything maps to a half-plane split.

    * half-plane: eigenvalues with Re > x land on the +1 side;
    * disk(center, radius) on the real axis: the exterior lands on +1.
    """

    kind: str
    x: float = 0.0
    center: float = 0.0
    radius: float = 0.0

    @staticmethod
    def half_plane(x: float) -> "SplitRegion":
        return SplitRegion(kind="half-plane", x=float(x))

    @staticmethod
    def disk(center: float, radius: float) -> "SplitRegion":
        if radius <= 0.0:
            raise ValueError("disk radius must be positive")
        return SplitRegion(kind="disk", center=float(center), radius=float(radius))


@dataclass
class SplitOutcome:
    accepted: bool
    q: np.ndarray | None = None
    r: int = 0
    ahat: np.ndarray | None = None
    norm_a21: float = float("inf")
    attempts: int = 0


@dataclass
class SchurResult:
    q: np.ndarray
    t: np.ndarray
    tree: list
    flags: list = field(default_factory=list)

    @property
    def n_splits(self) -> int:
        return sum(1 for node in self.tree if node.get("kind") == "split")


@dataclass
class EigError:
    s_floor: float
    predicted_evec_bound: float
    flags: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Matrix sign function


def sign_function(a, engine: MmEngine = CONVENTIONAL, counter=None) -> np.ndarray:
    """sign(A) by Newton and Newton-Schulz steps; requires no eigenvalue on
    the imaginary axis.

    Each step forms R = I - X^2 by one product.  If ||R||_1 <= SCHULZ_SWITCH
    it takes the Newton-Schulz step X <- X + X R / 2, two products and no
    inversion (Kenney & Laub, SIMAX 1991; Higham, Functions of Matrices,
    ch. 5).  Its residual obeys R' = 3/4 R^2 + 1/4 R^3, so from ||R|| <= 1/2
    it is at most 0.22 and falls quadratically.  The residual form adds a
    small correction to X, so it rounds less than X (3I - X^2) / 2.
    Otherwise it takes the Newton step X <- (X + X^-1)/2.  The branch is
    chosen afresh at every step, so an iterate that leaves the basin goes
    back to Newton.  A square that overflows reads as outside the basin, and
    the Newton step then rejects the non-finite iterate.

    Stops when a step moves X by at most SIGN_CONV_TOL relative in the
    1-norm, and raises SignDivergenceError after DEFAULT_SIGN_ITERS steps of
    either kind or at a singular or non-finite iterate.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionError("sign_function requires a square matrix")
    require_finite("sign_function", a)
    x = a.copy()
    eye = np.eye(x.shape[0])
    for _ in range(DEFAULT_SIGN_ITERS):
        with np.errstate(over="ignore", invalid="ignore"):
            r = eye - multiply(x, x, engine, counter)
        if counter is not None:
            counter.count(adds=x.shape[0])
        if norm(r, "one") <= SCHULZ_SWITCH:
            new = x + 0.5 * multiply(x, r, engine, counter)
        else:
            try:
                xi = _inv_and_logdet(x, engine, counter)
            except (SingularMatrixError, NonFiniteInputError) as exc:
                raise SignDivergenceError("singular or non-finite sign iterate") from exc
            new = 0.5 * (x + xi)
        if counter is not None:
            counter.count(mults=new.size, adds=new.size)
        step = norm(new - x, "one")
        ref = norm(x, "one")
        x = new
        if ref > 0.0 and step <= SIGN_CONV_TOL * ref:
            return x
    raise SignDivergenceError(f"no convergence in {DEFAULT_SIGN_ITERS} sign iterations")


def _inv_and_logdet(x, engine, counter):
    """X^-1 by ``solve_linear`` (the name predates the dropped
    log-determinant, and the benchmark's tracer looks it up)."""
    return solve_linear(x, np.eye(x.shape[0]), engine, counter)


def moebius_apply(a, region: SplitRegion, engine: MmEngine = CONVENTIONAL, counter=None):
    """Map the region's boundary to the imaginary axis, its exterior to the
    right half-plane: A - xI for the half-plane Re > x, and
    (A - (c+r)I)(A - (c-r)I)^-1 for the disk of center c and radius r."""
    a = as_matrix(a)
    eye = np.eye(a.shape[0])
    if region.kind == "half-plane":
        return a - region.x * eye
    num = a - (region.center + region.radius) * eye
    den = a - (region.center - region.radius) * eye
    # X = num den^-1 from den^T X^T = num^T.
    try:
        xt = solve_linear(np.ascontiguousarray(den.T), num.T, engine, counter)
    except (SingularMatrixError, NonFiniteInputError) as exc:
        raise SignDivergenceError("singular Moebius denominator") from exc
    return np.ascontiguousarray(xt.T)


# ---------------------------------------------------------------------------
# One spectral split


def norm_a21_profile(ahat) -> np.ndarray:
    """NormA21(r) = ||ahat(r+1:n, 1:r)||_S for r = 1..n-1, via the
    ColSum/RowSum recurrence (exact, O(n^2))."""
    ahat = as_matrix(ahat)
    n = ahat.shape[0]
    if n < 2:
        return np.zeros(0)
    ab = np.abs(ahat)
    col = np.array([np.sum(ab[i + 1 :, i]) for i in range(n - 1)])
    row = np.array([np.sum(ab[i, :i]) for i in range(1, n)])
    out = np.empty(n - 1)
    out[0] = col[0]
    for i in range(1, n - 1):
        out[i] = out[i - 1] + col[i] - row[i - 1]
    return out


def split_once(a, region: SplitRegion, engine: MmEngine = CONVENTIONAL,
               rng: RngStream | None = None, counter=None,
               symmetric: bool = False) -> SplitOutcome:
    """Attempt one spectral split of ``a`` along ``region``.

    Up to DEFAULT_MAX_ATTEMPTS randomized factorizations of the projector
    are tried; a split is accepted when the entrywise-sum norm of its
    below-block (NormA21, which bounds its Frobenius norm) is at most
    ``bounds.split_tol(1)`` ||a||_F = 1e3 eps ||a||_F.
    """
    a = as_matrix(a)
    require_finite("split_once", a)
    n = a.shape[0]
    rng = rng or RngStream(0)
    try:
        # The symmetric driver's blocks are exactly symmetric, and so is A - xI.
        s = sign_function(moebius_apply(a, region, engine, counter), engine, counter)
    except SignDivergenceError:
        return SplitOutcome(accepted=False, attempts=0)
    p_plus = 0.5 * (s + np.eye(n))
    if symmetric:
        p_plus = 0.5 * (p_plus + p_plus.T)
    budget = bounds.split_tol(1) * norm(a, FROBENIUS)
    best = SplitOutcome(accepted=False)
    for attempt in range(DEFAULT_MAX_ATTEMPTS):
        res = rurv(p_plus, engine, rng.split(attempt), with_report=False)
        q = res.u.explicit_q(engine, counter)
        ahat = multiply(multiply(np.ascontiguousarray(q.T), a, engine, counter),
                        q, engine, counter)
        profile = norm_a21_profile(ahat)
        r = int(np.argmin(profile)) + 1
        val = float(profile[r - 1])
        if val < best.norm_a21:
            best = SplitOutcome(accepted=False, q=q, r=r, ahat=ahat,
                                norm_a21=val, attempts=attempt + 1)
        if val <= budget:
            best.accepted = True
            best.attempts = attempt + 1
            return best
    best.attempts = DEFAULT_MAX_ATTEMPTS
    return best


# ---------------------------------------------------------------------------
# Gershgorin bounds


def gershgorin_rectangle(a):
    """Bounding box of the Gershgorin disks: (re_lo, re_hi), (im_lo, im_hi)."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionError("gershgorin_rectangle requires a square matrix")
    centers = np.diag(a)
    radii = np.sum(np.abs(a), axis=1) - np.abs(centers)
    re_lo = float(np.min(centers - radii))
    re_hi = float(np.max(centers + radii))
    im = float(np.max(radii)) if radii.size else 0.0
    return (re_lo, re_hi), (-im, im)


def _candidate_lines(lo: float, hi: float, min_width: float, diag):
    """Dividing-line candidates inside [lo, hi].

    Starts with the mean of ``diag`` and the midpoints between its sorted
    entries (which track the eigenvalue real parts of a compressed block
    much better than the raw Gershgorin box), then falls back to
    breadth-first bisection midpoints of the interval, DEFAULT_LINE_BUDGET
    candidates at most.
    """
    out = []

    def push(x):
        """Add x if it is new; True once the budget is full."""
        if lo < x < hi and all(abs(x - y) > max(min_width, 1e-300) for y in out):
            out.append(x)
        return len(out) == DEFAULT_LINE_BUDGET

    # The trace mean is the exact mean of the eigenvalue real parts and
    # frequently lands inside a spectral gap.
    if push(float(np.mean(diag))):
        return out
    centers = np.sort(diag)
    mids = 0.5 * (centers[:-1] + centers[1:])
    order = np.argsort(np.abs(np.arange(len(mids)) - (len(mids) - 1) / 2.0))
    for idx in order:
        if push(float(mids[idx])):
            return out
    queue = [(lo, hi)]
    while queue:
        a, b = queue.pop(0)
        if b - a <= min_width:
            continue
        if push(0.5 * (a + b)):
            return out
        queue.append((a, 0.5 * (a + b)))
        queue.append((0.5 * (a + b), b))
    return out


# ---------------------------------------------------------------------------
# Schur divide-and-conquer driver


def schur_dandc(a, engine: MmEngine = CONVENTIONAL, rng: RngStream | None = None,
                symmetric: bool = False, counter=None) -> SchurResult:
    """Block Schur factorization A = Q T Q^T by recursive spectral splitting.

    Regions are vertical bisectors of the block's Gershgorin rectangle,
    subdivided when a split is rejected.  When no line is accepted and the
    block is nonsymmetric with a Gershgorin rectangle of nonzero imaginary
    extent, circles centered on the real axis are tried next.  Blocks whose
    region shrinks below sqrt(eps) * ||A|| without an accepted split are
    flagged as clusters and left unsplit.  A block of at most EIG_LEAF
    rows is not split but finished by ``_leaf_schur`` (tree node
    ``{"kind": "leaf", "lo", "hi"}``), so T is quasi-upper-triangular with
    LAPACK's standardized 2x2 bumps for complex pairs, and diagonal on
    the leaves when symmetric.  With ``symmetric=True``, an input that is
    not symmetric to ``bounds.SYMMETRY_TOL`` relative raises DimensionError.
    """
    a = as_matrix(a)
    n = a.shape[0]
    if a.shape[1] != n:
        raise DimensionError("schur_dandc requires a square matrix")
    # The region search would bisect a NaN Gershgorin box without end.
    require_finite("schur_dandc", a)
    scale = max(norm(a, FROBENIUS), 1e-300)
    if symmetric and float(np.linalg.norm(a - a.T)) > bounds.SYMMETRY_TOL * scale:
        raise DimensionError("schur_dandc(symmetric=True) requires a symmetric matrix")
    rng = rng or RngStream(0)
    t = a.copy()
    if symmetric:
        t = 0.5 * (t + t.T)
    q = np.eye(n)
    tree: list = []
    flags: list = []
    min_width = math.sqrt(EPS) * scale
    node_counter = [0]

    def rotate(lo: int, hi: int, z):
        """Apply the block's orthogonal factor z to Q, and to T outside its
        diagonal block unless symmetric (T is zero there)."""
        if lo > 0 and not symmetric:
            t[:lo, lo:hi] = multiply(t[:lo, lo:hi], z, engine, counter)
        if hi < n and not symmetric:
            t[lo:hi, hi:] = multiply(np.ascontiguousarray(z.T), t[lo:hi, hi:],
                                     engine, counter)
        q[:, lo:hi] = multiply(q[:, lo:hi], z, engine, counter)

    def process(lo: int, hi: int):
        size = hi - lo
        if size == 1:
            return
        if size <= EIG_LEAF:
            t[lo:hi, lo:hi], z = _leaf_schur(t[lo:hi, lo:hi], symmetric, counter)
            rotate(lo, hi, z)
            tree.append({"kind": "leaf", "lo": lo, "hi": hi})
            return
        block = t[lo:hi, lo:hi].copy()
        (re_lo, re_hi), (im_lo, im_hi) = gershgorin_rectangle(block)
        regions = [SplitRegion.half_plane(x)
                   for x in _candidate_lines(re_lo, re_hi, min_width, np.diag(block))]
        if not symmetric and im_hi > 0.0:
            # Tried after every line: circles centered on the real axis
            # separate complex pairs from real eigenvalues even when the real
            # parts coincide.
            cx = float(np.mean(np.diag(block)))
            extent = max(im_hi, 0.5 * (re_hi - re_lo))
            for frac in (0.5, 0.25, 0.75, 1.0):
                radius = frac * extent
                if radius > min_width:
                    regions.append(SplitRegion.disk(cx, radius))
        outcome = None
        line = None
        for region in regions:
            node_counter[0] += 1
            cand = split_once(block, region, engine, rng.split(node_counter[0]),
                              counter=counter, symmetric=symmetric)
            if cand.accepted and 0 < cand.r < size:
                outcome = cand
                line = region.x if region.kind == "half-plane" else (region.center, region.radius)
                break
        if outcome is None:
            tree.append({"kind": "cluster", "lo": lo, "hi": hi})
            flags.append(f"cluster:{lo}:{hi}")
            return
        r = outcome.r
        ahat = outcome.ahat
        ahat[r:, :r] = 0.0
        if symmetric:
            ahat[:r, r:] = 0.0
            ahat[:r, :r] = 0.5 * (ahat[:r, :r] + ahat[:r, :r].T)
            ahat[r:, r:] = 0.5 * (ahat[r:, r:] + ahat[r:, r:].T)
        t[lo:hi, lo:hi] = ahat
        rotate(lo, hi, outcome.q)
        tree.append({
            "kind": "split", "lo": lo, "hi": hi, "line": line, "r": r,
            "norm_a21": outcome.norm_a21, "attempts": outcome.attempts,
        })
        process(lo, lo + r)
        process(lo + r, hi)

    process(0, n)
    return SchurResult(q=q, t=t, tree=tree, flags=flags)


def _leaf_schur(block, symmetric, counter):
    """(T, Z) with block = Z T Z^T, from one LAPACK call.

    Symmetric: ``np.linalg.eigh``, T = diag(lambda), about 9 b^3 flops for
    a b-row block.  Otherwise: ``scipy.linalg.schur(block, output="real")``,
    T quasi-upper-triangular with standardized 2x2 bumps (equal diagonal,
    off-diagonal entries of opposite sign) for complex pairs, about 25 b^3
    flops (Golub & Van Loan, Matrix Computations, 4th ed., 8.3 and 7.5).
    The leaf is tallied as exactly that many flops, 9 b^3 or 25 b^3, half
    of them (rounded down) multiplications.
    """
    b = block.shape[0]
    if symmetric:
        lam, z = np.linalg.eigh(block)
        tb = np.diag(lam)
    else:
        # Imported here: ``import fastla`` does not load scipy (~0.3 s).
        from scipy.linalg import schur

        tb, z = schur(block, output="real")
        tb = np.triu(tb, -1)
    if counter is not None:
        flops = (9 if symmetric else 25) * b ** 3
        counter.count(mults=flops // 2, adds=flops - flops // 2)
    return tb, z


# ---------------------------------------------------------------------------
# Symmetric eigenproblem and SVD


def symmetric_eig(a, engine: MmEngine = CONVENTIONAL, rng: RngStream | None = None,
                  counter=None):
    """Eigendecomposition of a symmetric matrix: A = Q diag(lam) Q^T.

    The Schur driver with ``symmetric=True``, which rejects an asymmetric
    input and re-symmetrizes every compressed block; eigenvalues are
    returned in descending order.
    """
    res = schur_dandc(a, engine, rng, symmetric=True, counter=counter)
    lam = np.diag(res.t).copy()
    order = np.argsort(-lam)
    return res.q[:, order], lam[order]


def svd_via_gram(a, engine: MmEngine = CONVENTIONAL, rng: RngStream | None = None,
                 counter=None):
    """SVD of a square matrix, A = U diag(s) V^T, from its polar
    decomposition A = W H.

    W is the QDWH polar factor (``_polar``), H = sym(W^T A) is symmetric
    positive semidefinite, and one symmetric Schur driver call gives
    H = V diag(s) V^T; then U = W V, and the result inherits the symmetric
    driver's normwise bound.  When sigma_min <= 1e4 eps ||A||_F, or an
    unsplit cluster's block of the driver's T has a Gershgorin lower bound
    at or below that floor (flagged ``rank-deficient``), W is only a
    partial isometry and U's trailing columns are not determined by A;
    on the Strassen engine such an A can
    also miss the reconstruction bound.  So when the driver flags a cluster
    (``cluster:lo:hi``), A is rank deficient, or the factors miss the bound
    (U, V orthonormal to 1e3 n^2 eps, flagged ``orthogonality``;
    A = U diag(s) V^T to 1e4 eps ||A||_F, flagged ``reconstruction``), U and
    V are re-orthonormalized as the Q of a QR with nonnegative R diagonal.
    Returns (U, s, V, flags).  The name predates this route and is kept for
    its callers.
    """
    a = as_matrix(a)
    n = a.shape[0]
    if a.shape[1] != n:
        raise DimensionError("svd_via_gram requires a square matrix")
    require_finite("svd_via_gram", a)
    w = _polar(a, engine, counter)
    h = multiply(np.ascontiguousarray(w.T), a, engine, counter)
    res = schur_dandc(0.5 * (h + h.T), engine, rng, symmetric=True, counter=counter)
    lam = np.diag(res.t)
    order = np.argsort(-lam)
    sigma = np.maximum(lam[order], 0.0)
    v = res.q[:, order]
    u = multiply(w, v, engine, counter)
    flags = list(res.flags)
    floor = bounds.spectral(norm(a))
    if sigma[-1] <= floor or any(_cluster_floor(res.t, f) <= floor
                                 for f in res.flags if f.startswith("cluster:")):
        flags.append("rank-deficient")
    if not flags:
        orth = max(norm(multiply(x.T, x, engine, counter) - np.eye(n)) for x in (u, v))
        if orth > bounds.backward(n):
            flags.append("orthogonality")
        elif norm(a - multiply(u * sigma, v.T, engine, counter)) > floor:
            flags.append("reconstruction")
    if flags:
        u, v = positive_q(u, engine, counter), positive_q(v, engine, counter)
    return u, sigma, v, flags


def _cluster_floor(t, flag):
    """Gershgorin lower bound min_i (t_ii - sum_{j != i} |t_ij|) on the
    eigenvalues of the symmetric block named by a ``cluster:lo:hi`` flag.

    An unsplit cluster's diagonal can overstate its smallest eigenvalue,
    so sigma_min read from it alone can miss a rank deficiency.
    """
    lo, hi = (int(x) for x in flag.split(":")[1:])
    block = t[lo:hi, lo:hi]
    off = np.abs(block)
    np.fill_diagonal(off, 0.0)
    return float(np.min(np.diag(block) - off.sum(axis=1)))


def _polar(a, engine, counter):
    """The orthogonal polar factor W of A = W H, by QDWH.

    From X = A / ||A||_F and the lower bound ell = POLAR_L0 on its smallest
    singular value, each step factors X = Q0 R, takes the thin QR
    [sqrt(c) R; I] = [Q1; Q2] R' and sets
    X <- (b/c) X + (a - b/c)/sqrt(c) Q0 Q1 Q2^T, with the weights (a, b, c)
    chosen from ell, which the step then raises.  The iteration stops when
    |1 - ell| <= 10 eps: six steps from ell = eps, with no inverse and no
    pivoting.  Singular values of A below POLAR_L0 ||A||_F do not reach 1,
    so W is then a partial isometry; the zero matrix gives W = I.

    Stacking R rather than X keeps the step accurate on rank-deficient A.
    While c is large, [sqrt(c) X; I] has rows of very different scale
    whenever X has singular values below 1/sqrt(c), and the blocked
    updates of ``qrr`` are not row-wise stable on it: a rank-1 64x64 A came
    out with ||W^T A - A^T W|| = 2.9e4 eps ||A||_F.  With R, those large
    rows come first and later reflectors have zeros there (8 eps ||A||_F).
    """
    n = a.shape[0]
    scale = norm(a, FROBENIUS)
    if scale == 0.0:
        return np.eye(n)
    x = a / scale
    eye = np.eye(n)
    ell = POLAR_L0
    while abs(1.0 - ell) > 10.0 * EPS:
        ell2 = ell * ell
        d = (4.0 * max(1.0 - ell2, 0.0) / (ell2 * ell2)) ** (1.0 / 3.0)
        root = math.sqrt(1.0 + d)
        wa = root + 0.5 * math.sqrt(8.0 - 4.0 * d + 8.0 * (2.0 - ell2) / (ell2 * root))
        wb = 0.25 * (wa - 1.0) ** 2
        wc = wa + wb - 1.0
        ell = ell * (wa + wb * ell2) / (1.0 + wc * ell2)
        tri = qrr(x, engine, counter, with_report=False)
        stack = np.vstack([math.sqrt(wc) * tri.r, eye])
        q = qrr(stack, engine, counter, with_report=False).q.thin_q(engine, counter)
        p = tri.q.apply_q(multiply(q[:n], np.ascontiguousarray(q[n:].T), engine, counter),
                          engine, counter)
        x = (wb / wc) * x + ((wa - wb / wc) / math.sqrt(wc)) * p
        if counter is not None:
            counter.count(mults=3 * x.size, adds=x.size)
    return x


# ---------------------------------------------------------------------------
# Eigenvectors from quasi-triangular form


def evecr(t, engine: MmEngine = CONVENTIONAL, counter=None):
    """Eigenvector matrix of a quasi-triangular T by divide-and-conquer.

    Each split solves the Sylvester equation A R - R B = -C for the
    off-diagonal coupling, recurses on the diagonal halves, and assembles
    V = [[V_A, R V_B], [0, V_B]] with the fresh columns normalized.  A 2x2
    bump is atomic: its complex eigenvector pair is represented by the
    real/imaginary basis of the bump's invariant coordinate plane (the
    identity on those two columns).

    Returns (V, EigError) where the error object carries the sep floor
    over all splits and the common eigenvector error bound.  A split whose
    sep is only an upper bound (``SepEstimate.is_upper_bound``) adds
    ``sep-upper-bound:lo:hi``, indexed into T, to its flags.

    T's block pattern and spectrum are read once, at entry.  Raises
    NotTriangularError when an entry of T below its pattern (in any block,
    diagonal or not) is nonzero, and SylvesterSingularError when the two
    halves of a split share an eigenvalue.
    """
    t = as_matrix(t)
    n = t.shape[0]
    if t.shape[1] != n:
        raise DimensionError("evecr requires a square matrix")
    require_finite("evecr", t)
    cuts = _checked_blocks(t, "T")
    eigs = block_eigenvalues(t)
    seps: list = []
    flags: list = []

    def rec(bi_lo: int, bi_hi: int) -> np.ndarray:
        nblocks = bi_hi - bi_lo
        lo, hi = cuts[bi_lo], cuts[bi_hi]
        size = hi - lo
        if nblocks == 1:
            return np.eye(size)
        mid_idx = bi_lo + nblocks // 2
        mid = cuts[mid_idx]
        a_blk = t[lo:mid, lo:mid]
        b_blk = t[mid:hi, mid:hi]
        c_blk = t[lo:mid, mid:hi]
        if np.min(np.abs(eigs[lo:mid, None] - eigs[None, mid:hi])) == 0.0:
            raise SylvesterSingularError(f"blocks {lo}:{mid}, {mid}:{hi} of T share an eigenvalue")
        r = _sylr_rec(a_blk, b_blk, c_blk, engine, counter,
                      cuts[bi_lo:mid_idx + 1] - lo, cuts[mid_idx:bi_hi + 1] - mid)
        est = sep_estimate(a_blk, b_blk)
        seps.append(est.value)
        if est.is_upper_bound:
            flags.append(f"sep-upper-bound:{lo}:{hi}")
        va = rec(bi_lo, mid_idx)
        vb = rec(mid_idx, bi_hi)
        rvb = multiply(r, vb, engine, counter)
        out = np.zeros((size, size))
        out[: mid - lo, : mid - lo] = va
        out[: mid - lo, mid - lo :] = rvb
        out[mid - lo :, mid - lo :] = vb
        norms = np.sqrt(np.sum(out[:, mid - lo :] ** 2, axis=0))
        out[:, mid - lo :] /= norms[None, :]
        return out

    vmat = rec(0, len(cuts) - 1)
    s_floor = min(seps) if seps else norm(t, FROBENIUS)
    bound = bounds.evecr(n, norm(t, FROBENIUS), s_floor)
    return vmat, EigError(s_floor=s_floor, predicted_evec_bound=bound, flags=flags)

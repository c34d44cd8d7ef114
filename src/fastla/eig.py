"""Spectral divide-and-conquer: Schur form, symmetric eigenproblem, SVD,
and eigenvector assembly.

One split works like this: a Moebius transform maps the chosen dividing
line (or circle, tried for a nonsymmetric block when no line splits it) to
the imaginary axis, the Newton iteration A_{i+1} = (A_i + A_i^-1)/2 drives
the transformed matrix to its sign, P+ = (sign + I)/2 is the spectral
projector, and a randomized rank-revealing factorization of P+ yields an
orthogonal Q whose leading columns span the invariant subspace.  The
split dimension r is chosen by minimizing the entrywise-sum norm of the
below-block of Q^T A Q over all r in O(n^2) (ColSum/RowSum recurrences); a
split is accepted only when that norm is below the backward-error budget,
retrying with a fresh random factorization a few times and subdividing the
region after that.

Real arithmetic throughout: dividing lines are vertical, circles are
centered on the real axis, and complex conjugate pairs terminate as 2x2
quasi-triangular bumps.

The symmetric eigenproblem is the same driver with every compressed
block re-symmetrized.  The SVD goes through the polar decomposition
A = W H (Nakatsukasa & Higham, SISC 2013): W comes from the QR-based
dynamically weighted Halley iteration (QDWH; Nakatsukasa, Bai & Gygi,
SIMAX 2010), which needs only ``qrr`` and products, and the symmetric
driver runs once on the n-by-n H = W^T A.  ``svd_via_gram`` keeps the name
of the Gram-matrix route it replaced because its callers use that name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .baseline import SingularMatrixError
from .core import (EPS, ENTRYWISE_SUM, FROBENIUS, DimensionError, NonFiniteInputError,
                   RngStream, as_matrix, norm, require_finite)
from .lu import solve_linear
from .matmul import CONVENTIONAL, MmEngine, multiply
from .qr import positive_q, qrr
from .rurv import rurv
from .sylvester import block_boundaries, sep_estimate, sylr

DEFAULT_MAX_ATTEMPTS = 3
DEFAULT_SIGN_ITERS = 40
SIGN_CONV_TOL = math.sqrt(EPS)
DEFAULT_LINE_BUDGET = 7
POLAR_L0 = EPS  # assumed lower bound on sigma_min(A) / ||A||_F in the polar iteration
EVEC_EXPONENT = 3.0  # calibrated c' in the eigenvector error bound


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


def default_split_tol(n: int) -> float:
    return 1e3 * n * EPS


# ---------------------------------------------------------------------------
# Matrix sign function


def sign_function(a, engine: MmEngine = CONVENTIONAL, counter=None) -> np.ndarray:
    """Newton iteration for sign(A); requires no eigenvalue on the imaginary axis.

    Stops when a step moves X by at most SIGN_CONV_TOL relative in the
    1-norm, and raises SignDivergenceError after DEFAULT_SIGN_ITERS steps or
    at a singular or non-finite iterate.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionError("sign_function requires a square matrix")
    require_finite("sign_function", a)
    x = a.copy()
    for _ in range(DEFAULT_SIGN_ITERS):
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
    are tried; a split is accepted when its below-block is within
    ``default_split_tol(n)`` times ||a|| in the entrywise-sum norm.
    """
    a = as_matrix(a)
    require_finite("split_once", a)
    n = a.shape[0]
    rng = rng or RngStream(0)
    tol = default_split_tol(n)
    try:
        am = moebius_apply(a, region, engine, counter)
        if symmetric:
            am = 0.5 * (am + am.T)
        s = sign_function(am, engine, counter)
    except SignDivergenceError:
        return SplitOutcome(accepted=False, attempts=0)
    p_plus = 0.5 * (s + np.eye(n))
    if symmetric:
        p_plus = 0.5 * (p_plus + p_plus.T)
    scale = norm(a, ENTRYWISE_SUM)
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
        if val <= tol * scale:
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


def _candidate_lines(lo: float, hi: float, min_width: float, budget: int, diag=None):
    """Dividing-line candidates inside [lo, hi].

    Starts with midpoints between sorted diagonal entries (which track the
    eigenvalue real parts of a compressed block much better than the raw
    Gershgorin box), then falls back to breadth-first bisection midpoints
    of the interval.
    """
    out = []

    def push(x):
        if lo < x < hi and all(abs(x - y) > max(min_width, 1e-300) for y in out):
            out.append(x)

    if diag is not None and len(diag) > 1:
        arr = np.asarray(diag, dtype=np.float64)
        # The trace mean is the exact mean of the eigenvalue real parts and
        # frequently lands inside a spectral gap.
        push(float(np.mean(arr)))
        centers = np.sort(arr)
        mids = 0.5 * (centers[:-1] + centers[1:])
        order = np.argsort(np.abs(np.arange(len(mids)) - (len(mids) - 1) / 2.0))
        for idx in order:
            push(float(mids[idx]))
    queue = [(lo, hi)]
    while queue and len(out) < budget:
        a, b = queue.pop(0)
        if b - a <= min_width:
            continue
        push(0.5 * (a + b))
        queue.append((a, 0.5 * (a + b)))
        queue.append((0.5 * (a + b), b))
    return out[:budget]


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
    flagged as clusters and left unsplit.  Recursion bottoms out at 1x1
    blocks and 2x2 blocks (triangularized when the eigenvalues are real,
    kept as bumps for complex pairs).
    """
    a = as_matrix(a)
    n = a.shape[0]
    if a.shape[1] != n:
        raise DimensionError("schur_dandc requires a square matrix")
    # The region search would bisect a NaN Gershgorin box without end.
    require_finite("schur_dandc", a)
    rng = rng or RngStream(0)
    t = a.copy()
    if symmetric:
        t = 0.5 * (t + t.T)
    q = np.eye(n)
    tree: list = []
    flags: list = []
    scale = max(norm(a, FROBENIUS), 1e-300)
    min_width = math.sqrt(EPS) * scale
    node_counter = [0]

    def process(lo: int, hi: int):
        size = hi - lo
        if size == 1:
            return
        if size == 2:
            kind = _finalize_2x2(t, q, lo)
            tree.append({"kind": kind, "lo": lo, "hi": hi})
            return
        block = t[lo:hi, lo:hi].copy()
        (re_lo, re_hi), (im_lo, im_hi) = gershgorin_rectangle(block)
        regions = [SplitRegion.half_plane(x)
                   for x in _candidate_lines(re_lo, re_hi, min_width, DEFAULT_LINE_BUDGET,
                                             diag=np.diag(block))]
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
        qbar = outcome.q
        t[lo:hi, lo:hi] = ahat
        if lo > 0:
            t[:lo, lo:hi] = multiply(t[:lo, lo:hi], qbar, engine, counter)
        if hi < n:
            t[lo:hi, hi:] = multiply(np.ascontiguousarray(qbar.T), t[lo:hi, hi:],
                                     engine, counter)
        q[:, lo:hi] = multiply(q[:, lo:hi], qbar, engine, counter)
        tree.append({
            "kind": "split", "lo": lo, "hi": hi, "line": line, "r": r,
            "norm_a21": outcome.norm_a21, "attempts": outcome.attempts,
        })
        process(lo, lo + r)
        process(lo + r, hi)

    process(0, n)
    return SchurResult(q=q, t=t, tree=tree, flags=flags)


def _finalize_2x2(t, q, lo):
    """Triangularize a trailing 2x2 block when its eigenvalues are real."""
    b = t[lo : lo + 2, lo : lo + 2]
    if b[1, 0] == 0.0:
        return "leaf"
    tr = b[0, 0] + b[1, 1]
    disc = (b[0, 0] - b[1, 1]) ** 2 + 4.0 * b[0, 1] * b[1, 0]
    if disc < 0.0:
        return "bump"
    root = math.sqrt(disc)
    lam = 0.5 * (tr + root) if tr >= 0.0 else 0.5 * (tr - root)
    if lam == 0.0:
        lam = 0.5 * (tr + root)
    v1 = np.array([b[0, 1], lam - b[0, 0]])
    v2 = np.array([lam - b[1, 1], b[1, 0]])
    v = v1 if np.linalg.norm(v1) >= np.linalg.norm(v2) else v2
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return "leaf"
    c, s = v[0] / nv, v[1] / nv
    g = np.array([[c, -s], [s, c]])
    t[lo : lo + 2, :] = g.T @ t[lo : lo + 2, :]
    t[:, lo : lo + 2] = t[:, lo : lo + 2] @ g
    q[:, lo : lo + 2] = q[:, lo : lo + 2] @ g
    t[lo + 1, lo] = 0.0
    return "leaf"


# ---------------------------------------------------------------------------
# Symmetric eigenproblem and SVD


def symmetric_eig(a, engine: MmEngine = CONVENTIONAL, rng: RngStream | None = None,
                  counter=None):
    """Eigendecomposition of a symmetric matrix: A = Q diag(lam) Q^T.

    A specialization of the Schur driver with every compressed block
    re-symmetrized; eigenvalues are returned in descending order.
    """
    a = as_matrix(a)
    require_finite("symmetric_eig", a)
    if float(np.linalg.norm(a - a.T)) > 1e-12 * max(norm(a, FROBENIUS), 1e-300):
        raise DimensionError("symmetric_eig requires a symmetric matrix")
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
    floor = 1e4 * EPS * norm(a)
    if sigma[-1] <= floor or any(_cluster_floor(res.t, f) <= floor
                                 for f in res.flags if f.startswith("cluster:")):
        flags.append("rank-deficient")
    if not flags:
        orth = max(norm(multiply(x.T, x, engine, counter) - np.eye(n)) for x in (u, v))
        if orth > 1e3 * n * n * EPS:
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
    """
    t = as_matrix(t)
    n = t.shape[0]
    if t.shape[1] != n:
        raise DimensionError("evecr requires a square matrix")
    require_finite("evecr", t)
    bounds = block_boundaries(t)
    seps: list = []
    flags: list = []

    def rec(bi_lo: int, bi_hi: int) -> np.ndarray:
        nblocks = bi_hi - bi_lo
        lo, hi = bounds[bi_lo], bounds[bi_hi]
        size = hi - lo
        if nblocks == 1:
            return np.eye(size)
        mid_idx = bi_lo + nblocks // 2
        mid = bounds[mid_idx]
        a_blk = t[lo:mid, lo:mid]
        b_blk = t[mid:hi, mid:hi]
        c_blk = t[lo:mid, mid:hi]
        ab = [x - lo for x in bounds[bi_lo : mid_idx + 1]]
        bb = [x - mid for x in bounds[mid_idx : bi_hi + 1]]
        r, _ = sylr(a_blk, b_blk, c_blk, engine, counter, ab, bb, with_report=False)
        est = sep_estimate(a_blk, b_blk, ab, bb)
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

    vmat = rec(0, len(bounds) - 1)
    s_floor = min(seps) if seps else norm(t, FROBENIUS)
    nt = norm(t, FROBENIUS)
    if s_floor <= 0.0:
        bound = 1.0
    else:
        log_b = EVEC_EXPONENT * math.log10(max(n, 2)) + math.log10(EPS)
        log_b += (2.0 + math.log2(max(n, 2))) * math.log10(max(nt / s_floor, 1.0))
        bound = 1.0 if log_b >= 0.0 else 10.0 ** log_b
    err = EigError(s_floor=s_floor, predicted_evec_bound=bound, flags=flags)
    return vmat, err

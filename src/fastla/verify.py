"""The paper's stability claims as verification suites, one per claim.

A suite ``suite(seed, quick)`` draws its inputs from ``RngStream(seed)``
and returns named checks, ``{"name", "value", "bound", "pass"}``; a check
passes when value <= bound unless it says otherwise.  At the seed of its
acceptance criterion and with ``quick=False``, a suite is that criterion:
``tests/test_acceptance.py`` asserts that every check passes.
``quick=True`` takes fewer sizes and trials from the same input streams and
makes the same checks.  ``fastla verify`` runs the suites.

The input builders the suites share (graded conditioning, planted spectra)
and the contract checks of the spectral drivers live here too, so the
``eig`` and ``svd`` commands and the tests judge results as the suites do.
Nothing in ``fastla`` imports this module.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import baseline, bounds, dd, eig, lu, matmul, qr, sylvester
from .core import EXTENDED, RngStream, as_matrix, gaussian_matrix, norm
from .inverse import spd_inv, theorem1_embedding, tri_inv
from .matmul import MmEngine, OpCounter, fit_exponent, multiply
from .rurv import exact_rank_probe, f_statistic_experiment, haar_orthogonal, rurv

CONV = MmEngine("conv")
STRASSEN = MmEngine("strassen", cutoff=8)
LOG2_7 = math.log2(7.0)


def stable_float(x):
    """A float rounded to 12 significant digits, for deterministic payloads."""
    if x is None or isinstance(x, float) and (math.isnan(x) or math.isinf(x)):
        return x
    return float(f"{x:.12e}")


def check(name: str, value, bound, ok=None) -> dict:
    """One named check; it passes when value <= bound, or when ``ok``."""
    passed = bool(value <= bound) if ok is None else bool(ok)
    return {"name": name, "value": stable_float(float(value)),
            "bound": stable_float(float(bound)), "pass": passed}


def misses(checks) -> list:
    """The checks that fail: [] passes."""
    return [c for c in checks if not c["pass"]]


# ---------------------------------------------------------------------------
# Input builders


def random_triangular(n: int, rng: RngStream, diag_scale=None, shift=0.0) -> np.ndarray:
    """Random upper triangular matrix with controllable diagonal."""
    t = np.triu(gaussian_matrix(n, n, rng))
    if diag_scale is not None:
        t[np.arange(n), np.arange(n)] = diag_scale
    else:
        d = t[np.arange(n), np.arange(n)]
        t[np.arange(n), np.arange(n)] = np.where(d >= 0, d + shift, d - shift) if shift else d
    return t


def triangular_with_condition(n: int, kappa: float, rng: RngStream) -> np.ndarray:
    """Upper triangular with geometrically graded diagonal, kappa-ish conditioning.

    Off-diagonal entries are scaled down so the measured condition number
    stays within a small factor of the diagonal grading.
    """
    t = np.triu(gaussian_matrix(n, n, rng), 1)
    d = kappa ** (-np.arange(n) / max(n - 1, 1))
    scale = 0.1 * np.minimum.outer(d, np.ones(n))
    t = t * scale
    t[np.arange(n), np.arange(n)] = d
    return t


def spd_with_condition(n: int, kappa: float, rng: RngStream) -> np.ndarray:
    """SPD matrix with exact 2-norm condition number kappa (Haar conjugated)."""
    q = haar_orthogonal(n, rng)
    lam = kappa ** (-np.arange(n) / max(n - 1, 1))
    h = (q * lam[None, :]) @ q.T
    return 0.5 * (h + h.T)


def planted_svd(n: int, sigma, rng: RngStream):
    """A = P diag(sigma) Q^T with Haar P, Q; returns (a, p, q)."""
    sigma = np.asarray(sigma, dtype=np.float64)
    p = haar_orthogonal(n, rng.split(0))
    q = haar_orthogonal(n, rng.split(1))
    a = (p * sigma[None, :]) @ q.T
    return a, p, q


def planted_nonsymmetric(n: int, eigs, rng: RngStream, bump_scale: float = 0.5):
    """Orthogonally conjugated quasi-triangular matrix with planted spectrum.

    ``eigs`` is a list of reals and/or complex-conjugate pair markers
    (complex numbers with positive imaginary part, each consuming two
    dimensions).  Returns (a, complex eigenvalue array).
    """
    t = np.triu(gaussian_matrix(n, n, rng.split(0)), 1) * bump_scale
    lam = []
    i = 0
    for e in eigs:
        if isinstance(e, complex) and e.imag != 0.0:
            re, im = e.real, abs(e.imag)
            t[i, i] = re
            t[i + 1, i + 1] = re
            t[i, i + 1] = im
            t[i + 1, i] = -im
            lam.extend([complex(re, im), complex(re, -im)])
            i += 2
        else:
            t[i, i] = float(e.real if isinstance(e, complex) else e)
            lam.append(complex(t[i, i]))
            i += 1
    assert i == n
    q = haar_orthogonal(n, rng.split(1))
    return q @ t @ q.T, np.asarray(lam)


def match_eigs(found, expected) -> float:
    """Max matching distance between two complex multisets (greedy)."""
    found = list(found)
    expected = list(expected)
    worst = 0.0
    for e in expected:
        dists = [abs(f - e) for f in found]
        j = int(np.argmin(dists))
        worst = max(worst, dists[j])
        found.pop(j)
    return worst


def sylvester_dd(a, b, c):
    """Extended-precision column-by-column solve of A R - R B = -C.

    This is the Kronecker-system oracle: the system is permuted
    triangular, so substitution in double-word arithmetic solves it
    exactly up to ~2^-105 roundoff.
    """
    a_dd = dd.DD(as_matrix(a))
    b_dd = dd.DD(as_matrix(b))
    c_dd = dd.DD(as_matrix(c))
    n, m = c_dd.shape
    r = dd.DD(np.zeros((n, m)))
    for j in range(m):
        rhs = -c_dd[:, j : j + 1]
        if j > 0:
            rhs = rhs + r[:, :j] @ b_dd[:j, j : j + 1]
        shift = b_dd[j, j]
        x = dd.DD(np.zeros((n, 1)))
        for i in range(n - 1, -1, -1):
            acc = rhs[i : i + 1, :]
            if i + 1 < n:
                acc = acc - a_dd[i : i + 1, i + 1 :] @ x[i + 1 :, :]
            denom = a_dd[i, i] - shift
            x[i : i + 1, :] = acc / denom
        r[:, j : j + 1] = x
    return r.to_float64()


# ---------------------------------------------------------------------------
# Contract checks of the spectral drivers.  Residuals are relative to
# ||A||_F; ``tag`` prefixes the check names.


def _orth(name, q):
    """Q orthonormal to the backward budget of its order."""
    n = q.shape[1]
    return check(f"{name}-orthogonality", norm(q.T @ q - np.eye(n)), bounds.backward(n))


def _relative(a, residual) -> float:
    return norm(residual) / max(norm(a), 1e-300)


def svd_checks(a, u, s, v, flags=(), s_ref=None, tag="svd") -> list:
    """A = U diag(s) V^T to ``spectral()``, U and V orthonormal, no flags
    and, given the reference s_ref, singular values within
    ``spectral(||A||_F)`` of it."""
    checks = [] if s_ref is None else [
        check(f"{tag}-sigma", np.max(np.abs(s - s_ref)), bounds.spectral(norm(a)))]
    return checks + [check(f"{tag}-reconstruction", _relative(a, a - u @ np.diag(s) @ v.T),
                           bounds.spectral()),
                     _orth(f"{tag}-U", u), _orth(f"{tag}-V", v),
                     check(f"{tag}-flags", len(flags), 0)]


def eig_checks(a, q, lam, lam_ref, tag="eig") -> list:
    """Symmetric eigenproblem: lam within ``spectral(||A||_F)`` of lam_ref as
    sorted lists, A Q = Q diag(lam) to ``spectral()``, and Q orthonormal."""
    err = np.max(np.abs(np.sort(lam) - np.sort(lam_ref)))
    return [check(f"{tag}-eigenvalues", err, bounds.spectral(norm(a))),
            check(f"{tag}-residual", _relative(a, a @ q - q @ np.diag(lam)), bounds.spectral()),
            _orth(f"{tag}-Q", q)]


def schur_checks(a, res, tag="schur") -> list:
    """A = Q T Q^T to ``schur(n, splits)``, Q orthonormal and no flags."""
    return [check(f"{tag}-residual", _relative(a, a - res.q @ res.t @ res.q.T),
                  bounds.schur(a.shape[0], res.n_splits)),
            _orth(f"{tag}-Q", res.q), check(f"{tag}-flags", len(res.flags), 0)]


# ---------------------------------------------------------------------------
# Suites


def bench_matmul(sizes, engine, seed) -> dict:
    rows = []
    rng = RngStream(seed)
    for i, n in enumerate(sizes):
        a = gaussian_matrix(n, n, rng.split(2 * i))
        b = gaussian_matrix(n, n, rng.split(2 * i + 1))
        counter = OpCounter()
        t0 = time.perf_counter()
        multiply(a, b, engine, counter)
        t1 = time.perf_counter()
        a @ b
        rows.append({"n": n, "mults": counter.scalar_mults, "adds": counter.scalar_adds,
                     "seconds": t1 - t0, "blas_seconds": time.perf_counter() - t1})
    return {"rows": rows, "exponent": fit_or_none(sizes, rows)}


def fit_or_none(sizes, rows):
    """The fitted exponent of the rows' mult counts, None when it cannot be fit."""
    try:
        return fit_exponent(sizes, [r["mults"] for r in rows])
    except ValueError:
        return None


def suite_matmul(seed: int, quick: bool) -> list:
    checks = []
    rng = RngStream(seed)
    sizes = [4, 8, 16]
    engines = [MmEngine("blocked"), MmEngine("strassen", cutoff=2)]
    worst = 0.0
    gen = rng.split(0).generator()
    for t in range(5 if quick else 20):
        n = sizes[t % len(sizes)]
        a = np.asarray(gen.integers(-2, 3, size=(n, n)), dtype=np.float64)
        b = np.asarray(gen.integers(-2, 3, size=(n, n)), dtype=np.float64)
        ref = multiply(a, b, CONV)
        for e in engines:
            denom = max(bounds.backward(n) * norm(a) * norm(b), 1e-300)
            worst = max(worst, norm(multiply(a, b, e) - ref) / denom)
    checks.append(check("engine-equivalence", worst, 1.0))
    counter = OpCounter()
    multiply(np.ones((8, 8)), np.ones((8, 8)), MmEngine("strassen", cutoff=1), counter)
    checks.append(check("strassen-count-law-n8", abs(counter.scalar_mults - 343), 0.0))
    bench = bench_matmul([16, 32, 64], MmEngine("strassen", cutoff=1), seed)
    checks.append(check("strassen-exponent", abs(bench["exponent"] - LOG2_7), 0.01))
    bench = bench_matmul([16, 32, 64], CONV, seed)
    checks.append(check("conventional-exponent", abs(bench["exponent"] - 3.0), 0.01))
    model = matmul.measure_mm_error(32, CONV, 2 if quick else 5, rng.split(1))
    checks.append(check("conv-error-model", model.observed_constant, 32.0))
    return checks


def suite_qr(seed: int, quick: bool) -> list:
    """Criterion 4: QRR residual and orthogonality on both engines, and a
    consistent least-squares solve."""
    rng = RngStream(seed)
    sizes, trials = ((16,), 5) if quick else ((16, 64, 128), 100)
    worst = 0.0
    for n in sizes:
        for engine in (CONV, STRASSEN):
            for t in range(trials):
                rep = qr.qrr(gaussian_matrix(n, n, rng.split(n * 1000 + t)), engine).report
                worst = max(worst, max(rep.residual, rep.orth_defect) / rep.bound)
    n = sizes[-1]
    a = gaussian_matrix(2 * n, n, rng.split(1))
    x0 = gaussian_matrix(n, 1, rng.split(2))
    x = qr.solve_ls(a, a @ x0)
    return [check("qrr-residual-and-orth-vs-bound", worst, 1.0),
            check("ls-consistent-solve", np.linalg.norm(x - x0) / np.linalg.norm(x0),
                  bounds.backward(n) * 1e3)]


def suite_lu(seed: int, quick: bool) -> list:
    """Criterion 5: LUR's growth-scaled residual on both engines, |L| <= 1,
    and GEPP's pivot sequence."""
    rng = RngStream(seed)
    sizes, trials, pivot_trials = ((16,), 5, 10) if quick else ((16, 64, 128), 100, 200)
    worst = worst_l = 0.0
    for n in sizes:
        for engine in (CONV, STRASSEN):
            for t in range(trials):
                res = lu.lur(gaussian_matrix(n, n, rng.split(n * 1000 + t)), engine)
                worst = max(worst, res.report.residual / res.report.bound)
                worst_l = max(worst_l, float(np.max(np.abs(res.l))) - 1.0)
    unlike = 0
    for t in range(pivot_trials):
        a = gaussian_matrix(16, 16, rng.split(777_000 + t))
        unlike += not (lu.lur(a, CONV).p == baseline.gepp_lu(a)[0]).all()
    return [check("lur-residual-vs-growth-bound", worst, 1.0),
            check("lur-pivot-magnitude", worst_l, 1e-12),
            check("lur-pivots-unlike-gepp", unlike, 0)]


def suite_inverse(seed: int, quick: bool) -> list:
    """Criterion 7: triangular and SPD inversion within their recurrence
    bounds over a kappa sweep, and backward grade in extended precision."""
    rng = RngStream(seed)
    n = 16 if quick else 64
    checks = []
    for kappa in (10.0, 1e2, 1e3, 1e4):
        t = triangular_with_condition(n, kappa, rng.split(int(kappa)))
        h = spd_with_condition(n, kappa, rng.split(int(kappa) + 1))
        for kind, a, invert, oracle in (("tri", t, tri_inv, dd.inv_upper),
                                        ("spd", h, spd_inv, dd.spd_inv)):
            x, rep = invert(a)
            truth = oracle(a).to_float64()
            checks.append(check(f"{kind}-inv-forward-k{kappa:.0e}", norm(x - truth) / norm(truth),
                                rep.forward_bound))
            rep = invert(a, precision=EXTENDED)[1]
            checks.append(check(f"{kind}-inv-extended-backward-grade-k{kappa:.0e}",
                                rep.residual, rep.bound))
    return checks


def suite_theorem1(seed: int, quick: bool) -> list:
    """Criterion 8: the product A B read off a block inverse."""
    rng = RngStream(seed)
    worst = 0.0
    for t in range(10 if quick else 100):
        n = 4 + (t % 29)
        a = gaussian_matrix(n, n, rng.split(2 * t))
        b = gaussian_matrix(n, n, rng.split(2 * t + 1))
        err = norm(theorem1_embedding(a, b) - multiply(a, b, CONV))
        worst = max(worst, err / (bounds.spectral(norm(a)) * norm(b)))
    return [check("theorem1-embedding", worst, 1.0)]


def suite_rurv(seed: int, quick: bool) -> list:
    """Criterion 9: RURV reconstruction, the rank-revealing theorem's bounds
    on a planted spectrum, and exact-rank recovery."""
    rng = RngStream(seed)
    sizes, trials, seeds, probes = ((16,), 5, 2, 10) if quick else ((16, 64, 128), 40, 50, 100)
    worst = 0.0
    for t in range(trials):
        n = sizes[t % len(sizes)]
        rep = rurv(gaussian_matrix(n, n, rng.split(t)), CONV, rng.split(1000 + t)).report
        worst = max(worst, rep.residual / rep.bound)
    # Planted spectrum at n = 64 with a gap of 1e6 after r = 8.
    n, r = 64, 8
    sigma = np.concatenate([np.linspace(2.0, 1.0, r), np.full(n - r, 1e-6)])
    broken = 0
    for t in range(seeds):
        sub = rng.split(5000 + t)
        a, p, q = planted_svd(n, sigma, sub.split(0))
        res = rurv(a, CONV, sub.split(1))
        f = baseline.jacobi_svd((q.T @ res.v.T)[:r, :r])[1][-1]
        lead_min = baseline.jacobi_svd(res.r[:r, :r])[1][-1]
        trail_max = baseline.jacobi_svd(res.r[r:, r:])[1][0]
        broken += not lead_min >= f * sigma[r - 1] * (1 - 1e-6)
        broken += not lead_min <= math.sqrt(2.0) * sigma[r - 1] * (1 + 1e-6)
        broken += not trail_max >= sigma[r] * (1 - 1e-6)
        if sigma[r] < f * sigma[r - 1]:
            denom = 1.0 - sigma[r] ** 2 / (f ** 2 * sigma[r - 1] ** 2)
            theorem = 3.0 * sigma[r] * f ** -4 * (sigma[0] / sigma[r - 1]) ** 3 / denom
            broken += not trail_max <= theorem
    sig5 = np.concatenate([np.linspace(2.0, 1.0, 5), np.zeros(27)])
    missed = 0
    for t in range(probes):
        sub = rng.split(9000 + t)
        missed += exact_rank_probe(planted_svd(32, sig5, sub.split(0))[0], CONV, sub.split(1)) != 5
    return [check("rurv-reconstruction-vs-bound", worst, 1.0),
            check("rurv-theorem-bounds-broken", broken, 0),
            check("exact-rank-probe-missed", missed, 0)]


def suite_fstat(seed: int, quick: bool) -> list:
    """Criterion 10: Pr[f < a/(r^2 sqrt(n))] for the RURV statistic f, at
    (32, 16) on ``RngStream(seed)`` and (64, 32) on ``RngStream(seed + 1)``."""
    checks = []
    for i, (n, r) in enumerate([(32, 16), (64, 32)]):
        below = f_statistic_experiment(n, r, 50 if quick else 500, RngStream(seed + i)).prob_below
        checks += [check(f"fstat-prob-below-n{n}-r{r}-a1", below[1.0], 0.25),
                   check(f"fstat-prob-below-n{n}-r{r}-a0.5", below[0.5], 0.5)]
    return checks


def suite_sylvester(seed: int, quick: bool) -> list:
    """Criterion 11: SylR against the conventional solver on an exhaustive
    size grid, its residual and forward error on pairs with sep >= 1, and
    sep monotone under splitting."""
    rng = RngStream(seed)
    grid, n, trials, small = (4, 16, 3, 4) if quick else (16, 64, 100, 8)
    problems = []
    for i in range(1, grid + 1):
        for j in range(1, grid + 1):
            sub = rng.split(i * 100 + j)
            a = random_triangular(i, sub.split(0), shift=3.0)
            b = random_triangular(j, sub.split(1), shift=3.0)
            b[np.arange(j), np.arange(j)] *= -1.0
            problems.append(sylvester.SylvesterProblem(a, b, gaussian_matrix(i, j, sub.split(2))))
    checks = [check("sylr-oracle-equivalence", sylvester.sylr_oracle_equivalence(problems), 1e3)]

    def sep_ge_one_pair(sub):
        # Near-normal triangular pairs: damped off-diagonals, spectra 6 apart.
        a = np.triu(gaussian_matrix(n, n, sub.split(0)), 1) * 0.1
        b = np.triu(gaussian_matrix(n, n, sub.split(1)), 1) * 0.1
        return a + np.diag(np.linspace(3.0, 4.0, n)), b + np.diag(np.linspace(-4.0, -3.0, n))

    worst = 0.0
    for t in range(trials):
        sub = rng.split(50_000 + t)
        a, b = sep_ge_one_pair(sub)
        rep = sylvester.sylr(a, b, gaussian_matrix(n, n, sub.split(2)))[1]
        worst = max(worst, rep.residual)
    # Every trial is n-by-n, so every report has the same bound.
    checks.append(check("sylr-residual", worst, rep.bound))
    a, b = sep_ge_one_pair(rng.split(333))
    c = gaussian_matrix(n, n, rng.split(3))
    truth = sylvester_dd(a, b, c)
    fwd = norm(sylvester.sylr(a, b, c)[0] - truth) / norm(truth)
    checks.append(check("sylr-forward-vs-dd", fwd, 1e-10))
    sep = sylvester.sep_estimate(a, b).value
    checks.append(check("sep-at-least-one", sep, 1.0, ok=sep >= 1.0))
    a = random_triangular(small, rng.split(4), shift=2.0)
    b = random_triangular(small, rng.split(5), shift=2.0)
    b[np.arange(small), np.arange(small)] *= -1.0
    parent = sylvester.sep_estimate(a, b).value
    drop = max(parent - sylvester.sep_estimate(sa, sb).value
               for i in range(1, small) for j in range(1, small)
               for sa in (a[:i, :i], a[i:, i:]) for sb in (b[:j, :j], b[j:, j:]))
    checks.append(check("sep-subproblem-monotonicity", drop, 1e-10))
    return checks


# A planted nonsymmetric spectrum: 20 reals and 6 complex pairs, 32 rows.
PLANTED_EIGS = [3.0, -2.5, 1.5, complex(0.5, 2.0), complex(-1.0, 1.0), 2.0, -0.5,
                0.8, complex(1.8, 0.7), -3.0, 0.1, -1.7, 0.3, complex(-2.2, 1.5),
                1.1, -1.2, 2.6, complex(0.9, 3.0), -0.9, 1.9, complex(-3.1, 0.4),
                0.55, -2.8, 3.3, -0.25, 0.42]


def suite_schur(seed: int, quick: bool) -> list:
    """Criterion 12: Schur divide-and-conquer on a symmetric and a planted
    nonsymmetric input on both engines, and the exact NormA21 recurrence."""
    rng = RngStream(seed)
    n, eigs, profiles = (24, PLANTED_EIGS[:16], 2) if quick else (64, PLANTED_EIGS, 10)
    a = gaussian_matrix(n, n, rng.split(0))
    a = a + a.T
    lam_ref = baseline.jacobi_eig(a)[1]
    b, lam_b = planted_nonsymmetric(sum(1 + isinstance(e, complex) for e in eigs), eigs,
                                    rng.split(2), bump_scale=0.3)
    checks = []
    for engine in (CONV, STRASSEN):
        res = eig.schur_dandc(a, engine, rng=rng.split(1), symmetric=True)
        res_b = eig.schur_dandc(b, engine, rng=rng.split(3))
        tag = f"{engine.kind}-symmetric"
        # Q's orthogonality is checked once, with the Schur form.
        checks += eig_checks(a, res.q, np.diag(res.t), lam_ref, tag)[:2]
        checks += schur_checks(a, res, f"{tag}-schur")
        checks += schur_checks(b, res_b, f"{engine.kind}-planted-schur")
        checks.append(check(f"{engine.kind}-planted-eigenvalues",
                            match_eigs(sylvester.block_eigenvalues(res_b.t), lam_b),
                            bounds.spectral(norm(b))))
    gen = rng.split(4).generator()
    worst = 0.0
    for _ in range(profiles):
        m = np.asarray(gen.integers(-9, 10, size=(12, 12)), dtype=np.float64)
        direct = np.array([np.sum(np.abs(m[i + 1 :, : i + 1])) for i in range(11)])
        worst = max(worst, float(np.max(np.abs(eig.norm_a21_profile(m) - direct))))
    return checks + [check("norm-a21-recurrence-exact", worst, 0.0)]


def suite_eig(seed: int, quick: bool) -> list:
    """Criterion 13: symmetric eigenvalues and singular values against the
    Jacobi oracles, with residuals, orthogonality and the SVD's flags."""
    rng = RngStream(seed)
    n, m = (24, 20) if quick else (64, 48)
    a = gaussian_matrix(n, n, rng.split(0))
    a = a + a.T
    q, lam = eig.symmetric_eig(a, rng=rng.split(1))
    b = gaussian_matrix(m, m, rng.split(2))
    u, s, v, flags = eig.svd_via_gram(b, rng=rng.split(3))
    return (eig_checks(a, q, lam, baseline.jacobi_eig(a)[1], "symmetric-eig")
            + svd_checks(b, u, s, v, flags, baseline.jacobi_svd(b)[1]))


def suite_evecr(seed: int, quick: bool) -> list:
    """Criterion 14: EVecR's eigenvector residual within its bound, and its
    Strassen mult count growing with exponent log2 7."""
    rng = RngStream(seed)
    n, sizes = (16, [16, 32, 64]) if quick else (64, [64, 128, 256])
    t = random_triangular(n, rng.split(0), diag_scale=np.linspace(1.0, 0.5 * (n + 1), n))
    v, err = eig.evecr(t)
    worst = max(np.linalg.norm(t @ v[:, i] - t[i, i] * v[:, i]) for i in range(n))
    counts = []
    for m in sizes:
        counter = OpCounter()
        tm = random_triangular(m, rng.split(m), diag_scale=np.linspace(1.0, float(m), m))
        eig.evecr(tm, MmEngine("strassen", cutoff=1), counter)
        counts.append(counter.scalar_mults)
    slope = fit_exponent(sizes, counts)
    return [check("evecr-residual-vs-bound", worst / norm(t) / err.predicted_evec_bound, 1.0),
            check("evecr-exponent-within-0.15-of", slope, LOG2_7,
                  ok=abs(slope - LOG2_7) <= 0.15)]


SUITES = {"matmul": suite_matmul, "qr": suite_qr, "lu": suite_lu, "inverse": suite_inverse,
          "theorem1": suite_theorem1, "rurv": suite_rurv, "fstat": suite_fstat,
          "sylvester": suite_sylvester, "schur": suite_schur, "eig": suite_eig,
          "evecr": suite_evecr}

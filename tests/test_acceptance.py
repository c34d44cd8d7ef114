"""Acceptance suite: every criterion at its stated tolerance, one
pass/fail line each (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import math
import time

import numpy as np
import pytest

from fastla import dd
from fastla.core import EPS, EXTENDED, RngStream, gaussian_matrix, norm
from fastla.baseline import (BlockConfig, block_lu, gepp_lu, jacobi_eig, jacobi_svd,
                             pivot_growth)
from fastla.cli import bench_factor, bench_matmul, fit_block_cost_model, main, payload_bytes
from fastla.eig import (default_split_tol, evecr, norm_a21_profile, schur_dandc, svd_via_gram,
                        symmetric_eig)
from fastla.inverse import spd_inv, theorem1_embedding, tri_inv
from fastla.lu import lur
from fastla.matmul import MmEngine, OpCounter, fit_exponent, multiply
from fastla.qr import columnwise_scale_wrap, qrr
from fastla.rurv import exact_rank_probe, f_statistic_experiment, rurv
from fastla.sylvester import (SylvesterProblem, block_eigenvalues, sep_estimate, sylr,
                              sylr_oracle_equivalence, sylvester_dd)

from helpers import (dd_residual_lu, match_eigs, planted_nonsymmetric, planted_svd,
                     random_triangular, spd_with_condition, triangular_with_condition)

CONV = MmEngine("conv")
LOG2_7 = math.log2(7.0)

_strassen_exponent_cache = {}


def report(num, desc, passed, detail=""):
    line = f"criterion {num:2d}: {'PASS' if passed else 'FAIL'} - {desc}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert passed, line


def _strassen_exponent():
    if "gamma" not in _strassen_exponent_cache:
        data = bench_matmul([16, 32, 64, 128, 256], MmEngine("strassen", cutoff=1), seed=2)
        _strassen_exponent_cache["gamma"] = data["exponent"]
    return _strassen_exponent_cache["gamma"]


def test_criterion_01_strassen_count_law():
    t0 = time.time()
    gamma = _strassen_exponent()
    conv = bench_matmul([16, 32, 64, 128, 256], CONV, seed=2)["exponent"]
    elapsed = time.time() - t0
    ok = abs(gamma - LOG2_7) <= 0.01 and abs(conv - 3.0) <= 0.01 and elapsed < 60.0
    report(1, "strassen/conventional matmul count-law exponents", ok,
           f"strassen {gamma:.4f} vs {LOG2_7:.4f}, conv {conv:.4f}, {elapsed:.1f}s")


def test_criterion_02_recursive_cost_inheritance():
    t0 = time.time()
    sizes = [64, 128, 256, 512]
    fast = MmEngine("strassen", cutoff=1)
    results = {}
    results["qrr/strassen"] = bench_factor(qrr, sizes, fast, seed=3)["exponent"]
    results["qrr/conv"] = bench_factor(qrr, sizes, CONV, seed=3)["exponent"]
    results["lur/strassen"] = bench_factor(lur, sizes, fast, seed=3)["exponent"]
    results["lur/conv"] = bench_factor(lur, sizes, CONV, seed=3)["exponent"]
    elapsed = time.time() - t0
    ok = (abs(results["qrr/strassen"] - LOG2_7) <= 0.15
          and abs(results["lur/strassen"] - LOG2_7) <= 0.15
          and abs(results["qrr/conv"] - 3.0) <= 0.15
          and abs(results["lur/conv"] - 3.0) <= 0.15
          and elapsed < 600.0)
    detail = ", ".join(f"{k} {v:.3f}" for k, v in results.items()) + f", {elapsed:.0f}s"
    report(2, "qrr/lur mult-count exponents inherit the engine exponent", ok, detail)


def test_criterion_03_block_exponent_formula():
    # The b of the cost analysis is the balance point of the two cost
    # terms ("choose b to make n^2 b = n^3 b^(gamma-3)"), so the measured
    # analog is the crossing of the tallied panel and update costs; the
    # raw count argmin sits ~3x lower because the update constant is ~1/3
    # and the curve is flat (see the decisions notes).
    t0 = time.time()
    gamma = _strassen_exponent()
    engine = MmEngine("strassen", cutoff=1)
    rng = RngStream(4)
    rows = []
    balance_ok = True
    ratios = []
    for i, n in enumerate([128, 256, 512]):
        a = gaussian_matrix(n, n, rng.split(i))
        pts = []
        for b in [8, 16, 32, 64, 128, 256, 512]:
            if b > n:
                continue
            pc, uc = OpCounter(), OpCounter()
            block_lu(a, BlockConfig(b, gamma), engine, pc, uc)
            rows.append({"n": n, "b": b, "mults": pc.scalar_mults + uc.scalar_mults})
            pts.append((b, pc.scalar_mults, uc.scalar_mults))
        crossing = None
        diffs = [(b, math.log(p) - math.log(u)) for b, p, u in pts if u > 0 and p > 0]
        for (b1, d1), (b2, d2) in zip(diffs, diffs[1:]):
            if d1 <= 0.0 <= d2:
                t = abs(d1) / (abs(d1) + abs(d2))
                crossing = math.exp(math.log(b1) + t * (math.log(b2) - math.log(b1)))
                break
        b_star = n ** (1.0 / (4.0 - gamma))
        balance_ok = balance_ok and crossing is not None and \
            b_star / 2.0 <= crossing <= 2.0 * b_star
        if crossing:
            ratios.append(crossing / b_star)
    fit = fit_block_cost_model(rows, gamma)
    elapsed = time.time() - t0
    ok = fit["max_rel_err"] <= 0.20 and balance_ok and elapsed < 600.0
    report(3, "block-LU two-term cost model and cost-balancing block size", ok,
           f"max rel err {fit['max_rel_err']:.3f}, balance-b/b* = "
           + ", ".join(f"{r:.2f}" for r in ratios) + f", {elapsed:.0f}s")


def test_criterion_04_qrr_backward_stability():
    rng = RngStream(5)
    worst = 0.0
    failures = 0
    for n in (16, 64, 128):
        for tag, engine, slack in [("conv", CONV, 1.0),
                                   ("strassen", MmEngine("strassen", cutoff=8), 10.0)]:
            bound = slack * 1e3 * n * n * EPS
            for t in range(100):
                a = gaussian_matrix(n, n, rng.split(n * 1000 + t))
                res = qrr(a, engine)
                stat = max(res.report.residual, res.report.orth_defect)
                worst = max(worst, stat / bound)
                failures += stat > bound
    report(4, "QRR residual/orthogonality bounds, 100 trials x 3 sizes x 2 engines",
           failures == 0, f"worst ratio to bound {worst:.3f}")


def test_criterion_05_lur_stability_and_pivots():
    rng = RngStream(6)
    failures = 0
    worst = 0.0
    for n in (16, 64, 128):
        for engine in (CONV, MmEngine("strassen", cutoff=8)):
            for t in range(100):
                a = gaussian_matrix(n, n, rng.split(n * 1000 + t))
                res = lur(a, engine)
                g = pivot_growth(a, res.u)
                bound = 1e3 * n * n * EPS * g
                worst = max(worst, res.report.residual / bound)
                failures += res.report.residual > bound
    pivot_agree = True
    for t in range(200):
        a = gaussian_matrix(16, 16, rng.split(777_000 + t))
        p_ref, _, _ = gepp_lu(a)
        pivot_agree = pivot_agree and bool((lur(a, CONV).p == p_ref).all())
    report(5, "LUR growth-scaled residual bound and GEPP pivot equality",
           failures == 0 and pivot_agree,
           f"worst ratio {worst:.3f}, pivots 200/200: {pivot_agree}")


def test_criterion_06_columnwise_scaling():
    rng = RngStream(7)
    n = 32
    fast = MmEngine("strassen", cutoff=4)
    a = gaussian_matrix(n, n, rng)
    a[:, 20] *= 1e9
    wrapped = columnwise_scale_wrap(a, lambda m: qrr(m, fast))
    raw = qrr(a, fast)

    def per_col(res):
        rfull = np.zeros((n, n))
        rfull[:n] = res.r
        recon = res.q.apply_q(rfull, CONV)
        return np.linalg.norm(a - recon, axis=0) / np.linalg.norm(a, axis=0)

    improvement = np.max(per_col(raw)) / np.max(per_col(wrapped.result))
    report(6, "columnwise scaling restores per-column backward error",
           improvement >= 1e4, f"improvement factor {improvement:.2e}")


def test_criterion_07_inversion_logarithmic_stability():
    rng = RngStream(8)
    n = 64
    ok = True
    details = []
    for kappa in (10.0, 1e2, 1e3, 1e4):
        t = triangular_with_condition(n, kappa, rng.split(int(kappa)))
        x, rep = tri_inv(t)
        truth = dd.inv_upper(t).to_float64()
        fwd = norm(x - truth) / norm(truth)
        ok = ok and fwd <= rep.predicted_bound
        details.append(f"tri k={kappa:.0e} fwd={fwd:.1e}<=bound={rep.predicted_bound:.1e}")
        h = spd_with_condition(n, kappa, rng.split(int(kappa) + 1))
        xs, reps = spd_inv(h)
        truth_s = dd.spd_inv(h).to_float64()
        fwd_s = norm(xs - truth_s) / norm(truth_s)
        ok = ok and fwd_s <= reps.predicted_bound
        # Extended precision reaches the backward-stable reference grade.
        xe, repe = tri_inv(t, precision=EXTENDED)
        ok = ok and repe.residual_left <= 1e3 * n * n * EPS * repe.kappa
        xse, repse = spd_inv(h, precision=EXTENDED)
        ok = ok and repse.residual_left <= 1e3 * n * n * EPS * repse.kappa
    report(7, "tri/SPD inversion within recurrence bounds; extended = backward grade",
           ok, "; ".join(details[:2]) + " ...")


def test_criterion_08_theorem1_embedding():
    rng = RngStream(9)
    worst = 0.0
    for t in range(100):
        n = 4 + (t % 29)
        a = gaussian_matrix(n, n, rng.split(2 * t))
        b = gaussian_matrix(n, n, rng.split(2 * t + 1))
        got = theorem1_embedding(a, b)
        ref = multiply(a, b, CONV)
        worst = max(worst, norm(got - ref) / (1e4 * EPS * norm(a) * norm(b)))
    report(8, "matrix product extracted from block inversion (Theorem route)",
           worst <= 1.0, f"worst ratio {worst:.3f}")


def test_criterion_09_rurv_rank_revealing():
    rng = RngStream(10)
    # Reconstruction residual on random matrices.
    recon_ok = True
    for t in range(40):
        n = (16, 64, 128)[t % 3]
        a = gaussian_matrix(n, n, rng.split(t))
        res = rurv(a, CONV, rng.split(1000 + t))
        recon_ok = recon_ok and res.report.residual <= 1e3 * n * n * EPS
    # Planted-spectrum bounds at n=64, gap 1e6, 50 seeds.
    n, r = 64, 8
    sigma = np.concatenate([np.linspace(2.0, 1.0, r), np.full(n - r, 1e-6)])
    bounds_ok = True
    for t in range(50):
        sub = rng.split(5000 + t)
        a, p, q = planted_svd(n, sigma, sub.split(0))
        res = rurv(a, CONV, sub.split(1))
        x = q.T @ res.v.T
        f = jacobi_svd(x[:r, :r])[1][-1]
        lead_min = jacobi_svd(res.r[:r, :r])[1][-1]
        trail_max = jacobi_svd(res.r[r:, r:])[1][0]
        bounds_ok = bounds_ok and lead_min >= f * sigma[r - 1] * (1 - 1e-6)
        bounds_ok = bounds_ok and lead_min <= math.sqrt(2.0) * sigma[r - 1] * (1 + 1e-6)
        bounds_ok = bounds_ok and trail_max >= sigma[r] * (1 - 1e-6)
        if sigma[r] < f * sigma[r - 1]:
            denom = 1.0 - sigma[r] ** 2 / (f ** 2 * sigma[r - 1] ** 2)
            theorem = 3.0 * sigma[r] * f ** -4 * (sigma[0] / sigma[r - 1]) ** 3 / denom
            bounds_ok = bounds_ok and trail_max <= theorem
    # Exact-rank recovery, 100 seeds.
    sig5 = np.concatenate([np.linspace(2.0, 1.0, 5), np.zeros(27)])
    hits = 0
    for t in range(100):
        sub = rng.split(9000 + t)
        a, _, _ = planted_svd(32, sig5, sub.split(0))
        hits += exact_rank_probe(a, CONV, sub.split(1)) == 5
    report(9, "RURV reconstruction, Theorem bounds (50 seeds), rank probe 100/100",
           recon_ok and bounds_ok and hits == 100,
           f"recon {recon_ok}, bounds {bounds_ok}, probe {hits}/100")


def test_criterion_10_f_statistic():
    p1 = f_statistic_experiment(32, 16, 500, RngStream(11)).prob_below[1.0]
    p2 = f_statistic_experiment(64, 32, 500, RngStream(12)).prob_below[1.0]
    report(10, "Pr[f < 1/(r^2 sqrt(n))] <= 0.25 at (32,16) and (64,32), 500 trials",
           p1 <= 0.25 and p2 <= 0.25, f"p={p1:.3f}, {p2:.3f}")


def test_criterion_11_sylvester():
    rng = RngStream(13)
    # Exhaustive (n, m) grid up to 16: stat normalized by sep_estimate
    # (exact to roundoff) stays within the 1e3 band.
    problems = []
    for n in range(1, 17):
        for m in range(1, 17):
            sub = rng.split(n * 100 + m)
            a = random_triangular(n, sub.split(0), shift=3.0)
            b = random_triangular(m, sub.split(1), shift=3.0)
            b[np.arange(m), np.arange(m)] *= -1.0
            problems.append(SylvesterProblem(a, b, gaussian_matrix(n, m, sub.split(2))))
    stat = sylr_oracle_equivalence(problems)
    grid_ok = stat <= 1e3
    # 100 random 64x64 constructed with sep >= 1: near-normal triangular
    # pairs (damped off-diagonals, spectra split by a gap of 6).
    def _sep_ge_one_pair(sub):
        a = np.triu(gaussian_matrix(64, 64, sub.split(0)), 1) * 0.1
        a += np.diag(np.linspace(3.0, 4.0, 64))
        b = np.triu(gaussian_matrix(64, 64, sub.split(1)), 1) * 0.1
        b += np.diag(np.linspace(-4.0, -3.0, 64))
        return a, b

    rand_ok = True
    for t in range(100):
        sub = rng.split(50_000 + t)
        a, b = _sep_ge_one_pair(sub)
        c = gaussian_matrix(64, 64, sub.split(2))
        r, rep = sylr(a, b, c)
        rand_ok = rand_ok and rep.residual <= 1e3 * 128 * 128 * EPS
    a64, b64 = _sep_ge_one_pair(rng.split(333))
    c64 = gaussian_matrix(64, 64, rng.split(3))
    r64, _ = sylr(a64, b64, c64)
    truth = sylvester_dd(a64, b64, c64)
    fwd64 = norm(r64 - truth) / norm(truth)
    sep_ok = sep_estimate(a64, b64).value >= 1.0
    # Subproblem sep monotonicity on enumerated 2x2 splits of an 8x8 pair.
    a8 = random_triangular(8, rng.split(4), shift=2.0)
    b8 = random_triangular(8, rng.split(5), shift=2.0)
    b8[np.arange(8), np.arange(8)] *= -1.0
    parent = sep_estimate(a8, b8).value
    mono = True
    for i in range(1, 8):
        for j in range(1, 8):
            for sa, sb in [(a8[:i, :i], b8[:j, :j]), (a8[:i, :i], b8[j:, j:]),
                           (a8[i:, i:], b8[:j, :j]), (a8[i:, i:], b8[j:, j:])]:
                mono = mono and sep_estimate(sa, sb).value >= parent - 1e-10
    report(11, "SylR oracle equivalence (exhaustive grid + 64x64), sep monotonicity",
           grid_ok and rand_ok and mono and sep_ok and fwd64 <= 1e-10,
           f"grid stat {stat:.2f}, 64x64 fwd {fwd64:.1e}, monotone {mono}")


def test_criterion_12_schur_divide_and_conquer():
    rng = RngStream(14)
    ok = True
    details = []
    # Random symmetric (Jacobi oracle).
    n = 64
    a = gaussian_matrix(n, n, rng.split(0))
    a = a + a.T
    res = schur_dandc(a, rng=rng.split(1), symmetric=True)
    lam = np.sort(np.diag(res.t))
    lam_o = np.sort(jacobi_eig(a)[1])
    ok &= not res.flags
    ok &= float(np.max(np.abs(lam - lam_o))) <= 1e4 * EPS * norm(a)
    ok &= norm(a - res.q @ res.t @ res.q.T) <= 10 * max(res.n_splits, 1) * \
        default_split_tol(n) * norm(a)
    ok &= norm(res.q.T @ res.q - np.eye(n)) <= 1e3 * n * n * EPS
    details.append(f"sym eig err {np.max(np.abs(lam - lam_o)):.1e}")
    # Random normal-ish: orthogonally conjugated quasi-triangular, analytic.
    eigs = [3.0, -2.5, 1.5, complex(0.5, 2.0), complex(-1.0, 1.0), 2.0, -0.5,
            0.8, complex(1.8, 0.7), -3.0, 0.1, -1.7, 0.3, complex(-2.2, 1.5),
            1.1, -1.2, 2.6, complex(0.9, 3.0), -0.9, 1.9, complex(-3.1, 0.4),
            0.55, -2.8, 3.3, -0.25, 0.42]
    dims = sum(2 if isinstance(e, complex) else 1 for e in eigs)
    b, lam_true = planted_nonsymmetric(dims, eigs, rng.split(2), bump_scale=0.3)
    res_b = schur_dandc(b, rng=rng.split(3))
    ok &= not res_b.flags
    err_b = match_eigs(block_eigenvalues(res_b.t), lam_true)
    ok &= err_b <= 1e4 * EPS * norm(b)
    ok &= norm(b - res_b.q @ res_b.t @ res_b.q.T) <= 10 * max(res_b.n_splits, 1) * \
        default_split_tol(dims) * norm(b)
    details.append(f"planted eig err {err_b:.1e}")
    # NormA21 recurrence exact on integer matrices.
    gen = rng.split(4).generator()
    for _ in range(10):
        m = np.asarray(gen.integers(-9, 10, size=(12, 12)), dtype=np.float64)
        prof = norm_a21_profile(m)
        direct = np.array([np.sum(np.abs(m[i + 1 :, : i + 1])) for i in range(11)])
        ok &= bool(np.array_equal(prof, direct))
    report(12, "Schur D&C stability, eigenvalue agreement, exact NormA21",
           bool(ok), "; ".join(details))


def test_criterion_13_symmetric_eig_and_svd():
    rng = RngStream(15)
    n = 64
    a = gaussian_matrix(n, n, rng.split(0))
    a = a + a.T
    q, lam = symmetric_eig(a, rng=rng.split(1))
    lam_o = jacobi_eig(a)[1]
    na = norm(a)
    eig_err = float(np.max(np.abs(lam - lam_o)))
    ok = eig_err <= 1e4 * EPS * na
    b = gaussian_matrix(48, 48, rng.split(2))
    u, s, v, flags = svd_via_gram(b, rng=rng.split(3))
    s_o = jacobi_svd(b)[1]
    nb = norm(b)
    svd_err = float(np.max(np.abs(s - s_o)))
    recon = norm(b - u @ np.diag(s) @ v.T)
    ok = ok and svd_err <= 1e4 * EPS * nb and recon <= 1e4 * EPS * nb
    report(13, "symmetric eigenvalues and singular values vs Jacobi oracles",
           ok, f"eig err {eig_err:.1e}, svd err {svd_err:.1e}, recon {recon:.1e}")


def test_criterion_14_evecr():
    rng = RngStream(16)
    n = 64
    t = random_triangular(n, rng.split(0), diag_scale=np.linspace(1.0, 0.5 * (n + 1), n))
    v, err = evecr(t)
    worst = max(np.linalg.norm(t @ v[:, i] - t[i, i] * v[:, i]) for i in range(n))
    resid_ok = worst / norm(t) <= err.predicted_evec_bound
    sizes = [64, 128, 256]
    counts = []
    for m in sizes:
        tm = random_triangular(m, rng.split(m), diag_scale=np.linspace(1.0, float(m), m))
        counter = OpCounter()
        evecr(tm, MmEngine("strassen", cutoff=1), counter)
        counts.append(counter.scalar_mults)
    slope = fit_exponent(sizes, counts)
    cost_ok = abs(slope - LOG2_7) <= 0.15
    report(14, "EVecR residual within common bound; cost inherits engine exponent",
           resid_ok and cost_ok,
           f"worst resid ratio {worst / norm(t) / err.predicted_evec_bound:.3f}, "
           f"slope {slope:.3f}")


def test_criterion_15_end_to_end_determinism(tmp_path):
    t0 = time.time()
    reports = []
    for i in range(2):
        path = tmp_path / f"run{i}.json"
        code = main(["verify", "all", "--quick", "--seed", "7",
                     "--report", str(path)])
        assert code == 0
        import json

        reports.append(payload_bytes(json.loads(path.read_text())))
    elapsed = time.time() - t0
    report(15, "verify all --quick twice: byte-identical payloads",
           reports[0] == reports[1] and elapsed <= 300.0,
           f"{len(reports[0])} payload bytes, {elapsed:.1f}s total")

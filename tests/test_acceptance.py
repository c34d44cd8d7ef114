"""Acceptance suite: every criterion at its stated tolerance, one
pass/fail line each (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import math
import time

import numpy as np

from fastla import verify
from fastla.core import RngStream, gaussian_matrix
from fastla.baseline import BlockConfig, block_lu
from fastla.cli import bench_factor, fit_block_cost_model, main, payload_bytes
from fastla.lu import lur
from fastla.matmul import MmEngine, OpCounter
from fastla.qr import columnwise_scale_wrap, qrr
from fastla.verify import bench_matmul

CONV = MmEngine("conv")
LOG2_7 = math.log2(7.0)

_strassen_exponent_cache = {}


def report(num, desc, passed, detail=""):
    line = f"criterion {num:2d}: {'PASS' if passed else 'FAIL'} - {desc}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert passed, line


def run_suite(num, desc, suite, seed):
    """Criterion ``num`` is ``fastla verify``'s suite at its seed, in full;
    the quick run makes the same checks."""
    checks = verify.SUITES[suite](seed, quick=False)
    quick = verify.SUITES[suite](seed, quick=True)
    assert [c["name"] for c in quick] == [c["name"] for c in checks]
    report(num, desc, not verify.misses(checks),
           ", ".join(f"{c['name']} {c['value']:.4g} (bound {c['bound']:.4g})" for c in checks))


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
            block_lu(a, BlockConfig(b), engine, pc, uc)
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
    run_suite(4, "QRR residual/orthogonality bounds, 100 trials x 3 sizes x 2 engines", "qr", 5)


def test_criterion_05_lur_stability_and_pivots():
    run_suite(5, "LUR growth-scaled residual bound and GEPP pivot equality", "lu", 6)


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
    run_suite(7, "tri/SPD inversion within recurrence bounds; extended = backward grade",
              "inverse", 8)


def test_criterion_08_theorem1_embedding():
    run_suite(8, "matrix product extracted from block inversion (Theorem route)", "theorem1", 9)


def test_criterion_09_rurv_rank_revealing():
    run_suite(9, "RURV reconstruction, Theorem bounds (50 seeds), rank probe 100/100", "rurv", 10)


def test_criterion_10_f_statistic():
    run_suite(10, "Pr[f < 1/(r^2 sqrt(n))] <= 0.25 at (32,16) and (64,32), 500 trials",
              "fstat", 11)


def test_criterion_11_sylvester():
    run_suite(11, "SylR oracle equivalence (exhaustive grid + 64x64), sep monotonicity",
              "sylvester", 13)


def test_criterion_12_schur_divide_and_conquer():
    run_suite(12, "Schur D&C stability on both engines, eigenvalue agreement, exact NormA21",
              "schur", 14)


def test_criterion_13_symmetric_eig_and_svd():
    run_suite(13, "symmetric eigenvalues and singular values vs Jacobi oracles", "eig", 15)


def test_criterion_14_evecr():
    run_suite(14, "EVecR residual within common bound; cost inherits engine exponent",
              "evecr", 16)


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

"""Command-line harness: decompositions on matrix files, verification
suites, complexity-exponent benchmarks, and report emission.

Reports are JSON with a deterministic ``payload`` region (sorted keys,
schema version 1) and a ``timings`` sibling excluded from determinism
comparisons.  Benchmarks emit CSV or JSON rows.  Exit codes: 0 when all
stability assertions pass, 1 when an assertion fails, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time

import numpy as np

from . import baseline, bounds, eig, inverse, lu, matmul, qr, sylvester
from .rurv import (exact_rank_probe, f_statistic_experiment, haar_orthogonal,
                   rurv as rurv_decompose)
from .core import (EXTENDED, FROBENIUS, WORKING, DimensionError,
                   MatrixParseError, RngStream, gaussian_matrix, norm,
                   read_matrix, write_matrix)
from .matmul import MmEngine, OpCounter, fit_exponent, multiply

SCHEMA_VERSION = 1


def _engine_from(args) -> MmEngine:
    return MmEngine(args.engine, cutoff=args.cutoff)


def _round(x: float) -> float:
    """Stable float for the deterministic payload region."""
    if x is None:
        return None
    if isinstance(x, float) and (math.isnan(x) or math.isinf(x)):
        return x
    return float(f"{x:.12e}")


def _emit(args, payload: dict, started: float) -> None:
    report = {
        "schema": SCHEMA_VERSION,
        "payload": payload,
        "timings": {"total_s": time.time() - started},
    }
    text = json.dumps(report, sort_keys=True, indent=2)
    out = getattr(args, "report", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def payload_bytes(report: dict) -> bytes:
    """The deterministic region of a report, for byte-identity checks."""
    return json.dumps(report["payload"], sort_keys=True).encode()


def _base_payload(args, results: dict, passed: bool) -> dict:
    # Output-routing flags are not part of the computation's identity and
    # are dropped from the echoed command, so identical logical commands
    # produce byte-identical payloads wherever the report lands.
    echo = []
    skip = False
    for tok in args.command_echo:
        if skip:
            skip = False
            continue
        if tok in ("--report", "--out"):
            skip = True
            continue
        echo.append(tok)
    return {
        "command": echo,
        "seed": getattr(args, "seed", None),
        "engine": {"kind": getattr(args, "engine", None),
                   "cutoff": getattr(args, "cutoff", None)},
        "results": results,
        "pass": bool(passed),
    }


# ---------------------------------------------------------------------------
# decompose / invert / rurv / sylvester / eig / svd


def cmd_decompose_qr(args) -> int:
    started = time.time()
    a = read_matrix(args.infile)
    engine = _engine_from(args)
    res = qr.qrr(a, engine)
    bound = bounds.backward(max(a.shape), engine)
    passed = res.report.residual <= bound and res.report.orth_defect <= bound
    if args.out:
        write_matrix(args.out + ".r.mat", res.r)
        write_matrix(args.out + ".w.mat", res.q.w)
        write_matrix(args.out + ".y.mat", res.q.y)
    _emit(args, _base_payload(args, {
        "residual": _round(res.report.residual),
        "orth_defect": _round(res.report.orth_defect),
        "bound": _round(bound),
    }, passed), started)
    return 0 if passed else 1


def cmd_decompose_lu(args) -> int:
    started = time.time()
    a = read_matrix(args.infile)
    engine = _engine_from(args)
    res = lu.lur(a, engine)
    g = baseline.pivot_growth(a, res.u)
    bound = bounds.backward(max(a.shape)) * g
    passed = (not res.zero_pivot) and res.report.residual <= bound
    if args.out:
        write_matrix(args.out + ".l.mat", res.l)
        write_matrix(args.out + ".u.mat", res.u)
        write_matrix(args.out + ".p.mat", res.p[None, :].astype(np.float64))
    _emit(args, _base_payload(args, {
        "residual": _round(res.report.residual),
        "pivot_growth": _round(g),
        "l_cond": _round(res.l_cond),
        "bound": _round(bound),
        "flags": res.report.flags,
    }, passed), started)
    return 0 if passed else 1


def cmd_invert(args) -> int:
    started = time.time()
    a = read_matrix(args.infile)
    engine = _engine_from(args)
    if args.kind == "tri":
        x, rep = inverse.tri_inv(a, engine, precision=args.precision)
    elif args.kind == "spd":
        x, rep = inverse.spd_inv(a, engine, precision=args.precision)
    else:
        x, rep = inverse.gen_inv(a, engine, precision=args.precision)
    n = a.shape[0]
    if args.precision == EXTENDED:
        bound = bounds.backward(n) * rep.kappa
    elif args.kind == "general":
        # The normal-equations route squares kappa; its recurrence bound
        # clamps to 1 at every useful size and would pass any X.
        bound = bounds.backward(n, engine) * rep.kappa ** 2
    else:
        bound = max(bounds.backward(n) * rep.kappa, rep.predicted_bound)
    passed = rep.residual_left <= bound
    if args.out:
        write_matrix(args.out + ".inv.mat", x)
    _emit(args, _base_payload(args, {
        "kind": args.kind,
        "precision": rep.precision_used,
        "residual_left": _round(rep.residual_left),
        "residual_right": _round(rep.residual_right),
        "kappa": _round(rep.kappa),
        "predicted_bound": _round(rep.predicted_bound),
        "bound": _round(bound),
    }, passed), started)
    return 0 if passed else 1


def cmd_rurv(args) -> int:
    started = time.time()
    a = read_matrix(args.infile)
    engine = _engine_from(args)
    res = rurv_decompose(a, engine, RngStream(args.seed))
    bound = bounds.backward(a.shape[0], engine)
    passed = res.report.residual <= bound and res.report.orth_defect <= bound
    if args.out:
        write_matrix(args.out + ".r.mat", res.r)
        write_matrix(args.out + ".v.mat", res.v)
        write_matrix(args.out + ".uw.mat", res.u.w)
        write_matrix(args.out + ".uy.mat", res.u.y)
    _emit(args, _base_payload(args, {
        "residual": _round(res.report.residual),
        "v_orth_defect": _round(res.report.orth_defect),
        "bound": _round(bound),
    }, passed), started)
    return 0 if passed else 1


def cmd_sylvester(args) -> int:
    started = time.time()
    a = read_matrix(args.a)
    b = read_matrix(args.b)
    c = read_matrix(args.c)
    engine = _engine_from(args)
    r, rep = sylvester.sylr(a, b, c, engine)
    sep = sylvester.sep_estimate(a, b)
    n, m = c.shape
    bound = bounds.backward(n + m)
    passed = rep.residual <= bound
    if args.out:
        write_matrix(args.out + ".r.mat", r)
    _emit(args, _base_payload(args, {
        "residual": _round(rep.residual),
        "bound": _round(bound),
        "sep": _round(sep.value),
        "sep_is_upper_bound": sep.is_upper_bound,
    }, passed), started)
    return 0 if passed else 1


def cmd_eig(args) -> int:
    started = time.time()
    a = read_matrix(args.infile)
    engine = _engine_from(args)
    rng = RngStream(args.seed)
    n = a.shape[0]
    results: dict = {}
    res = eig.schur_dandc(a, engine, rng, symmetric=args.symmetric)
    q, t, flags, splits = res.q, res.t, res.flags, res.n_splits
    resid = norm(a - q @ t @ q.T, FROBENIUS) / max(norm(a, FROBENIUS), 1e-300)
    orth = norm(q.T @ q - np.eye(n), FROBENIUS)
    bound = bounds.schur(n, splits)
    if args.out:
        write_matrix(args.out + ".t.mat", t)
        write_matrix(args.out + ".q.mat", q)
    if args.vectors and not args.symmetric:
        try:
            v, verr = eig.evecr(t, engine)
            results["evec_bound"] = _round(verr.predicted_evec_bound)
            results["sep_floor"] = _round(verr.s_floor)
            flags = list(flags) + verr.flags
            if args.out:
                write_matrix(args.out + ".v.mat", v)
        except (sylvester.NotTriangularError, baseline.SylvesterSingularError) as exc:
            flags = list(flags) + [f"vectors-unavailable: {exc}"]
    passed = resid <= bound and orth <= bounds.backward(n) and not flags

    def rounded(v):  # a circle's line is a (center, radius) tuple
        if isinstance(v, tuple):
            return [_round(x) for x in v]
        return _round(v) if isinstance(v, float) else v

    results.update({
        "residual": _round(resid),
        "orth_defect": _round(orth),
        "bound": _round(bound),
        "splits": splits,
        "flags": flags,
        "tree": [{k: rounded(v) for k, v in node.items()} for node in res.tree],
    })
    _emit(args, _base_payload(args, results, passed), started)
    return 0 if passed else 1


def cmd_svd(args) -> int:
    started = time.time()
    a = read_matrix(args.infile)
    engine = _engine_from(args)
    u, sigma, v, flags = eig.svd_via_gram(a, engine, RngStream(args.seed))
    n = a.shape[0]
    resid = norm(a - u @ np.diag(sigma) @ v.T, FROBENIUS) / max(norm(a, FROBENIUS), 1e-300)
    orth = max(norm(x.T @ x - np.eye(n), FROBENIUS) for x in (u, v))
    bound = bounds.spectral()
    passed = resid <= bound and orth <= bounds.backward(n) and not flags
    if args.out:
        write_matrix(args.out + ".u.mat", u)
        write_matrix(args.out + ".s.mat", sigma[None, :])
        write_matrix(args.out + ".v.mat", v)
    _emit(args, _base_payload(args, {
        "residual": _round(resid),
        "orth_defect": _round(orth),
        "bound": _round(bound),
        "sigma_max": _round(float(sigma[0])),
        "sigma_min": _round(float(sigma[-1])),
        "flags": flags,
    }, passed), started)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# bench


def _parse_sizes(text: str) -> list:
    return [int(s) for s in text.replace(" ", "").split(",") if s]


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
    return {"rows": rows, "exponent": _try_fit(sizes, rows)}


def _try_fit(sizes, rows):
    try:
        return fit_exponent(sizes, [r["mults"] for r in rows])
    except ValueError:
        return None


def bench_factor(factor, sizes, engine, seed) -> dict:
    """Op tallies of ``factor`` (``qr.qrr``, ``lu.lur`` or ``svd_factor``) on
    n-by-n Gaussians."""
    rows = []
    rng = RngStream(seed)
    for i, n in enumerate(sizes):
        a = gaussian_matrix(n, n, rng.split(i))
        counter = OpCounter()
        t0 = time.time()
        factor(a, engine, counter, with_report=False)
        rows.append({"n": n, "mults": counter.scalar_mults, "adds": counter.scalar_adds,
                     "seconds": time.time() - t0})
    return {"rows": rows, "exponent": _try_fit(sizes, rows)}


def svd_factor(a, engine, counter, with_report=False):
    """``eig.svd_via_gram`` in the calling convention of ``bench_factor``."""
    return eig.svd_via_gram(a, engine, counter=counter)


def bench_block_lu(sizes, engine, gamma, seed, block_sizes=None) -> dict:
    rows = []
    rng = RngStream(seed)
    for i, n in enumerate(sizes):
        a = gaussian_matrix(n, n, rng.split(i))
        bs = block_sizes or sorted({max(1, min(n, 2 ** k)) for k in range(2, int(math.log2(n)) + 1)})
        for b in bs:
            counter = OpCounter()
            t0 = time.time()
            perm, l, u = baseline.block_lu(a, baseline.BlockConfig(b, gamma), engine, counter)
            resid = norm(a[perm] - l @ u, FROBENIUS) / norm(a, FROBENIUS)
            rows.append({"n": n, "b": b, "mults": counter.scalar_mults,
                         "residual": resid, "seconds": time.time() - t0})
    fit = fit_block_cost_model(rows, gamma)
    return {"rows": rows, "gamma": gamma, "fit": fit}


def fit_block_cost_model(rows, gamma) -> dict:
    """Least-squares fit of mults ~ c1 n^2 b + c2 n^3 b^(gamma-3)."""
    x1 = np.array([r["n"] ** 2 * r["b"] for r in rows], dtype=np.float64)
    x2 = np.array([r["n"] ** 3 * r["b"] ** (gamma - 3.0) for r in rows], dtype=np.float64)
    y = np.array([r["mults"] for r in rows], dtype=np.float64)
    design = np.stack([x1, x2], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    pred = design @ coef
    rel = np.abs(pred - y) / y
    return {"c1": float(coef[0]), "c2": float(coef[1]),
            "max_rel_err": float(np.max(rel)),
            "mean_rel_err": float(np.mean(rel))}


# Wall times vary run to run, so they go to CSV output only: JSON payloads
# of one command stay byte-identical.
_TIMING_KEYS = ("seconds", "blas_seconds")


def cmd_bench(args) -> int:
    started = time.time()
    sizes = _parse_sizes(args.sizes)
    engine = _engine_from(args)
    if args.target == "matmul":
        data = bench_matmul(sizes, engine, args.seed)
    elif args.target == "qrr":
        data = bench_factor(qr.qrr, sizes, engine, args.seed)
    elif args.target == "lur":
        data = bench_factor(lu.lur, sizes, engine, args.seed)
    elif args.target == "svd":
        data = bench_factor(svd_factor, sizes, engine, args.seed)
    elif args.target == "block-lu":
        bs = _parse_sizes(args.blocks) if args.blocks else None
        data = bench_block_lu(sizes, engine, args.gamma, args.seed, bs)
    else:
        raise ValueError(f"unknown bench target {args.target!r}")
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(data["rows"][0].keys()))
        writer.writeheader()
        for row in data["rows"]:
            writer.writerow(row)
        text = buf.getvalue()
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    results = {k: v for k, v in data.items() if k != "rows"}
    results["rows"] = [
        {k: (_round(v) if isinstance(v, float) else v) for k, v in row.items()
         if k not in _TIMING_KEYS}
        for row in data["rows"]
    ]
    _emit(args, _base_payload(args, results, True), started)
    return 0


# ---------------------------------------------------------------------------
# verification suites


def _check(name: str, value: float, bound: float, ok=None) -> dict:
    passed = bool(value <= bound) if ok is None else bool(ok)
    return {"name": name, "value": _round(float(value)), "bound": _round(float(bound)),
            "pass": passed}


def suite_matmul(seed: int, quick: bool) -> list:
    checks = []
    rng = RngStream(seed)
    sizes = [4, 8, 16]
    engines = [MmEngine("conv"), MmEngine("blocked"), MmEngine("strassen", cutoff=2)]
    worst = 0.0
    trials = 5 if quick else 20
    gen = rng.split(0).generator()
    for t in range(trials):
        n = sizes[t % len(sizes)]
        a = np.asarray(gen.integers(-2, 3, size=(n, n)), dtype=np.float64)
        b = np.asarray(gen.integers(-2, 3, size=(n, n)), dtype=np.float64)
        ref = multiply(a, b, MmEngine("conv"))
        na, nb = norm(a, FROBENIUS), norm(b, FROBENIUS)
        for e in engines[1:]:
            c = multiply(a, b, e)
            denom = max(bounds.backward(n) * na * nb, 1e-300)
            worst = max(worst, norm(c - ref, FROBENIUS) / denom)
    checks.append(_check("engine-equivalence", worst, 1.0))
    counter = OpCounter()
    multiply(np.ones((8, 8)), np.ones((8, 8)), MmEngine("strassen", cutoff=1), counter)
    checks.append(_check("strassen-count-law-n8", abs(counter.scalar_mults - 343), 0.0))
    bench = bench_matmul([16, 32, 64], MmEngine("strassen", cutoff=1), seed)
    checks.append(_check("strassen-exponent", abs(bench["exponent"] - math.log2(7)), 0.01))
    bench = bench_matmul([16, 32, 64], MmEngine("conv"), seed)
    checks.append(_check("conventional-exponent", abs(bench["exponent"] - 3.0), 0.01))
    model = matmul.measure_mm_error(32, MmEngine("conv"), 2 if quick else 5, rng.split(1))
    checks.append(_check("conv-error-model", model.observed_constant, 32.0))
    return checks


def suite_qr(seed: int, quick: bool, n: int = 0, trials: int = 0) -> list:
    checks = []
    rng = RngStream(seed)
    n = n or (16 if quick else 64)
    trials = trials or (5 if quick else 20)
    for tag, engine in [("conv", MmEngine("conv")), ("strassen", MmEngine("strassen", cutoff=8))]:
        worst_res = worst_orth = 0.0
        for t in range(trials):
            a = gaussian_matrix(n, n, rng.split(1000 + t))
            res = qr.qrr(a, engine)
            worst_res = max(worst_res, res.report.residual)
            worst_orth = max(worst_orth, res.report.orth_defect)
        bound = bounds.backward(n, engine)
        checks.append(_check(f"qrr-residual-{tag}-n{n}", worst_res, bound))
        checks.append(_check(f"qrr-orth-{tag}-n{n}", worst_orth, bound))
    a = gaussian_matrix(2 * n, n, rng.split(1))
    x0 = gaussian_matrix(n, 1, rng.split(2))
    x = qr.solve_ls(a, a @ x0)
    checks.append(_check("ls-consistent-solve",
                         float(np.linalg.norm(x - x0) / np.linalg.norm(x0)),
                         bounds.backward(n) * 1e3))
    return checks


def suite_lu(seed: int, quick: bool, n: int = 0, trials: int = 0) -> list:
    checks = []
    rng = RngStream(seed)
    n = n or (16 if quick else 64)
    trials = trials or (5 if quick else 20)
    worst = 0.0
    worst_l = 0.0
    for t in range(trials):
        a = gaussian_matrix(n, n, rng.split(t))
        res = lu.lur(a, MmEngine("strassen", cutoff=8))
        g = baseline.pivot_growth(a, res.u)
        worst = max(worst, res.report.residual / (bounds.backward(n) * g))
        worst_l = max(worst_l, float(np.max(np.abs(res.l))) - 1.0)
    checks.append(_check("lur-residual-vs-growth-bound", worst, 1.0))
    checks.append(_check("lur-pivot-magnitude", worst_l, 1e-12))
    agree = True
    for t in range(10 if quick else 50):
        a = gaussian_matrix(16, 16, rng.split(5000 + t))
        p1, _, _ = baseline.gepp_lu(a)
        res = lu.lur(a, MmEngine("conv"))
        agree = agree and bool((res.p == p1).all())
    checks.append(_check("lur-pivot-sequence-vs-gepp", 0.0, 0.0, ok=agree))
    return checks


def suite_inverse(seed: int, quick: bool) -> list:
    from . import dd as ddmod

    checks = []
    rng = RngStream(seed)
    n = 16 if quick else 64
    t = np.triu(gaussian_matrix(n, n, rng.split(0))) + 3.0 * np.eye(n)
    x, rep = inverse.tri_inv(t)
    truth = ddmod.inv_upper(t).to_float64()
    fwd = float(np.linalg.norm(x - truth) / np.linalg.norm(truth))
    checks.append(_check("tri-inv-forward-vs-bound", fwd, rep.predicted_bound))
    xe, repe = inverse.tri_inv(t, precision=EXTENDED)
    checks.append(_check("tri-inv-extended-backward-grade", repe.residual_left,
                         bounds.backward(n) * rep.kappa))
    g = gaussian_matrix(n, n, rng.split(1))
    h = g @ g.T + n * np.eye(n)
    x, rep = inverse.spd_inv(h)
    truth = ddmod.spd_inv(h).to_float64()
    fwd = float(np.linalg.norm(x - truth) / np.linalg.norm(truth))
    checks.append(_check("spd-inv-forward-vs-bound", fwd, rep.predicted_bound))
    worst = 0.0
    for tr in range(5 if quick else 20):
        m = 8
        a = gaussian_matrix(m, m, rng.split(100 + tr))
        b = gaussian_matrix(m, m, rng.split(200 + tr))
        prod = inverse.theorem1_embedding(a, b)
        ref = multiply(a, b, MmEngine("conv"))
        denom = bounds.spectral(norm(a, FROBENIUS)) * norm(b, FROBENIUS)
        worst = max(worst, norm(prod - ref, FROBENIUS) / denom)
    checks.append(_check("theorem1-embedding", worst, 1.0))
    return checks


def suite_rurv(seed: int, quick: bool) -> list:
    checks = []
    rng = RngStream(seed)
    n = 16 if quick else 64
    worst = 0.0
    for t in range(5 if quick else 20):
        a = gaussian_matrix(n, n, rng.split(t))
        res = rurv_decompose(a, MmEngine("conv"), rng.split(1000 + t))
        worst = max(worst, res.report.residual)
    checks.append(_check("rurv-reconstruction", worst, bounds.backward(n)))
    r_true = max(2, n // 4)
    hits = 0
    trials = 10 if quick else 50
    for t in range(trials):
        sub = rng.split(7000 + t)
        p = haar_orthogonal(n, sub.split(0))
        q = haar_orthogonal(n, sub.split(1))
        sig = np.concatenate([np.ones(r_true), np.zeros(n - r_true)])
        a = p @ np.diag(sig) @ q.T
        if exact_rank_probe(a, MmEngine("conv"), sub.split(2)) == r_true:
            hits += 1
    checks.append(_check("exact-rank-probe", trials - hits, 0.0))
    return checks


def suite_rurv_fstat(seed: int, n: int, r: int, trials: int) -> list:
    summary = f_statistic_experiment(n, r, trials, RngStream(seed))
    return [
        _check(f"fstat-prob-below-n{n}-r{r}-a1", summary.prob_below[1.0], 0.25),
        _check(f"fstat-prob-below-n{n}-r{r}-a0.5", summary.prob_below[0.5], 0.5),
    ]


def suite_sylvester(seed: int, quick: bool) -> list:
    checks = []
    rng = RngStream(seed)
    probs = []
    for t in range(3 if quick else 10):
        na, mb = 8, 8
        a = np.triu(gaussian_matrix(na, na, rng.split(3 * t))) + 3.0 * np.eye(na)
        b = np.triu(gaussian_matrix(mb, mb, rng.split(3 * t + 1))) - 3.0 * np.eye(mb)
        c = gaussian_matrix(na, mb, rng.split(3 * t + 2))
        probs.append(sylvester.SylvesterProblem(a, b, c))
    stat = sylvester.sylr_oracle_equivalence(probs)
    checks.append(_check("sylr-oracle-equivalence", stat, 1e3))
    a, b = probs[0].a, probs[0].b
    parent = sylvester.sep_estimate(a, b).value
    worst = 0.0
    cuts = [(2, 4), (4, 4), (6, 2)] if quick else [(i, j) for i in range(1, 8) for j in (2, 4, 6)]
    for i, j in cuts:
        for sub_a, sub_b in [(a[:i, :i], b[:j, :j]), (a[:i, :i], b[j:, j:]),
                             (a[i:, i:], b[:j, :j]), (a[i:, i:], b[j:, j:])]:
            sep_sub = sylvester.sep_estimate(sub_a, sub_b).value
            worst = max(worst, parent - sep_sub)
    checks.append(_check("sep-subproblem-monotonicity", worst, 1e-10))
    return checks


def suite_eig(seed: int, quick: bool) -> list:
    checks = []
    rng = RngStream(seed)
    n = 8 if quick else 32
    a = gaussian_matrix(n, n, rng.split(0))
    a = a + a.T
    q, lam = eig.symmetric_eig(a, rng=rng.split(1))
    lam_o = baseline.jacobi_eig(a)[1]
    na = norm(a, FROBENIUS)
    checks.append(_check("symmetric-eig-vs-jacobi",
                         float(np.max(np.abs(np.sort(lam) - np.sort(lam_o)))),
                         bounds.spectral(na)))
    checks.append(_check("symmetric-eig-residual",
                         float(np.linalg.norm(a @ q - q @ np.diag(lam))),
                         bounds.spectral(na)))
    gen = np.asarray(rng.split(2).generator().integers(-3, 4, size=(8, 8)), dtype=np.float64)
    prof = eig.norm_a21_profile(gen)
    direct = np.array([np.sum(np.abs(gen[i + 1 :, : i + 1])) for i in range(7)])
    checks.append(_check("norm-a21-recurrence-exact",
                         float(np.max(np.abs(prof - direct))), 0.0))
    b = gaussian_matrix(n, n, rng.split(3))
    u, sig, v, flags = eig.svd_via_gram(b, rng=rng.split(4))
    sig_o = baseline.jacobi_svd(b)[1]
    nb = norm(b, FROBENIUS)
    checks.append(_check("svd-sigma-vs-jacobi",
                         float(np.max(np.abs(sig - sig_o))), bounds.spectral(nb)))
    checks.append(_check("svd-reconstruction",
                         float(np.linalg.norm(b - u @ np.diag(sig) @ v.T)), bounds.spectral(nb)))
    t = np.triu(gaussian_matrix(n, n, rng.split(5)))
    np.fill_diagonal(t, np.linspace(1.0, float(n), n))
    vmat, verr = eig.evecr(t)
    worst = max(float(np.linalg.norm(t @ vmat[:, i] - t[i, i] * vmat[:, i]))
                for i in range(n)) / max(norm(t, FROBENIUS), 1e-300)
    checks.append(_check("evecr-residual-vs-bound", worst, verr.predicted_evec_bound))
    return checks


_SUITES = {
    "matmul": lambda args: suite_matmul(args.seed, args.quick),
    "qr": lambda args: suite_qr(args.seed, args.quick, args.n or 0, args.trials or 0),
    "lu": lambda args: suite_lu(args.seed, args.quick, args.n or 0, args.trials or 0),
    "inverse": lambda args: suite_inverse(args.seed, args.quick),
    "rurv": lambda args: suite_rurv(args.seed, args.quick),
    "rurv-fstat": lambda args: suite_rurv_fstat(args.seed, args.n or 32, args.r or 16,
                                                args.trials or 100),
    "sylvester": lambda args: suite_sylvester(args.seed, args.quick),
    "eig": lambda args: suite_eig(args.seed, args.quick),
}


def cmd_verify(args) -> int:
    started = time.time()
    if args.suite == "all":
        names = ["matmul", "qr", "lu", "inverse", "rurv", "sylvester", "eig"]
    else:
        names = [args.suite]
    checks = []
    for name in names:
        checks.extend(_SUITES[name](args))
    passed = all(c["pass"] for c in checks)
    _emit(args, _base_payload(args, {"checks": checks, "suites": names}, passed), started)
    return 0 if passed else 1


def cmd_experiment(args) -> int:
    started = time.time()
    rng = RngStream(args.seed)
    summary = f_statistic_experiment(args.n, args.r, args.trials, rng)
    if args.out:
        with open(args.out, "w") as fh:
            writer = csv.writer(fh)
            writer.writerow(["trial", "f"])
            for i, s in enumerate(summary.samples):
                writer.writerow([i, repr(float(s))])
    _emit(args, _base_payload(args, {
        "n": summary.n, "r": summary.r, "trials": summary.trials,
        "prob_below": {str(k): _round(v) for k, v in summary.prob_below.items()},
        "quantiles": {str(k): _round(v) for k, v in summary.quantiles.items()},
    }, True), started)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fastla",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--engine", choices=list(matmul.ENGINE_KINDS), default="conv")
        p.add_argument("--cutoff", type=int, default=64)
        p.add_argument("--out", default=None)
        p.add_argument("--report", default=None)
        if seed:
            p.add_argument("--seed", type=int, default=0)

    dec = sub.add_parser("decompose", help="factor a matrix file")
    dec_sub = dec.add_subparsers(dest="what", required=True)
    p = dec_sub.add_parser("qr")
    p.add_argument("--in", dest="infile", required=True)
    common(p)
    p.set_defaults(func=cmd_decompose_qr)
    p = dec_sub.add_parser("lu")
    p.add_argument("--in", dest="infile", required=True)
    common(p)
    p.set_defaults(func=cmd_decompose_lu)

    p = sub.add_parser("invert", help="recursive inversion")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--kind", choices=["tri", "spd", "general"], default="general")
    p.add_argument("--precision", choices=[WORKING, EXTENDED], default=WORKING)
    common(p)
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("rurv", help="randomized rank-revealing URV")
    p.add_argument("--in", dest="infile", required=True)
    common(p)
    p.set_defaults(func=cmd_rurv)

    p = sub.add_parser("sylvester", help="solve A R - R B = -C")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--c", required=True)
    common(p)
    p.set_defaults(func=cmd_sylvester)

    p = sub.add_parser("eig", help="Schur divide-and-conquer")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--symmetric", action="store_true")
    p.add_argument("--vectors", action="store_true")
    common(p)
    p.set_defaults(func=cmd_eig)

    p = sub.add_parser("svd", help="SVD from the QDWH polar factor and one symmetric eigensolve")
    p.add_argument("--in", dest="infile", required=True)
    common(p)
    p.set_defaults(func=cmd_svd)

    p = sub.add_parser("bench", help="operation-count benchmarks")
    p.add_argument("target", choices=["matmul", "qrr", "lur", "svd", "block-lu"])
    p.add_argument("--sizes", required=True)
    p.add_argument("--gamma", type=float, default=math.log2(7))
    p.add_argument("--blocks", default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    common(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(_SUITES) + ["all"])
    p.add_argument("--quick", action="store_true")
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--trials", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("experiment", help="statistical experiments")
    p.add_argument("kind", choices=["f-stat"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--trials", type=int, default=500)
    common(p)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.command_echo = argv
    try:
        return args.func(args)
    except (FileNotFoundError, MatrixParseError, DimensionError, ValueError) as exc:
        print(f"fastla: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

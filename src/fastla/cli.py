"""Command-line harness: decompositions on matrix files, the verification
suites of ``fastla.verify``, complexity-exponent benchmarks, and report
emission.

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

from . import baseline, eig, inverse, lu, matmul, qr, sylvester, verify
from .rurv import f_statistic_experiment, rurv as rurv_decompose
from .core import (EXTENDED, FROBENIUS, WORKING, DimensionError,
                   MatrixParseError, RngStream, gaussian_matrix, norm,
                   read_matrix, write_matrix)
from .matmul import MmEngine, OpCounter
from .verify import bench_matmul, fit_or_none, stable_float

SCHEMA_VERSION = 1


def _engine_from(args) -> MmEngine:
    return MmEngine(args.engine, cutoff=args.cutoff)


def _emit(args, payload: dict, started: float, **timings) -> None:
    report = {
        "schema": SCHEMA_VERSION,
        "payload": payload,
        "timings": {"total_s": time.time() - started, **timings},
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
    rep = res.report
    passed = rep.holds()
    if args.out:
        write_matrix(args.out + ".r.mat", res.r)
        write_matrix(args.out + ".w.mat", res.q.w)
        write_matrix(args.out + ".y.mat", res.q.y)
    _emit(args, _base_payload(args, {
        "residual": stable_float(rep.residual),
        "orth_defect": stable_float(rep.orth_defect),
        "bound": stable_float(rep.bound),
    }, passed), started)
    return 0 if passed else 1


def cmd_decompose_lu(args) -> int:
    started = time.time()
    a = read_matrix(args.infile)
    engine = _engine_from(args)
    res = lu.lur(a, engine)
    rep = res.report
    passed = (not res.zero_pivot) and rep.holds()
    if args.out:
        write_matrix(args.out + ".l.mat", res.l)
        write_matrix(args.out + ".u.mat", res.u)
        write_matrix(args.out + ".p.mat", res.p[None, :].astype(np.float64))
    _emit(args, _base_payload(args, {
        "residual": stable_float(rep.residual),
        "pivot_growth": stable_float(baseline.pivot_growth(a, res.u)),
        "l_cond": stable_float(rep.kappa),
        "bound": stable_float(rep.bound),
        "flags": rep.flags,
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
    passed = rep.holds()
    if args.out:
        write_matrix(args.out + ".inv.mat", x)
    _emit(args, _base_payload(args, {
        "kind": args.kind,
        "precision": args.precision,
        "residual_left": stable_float(rep.residual),
        "residual_right": stable_float(float(np.linalg.norm(a @ x - np.eye(a.shape[0])))),
        "kappa": stable_float(rep.kappa),
        "predicted_bound": stable_float(rep.forward_bound),
        "bound": stable_float(rep.bound),
    }, passed), started)
    return 0 if passed else 1


def cmd_rurv(args) -> int:
    started = time.time()
    a = read_matrix(args.infile)
    engine = _engine_from(args)
    res = rurv_decompose(a, engine, RngStream(args.seed))
    rep = res.report
    passed = rep.holds()
    if args.out:
        write_matrix(args.out + ".r.mat", res.r)
        write_matrix(args.out + ".v.mat", res.v)
        write_matrix(args.out + ".uw.mat", res.u.w)
        write_matrix(args.out + ".uy.mat", res.u.y)
    _emit(args, _base_payload(args, {
        "residual": stable_float(rep.residual),
        "v_orth_defect": stable_float(rep.orth_defect),
        "bound": stable_float(rep.bound),
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
    passed = rep.holds()
    if args.out:
        write_matrix(args.out + ".r.mat", r)
    _emit(args, _base_payload(args, {
        "residual": stable_float(rep.residual),
        "bound": stable_float(rep.bound),
        "sep": stable_float(sep.value),
        "sep_is_upper_bound": sep.is_upper_bound,
    }, passed), started)
    return 0 if passed else 1


def cmd_eig(args) -> int:
    started = time.time()
    a = read_matrix(args.infile)
    engine = _engine_from(args)
    results: dict = {}
    res = eig.schur_dandc(a, engine, RngStream(args.seed), symmetric=args.symmetric)
    residual, orth, _ = verify.schur_checks(a, res)
    flags = list(res.flags)
    if args.out:
        write_matrix(args.out + ".t.mat", res.t)
        write_matrix(args.out + ".q.mat", res.q)
    if args.vectors and not args.symmetric:
        try:
            v, verr = eig.evecr(res.t, engine)
            results["evec_bound"] = stable_float(verr.predicted_evec_bound)
            results["sep_floor"] = stable_float(verr.s_floor)
            flags += verr.flags
            if args.out:
                write_matrix(args.out + ".v.mat", v)
        except (sylvester.NotTriangularError, baseline.SylvesterSingularError) as exc:
            flags.append(f"vectors-unavailable: {exc}")
    passed = residual["pass"] and orth["pass"] and not flags

    def rounded(v):  # a circle's line is a (center, radius) tuple
        if isinstance(v, tuple):
            return [stable_float(x) for x in v]
        return stable_float(v) if isinstance(v, float) else v

    results.update({
        "residual": residual["value"],
        "orth_defect": orth["value"],
        "bound": residual["bound"],
        "splits": res.n_splits,
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
    checks = verify.svd_checks(a, u, sigma, v, flags)
    residual, orth_u, orth_v, _ = checks
    passed = not verify.misses(checks)
    if args.out:
        write_matrix(args.out + ".u.mat", u)
        write_matrix(args.out + ".s.mat", sigma[None, :])
        write_matrix(args.out + ".v.mat", v)
    _emit(args, _base_payload(args, {
        "residual": residual["value"],
        "orth_defect": max(orth_u["value"], orth_v["value"]),
        "bound": residual["bound"],
        "sigma_max": stable_float(float(sigma[0])),
        "sigma_min": stable_float(float(sigma[-1])),
        "flags": flags,
    }, passed), started)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# bench


def _parse_sizes(text: str) -> list:
    return [int(s) for s in text.replace(" ", "").split(",") if s]


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
    return {"rows": rows, "exponent": fit_or_none(sizes, rows)}


def svd_factor(a, engine, counter, with_report=False):
    """``eig.svd_via_gram`` in the calling convention of ``bench_factor``."""
    return eig.svd_via_gram(a, engine, counter=counter)


def bench_block_lu(sizes, engine, gamma, seed, block_sizes=None) -> dict:
    if not (2.0 < gamma <= 3.0):
        raise ValueError("gamma must lie in (2, 3]")
    rows = []
    rng = RngStream(seed)
    for i, n in enumerate(sizes):
        a = gaussian_matrix(n, n, rng.split(i))
        bs = block_sizes or sorted({max(1, min(n, 2 ** k)) for k in range(2, int(math.log2(n)) + 1)})
        for b in bs:
            counter = OpCounter()
            t0 = time.time()
            perm, l, u = baseline.block_lu(a, baseline.BlockConfig(b), engine, counter)
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
        {k: (stable_float(v) if isinstance(v, float) else v) for k, v in row.items()
         if k not in _TIMING_KEYS}
        for row in data["rows"]
    ]
    _emit(args, _base_payload(args, results, True), started)
    return 0


# ---------------------------------------------------------------------------
# verify / experiment


def cmd_verify(args) -> int:
    started = time.time()
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    checks, suite_s = [], {}
    for name in names:
        t0 = time.time()
        checks += verify.SUITES[name](args.seed, args.quick)
        suite_s[name] = time.time() - t0
    passed = not verify.misses(checks)
    _emit(args, _base_payload(args, {"checks": checks, "suites": names}, passed), started,
          suite_s=suite_s)
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
        "prob_below": {str(k): stable_float(v) for k, v in summary.prob_below.items()},
        "quantiles": {str(k): stable_float(v) for k, v in summary.quantiles.items()},
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

    # No abbreviations: "--r" would otherwise mean "--report".
    p = sub.add_parser("verify", help="run a verification suite", allow_abbrev=False)
    p.add_argument("suite", choices=list(verify.SUITES) + ["all"])
    p.add_argument("--quick", action="store_true")
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

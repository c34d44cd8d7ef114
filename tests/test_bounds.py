"""The table of documented bounds, ``fastla.bounds``.

Its entries equal the written-out forms they replaced and the benchmark's
own copy in ``perfbench/checks.py``, and no written-out copy of a
documented form is left anywhere else in the library or the tests.  The
report of every factorization and inversion carries the entry it is judged
by.
"""

import importlib.util
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from fastla import bounds, gen_inv, lur, qrr, rurv, spd_inv, sylr, tri_inv
from fastla.baseline import pivot_growth
from fastla.core import EPS, EXTENDED, TWO, WORKING, RngStream, gaussian_matrix, norm
from fastla.inverse import engine_mu_constant
from fastla.matmul import MmEngine

ROOT = Path(__file__).resolve().parents[1]
ENGINES = [None, MmEngine("conv"), MmEngine("strassen", cutoff=8), MmEngine("strassen")]

# The recurrence bounds as their earlier definitions evaluated them, exactly.
RECURRENCES = [
    ("tri_inv", (10.0, 64, 1.0), 2.5175395990117977e-05),
    ("tri_inv", (1000.0, 64, 2.5), 1.0),
    ("tri_inv", (3.0, 1, 1.0), 6.661338147750939e-14),
    ("spd_inv", (1.1, 16, 1.0), 1.4938050683811765e-09),
    ("spd_inv", (3.0, 1, 1.0), 6.661338147750939e-14),
    ("spd_inv", (2.0, 64, 1.0), 1.0),
    ("sylr", (64, 10.0, 12.0, 1.5, 1.0), 0.015124035223076749),
    ("sylr", (64, 1.0, 1.0, 0.0, 1.0), 1.0),
    ("evecr", (32, 5.0, 1.0), 5.684341886080826e-07),
    ("evecr", (1, 2.0, 2.0), 1.7763568394002532e-15),
    ("evecr", (64, 100.0, 0.35), 1.0),
    ("evecr", (16, 1.0, 0.0), 1.0),
]

# The documented forms written out: the backward budget (n or a literal
# size), the Sylvester and rectangular-product residual, the spectral bound
# and the Strassen slack.
FORMS = re.compile(r"1e3 \* (\w+) \* \1 \* EPS|1e3 \* [\w(), +]+ \*\* 2 \* EPS|1e4 \* EPS"
                   r"|slack \* 1e3|10\.0 if .*strassen")


def load_checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks",
                                                  ROOT / "perfbench" / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n", [16, 64, 128, 384, 512])
def test_benchmark_copy_agrees(n):
    checks = load_checks()
    for engine in ENGINES:
        assert checks.budget(n, engine) == bounds.backward(n, engine)
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    # Q = I, so the checks' residuals are plain differences.
    res = SimpleNamespace(q=np.eye(n), t=a + 1e-9 * rng.standard_normal((n, n)),
                          flags=["unchecked"], n_splits=3)
    want = np.linalg.norm(a - res.t) / (bounds.schur(n, 3) * np.linalg.norm(a))
    assert checks.schur(a, res) == want
    d = np.sort(rng.random(n) + 1.0)[::-1]
    s = d + 1e-12 * rng.standard_normal(n)
    diag = np.diag(d)
    ref = np.linalg.svd(diag, compute_uv=False)
    want = (max(np.max(np.abs(s - ref)), np.linalg.norm(diag - np.diag(s)))
            / bounds.spectral(np.linalg.norm(diag)))
    assert checks.svd(diag, (np.eye(n), s, np.eye(n), [])) == want


def test_entries_equal_the_forms_they_replaced():
    for n in (2, 6, 8, 12, 16, 24, 32, 48, 64, 128, 384, 512):
        for engine in ENGINES:
            slack = 10.0 if engine is not None and engine.kind == "strassen" else 1.0
            assert bounds.backward(n, engine) == slack * 1e3 * n * n * EPS
        assert bounds.backward(n) == 1e3 * n * n * EPS
        assert bounds.split_tol(n) == 1e3 * n * EPS
        for splits in (0, 1, 3, n - 1):
            assert bounds.schur(n, splits) == 10.0 * max(splits, 1) * (1e3 * n * EPS)
    for n, m in [(3, 5), (8, 8), (7, 2), (1, 6), (9, 1), (6, 5), (64, 64)]:
        assert bounds.backward(n + m) == 1e3 * (n + m) ** 2 * EPS
    for scale in (1.0, 8.0, 3.7, 1e-3, 123.4):
        assert bounds.spectral(scale) == 1e4 * EPS * scale
    assert bounds.spectral() == 1e4 * EPS
    assert bounds.SYMMETRY_TOL == 1e-12
    for name, args, value in RECURRENCES:
        assert getattr(bounds, name)(*args) == value, (name, args)


def test_no_written_out_copies():
    files = sorted((ROOT / "src" / "fastla").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    exempt = {ROOT / "src" / "fastla" / "bounds.py", Path(__file__).resolve()}
    found = [f"{path.relative_to(ROOT)}:{i}" for path in files if path not in exempt
             for i, line in enumerate(path.read_text().splitlines(), 1) if FORMS.search(line)]
    assert not found


# Inputs of the report test: 24 rows, so the Strassen engine recurses.
N, M = 24, 20
_rng = RngStream(0xB0D)
A = gaussian_matrix(N, N, _rng.split(0))
_gram = A @ A.T
T = np.triu(A, 1) + np.diag(np.linspace(2.0, 3.0, N))
INVERSES = {"tri_inv": (tri_inv, T), "spd_inv": (spd_inv, 0.5 * (_gram + _gram.T) + N * np.eye(N)),
            "gen_inv": (gen_inv, A)}
SYL_B = np.triu(gaussian_matrix(M, M, _rng.split(1)), 1) - np.diag(np.linspace(2.0, 3.0, M))
SYL_C = gaussian_matrix(N, M, _rng.split(2))
REPORT_ENGINES = [MmEngine("conv"), MmEngine("strassen", cutoff=8)]
REPORT_CASES = ([(name, e, WORKING) for name in ("qrr", "rurv", "lur", "sylr")
                 for e in REPORT_ENGINES]
                + [(name, e, p) for name in INVERSES for e in REPORT_ENGINES
                   for p in (WORKING, EXTENDED)])


def _call(name, engine, precision, with_report):
    """(output, report) of one entry point on the inputs above."""
    if name == "qrr":
        out = qrr(A, engine, with_report=with_report)
    elif name == "rurv":
        out = rurv(A, engine, RngStream(1), with_report=with_report)
    elif name == "lur":
        out = lur(A, engine, with_report=with_report)
    elif name == "sylr":
        out = sylr(T, SYL_B, SYL_C, engine, with_report=with_report)
    else:
        invert, a = INVERSES[name]
        out = invert(a, engine, precision, with_report=with_report)
    return out, out[1] if isinstance(out, tuple) else out.report


@pytest.mark.parametrize("name, engine, precision", REPORT_CASES,
                         ids=[f"{n}-{e.kind}-{p}" for n, e, p in REPORT_CASES])
def test_report_carries_its_bound(name, engine, precision):
    out, rep = _call(name, engine, precision, True)
    if name in ("qrr", "rurv"):
        assert rep.bound == bounds.backward(N, engine)
    elif name == "lur":
        assert rep.bound == bounds.backward(N) * pivot_growth(A, out.u)
    elif name == "sylr":
        assert rep.bound == bounds.backward(N + M)
    else:
        kappa = max(1.0, norm(INVERSES[name][1], TWO) * norm(out[0], TWO))
        k = kappa ** 2 if name == "gen_inv" else kappa
        assert rep.kappa == kappa
        if precision == EXTENDED:
            assert rep.bound == bounds.backward(N) * kappa
        else:
            assert rep.bound == bounds.backward(N, engine) * k
        forward = bounds.tri_inv if name == "tri_inv" else bounds.spd_inv
        assert rep.forward_bound == forward(k, N, engine_mu_constant(engine))
    assert rep.holds()
    assert _call(name, engine, precision, False)[1] is None

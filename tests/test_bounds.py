"""The table of documented bounds, ``fastla.bounds``.

Its entries equal the written-out forms they replaced and the benchmark's
own copy in ``perfbench/checks.py``, and no written-out copy of a
documented form is left anywhere else in the library or the tests.
"""

import importlib.util
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from fastla import bounds
from fastla.core import EPS
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

"""The contract checks of ``fastla.verify`` name each fault they are shown.

The suites, the ``eig`` and ``svd`` commands and the tests judge spectral
results with ``svd_checks``, ``eig_checks`` and ``schur_checks``; a check
that passed on every input would make all of them vacuous.  Each test
plants one fault of size 1e-6 in an exact factorization and asserts that
the check of that name fails.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from fastla.core import RngStream
from fastla.verify import check, eig_checks, misses, planted_svd, schur_checks, svd_checks

N = 16
DELTA = 1e-6


def planted():
    sigma = np.linspace(2.0, 1.0, N)
    a, p, q = planted_svd(N, sigma, RngStream(5))
    return a, p, sigma, q


def symmetric():
    _, p, lam, _ = planted()
    return (p * lam[None, :]) @ p.T, p, lam


def failing(checks):
    return {c["name"] for c in misses(checks)}


def test_check_passes_on_value_at_most_bound_unless_told():
    assert check("x", 1.0, 1.0)["pass"] and not check("x", 1.5, 1.0)["pass"]
    assert check("x", 1.5, 1.0, ok=True)["pass"]
    assert [c["name"] for c in misses([check("a", 0, 1), check("b", 2, 1)])] == ["b"]


def test_exact_factorizations_pass():
    a, u, s, v = planted()
    assert not misses(svd_checks(a, u, s, v, s_ref=s))
    h, q, lam = symmetric()
    assert not misses(eig_checks(h, q, lam, lam))
    assert not misses(schur_checks(h, SimpleNamespace(q=q, t=np.diag(lam), n_splits=1, flags=[])))


@pytest.mark.parametrize("fault", ["sigma", "reconstruction", "U-orthogonality",
                                   "V-orthogonality", "flags"])
def test_svd_checks_name_each_fault(fault):
    a, u, s, v = planted()
    s_ref, flags = s.copy(), ()
    if fault == "sigma":
        s_ref[0] += DELTA
    elif fault == "reconstruction":
        a = a + DELTA * np.outer(u[:, 0], v[:, 1])
    elif fault == "U-orthogonality":
        u = u * (1.0 + DELTA)
    elif fault == "V-orthogonality":
        v = v * (1.0 + DELTA)
    else:
        flags = ("orthogonality",)
    assert f"svd-{fault}" in failing(svd_checks(a, u, s, v, flags, s_ref=s_ref))


@pytest.mark.parametrize("fault", ["eigenvalues", "residual", "Q-orthogonality"])
def test_eig_checks_name_each_fault(fault):
    h, q, lam = symmetric()
    lam_ref = lam.copy()
    if fault == "eigenvalues":
        lam_ref[0] += DELTA
    elif fault == "residual":
        h = h + DELTA * np.outer(q[:, 0], q[:, 1])
    else:
        q = q * (1.0 + DELTA)
    assert f"eig-{fault}" in failing(eig_checks(h, q, lam, lam_ref))


@pytest.mark.parametrize("fault", ["residual", "Q-orthogonality", "flags"])
def test_schur_checks_name_each_fault(fault):
    h, q, lam = symmetric()
    res = SimpleNamespace(q=q, t=np.diag(lam), n_splits=1, flags=[])
    if fault == "residual":
        res.t = res.t + DELTA * np.eye(N, k=1)
    elif fault == "Q-orthogonality":
        res.q = q * (1.0 + DELTA)
    else:
        res.flags = ["split-rejected"]
    assert f"schur-{fault}" in failing(schur_checks(h, res))

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fastla
from fastla import bounds, dd
from fastla.core import EPS, EXTENDED, WORKING, gaussian_matrix, norm
from fastla.inverse import (AsymmetricMatrixError, NotPositiveDefiniteError,
                            engine_mu_constant, gen_inv, solve_via_inverse, spd_inv,
                            theorem1_embedding, tri_inv)
from fastla.matmul import MmEngine, OpCounter
from fastla.rurv import haar_orthogonal
from fastla.verify import spd_with_condition, triangular_with_condition

from helpers import dd_inv

CONV = MmEngine("conv")


class TestTriInv:
    def test_diagonal(self):
        x, rep = tri_inv(np.diag([2.0, 4.0]))
        np.testing.assert_array_equal(x, np.diag([0.5, 0.25]))

    def test_unit_bidiagonal_analytic(self):
        x, _ = tri_inv(np.array([[1.0, 1.0], [0.0, 1.0]]))
        np.testing.assert_array_equal(x, [[1.0, -1.0], [0.0, 1.0]])

    def test_bidiagonal_of_ones_binomial_pattern(self):
        # The unit upper bidiagonal's inverse is exactly alternating +-1:
        # (T^-1)_ij = (-1)^(i+j) for j >= i, a closed form checkable in
        # exact integers for n <= 8.
        for n in range(2, 9):
            t = np.eye(n) + np.diag(np.ones(n - 1), 1)
            want = np.triu([[(-1.0) ** (i + j) for j in range(n)] for i in range(n)])
            for precision in (WORKING, EXTENDED):
                x, _ = tri_inv(t, precision=precision)
                np.testing.assert_array_equal(x, want)

    def test_random_forward_error_vs_recurrence_bound(self, rng, engine):
        for kappa in (10.0, 100.0, 1e3, 1e4):
            t = triangular_with_condition(64, kappa, rng.split(int(kappa)))
            x, rep = tri_inv(t, engine)
            truth = dd.inv_upper(t).to_float64()
            fwd = norm(x - truth) / norm(truth)
            assert fwd <= rep.forward_bound

    def test_error_growth_monotonicity(self, rng):
        # Measured forward error grows no faster (log-log) than the
        # recurrence bound's slope + 0.5 across kappa.
        kappas = [10.0, 100.0, 1e3, 1e4]
        errs = []
        predicted = []
        mu = engine_mu_constant(CONV)
        for k in kappas:
            t = triangular_with_condition(64, k, rng.split(int(k)))
            x, rep = tri_inv(t)
            truth = dd.inv_upper(t).to_float64()
            errs.append(max(norm(x - truth) / norm(truth), 1e-300))
            predicted.append(bounds.tri_inv(rep.kappa, 64, mu))
        slope_err = np.polyfit(np.log10(kappas), np.log10(errs), 1)[0]
        slope_bound = np.polyfit(np.log10(kappas), np.log10(np.maximum(predicted, 1e-300)), 1)[0]
        assert slope_err <= slope_bound + 0.5

    def test_extended_matches_backward_stable_grade(self, rng):
        t = triangular_with_condition(64, 1e4, rng)
        x, rep = tri_inv(t, precision=EXTENDED)
        assert rep.residual <= bounds.backward(64) * rep.kappa

    def test_zero_diagonal_rejected(self):
        t = np.triu(np.ones((3, 3)))
        t[1, 1] = 0.0
        with pytest.raises(Exception):
            tri_inv(t)


class TestSpdInv:
    def test_identity_exact(self):
        x, _ = spd_inv(np.eye(4))
        np.testing.assert_array_equal(x, np.eye(4))

    def test_graded_diagonal(self):
        d = np.diag([1.0, 1.0, 1.0, 1e-3])
        x, _ = spd_inv(d)
        assert norm(x - np.diag([1.0, 1.0, 1.0, 1e3])) <= 1e2 * EPS * 1e3

    def test_random_spd_vs_cholesky_oracle(self, rng, engine):
        h = spd_with_condition(64, 1e3, rng)
        x, rep = spd_inv(h, engine)
        truth = dd.spd_inv(h).to_float64()
        fwd = norm(x - truth) / norm(truth)
        assert fwd <= rep.forward_bound
        # The output is exactly symmetric by construction.
        np.testing.assert_array_equal(x, x.T)

    def test_cauchy_interlace_schur_conditioning(self, rng):
        # kappa(S) <= kappa(H) (1 + 1e-6) at the top-level split.
        from helpers import oracle_kappa2

        h = spd_with_condition(32, 1e3, rng)
        s = h[16:, 16:] - h[16:, :16] @ dd.spd_inv(h[:16, :16]).to_float64() @ h[:16, 16:]
        s = 0.5 * (s + s.T)
        assert oracle_kappa2(s) <= oracle_kappa2(h) * (1.0 + 1e-6)

    def test_extended_precision_equivalence(self, rng):
        # For kappa up to 1e6 the double-word recursion delivers the
        # backward-stable-reference residual at working precision.
        for n, kappa in [(32, 1e4), (64, 1e6)]:
            h = spd_with_condition(n, kappa, rng.split(n))
            x, rep = spd_inv(h, precision=EXTENDED)
            assert rep.residual <= bounds.backward(n) * rep.kappa

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError):
            spd_inv(np.diag([1.0, -2.0]))

    def test_asymmetric_rejected(self, rng):
        a = gaussian_matrix(4, 4, rng)
        with pytest.raises(AsymmetricMatrixError):
            spd_inv(a + a.T + 0.1 * np.array([[0, 1, 0, 0]] * 4))


class TestWorkingLeaf:
    """The working-precision SPD leaf: one Cholesky-checked LAPACK inverse
    per block of at most 32 rows, tallied as the split it replaces."""

    @pytest.mark.parametrize("n", [2, 3, 32, 33, 64])
    def test_indefinite_rejected(self, rng, n):
        q = haar_orthogonal(n, rng.split(n))
        lam = np.linspace(1.0, 2.0, n)
        lam[n // 2] = -1.0
        h = (q * lam[None, :]) @ q.T
        with pytest.raises(NotPositiveDefiniteError):
            spd_inv(0.5 * (h + h.T))

    def test_tallies_follow_the_recurrence(self):
        def split(n):
            if n == 1:
                return 1, 0
            s, t = n // 2, n - n // 2
            (m1, a1), (m2, a2) = split(s), split(t)
            mults = s * s * t + t * s * t + s * t * t + s * t * s
            adds = s * (s - 1) * t + t * (s - 1) * t + s * (t - 1) * t + s * (t - 1) * s
            return m1 + m2 + mults, a1 + a2 + adds + t * t + s * s

        for n in range(1, 41):
            counter = OpCounter()
            spd_inv(np.eye(n) + np.ones((n, n)), counter=counter, with_report=False)
            assert (counter.scalar_mults, counter.scalar_adds) == split(n), n

    def test_identity_exact(self):
        for n in (1, 5, 32, 40):
            np.testing.assert_array_equal(spd_inv(np.eye(n))[0], np.eye(n))

    def test_gen_inv_call_count(self, rng, monkeypatch):
        # Recursing to 1x1 blocks made 767 calls here.
        calls = []
        body = fastla.inverse._spd_inv_rec

        def counted(h, engine, counter):
            calls.append(h.shape[0])
            return body(h, engine, counter)

        monkeypatch.setattr(fastla.inverse, "_spd_inv_rec", counted)
        gen_inv(gaussian_matrix(384, 384, rng), with_report=False)
        assert 0 < len(calls) <= 40


class TestExtendedLeaf:
    """The double-word recursions' Newton-refined leaf blocks."""

    @pytest.mark.parametrize("kappa", [1e12, 1e16])
    def test_spd_ill_conditioned_residual(self, rng, kappa):
        # A leaf that inverted the raw double-word Schur complement, whose
        # roundoff makes it slightly asymmetric, broke this at 1e16.
        for seed in range(3):
            h = spd_with_condition(64, kappa, rng.split(seed))
            x, rep = spd_inv(h, precision=EXTENDED)
            assert rep.residual <= 64 * EPS * rep.kappa

    def test_tri_ill_conditioned_residual(self, rng):
        n = 64
        for kappa in (1e8, 1e12, 1e16):
            t = triangular_with_condition(n, kappa, rng.split(int(math.log10(kappa))))
            x, rep = tri_inv(t, precision=EXTENDED)
            assert rep.residual <= bounds.backward(n) * rep.kappa

    @pytest.mark.parametrize("n", [2, 3, 32, 33, 64])
    def test_indefinite_rejected(self, rng, n):
        # Sizes inside, at and across the leaf size: a rejected leaf
        # splits down to the 1x1 pivots, which raise.
        q = haar_orthogonal(n, rng.split(n))
        lam = np.linspace(1.0, 2.0, n)
        lam[n // 2] = -1.0
        h = (q * lam[None, :]) @ q.T
        with pytest.raises(NotPositiveDefiniteError):
            spd_inv(0.5 * (h + h.T), precision=EXTENDED)

    def test_identity_exact(self):
        for n in (1, 2, 5, 32, 40):
            np.testing.assert_array_equal(tri_inv(np.eye(n), precision=EXTENDED)[0], np.eye(n))
            np.testing.assert_array_equal(spd_inv(np.eye(n), precision=EXTENDED)[0], np.eye(n))

    def test_gen_inv_product_count(self, rng, monkeypatch):
        # Recursing to 1x1 blocks made 510 double-word products here.
        calls = []
        matmul = dd.DD.__matmul__

        def counted(x, y):
            calls.append(x.shape)
            return matmul(x, y)

        monkeypatch.setattr(dd.DD, "__matmul__", counted)
        gen_inv(gaussian_matrix(128, 128, rng), precision=EXTENDED, with_report=False)
        assert 0 < len(calls) < 100

    def test_library_does_not_import_scipy(self):
        code = ("import sys\n"
                "import numpy as np\n"
                "import fastla\n"
                "fastla.gen_inv(np.eye(40) + np.ones((40, 40)), precision='extended')\n"
                "assert 'scipy' not in sys.modules, 'fastla imported scipy'\n")
        src = str(Path(fastla.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestOpCounts:
    """``counter=`` tallies the products of both precisions' recursions."""

    T = np.array([[2.0, 1.0], [0.0, 4.0]])
    H = np.array([[4.0, 1.0], [1.0, 3.0]])
    A = np.array([[2.0, 1.0], [-1.0, 3.0]])
    B = np.array([1.0, 2.0])

    def calls(self, precision):
        return {
            "tri_inv": lambda c: tri_inv(self.T, precision=precision, counter=c),
            "spd_inv": lambda c: spd_inv(self.H, precision=precision, counter=c),
            "gen_inv": lambda c: gen_inv(self.A, precision=precision, counter=c),
            "solve_via_inverse": lambda c: solve_via_inverse(self.A, self.B, precision=precision,
                                                             counter=c),
        }

    def test_working_tallies(self):
        # At n = 2 every pivot is one division and every block product 1x1x1,
        # except the 2x2 products A A^T and A^T M^-1 (8 mults, 4 adds each)
        # and the 2x1 right-hand-side products (4 mults, 2 adds each).  The
        # SPD recursion adds one Schur complement and one (1,1) update.
        want = {"tri_inv": (4, 0), "spd_inv": (6, 2), "gen_inv": (22, 10),
                "solve_via_inverse": (22, 10)}
        for name, call in self.calls(WORKING).items():
            counter = OpCounter()
            call(counter)
            assert (counter.scalar_mults, counter.scalar_adds) == want[name], name

    def test_extended_tallies_nonzero(self):
        # The double-word recursion's products go through multiply, so an
        # extended call tallies them as a working-precision call does.
        for name, call in self.calls(EXTENDED).items():
            counter = OpCounter()
            call(counter)
            assert counter.scalar_mults > 0 and counter.scalar_adds > 0, name


class TestGenInv:
    def test_orthogonal_gives_transpose(self, rng):
        q = haar_orthogonal(16, rng)
        x, _ = gen_inv(q)
        assert norm(x - q.T) <= bounds.backward(16)

    def test_graded_diag(self):
        x, _ = gen_inv(np.diag([1.0, 1e-2]))
        # kappa^2 = 1e4 enters the normal-equations route.
        assert norm(x - np.diag([1.0, 1e2])) <= 1e3 * EPS * 1e4 * 1e2

    def test_random_vs_lu_oracle(self, rng, engine):
        a = gaussian_matrix(32, 32, rng) + 6.0 * np.eye(32)
        x, rep = gen_inv(a, engine)
        truth = dd_inv(a).to_float64()
        assert norm(x - truth) / norm(truth) <= rep.forward_bound

    def test_singular_rejected(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(NotPositiveDefiniteError):
            gen_inv(a)


class TestSolveViaInverse:
    def test_identity(self, rng):
        b = gaussian_matrix(6, 1, rng)[:, 0]
        x = solve_via_inverse(np.eye(6), b)
        assert np.linalg.norm(x - b) <= 64 * EPS

    def test_orthogonal(self, rng):
        q = haar_orthogonal(12, rng)
        b = gaussian_matrix(12, 1, rng.split(1))[:, 0]
        x = solve_via_inverse(q, b)
        assert np.linalg.norm(x - q.T @ b) <= bounds.backward(12) * np.linalg.norm(b)

    def test_constructed_solution(self, rng):
        a = gaussian_matrix(24, 24, rng.split(0)) + 5.0 * np.eye(24)
        x0 = gaussian_matrix(24, 1, rng.split(1))[:, 0]
        x = solve_via_inverse(a, a @ x0)
        from helpers import oracle_kappa2

        kappa = oracle_kappa2(a)
        assert np.linalg.norm(x - x0) <= bounds.backward(24) * kappa ** 2 * np.linalg.norm(x0)


class TestTheorem1Embedding:
    def test_identity_blocks(self):
        got = theorem1_embedding(np.eye(2), np.eye(2))
        assert norm(got - np.eye(2)) <= 64 * EPS

    def test_known_product(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        got = theorem1_embedding(a, b)
        want = np.array([[19.0, 22.0], [43.0, 50.0]])
        assert norm(got - want) <= 1e3 * EPS * norm(a) * norm(b)

    def test_zero_operand(self, rng):
        b = gaussian_matrix(3, 3, rng)
        got = theorem1_embedding(np.zeros((3, 3)), b)
        np.testing.assert_allclose(got, 0.0, atol=16 * EPS)

    def test_rectangular(self, rng):
        a = gaussian_matrix(3, 5, rng.split(0))
        b = gaussian_matrix(5, 2, rng.split(1))
        got = theorem1_embedding(a, b)
        assert norm(got - a @ b) <= bounds.spectral(norm(a)) * norm(b)

    def test_gen_inv_inverter_route(self, rng):
        # The embedding also works through the logarithmically stable
        # general inverter, since the block matrix is well conditioned.
        a = gaussian_matrix(4, 4, rng.split(0))
        b = gaussian_matrix(4, 4, rng.split(1))
        got = theorem1_embedding(a, b, inverter=lambda m: gen_inv(m, CONV, with_report=False)[0])
        assert norm(got - a @ b) <= bounds.spectral(norm(a)) * norm(b)

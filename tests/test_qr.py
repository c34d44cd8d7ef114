import numpy as np
import pytest

from fastla import bounds
from fastla.core import EPS, NonFiniteInputError, gaussian_matrix, norm
from fastla.baseline import householder_qr
from fastla.inverse import gen_inv, solve_via_inverse, spd_inv, tri_inv
from fastla.lu import lur
from fastla.matmul import MmEngine, OpCounter, fit_exponent
from fastla.qr import (RankDeficientError, apply_qt, columnwise_scale_wrap,
                       determinant, positive_q, qrr, solve_ls)
from fastla.rurv import rurv

from helpers import dd_residual_qr, exact_det, oracle_kappa2

CONV = MmEngine("conv")


def wy_reconstruction_residual(a, res):
    n, m = a.shape
    rfull = np.zeros((n, m))
    rfull[:m] = res.r
    recon = res.q.apply_q(rfull, CONV)
    return norm(a - recon) / norm(a)


class TestQrrBasics:
    def test_single_column_three_four(self):
        res = qrr(np.array([[3.0], [4.0]]))
        assert res.r[0, 0] == -5.0
        assert abs(np.linalg.norm(res.q.w[:, 0]) - 1.0) <= 1e-8
        assert abs(np.linalg.norm(res.q.y[0, :]) - 2.0) <= 1e-8

    def test_identity(self):
        res = qrr(np.eye(4))
        np.testing.assert_allclose(np.abs(res.r), np.eye(4), atol=10 * EPS)
        assert res.report.residual <= 10 * EPS

    def test_rejects_wide(self):
        with pytest.raises(Exception):
            qrr(np.ones((2, 3)))

    @pytest.mark.parametrize("n,m", [(2, 2), (5, 3), (16, 16), (33, 20), (64, 64)])
    def test_reconstruction_and_orthogonality(self, n, m, engine, rng):
        a = gaussian_matrix(n, m, rng.split(n * 100 + m))
        res = qrr(a, engine)
        bound = bounds.backward(n, engine)
        assert res.report.residual <= bound
        assert res.report.orth_defect <= bound
        # R has exact zeros below the diagonal.
        assert np.all(res.r[np.tril_indices(m, -1)] == 0.0)

    def test_extended_precision_reconstruction_oracle(self, rng):
        a = gaussian_matrix(64, 64, rng)
        for engine, slack in [(CONV, 1.0), (MmEngine("strassen", cutoff=8), 10.0)]:
            res = qrr(a, engine)
            q = res.q.explicit_q(CONV)
            rfull = np.zeros((64, 64))
            rfull[:64] = res.r
            assert dd_residual_qr(a, q, rfull) <= slack * 1e2 * 64 * 64 * EPS

    def test_wy_normalization_all_depths(self, rng):
        # Property (2)/(3): unit W columns, norm-2 Y rows on the final output
        # at every size the recursion passes through.  The last column of a
        # square matrix is one entry, already triangular: it is not
        # reflected and its Y row is zero.
        for n in (2, 4, 8, 16, 32, 64, 128):
            a = gaussian_matrix(n, n, rng.split(n))
            res = qrr(a, CONV)
            wn = np.linalg.norm(res.q.w, axis=0)
            yn = np.linalg.norm(res.q.y, axis=1)
            np.testing.assert_allclose(wn, 1.0, atol=1e-8)
            np.testing.assert_allclose(yn[:-1], 2.0, atol=1e-8)
            assert yn[-1] == 0.0

    def test_base_case_bit_identical_to_householder(self, rng):
        col = gaussian_matrix(9, 1, rng)
        res = qrr(col, CONV)
        q2, r2 = householder_qr(col, nonneg_diag=False)
        assert res.r[0, 0] == r2[0, 0]
        qfull = res.q.explicit_q(CONV)
        np.testing.assert_array_equal(qfull, q2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", ["qrr", "lur", "rurv", "tri_inv", "spd_inv", "gen_inv",
                                   "solve_via_inverse"])
def test_non_finite_input_rejected(entry, bad):
    # qrr, lur and rurv used to return a NaN residual; the inversions went on
    # with NaN operands.  The typed error comes before any numpy warning.
    a = np.diag([4.0, 3.0, 2.0, 1.0]) + 0.1
    a[1, 2] = a[2, 1] = bad
    calls = {"qrr": qrr, "lur": lur, "rurv": rurv, "tri_inv": tri_inv, "spd_inv": spd_inv,
             "gen_inv": gen_inv, "solve_via_inverse": lambda x: solve_via_inverse(x, np.ones(4))}
    with pytest.raises(NonFiniteInputError):
        calls[entry](a)


class TestApplyQt:
    def test_identity_q(self, rng):
        res = qrr(np.eye(5))
        x = gaussian_matrix(5, 2, rng)
        got = apply_qt(res.q, x)
        np.testing.assert_allclose(np.abs(got), np.abs(x), atol=30 * EPS)

    def test_norm_preservation(self, rng):
        a = gaussian_matrix(16, 16, rng.split(0))
        b = gaussian_matrix(16, 4, rng.split(1))
        res = qrr(a)
        got = apply_qt(res.q, b)
        assert abs(norm(got) - norm(b)) <= bounds.backward(16) * norm(b)

    def test_applying_to_input_gives_r(self, rng):
        a = gaussian_matrix(12, 8, rng)
        res = qrr(a)
        got = apply_qt(res.q, a)
        below = got[8:, :]
        assert norm(below) <= bounds.backward(12) * norm(a)
        np.testing.assert_allclose(got[:8], res.r, atol=bounds.backward(12) * norm(a))

    def test_dimension_mismatch(self, rng):
        res = qrr(gaussian_matrix(6, 3, rng))
        with pytest.raises(Exception):
            apply_qt(res.q, np.ones((5, 2)))


class TestPositiveQ:
    def test_nonnegative_r_and_close_to_orthonormal_input(self, rng):
        n = 16
        a = gaussian_matrix(n, n, rng.split(0))
        q = positive_q(a)
        assert norm(q.T @ q - np.eye(n)) <= bounds.backward(n)
        r = q.T @ a
        assert norm(np.tril(r, -1)) <= bounds.backward(n) * norm(a)
        assert np.all(np.diag(r) >= 0.0)
        # Nearly orthonormal columns come back almost unchanged, not with
        # columns of flipped sign.
        b = q + 1e-8 * gaussian_matrix(n, n, rng.split(1))
        assert norm(positive_q(b) - b) <= 1e-6


class TestSolveLs:
    def test_identity(self, rng):
        b = gaussian_matrix(6, 1, rng)[:, 0]
        np.testing.assert_allclose(solve_ls(np.eye(6), b), b, atol=30 * EPS)

    def test_mean_of_two(self):
        a = np.array([[1.0], [1.0]])
        b = np.array([0.0, 2.0])
        assert solve_ls(a, b)[0] == pytest.approx(1.0, abs=1e-14)

    def test_consistent_overdetermined(self, rng, engine):
        a = gaussian_matrix(32, 8, rng.split(0))
        x0 = gaussian_matrix(8, 1, rng.split(1))[:, 0]
        x = solve_ls(a, a @ x0, engine)
        kappa = oracle_kappa2(a)
        assert np.linalg.norm(x - x0) <= 1e3 * kappa * 32 * 32 * EPS * np.linalg.norm(x0)

    def test_rank_deficient_raises(self):
        a = np.zeros((3, 2))
        a[:, 0] = 1.0
        with pytest.raises(RankDeficientError):
            solve_ls(a, np.ones(3))


class TestDeterminant:
    def test_identity(self):
        assert determinant(np.eye(4)) == pytest.approx(1.0, abs=100 * EPS)

    def test_diag(self):
        assert determinant(np.diag([2.0, 3.0])) == pytest.approx(6.0, rel=100 * EPS)

    def test_sign_without_reflections(self):
        # Columns already triangular are not reflected, so (-1)^n is not the sign.
        assert determinant(np.eye(3)) == 1.0
        assert determinant(np.diag([-1.0, 2.0, 3.0])) == -6.0
        u = np.triu(np.arange(1.0, 26.0).reshape(5, 5)) - 4.0 * np.eye(5)
        assert determinant(u) == pytest.approx(float(np.prod(np.diag(u))), rel=100 * EPS)

    def test_vs_exact_cofactor_oracle(self, rng):
        gen = rng.generator()
        for trial in range(5):
            a = np.asarray(gen.integers(-4, 5, size=(8, 8)), dtype=np.float64)
            want = float(exact_det(a))
            got = determinant(a)
            if want == 0.0:
                assert abs(got) <= 1e3 * 64 * EPS * norm(a) ** 8
            else:
                assert got == pytest.approx(want, rel=1e-8)

    def test_zero_matrix(self):
        assert determinant(np.zeros((3, 3))) == 0.0


class TestColumnwiseScaling:
    def test_adversarial_column_scales(self, rng):
        # One column 1e9 times larger.  A fast engine smears its error
        # across columns (the T-combinations mix column blocks of the right
        # operand), so the small columns' own relative backward error blows
        # up; the scale wrap restores the columnwise bound.  The
        # conventional engine never mixes columns and needs no wrap.
        n = 32
        fast = MmEngine("strassen", cutoff=4)
        a = gaussian_matrix(n, n, rng)
        # The huge column must share an engine right-operand block with
        # small columns (i.e. sit in a trailing half), or nothing smears.
        a[:, 20] *= 1e9
        wrapped = columnwise_scale_wrap(a, lambda m: qrr(m, fast))
        res_raw = qrr(a, fast)

        def per_column_rel(res):
            rfull = np.zeros((n, n))
            rfull[:n] = res.r
            recon = res.q.apply_q(rfull, CONV)
            errs = np.linalg.norm(a - recon, axis=0)
            cols = np.linalg.norm(a, axis=0)
            return errs / cols

        rel_wrapped = per_column_rel(wrapped.result)
        rel_raw = per_column_rel(res_raw)
        assert np.max(rel_wrapped) <= 1e2 * n * n * EPS
        # Improvement factor on the worst column.
        assert np.max(rel_raw) / np.max(rel_wrapped) >= 1e4

    def test_already_scaled_passthrough(self, rng):
        a = gaussian_matrix(8, 8, rng)
        a /= np.max(np.abs(a), axis=0)[None, :]
        wrapped = columnwise_scale_wrap(a, lambda m: qrr(m, CONV))
        res = qrr(a, CONV)
        # Identical up to one scale/unscale rounding per entry.
        assert norm(wrapped.result.r - res.r) <= 32 * EPS * norm(res.r)
        assert wrapped.zero_columns == []

    def test_zero_column_flagged(self):
        a = np.ones((4, 3))
        a[:, 1] = 0.0
        wrapped = columnwise_scale_wrap(a, lambda m: qrr(m, CONV))
        assert wrapped.zero_columns == [1]


class TestQrrCost:
    def test_mult_count_exponent_strassen(self, rng):
        sizes = [32, 64, 128]
        counts = []
        for n in sizes:
            counter = OpCounter()
            qrr(gaussian_matrix(n, n, rng.split(n)), MmEngine("strassen", cutoff=1),
                counter, with_report=False)
            counts.append(counter.scalar_mults)
        slope = fit_exponent(sizes, counts)
        assert abs(slope - np.log2(7)) <= 0.15

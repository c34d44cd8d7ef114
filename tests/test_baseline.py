import numpy as np
import pytest

from fastla import bounds
from fastla.core import EPS, RngStream, gaussian_matrix, norm
from fastla.baseline import (BlockConfig, SylvesterSingularError, _gepp_panel,
                             block_cost_exponent, block_lu, block_qr, conventional_sylvester,
                             gepp_lu, householder_qr, jacobi_eig, jacobi_svd, panel_qr_wy,
                             pivot_growth, recommended_block_size)
from fastla.matmul import MmEngine, OpCounter

from helpers import (dd_residual_lu, dd_residual_qr, gepp_panel_reference,
                     panel_qr_wy_reference)


class TestHouseholderQr:
    def test_single_column_three_four(self):
        q, r = householder_qr(np.array([[3.0], [4.0]]), nonneg_diag=False)
        assert abs(abs(r[0, 0]) - 5.0) <= 16 * EPS
        assert r[0, 0] == -5.0  # stable reflector sign

    def test_identity(self):
        q, r = householder_qr(np.eye(3))
        np.testing.assert_allclose(q, np.eye(3), atol=0)
        np.testing.assert_allclose(r, np.eye(3), atol=0)

    def test_random_8x5_extended_oracle(self, rng):
        a = gaussian_matrix(8, 5, rng)
        q, r = householder_qr(a)
        bound = 1e2 * 8 * 8 * EPS
        assert dd_residual_qr(a, q, r) <= bound
        assert norm(q.T @ q - np.eye(8)) <= bound

    def test_rank_deficient_allowed(self):
        a = np.zeros((4, 2))
        a[:, 0] = [1.0, 2.0, 2.0, 0.0]
        q, r = householder_qr(a)
        assert abs(r[1, 1]) <= 8 * EPS
        assert np.linalg.norm(a - q @ r) <= 64 * EPS


def _panel(case):
    """A fresh copy of a panel both base kernels are checked on (the strided
    case is a column slice of a wider matrix, as the recursions pass them)."""
    rng = RngStream(0x9A2E1)
    shapes = {"1x1": (1, 1), "7x3": (7, 3), "8x8": (8, 8), "64x8": (64, 8), "384x8": (384, 8)}
    if case in shapes:
        return gaussian_matrix(*shapes[case], rng)
    if case == "strided view":
        return gaussian_matrix(64, 16, rng)[:, 3:11]
    if case == "zero column":
        a = gaussian_matrix(12, 5, rng)
        a[:, 2] = 0.0
        return a
    if case == "rank 1":
        return np.outer(rng.split(0).gaussians(16), rng.split(1).gaussians(6))
    if case == "negative lead":
        a = gaussian_matrix(10, 4, rng)
        a[0, 0] = -1.0 - np.max(np.abs(a[:, 0]))
        return a
    if case == "triangular lead":
        a = gaussian_matrix(10, 4, rng)
        a[1:, 0] = 0.0
        return a
    assert case == "pivot tie"
    return np.array([[1.0], [-1.0]])


PANEL_CASES = ["1x1", "7x3", "8x8", "64x8", "384x8", "strided view", "zero column", "rank 1",
               "negative lead", "triangular lead", "pivot tie"]


def _same_bits(x, y):
    """Equal dtype, shape and bytes: np.array_equal that also tells -0.0 from 0.0."""
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


class TestBasePanels:
    """The library's panels against their column-by-column references: the
    GEPP panel bit for bit (signs of zeros included), the LAPACK Householder
    panel normwise; op tallies equal for both."""

    @pytest.mark.parametrize("case", PANEL_CASES)
    def test_gepp_panel_matches_reference(self, case):
        work, ref = _panel(case), _panel(case)
        count, ref_count = OpCounter(), OpCounter()
        perm, zero_pivot = _gepp_panel(work, count)
        ref_perm, ref_zero_pivot = gepp_panel_reference(ref, ref_count)
        assert _same_bits(work, ref)
        assert _same_bits(perm, ref_perm)
        assert zero_pivot == ref_zero_pivot
        assert count == ref_count
        assert zero_pivot == (case == "zero column")
        if case == "pivot tie":
            np.testing.assert_array_equal(perm, [0, 1])  # the first index wins

    @pytest.mark.parametrize("case", PANEL_CASES)
    def test_panel_qr_wy_matches_reference(self, case):
        a = _panel(case)
        work, ref = a.copy(), a.copy()
        count, ref_count = OpCounter(), OpCounter()
        w, y, degenerate = panel_qr_wy(work, count)
        ref_w, ref_y, ref_degenerate = panel_qr_wy_reference(ref, ref_count)
        assert degenerate == ref_degenerate
        assert count == ref_count
        assert (degenerate == [2]) == (case == "zero column")
        n, m = a.shape
        tol = 16 * m * EPS
        assert np.array_equal(np.tril(work, -1), np.zeros_like(work))
        # The reference reflects a column that is already triangular and
        # LAPACK does not, so the two agree up to the signs D of R's rows.
        d = np.ones(n)
        d[:m] = np.where(np.sign(np.diag(work)) == np.sign(np.diag(ref)), 1.0, -1.0)
        assert norm(d[:, None] * work - ref) <= tol * norm(a)
        qt, ref_qt = np.eye(n) - w @ y, np.eye(n) - ref_w @ ref_y
        # Row i of Q^T is e_i^T H_i ... H_0; past the first column of a
        # rank-1 panel the reflectors are rounding noise.
        rows = 1 if case == "rank 1" else n
        assert norm((d[:, None] * qt - ref_qt)[:rows]) <= tol * np.sqrt(n)
        assert norm(qt @ a - work) <= tol * norm(a)
        np.testing.assert_allclose(np.linalg.norm(w, axis=0), 1.0, atol=tol)
        reflected = y.any(axis=1)
        np.testing.assert_allclose(np.linalg.norm(y[reflected], axis=1), 2.0, atol=tol)
        if case == "negative lead":
            assert work[0, 0] > 0.0  # R_00 = -sign(a_00) ||a_0||
        if case == "triangular lead":
            assert work[0, 0] == a[0, 0] and not reflected[0]  # tau_0 = 0


class TestGeppLu:
    def test_identity(self):
        p, l, u = gepp_lu(np.eye(3))
        np.testing.assert_array_equal(p, np.arange(3))
        np.testing.assert_array_equal(l, np.eye(3))
        np.testing.assert_array_equal(u, np.eye(3))

    def test_forced_pivot(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        p, l, u = gepp_lu(a)
        np.testing.assert_array_equal(p, [1, 0])
        np.testing.assert_array_equal(l, np.eye(2))
        np.testing.assert_array_equal(u, np.eye(2))

    def test_random_extended_oracle(self, rng):
        a = gaussian_matrix(16, 16, rng)
        p, l, u = gepp_lu(a)
        g = pivot_growth(a, u)
        assert dd_residual_lu(a[p], l, u) <= 1e2 * 16 * 16 * EPS * g

    def test_singular_flagged_in_u(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        p, l, u = gepp_lu(a)
        assert u[1, 1] == 0.0


class TestConventionalSylvester:
    def test_scalar(self):
        r = conventional_sylvester(np.array([[3.0]]), np.array([[1.0]]), np.array([[-4.0]]))
        assert r[0, 0] == 2.0

    def test_decoupled_kron_oracle(self):
        a = np.diag([1.0, 2.0])
        b = np.array([[3.0]])
        c = np.array([[-2.0], [-1.0]])
        r = conventional_sylvester(a, b, c)
        # Oracle: dense LU solve of (I (x) A - B^T (x) I) vec(R) = -vec(C)
        # using this library's own pivoted elimination.
        k = np.kron(np.eye(1), a) - np.kron(b.T, np.eye(2))
        p, l, u = gepp_lu(k)
        rhs = (-c.flatten(order="F"))[p]
        y = np.linalg.solve(l, rhs)  # unit lower, exact small system
        x = np.linalg.solve(u, y)
        np.testing.assert_allclose(r.flatten(order="F"), x, rtol=1e-14)

    def test_random_vs_kron_solve(self, rng):
        a = np.triu(gaussian_matrix(4, 4, rng.split(0))) + 3.0 * np.eye(4)
        b = np.triu(gaussian_matrix(3, 3, rng.split(1))) - 3.0 * np.eye(3)
        c = gaussian_matrix(4, 3, rng.split(2))
        r = conventional_sylvester(a, b, c)
        k = np.kron(np.eye(3), a) - np.kron(b.T, np.eye(4))
        vec = np.linalg.solve(k, -c.flatten(order="F"))
        assert np.linalg.norm(r.flatten(order="F") - vec) <= 1e-10 * np.linalg.norm(vec)

    def test_shared_diagonal_rejected(self):
        a = np.diag([1.0, 2.0])
        b = np.array([[2.0]])
        with pytest.raises(SylvesterSingularError):
            conventional_sylvester(a, b, np.ones((2, 1)))


class TestBlockLu:
    def test_full_block_bit_identical_to_gepp(self, rng):
        a = gaussian_matrix(16, 16, rng)
        p1, l1, u1 = gepp_lu(a)
        p2, l2, u2 = block_lu(a, BlockConfig(16), MmEngine("conv"))
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_array_equal(l1, l2)
        np.testing.assert_array_equal(u1, u2)

    @pytest.mark.parametrize("b", [1, 3, 4, 7])
    def test_residual_any_block_size(self, b, rng, engine):
        a = gaussian_matrix(16, 16, rng)
        p, l, u = block_lu(a, BlockConfig(b), engine)
        g = pivot_growth(a, u)
        assert dd_residual_lu(a[p], l, u) <= bounds.backward(16) * g

    def test_gamma_formulas(self):
        # gamma = 3: b = n and the blocked exponent stays 3.
        assert recommended_block_size(64, 3.0) == 64
        assert block_cost_exponent(3.0) == pytest.approx(3.0)
        # gamma = 2 would give exponent 2.5 (formula check only; engines
        # with gamma = 2 do not exist).
        assert block_cost_exponent(2.0) == pytest.approx(2.5)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BlockConfig(0)


class TestBlockQr:
    def test_single_panel_reduces_to_householder(self, rng):
        from fastla.baseline import panel_qr_wy

        a = gaussian_matrix(12, 6, rng)
        wy, r = block_qr(a, BlockConfig(6), MmEngine("conv"))
        work = a.copy()
        w2, y2, _ = panel_qr_wy(work)
        np.testing.assert_array_equal(wy.w, w2)
        np.testing.assert_array_equal(wy.y, y2)
        np.testing.assert_array_equal(r, np.triu(work[:6, :]))

    def test_residual(self, rng, engine):
        a = gaussian_matrix(32, 16, rng)
        wy, r = block_qr(a, BlockConfig(4), engine)
        rfull = np.zeros((32, 16))
        rfull[:16] = r
        recon = wy.apply_q(rfull, MmEngine("conv"))
        assert norm(a - recon) <= bounds.backward(32) * norm(a)

    def test_optimal_block_formula_columns(self):
        # For an n-by-m panel the cost-balancing b is m^(1/(4-gamma)).
        gamma = 2.8
        m = 256
        assert recommended_block_size(m, gamma) == round(m ** (1.0 / (4.0 - gamma)))


class TestCostModel:
    def test_block_lu_two_term_fit(self, rng):
        # Counts at fixed n across block sizes follow c1 n^2 b + c2 n^3 b^(g-3).
        from fastla.cli import fit_block_cost_model

        gamma = np.log2(7)
        rows = []
        n = 128
        a = gaussian_matrix(n, n, rng)
        for b in [4, 8, 16, 32, 64, 128]:
            counter = OpCounter()
            block_lu(a, BlockConfig(b), MmEngine("strassen", cutoff=1), counter)
            rows.append({"n": n, "b": b, "mults": counter.scalar_mults})
        fit = fit_block_cost_model(rows, gamma)
        assert fit["max_rel_err"] <= 0.2


class TestJacobiOracles:
    def test_svd_vs_lapack(self, rng):
        a = gaussian_matrix(24, 24, rng)
        u, s, v = jacobi_svd(a)
        s_ref = np.linalg.svd(a, compute_uv=False)
        np.testing.assert_allclose(s, s_ref, atol=1e-12 * s_ref[0])
        assert np.linalg.norm(a - u @ np.diag(s) @ v.T) <= 1e-12 * s_ref[0]

    def test_svd_rank_deficient(self, rng):
        x = gaussian_matrix(8, 1, rng.split(0))
        y = gaussian_matrix(8, 1, rng.split(1))
        a = x @ y.T
        s = jacobi_svd(a)[1]
        assert s[0] > 0
        assert np.all(s[1:] <= 1e-12 * s[0])

    def test_eig_vs_lapack(self, rng):
        a = gaussian_matrix(20, 20, rng)
        a = a + a.T
        q, lam = jacobi_eig(a)
        lam_ref = np.sort(np.linalg.eigvalsh(a))[::-1]
        np.testing.assert_allclose(lam, lam_ref, atol=1e-12 * np.abs(lam_ref).max())
        assert np.linalg.norm(a - q @ np.diag(lam) @ q.T) <= 1e-12 * np.abs(lam_ref).max()

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastla import dd
from fastla.core import (EPS, EXTENDED_EPS, FROBENIUS, INF, ONE, TWO, DimensionError,
                         MatrixParseError, RngStream, gaussian_matrix, norm, read_matrix,
                         write_matrix)


class TestRng:
    def test_same_seed_same_scalar(self):
        a = gaussian_matrix(1, 1, RngStream(42))
        b = gaussian_matrix(1, 1, RngStream(42))
        assert a[0, 0] == b[0, 0]

    def test_same_seed_same_matrix(self):
        a = gaussian_matrix(17, 9, RngStream(7).split(3))
        b = gaussian_matrix(17, 9, RngStream(7).split(3))
        np.testing.assert_array_equal(a, b)

    def test_substreams_differ(self):
        r = RngStream(7)
        a = gaussian_matrix(8, 8, r.split(0))
        b = gaussian_matrix(8, 8, r.split(1))
        assert np.any(a != b)

    def test_shape_contract(self):
        a = gaussian_matrix(2, 3, RngStream(1))
        assert a.shape == (2, 3)

    def test_zero_dimension_rejected(self):
        with pytest.raises(DimensionError):
            gaussian_matrix(0, 3, RngStream(1))

    def test_sample_mean_against_reference_sampler(self):
        # |mean of 64x64 standard normals| <= 4/sqrt(4096), checked over 100
        # fixed seeds for both our Box-Muller stream and numpy's reference
        # sampler.  Deterministic: the seed list is frozen.
        bound = 4.0 / np.sqrt(4096.0)
        ours = sum(
            abs(float(np.mean(gaussian_matrix(64, 64, RngStream(s))))) <= bound
            for s in range(100)
        )
        ref = sum(
            abs(float(np.mean(np.random.default_rng(s).standard_normal((64, 64))))) <= bound
            for s in range(100)
        )
        assert ours >= 99
        assert ref >= 99

    def test_moments(self):
        z = RngStream(3).gaussians(200_000)
        assert abs(np.mean(z)) < 0.01
        assert abs(np.std(z) - 1.0) < 0.01


class TestNorms:
    def test_frobenius_identity(self):
        assert norm(np.eye(3), FROBENIUS) == pytest.approx(np.sqrt(3.0), rel=1e-15)

    def test_two_norm_single_row(self):
        assert norm(np.array([[3.0, 4.0]]), TWO) == pytest.approx(5.0, rel=1e-12)

    def test_one_inf_explicit_sums(self, rng):
        a = gaussian_matrix(7, 5, rng)
        assert norm(a, ONE) == np.max(np.sum(np.abs(a), axis=0))
        assert norm(a, INF) == np.max(np.sum(np.abs(a), axis=1))

    def test_norm_equivalence_sanity(self, rng):
        for t in range(10):
            a = gaussian_matrix(12, 12, rng.split(t))
            fro = norm(a, FROBENIUS)
            assert fro >= norm(a, TWO) * (1.0 - 1e-6)
            assert norm(a, ONE) <= np.sqrt(a.shape[1]) * fro * (1.0 + 1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            norm(np.eye(2), "spectral")


class TestMatrixIO:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        a = gaussian_matrix(5, 7, rng)
        path = tmp_path / "a.mat"
        write_matrix(path, a)
        b = read_matrix(path)
        np.testing.assert_array_equal(a, b)

    def test_length_mismatch(self, tmp_path):
        path = tmp_path / "short.mat"
        with open(path, "wb") as fh:
            fh.write(b"2 2\n")
            fh.write(np.zeros(3).tobytes())
        with pytest.raises(MatrixParseError):
            read_matrix(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.mat"
        path.write_bytes(b"")
        with pytest.raises(MatrixParseError):
            read_matrix(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "nan.mat"
        with open(path, "wb") as fh:
            fh.write(b"1 2\n")
            fh.write(np.array([1.0, np.nan]).astype("<f8").tobytes())
        with pytest.raises(MatrixParseError):
            read_matrix(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_bytes(b"2 x\n" + np.zeros(4).tobytes())
        with pytest.raises(MatrixParseError):
            read_matrix(path)


def _fractions(x):
    return [[Fraction(h) + Fraction(l) for h, l in zip(hrow, lrow)]
            for hrow, lrow in zip(x.hi.tolist(), x.lo.tolist())]


@st.composite
def _dd_product_operands(draw):
    """A (n x k) and B (k x m) double-word operands for DD.__matmul__.

    Shapes include k = 1, 1 x k times k x 1, tall and wide, and k up to 130
    (the slice width and level count change with k); rows and columns can
    be zero, lo parts nonzero, and rows of A scaled by 2^-500 or 2^500
    (columns of B by 2^500, so that no product underflows).
    """
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))
    k = draw(st.one_of(st.integers(1, 8), st.integers(9, 130)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def operand(rows, cols, scales):
        hi = rng.standard_normal((rows, cols))
        lo = hi * rng.uniform(-2.0 ** -54, 2.0 ** -54, (rows, cols))
        if draw(st.booleans()):
            lo[:] = 0.0
        hi, lo = dd.quick_two_sum(hi, lo)
        # A scale of None zeroes the row.
        shifts = draw(st.lists(st.sampled_from(scales), min_size=rows, max_size=rows))
        scale = np.array([0.0 if s is None else 2.0 ** s for s in shifts])[:, None]
        return dd.DD(hi * scale, lo * scale)

    a = operand(n, k, [0, 0, -500, 500, None])
    b = operand(m, k, [0, 0, 500, None]).T
    return a, b


class TestExtendedPrecision:
    def test_unit_roundoff_budget(self):
        assert EXTENDED_EPS <= 4.0 * EPS * EPS

    def test_rounded_extended_add_matches_working(self):
        # Directed cancellation cases: extended add then round equals the
        # working-precision sum exactly (two_sum is an exact transform).
        cases = [
            (1.0, -(1.0 - 2.0 ** -53)),
            (1e16, -1e16 + 1.0),
            (3.0, 2.0 ** -52),
            (1.0 + 2.0 ** -52, -1.0),
        ]
        for a, b in cases:
            ext = (dd.DD(np.array([[a]])) + dd.DD(np.array([[b]]))).to_float64()[0, 0]
            assert ext == a + b

    @given(st.floats(-1e10, 1e10), st.floats(-1e10, 1e10))
    @settings(max_examples=200, deadline=None)
    def test_two_sum_exact(self, a, b):
        s, e = dd.two_sum(a, b)
        # s is the rounded sum and e the exact rounding error.
        assert s == a + b
        if abs(a) < 1e300 and abs(b) < 1e300:
            from fractions import Fraction

            assert Fraction(s) + Fraction(e) == Fraction(a) + Fraction(b)

    # two_prod's exactness presumes no under/overflow (Dekker), hence the
    # magnitude floor on the operands.  Moving a power of two from one
    # operand to the other keeps the product in range while an operand
    # reaches ~2^1016, where Dekker's split of the raw operand overflows.
    @given(
        st.floats(-1e8, 1e8).filter(lambda x: x == 0.0 or abs(x) > 1e-100),
        st.floats(-1e8, 1e8).filter(lambda x: x == 0.0 or abs(x) > 1e-100),
        st.integers(-990, 990),
    )
    @settings(max_examples=200, deadline=None)
    def test_two_prod_exact(self, a, b, shift):
        a, b = float(np.ldexp(a, shift)), float(np.ldexp(b, -shift))
        p, e = dd.two_prod(a, b)
        assert Fraction(p) + Fraction(e) == Fraction(a) * Fraction(b)

    @given(_dd_product_operands())
    @settings(max_examples=100, deadline=None)
    def test_matmul_against_exact_products(self, operands):
        a, b = operands
        c = a @ b
        k = a.shape[1]
        # Normwise bound of DD.__matmul__, entrywise: 2 k 2^-105 max|A_row| max|B_col|.
        row = np.max(np.abs(a.hi), axis=1)
        col = np.max(np.abs(b.hi), axis=0)
        exact_a = _fractions(a)
        exact_b = _fractions(b)
        for i in range(c.shape[0]):
            for j in range(c.shape[1]):
                exact = sum(exact_a[i][t] * exact_b[t][j] for t in range(k))
                got = Fraction(c.hi[i, j]) + Fraction(c.lo[i, j])
                assert abs(got - exact) <= 2 * k * Fraction(2) ** -105 * Fraction(row[i] * col[j])

    @pytest.mark.parametrize("x, y", [(2e300, 1e-10), (1e-10, 2e300), (-2e300, 3e-300)])
    def test_extreme_scale_products(self, x, y):
        exact = Fraction(x) * Fraction(y)
        for c in (dd.DD([[x]]) * dd.DD([[y]]), dd.DD([[x]]) @ dd.DD([[y]])):
            got = Fraction(c.hi[0, 0]) + Fraction(c.lo[0, 0])
            assert abs(got - exact) <= Fraction(2) ** -105 * abs(exact)

    @pytest.mark.parametrize("lower", [False, True])
    @pytest.mark.parametrize("unit_diag", [False, True])
    def test_triangular_solves_exact_on_integer_systems(self, rng, lower, unit_diag):
        # Small integers with a diagonal of +-1: every partial sum of the
        # substitution is an exact integer, so the solution is exact.  NaN
        # in the unread triangle (and, with a unit diagonal, on the
        # diagonal) fails the test if the kernel reads it.
        n = 13
        g = np.round(3.0 * gaussian_matrix(n, n, rng.split(0)))
        tri = np.tril if lower else np.triu
        t = tri(g, -1 if lower else 1) + np.diag(np.where(g.diagonal() < 0, -1.0, 1.0))
        if unit_diag:
            t = t - np.diag(t.diagonal()) + np.eye(n)
        x = np.round(3.0 * gaussian_matrix(n, 3, rng.split(1)))
        stored = t + tri(np.full((n, n), np.nan), 1 if not lower else -1).T
        if unit_diag:
            np.fill_diagonal(stored, np.nan)
        solve = dd.solve_lower if lower else dd.solve_upper
        got = solve(stored, t @ x, unit_diag=unit_diag)
        np.testing.assert_array_equal(got.hi, x)
        np.testing.assert_array_equal(got.lo, np.zeros_like(x))

    def test_matmul_bit_reproducible(self, rng):
        # Every level of the product is an exact integer sum, so an entry
        # depends only on its row of A and column of B: repeating, slicing
        # or transposing the product gives the same bits.
        a = dd.DD(gaussian_matrix(9, 130, rng.split(0)), gaussian_matrix(9, 130, rng.split(1)) * 2.0 ** -60)
        b = dd.DD(gaussian_matrix(130, 7, rng.split(2)), gaussian_matrix(130, 7, rng.split(3)) * 2.0 ** -60)
        c = a @ b
        for again, ref in [(a.copy() @ b.copy(), c), (b.T @ a.T, c.T),
                           (a[3:4, :] @ b, c[3:4, :]), (a @ b[:, 5:], c[:, 5:])]:
            np.testing.assert_array_equal(again.hi, ref.hi)
            np.testing.assert_array_equal(again.lo, ref.lo)

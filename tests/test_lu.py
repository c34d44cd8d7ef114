import numpy as np
import pytest

from fastla import bounds
from fastla.core import EPS, NonFiniteInputError, RngStream, gaussian_matrix, norm
from fastla.baseline import _TRI_LEAF, SingularMatrixError, gepp_lu, pivot_growth
from fastla.lu import lur, solve_linear, solve_triangular
from fastla.qr import solve_ls
from fastla.matmul import MmEngine, OpCounter, fit_exponent

from helpers import dd_residual_lu, oracle_kappa2

CONV = MmEngine("conv")


class TestLur:
    def test_identity(self):
        res = lur(np.eye(5))
        np.testing.assert_array_equal(res.p, np.arange(5))
        np.testing.assert_array_equal(res.l, np.eye(5))
        np.testing.assert_array_equal(res.u, np.eye(5))
        assert res.report.residual == 0.0

    def test_forced_pivot(self):
        res = lur(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_array_equal(res.p, [1, 0])
        np.testing.assert_array_equal(res.l, np.eye(2))

    def test_random_64_extended_oracle(self, rng, engine):
        a = gaussian_matrix(64, 64, rng)
        res = lur(a, engine)
        g = pivot_growth(a, res.u)
        assert dd_residual_lu(a[res.p], res.l, res.u) <= bounds.backward(64) * g

    def test_wilkinson_growth(self):
        n = 16
        w = np.eye(n) - np.tril(np.ones((n, n)), -1)
        w[:, -1] = 1.0
        res = lur(w)
        g = pivot_growth(w, res.u)
        assert g == pytest.approx(2.0 ** (n - 1))
        assert dd_residual_lu(w[res.p], res.l, res.u) <= bounds.backward(n) * g

    def test_pivot_magnitude_invariant(self, rng):
        for t in range(10):
            a = gaussian_matrix(24, 24, rng.split(t))
            res = lur(a, MmEngine("strassen", cutoff=4))
            assert np.max(np.abs(res.l)) <= 1.0 + 1e-12

    def test_permutation_is_bijection(self, rng):
        res = lur(gaussian_matrix(20, 12, rng))
        assert sorted(res.p.tolist()) == list(range(20))

    def test_pivot_sequence_matches_gepp(self, rng):
        for t in range(200):
            a = gaussian_matrix(16, 16, rng.split(t))
            p_ref, _, _ = gepp_lu(a)
            res = lur(a, CONV)
            np.testing.assert_array_equal(res.p, p_ref)

    def test_rectangular(self, rng):
        a = gaussian_matrix(24, 10, rng)
        res = lur(a)
        recon = res.l @ res.u
        assert norm(a[res.p] - recon) <= bounds.backward(24) * norm(a)
        assert res.l.shape == (24, 10)
        np.testing.assert_array_equal(np.diag(res.l), np.ones(10))

    def test_exact_singularity_flagged(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        res = lur(a)
        assert res.zero_pivot or np.any(np.diag(res.u) == 0.0)
        assert "zero-pivot" in res.report.flags

    def test_stability_gate_when_l_well_conditioned(self, rng):
        # Whenever the tracked kappa_1(L11) stays modest, the residual
        # bound holds with constant <= 1e3 (Lemma-style conditional check).
        for t in range(30):
            n = 32
            a = gaussian_matrix(n, n, rng.split(900 + t))
            res = lur(a, MmEngine("strassen", cutoff=8))
            if res.report.kappa <= 1e3:
                g = pivot_growth(a, res.u)
                assert res.report.residual <= bounds.backward(n) * g


class TestConditionEstimateOnlyWithReport:
    """The Hager estimate of L's blocks runs only when a report is asked for."""

    @pytest.fixture
    def estimates(self, monkeypatch):
        from fastla import lu

        made = []
        estimate = lu._unit_lower_cond1

        def counted(l, engine):
            made.append(estimate(l, engine))
            return made[-1]

        monkeypatch.setattr(lu, "_unit_lower_cond1", counted)
        return made

    def test_no_estimate_in_split_or_solve(self, estimates):
        from fastla.eig import SplitRegion, split_once

        rng = RngStream(0xC0DE)
        a = gaussian_matrix(32, 32, rng.split(0))
        split_once(a, SplitRegion.half_plane(0.0), rng=rng.split(1))
        solve_linear(a, rng.split(2).gaussians(32))
        assert estimates == []

    def test_one_estimate_per_recursion_node_with_report(self, estimates):
        # n = 64 with 8-column panels: nodes of 64, 2 x 32 and 4 x 16 columns.
        a = gaussian_matrix(64, 64, RngStream(0xC0DE))
        res = lur(a)
        assert len(estimates) == 7
        assert res.report.kappa == max(estimates)
        assert ("l-ill-conditioned" in res.report.flags) == (res.report.kappa > 1e3)

    def test_same_factors_without_report(self, rng, engine):
        a = gaussian_matrix(64, 64, rng)
        full, bare = lur(a, engine), lur(a, engine, with_report=False)
        for got, want in ((bare.p, full.p), (bare.l, full.l), (bare.u, full.u)):
            assert np.array_equal(got, want)
        assert isinstance(full.report.kappa, float)
        assert bare.report is None
        assert not bare.zero_pivot

    def test_zero_pivot_flagged_without_report(self):
        res = lur(np.array([[1.0, 2.0], [2.0, 4.0]]), with_report=False)
        assert res.zero_pivot
        assert res.report is None


class TestSolveTriangular:
    def test_identity(self):
        np.testing.assert_array_equal(
            solve_triangular(np.eye(3), np.ones(3), lower=True, unit_diag=True),
            np.ones(3))

    def test_hand_case(self):
        l = np.array([[1.0, 0.0], [0.5, 1.0]])
        x = solve_triangular(l, np.array([2.0, 3.0]), lower=True, unit_diag=True)
        np.testing.assert_allclose(x, [2.0, 2.0], atol=8 * EPS)

    @pytest.mark.parametrize("n", [1, _TRI_LEAF, _TRI_LEAF + 1, 2 * _TRI_LEAF + 3])
    @pytest.mark.parametrize("lower", [False, True])
    @pytest.mark.parametrize("unit_diag", [False, True])
    @pytest.mark.parametrize("cols", [None, 3])
    def test_extended_oracle(self, rng, n, lower, unit_diag, cols):
        from fastla import dd

        g = gaussian_matrix(n, n, rng.split(n))
        tri = np.tril if lower else np.triu
        diag = np.ones(n) if unit_diag else 1.0 + np.abs(np.diag(g))
        t = tri(g, -1 if lower else 1) / np.sqrt(n) + np.diag(diag)
        b = gaussian_matrix(n, cols or 1, rng.split(1))
        if cols is None:
            b = b[:, 0]
        # Compact LU storage: the kernel must read neither the other
        # triangle nor, with a unit diagonal, the stored diagonal.
        stored = t + (np.triu(np.full((n, n), np.nan), 1) if lower
                      else np.tril(np.full((n, n), np.nan), -1))
        if unit_diag:
            np.fill_diagonal(stored, np.nan)
        x = solve_triangular(stored, b, lower=lower, unit_diag=unit_diag)
        oracle = dd.solve_lower if lower else dd.solve_upper
        x_ref = oracle(t, b, unit_diag=unit_diag).to_float64()
        assert x.shape == b.shape
        kappa = np.linalg.cond(t, 2)
        assert norm(np.atleast_2d(x - x_ref)) <= (
            bounds.backward(n) * kappa * norm(np.atleast_2d(x_ref)))

    def test_zero_diagonal(self):
        t = np.triu(np.ones((3, 3)))
        t[1, 1] = 0.0
        with pytest.raises(Exception):
            solve_triangular(t, np.ones(3))


class TestSolveTriangularCost:
    @pytest.mark.parametrize("n", [_TRI_LEAF, _TRI_LEAF + 1, 2 * _TRI_LEAF + 3, 4 * _TRI_LEAF + 1])
    @pytest.mark.parametrize("lower", [False, True])
    @pytest.mark.parametrize("unit_diag", [False, True])
    def test_conventional_tallies(self, rng, n, lower, unit_diag):
        cols = 3
        t = np.tril(gaussian_matrix(n, n, rng)) + n * np.eye(n)
        if not lower:
            t = np.ascontiguousarray(t.T)
        counter = OpCounter()
        solve_triangular(t, gaussian_matrix(n, cols, rng.split(1)), lower, unit_diag,
                         CONV, counter)
        tri = n * (n - 1) // 2 * cols
        assert counter.scalar_mults == tri + (0 if unit_diag else n * cols)
        assert counter.scalar_adds == tri

    def test_updates_go_through_the_engine(self, rng):
        n = 4 * _TRI_LEAF
        t = np.tril(gaussian_matrix(n, n, rng)) + n * np.eye(n)
        b = gaussian_matrix(n, n, rng.split(1))
        mults = {}
        for name, engine in [("conv", CONV), ("strassen", MmEngine("strassen", cutoff=1))]:
            counter = OpCounter()
            solve_triangular(t, b, lower=True, engine=engine, counter=counter)
            mults[name] = counter.scalar_mults
        assert mults["strassen"] < mults["conv"]


class TestSolveLinear:
    def test_identity(self, rng):
        b = gaussian_matrix(5, 1, rng)[:, 0]
        np.testing.assert_array_equal(solve_linear(np.eye(5), b), b)

    def test_diag(self):
        x = solve_linear(np.diag([2.0, 4.0]), np.array([2.0, 8.0]))
        np.testing.assert_allclose(x, [1.0, 2.0], atol=8 * EPS)

    def test_constructed_solution(self, rng, engine):
        a = gaussian_matrix(32, 32, rng.split(0))
        x0 = gaussian_matrix(32, 1, rng.split(1))[:, 0]
        x = solve_linear(a, a @ x0, engine)
        kappa = oracle_kappa2(a)
        assert np.linalg.norm(x - x0) <= 1e3 * kappa * 32 * 32 * EPS * np.linalg.norm(x0)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            solve_linear(np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones(2))


@pytest.mark.parametrize("solver", [solve_linear, solve_ls])
@pytest.mark.parametrize("operand", ["a", "b"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solvers_reject_non_finite(rng, solver, operand, bad):
    data = {"a": gaussian_matrix(6, 6, rng), "b": gaussian_matrix(6, 1, rng.split(1))[:, 0]}
    data[operand].flat[2] = bad
    with pytest.raises(NonFiniteInputError):
        solver(data["a"], data["b"])


class TestLurCost:
    def test_mult_count_exponent_strassen(self, rng):
        sizes = [32, 64, 128]
        counts = []
        for n in sizes:
            counter = OpCounter()
            lur(gaussian_matrix(n, n, rng.split(n)), MmEngine("strassen", cutoff=1),
                counter, with_report=False)
            counts.append(counter.scalar_mults)
        slope = fit_exponent(sizes, counts)
        assert abs(slope - np.log2(7)) <= 0.15

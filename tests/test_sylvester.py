import numpy as np
import pytest
from scipy.linalg import schur

from fastla import bounds, sylvester
from fastla.core import EPS, NonFiniteInputError, RngStream, gaussian_matrix, norm
from fastla.baseline import SylvesterSingularError, conventional_sylvester, jacobi_svd
from fastla.eig import evecr
from fastla.matmul import MmEngine, OpCounter
from fastla.sylvester import (NotTriangularError, SylvesterProblem, block_boundaries,
                              block_eigenvalues, sep_estimate, sylr, sylr_oracle_equivalence)
from fastla.verify import random_triangular, sylvester_dd

from helpers import kron_operator

CONV = MmEngine("conv")


def _well_separated(n, m, rng, gap=3.0):
    a = random_triangular(n, rng.split(0), shift=gap)
    b = random_triangular(m, rng.split(1), shift=gap)
    b[np.arange(m), np.arange(m)] *= -1.0
    c = gaussian_matrix(n, m, rng.split(2))
    return a, b, c


class TestSylr:
    def test_scalar_base_case(self):
        r, _ = sylr(np.array([[3.0]]), np.array([[1.0]]), np.array([[-4.0]]))
        assert r[0, 0] == 2.0

    def test_small_vs_conventional(self, rng):
        a = np.array([[3.0, 1.0], [0.0, 4.0]])
        b = np.array([[1.0, 2.0], [0.0, 2.0]])
        c = gaussian_matrix(2, 2, rng)
        r, _ = sylr(a, b, c)
        r_ref = conventional_sylvester(a, b, c)
        assert norm(r - r_ref) <= 1e-10 * norm(r_ref)

    def test_zero_rhs(self, rng):
        a, b, _ = _well_separated(5, 4, rng)
        r, _ = sylr(a, b, np.zeros((5, 4)))
        np.testing.assert_array_equal(r, np.zeros((5, 4)))

    @pytest.mark.parametrize("shape", [(3, 5), (8, 8), (7, 2), (1, 6), (9, 1)])
    def test_shapes_and_residual(self, shape, rng, engine):
        n, m = shape
        a, b, c = _well_separated(n, m, rng.split(n * 10 + m))
        r, rep = sylr(a, b, c, engine)
        assert rep.residual <= bounds.backward(n + m)

    def test_random_64_forward_error_vs_dd_oracle(self, rng, engine):
        a, b, c = _well_separated(64, 64, rng)
        r, rep = sylr(a, b, c, engine)
        r_true = sylvester_dd(a, b, c)
        sep = sep_estimate(a, b).value
        from fastla.inverse import engine_mu_constant

        bound = bounds.sylr(64, norm(a), norm(b), sep, engine_mu_constant(engine))
        assert norm(r - r_true) / norm(r_true) <= bound

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (5, 9), (12, 3), (20, 20),
                                       (31, 17), (64, 64)])
    def test_conventional_tally(self, shape, rng):
        # Entry (i, j) of R costs one multiply and one add per coupled entry
        # of A's row i and B's column j, its pivot included: n m (n + m) / 2
        # of each in all, however the recursion splits.
        n, m = shape
        a, b, c = _well_separated(n, m, rng.split(n * 100 + m))
        counter = OpCounter()
        sylr(a, b, c, CONV, counter, with_report=False)
        assert counter.scalar_mults == counter.scalar_adds == n * m * (n + m) // 2

    def test_spectra_overlap_rejected(self):
        a = np.diag([1.0, 2.0])
        b = np.diag([2.0])
        with pytest.raises(SylvesterSingularError):
            sylr(a, b, np.ones((2, 1)))

    def test_non_triangular_rejected(self, rng):
        a = gaussian_matrix(3, 3, rng)
        with pytest.raises(NotTriangularError):
            sylr(a, np.diag([9.0]), np.ones((3, 1)))

    def test_quasi_triangular_bumps(self, rng):
        # 2x2 complex-pair bumps in both operands, solved against the dense
        # Kronecker oracle.
        a = np.array([[2.0, 5.0, 1.0], [-1.0, 2.0, 0.5], [0.0, 0.0, 7.0]])
        b = np.array([[-3.0, 1.0, 0.2], [0.0, -1.0, 2.0], [0.0, -2.0, -1.0]])
        c = gaussian_matrix(3, 3, rng)
        r, rep = sylr(a, b, c)
        k = kron_operator(a, b)
        vec = np.linalg.solve(k, -c.flatten(order="F"))
        assert np.linalg.norm(r.flatten(order="F") - vec) <= 1e-10 * np.linalg.norm(vec)
        assert block_boundaries(a) == [0, 2, 3]
        assert block_boundaries(b) == [0, 1, 3]


class TestSepEstimate:
    def test_scalar(self):
        est = sep_estimate(np.array([[3.0]]), np.array([[1.0]]))
        assert est.value == pytest.approx(2.0, rel=1e-12)

    def test_diag_case(self):
        est = sep_estimate(np.diag([1.0, 2.0]), np.array([[0.0]]))
        assert est.value == pytest.approx(1.0, rel=1e-9)

    def test_vs_dense_svd_oracle(self, rng):
        pairs = []
        for t in range(5):
            a = random_triangular(4, rng.split(2 * t), shift=1.0)
            b = random_triangular(4, rng.split(2 * t + 1), shift=1.0)
            b[np.arange(4), np.arange(4)] *= -1.0
            pairs.append((a, b))
        # The diagonal halves of a real Schur factor: inverse power iteration
        # stops at its 500-step cap there, at 0.484032126023 for 0.4840321255.
        t16 = np.triu(schur(gaussian_matrix(16, 16, RngStream(2).split(0)), output="real")[0], -1)
        cut = min(block_boundaries(t16)[1:-1], key=lambda x: abs(x - 8))
        pairs.append((t16[:cut, :cut], t16[cut:, cut:]))
        for a, b in pairs:
            est = sep_estimate(a, b)
            smin = jacobi_svd(kron_operator(a, b))[1][-1]
            assert est.value == pytest.approx(smin, rel=1e-12)

    def test_iteration_cap_flagged_as_upper_bound(self, rng, monkeypatch):
        # Two Lanczos steps cannot converge here; the Ritz value still
        # bounds sep from above.
        monkeypatch.setattr(sylvester, "SEP_MAX_ITERS", 2)
        a = np.triu(gaussian_matrix(33, 33, rng.split(0)), 1) + np.diag(np.linspace(3.0, 4.0, 33))
        b = np.triu(gaussian_matrix(32, 32, rng.split(1)), 1) - np.diag(np.linspace(3.0, 4.0, 32))
        est = sep_estimate(a, b)
        assert est.is_upper_bound
        smin = np.linalg.svd(kron_operator(a, b), compute_uv=False)[-1]
        assert est.value >= smin * (1.0 - 1e-12)

    def test_uncapped_matches_dense_svd(self, rng):
        a = np.triu(gaussian_matrix(33, 33, rng.split(0)), 1) + np.diag(np.linspace(3.0, 4.0, 33))
        b = np.triu(gaussian_matrix(32, 32, rng.split(1)), 1) - np.diag(np.linspace(3.0, 4.0, 32))
        est = sep_estimate(a, b)
        assert not est.is_upper_bound
        smin = np.linalg.svd(kron_operator(a, b), compute_uv=False)[-1]
        assert est.value == pytest.approx(smin, rel=1e-12)

    def test_near_singular_large_pair(self, rng):
        # n*m = 4900 and sep ~ 1e-12.  K = I (x) (A + 3I), so sep = sigma_min(A + 3I).
        a = random_triangular(70, rng.split(0), shift=2.0)
        b = -3.0 * np.eye(70)
        est = sep_estimate(a, b)
        assert not est.is_upper_bound
        s = np.linalg.svd(a + 3.0 * np.eye(70), compute_uv=False)
        assert abs(est.value - s[-1]) <= 10.0 * EPS * s[0]

    def test_evecr_flags_capped_split(self, monkeypatch):
        # A capped sep may overestimate, and s_floor with it: evecr must say so.
        monkeypatch.setattr(sylvester, "SEP_MAX_ITERS", 2)
        t = np.triu(schur(gaussian_matrix(16, 16, RngStream(2).split(0)), output="real")[0], -1)
        _, err = evecr(t)
        assert "sep-upper-bound:0:16" in err.flags

    def test_subproblem_monotonicity_exhaustive(self, rng):
        # sep(A_ii, B_jj) >= sep(A, B) for every 2x2 split of an 8x8 pair.
        a, b, _ = _well_separated(8, 8, rng, gap=1.0)
        parent = sep_estimate(a, b).value
        for i in range(1, 8):
            for j in range(1, 8):
                for sa, sb in [(a[:i, :i], b[:j, :j]), (a[:i, :i], b[j:, j:]),
                               (a[i:, i:], b[:j, :j]), (a[i:, i:], b[j:, j:])]:
                    assert sep_estimate(sa, sb).value >= parent - 1e-10


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry, where", [("sylr", (0, 3)), ("sylr", (0, 7)),
                                          ("sep_estimate", (0, 3)), ("sep_estimate", (4, 7)),
                                          ("evecr", (0, 7))],
                         ids=["sylr-A", "sylr-C", "sep-A", "sep-B", "evecr"])
def test_non_finite_input_rejected(alarm, entry, where, bad):
    # One NaN in A used to come back from sylr as a NaN solution, from
    # sep_estimate as value=nan and from evecr as SylvesterSingularError.
    t = np.triu(np.ones((8, 8))) + np.diag(np.arange(8.0))
    t[where] = bad
    a, b, c = t[:4, :4], t[4:, 4:], t[:4, 4:]
    calls = {"sylr": lambda: sylr(a, b, c), "sep_estimate": lambda: sep_estimate(a, b),
             "evecr": lambda: evecr(t)}
    with pytest.raises(NonFiniteInputError):
        calls[entry]()


class TestOracleEquivalence:
    def test_well_separated_small_stat(self, rng):
        a = np.diag(np.linspace(3.0, 4.0, 6))
        b = np.diag(np.linspace(-4.0, -3.0, 6))
        c = gaussian_matrix(6, 6, rng)
        stat = sylr_oracle_equivalence([SylvesterProblem(a, b, c)])
        assert stat <= 10.0

    def test_grid_of_random_problems(self, rng):
        probs = []
        for t in range(10):
            n = 2 + (t % 7)
            m = 2 + ((t * 3) % 7)
            a, b, c = _well_separated(n, m, rng.split(t))
            probs.append(SylvesterProblem(a, b, c))
        assert sylr_oracle_equivalence(probs) <= 1e3

    def test_tiny_sep_still_bounded(self, rng):
        delta = 1e-6
        a = np.triu(gaussian_matrix(4, 4, rng.split(0)), 1) * 0.1 + np.diag([1.0, 2.0, 3.0, 4.0])
        b = np.diag([1.0 + delta, 2.0 + delta, 3.0 + delta, 4.0 + delta])
        c = gaussian_matrix(4, 4, rng.split(1))
        stat = sylr_oracle_equivalence([SylvesterProblem(a, b, c)])
        assert stat <= 1e3

    def test_zero_rhs_both_zero(self, rng):
        a, b, _ = _well_separated(4, 4, rng)
        stat = sylr_oracle_equivalence([SylvesterProblem(a, b, np.zeros((4, 4)))])
        assert stat == 0.0


class TestForwardErrorGrowth:
    def test_growth_no_faster_than_recurrence(self, rng):
        # Forward error across sep in {1, 1e-2, 1e-4} at n = m = 32 grows
        # no faster than (1/sep)^(1+log2 n) x constant.
        n = 32
        errs = []
        seps = []
        base_diag = np.linspace(1.0, 2.0, n)
        # Diagonal shifts planting min spectral gaps of 1, 1e-2, 1e-4.
        for delta in (2.0, 1e-2, 1e-4):
            a = np.triu(gaussian_matrix(n, n, rng.split(int(1 / delta))), 1) * 0.05
            a += np.diag(base_diag)
            b = np.diag(base_diag + delta)
            c = gaussian_matrix(n, n, rng.split(int(1 / delta) + 1))
            r, _ = sylr(a, b, c)
            r_true = sylvester_dd(a, b, c)
            errs.append(max(norm(r - r_true) / norm(r_true), 1e-300))
            seps.append(sep_estimate(a, b).value)
        slope = np.polyfit(np.log10(1.0 / np.asarray(seps)), np.log10(errs), 1)[0]
        assert slope <= (1.0 + np.log2(n)) + 0.5


class TestBlockEigenvalues:
    def test_real_and_complex_blocks(self):
        t = np.array([[2.0, 5.0, 0.1], [-1.0, 2.0, 0.3], [0.0, 0.0, 7.0]])
        eigs = block_eigenvalues(t)
        want = np.array([2 + np.sqrt(5) * 1j, 2 - np.sqrt(5) * 1j, 7.0])
        assert np.allclose(np.sort_complex(eigs), np.sort_complex(want))

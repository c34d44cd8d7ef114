import numpy as np
import pytest

from fastla import bounds
from fastla.core import RngStream, gaussian_matrix, norm
from fastla.baseline import jacobi_svd
from fastla.matmul import MmEngine
from fastla.rurv import exact_rank_probe, f_statistic_experiment, haar_orthogonal, rurv
from fastla.verify import planted_svd

CONV = MmEngine("conv")


class TestHaarOrthogonal:
    def test_orthogonality(self, rng):
        for n in (1, 2, 5, 16, 48):
            q = haar_orthogonal(n, rng.split(n))
            assert norm(q.T @ q - np.eye(n)) <= bounds.backward(n)

    def test_scalar_sign_frequency(self):
        # n = 1: +-1 with equal probability; chi-square over 1000 fixed
        # seeds (1 dof, p > 0.01 needs chi2 < 6.63).
        plus = sum(haar_orthogonal(1, RngStream(s))[0, 0] > 0 for s in range(1000))
        chi2 = (2.0 * plus - 1000.0) ** 2 / 1000.0
        assert chi2 < 6.63

    def test_rotation_angle_uniform(self):
        # n = 2: the first column is uniform on the circle; KS statistic of
        # its angle against the uniform CDF over 2000 fixed seeds.
        angles = np.empty(2000)
        for s in range(2000):
            v = haar_orthogonal(2, RngStream(7_000_000 + s))
            angles[s] = np.arctan2(v[1, 0], v[0, 0]) % (2.0 * np.pi)
        ecdf = np.arange(1, 2001) / 2000.0
        sorted_u = np.sort(angles) / (2.0 * np.pi)
        ks = np.max(np.maximum(np.abs(ecdf - sorted_u), np.abs(ecdf - 1.0 / 2000 - sorted_u)))
        assert ks < 0.05


class TestRurv:
    def test_zero_matrix(self, rng):
        res = rurv(np.zeros((6, 6)), CONV, rng)
        np.testing.assert_array_equal(res.r, np.zeros((6, 6)))
        assert res.report.residual == 0.0

    def test_orthogonal_input_unit_spectrum(self, rng):
        q = haar_orthogonal(16, rng.split(0))
        res = rurv(q, CONV, rng.split(1))
        sigma = jacobi_svd(res.r)[1]
        assert np.max(np.abs(sigma - 1.0)) <= bounds.backward(16)

    @pytest.mark.parametrize("n", [16, 64])
    def test_reconstruction(self, n, engine, rng):
        bound = bounds.backward(n, engine)
        for t in range(10):
            a = gaussian_matrix(n, n, rng.split(1000 * n + t))
            res = rurv(a, engine, rng.split(2000 * n + t))
            assert res.report.residual <= bound
            assert res.report.orth_defect <= bound

    def test_seed_reproducibility(self, rng):
        a = gaussian_matrix(12, 12, rng)
        r1 = rurv(a, CONV, RngStream(5))
        r2 = rurv(a, CONV, RngStream(5))
        np.testing.assert_array_equal(r1.r, r2.r)
        np.testing.assert_array_equal(r1.v, r2.v)


class TestRankRevealing:
    def test_planted_spectrum_theorem_bounds(self, rng):
        # sigma = (1, 1e-1, 1e-8, ...): the leading 2x2 block must satisfy
        # f sigma_2 <= sigma_min(R11) <= sqrt(sigma_2^2 + sigma_3^2), and
        # the trailing block the explicit Theorem bound, for every seed.
        n, r = 16, 2
        sigma = np.concatenate([[1.0, 1e-1], np.full(n - r, 1e-8)])
        for t in range(20):
            sub = rng.split(t)
            a, p, q = planted_svd(n, sigma, sub.split(0))
            res = rurv(a, CONV, sub.split(1))
            x = q.T @ res.v.T
            f = jacobi_svd(x[:r, :r])[1][-1]
            lead = jacobi_svd(res.r[:r, :r])[1]
            trail_max = jacobi_svd(res.r[r:, r:])[1][0]
            assert lead[-1] >= f * sigma[r - 1] * (1.0 - 1e-6)
            assert lead[-1] <= np.sqrt(sigma[r - 1] ** 2 + sigma[r] ** 2) * (1.0 + 1e-6)
            assert trail_max >= sigma[r] * (1.0 - 1e-6)
            if sigma[r] < f * sigma[r - 1]:
                denom = 1.0 - sigma[r] ** 2 / (f ** 2 * sigma[r - 1] ** 2)
                bound = 3.0 * sigma[r] * f ** -4 * (sigma[0] / sigma[r - 1]) ** 3 / denom
                assert trail_max <= bound

    def test_exact_rank_probe_rank_one(self, rng):
        hits = 0
        for t in range(100):
            sub = rng.split(t)
            u = gaussian_matrix(16, 1, sub.split(0))
            v = gaussian_matrix(16, 1, sub.split(1))
            a = u @ v.T
            hits += exact_rank_probe(a, CONV, sub.split(2)) == 1
        assert hits == 100

    def test_exact_rank_probe_full_rank_sentinel(self, rng):
        assert exact_rank_probe(np.eye(12), CONV, rng) == 12


class TestFStatistic:
    def test_probability_bound_small(self):
        summary = f_statistic_experiment(32, 16, 200, RngStream(17))
        # Lemma-style qualitative check: Pr[f < 1/(r^2 sqrt(n))] well below
        # one half (the acceptance suite uses 500 trials and 0.25).
        assert summary.prob_below[1.0] <= 0.25
        assert summary.prob_below[0.5] <= 0.5

    def test_rank_one_median_vs_sphere_oracle(self):
        # r = 1: f = |V_11|, the first coordinate of a uniform point on the
        # sphere.  Median compared against direct sphere sampling.
        n, trials = 32, 400
        summary = f_statistic_experiment(n, 1, trials, RngStream(23))
        gen = np.random.default_rng(23)
        ref = np.empty(4000)
        for i in range(4000):
            x = gen.standard_normal(n)
            ref[i] = abs(x[0]) / np.linalg.norm(x)
        med_ref = float(np.median(ref))
        assert summary.quantiles[0.5] == pytest.approx(med_ref, rel=0.2)
        assert summary.quantiles[0.5] == pytest.approx(0.6745 / np.sqrt(n), rel=0.2)

    def test_degenerate_r_rejected(self):
        with pytest.raises(Exception):
            f_statistic_experiment(8, 8, 10, RngStream(0))

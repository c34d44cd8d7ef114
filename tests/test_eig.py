import numpy as np
import pytest

from fastla.core import EPS, NonFiniteInputError, RngStream, gaussian_matrix, norm
from fastla.baseline import jacobi_eig, jacobi_svd
from fastla.lu import solve_linear
from fastla.matmul import MmEngine, OpCounter, fit_exponent
from fastla.eig import (SignDivergenceError, SplitRegion, _polar, default_split_tol, evecr,
                        gershgorin_rectangle, norm_a21_profile, schur_dandc,
                        sign_function, split_once, svd_via_gram, symmetric_eig)
from fastla.rurv import haar_orthogonal
from fastla.sylvester import block_eigenvalues

from helpers import match_eigs, pair_over_zero, planted_nonsymmetric, random_triangular

CONV = MmEngine("conv")


def graded_tail(rng, n=64):
    """P diag(sigma) Q^T with sigma 32 values in [1, 2] and 32 in [1e-6, 1e-3]."""
    p, q = haar_orthogonal(n, rng.split(2)), haar_orthogonal(n, rng.split(3))
    sigma = np.concatenate([np.linspace(1.0, 2.0, 32), np.logspace(-3.0, -6.0, 32)])
    return p @ np.diag(sigma) @ q.T, sigma


class TestSignFunction:
    def test_scalar_newton_sequence(self):
        # x -> (x + 1/x)/2 from 2: 2, 1.25, 1.025, 1.0003..., -> 1.
        x = 2.0
        seq = [x]
        for _ in range(4):
            x = 0.5 * (x + 1.0 / x)
            seq.append(x)
        np.testing.assert_allclose(seq[:4], [2.0, 1.25, 1.025, 1.0003048780487805])
        s = sign_function(np.array([[2.0]]))
        assert s[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        s = sign_function(np.diag([2.0, -3.0]))
        np.testing.assert_allclose(s, np.diag([1.0, -1.0]), atol=1e-10)

    def test_imaginary_axis_diverges(self):
        with pytest.raises(SignDivergenceError):
            sign_function(np.array([[0.0, 1.0], [-1.0, 0.0]]))

    def test_overflowing_iterate_diverges(self):
        # 1/1e-320 is inf: the first step leaves a non-finite iterate, which
        # is the iteration's divergence, not a non-finite input.
        with pytest.raises(SignDivergenceError):
            sign_function(np.array([[1e-320]]))

    def test_constructed_eigenstructure(self, rng):
        n = 12
        x = np.eye(n) + 0.2 * gaussian_matrix(n, n, rng.split(0))
        d = np.concatenate([1.0 + 0.2 * rng.split(1).gaussians(6) * 0.5,
                            -1.0 + 0.2 * rng.split(2).gaussians(6) * 0.5])
        xinv = solve_linear(x, np.eye(n))
        a = x @ np.diag(d) @ xinv
        s_true = x @ np.diag(np.sign(d)) @ xinv
        s = sign_function(a)
        kappa_x = jacobi_svd(x)[1][0] / jacobi_svd(x)[1][-1]
        assert norm(s - s_true) <= 1e4 * EPS * kappa_x ** 2 * norm(s_true)

    def test_sign_idempotence(self, rng):
        for t in range(5):
            a = gaussian_matrix(10, 10, rng.split(t)) + np.diag(
                np.where(rng.split(100 + t).gaussians(10) > 0, 2.0, -2.0))
            s = sign_function(a)
            assert norm(s @ s - np.eye(10)) <= 1e-8


class TestNormA21:
    def test_recurrence_equals_direct_summation(self, rng):
        gen = rng.generator()
        for _ in range(5):
            ahat = np.asarray(gen.integers(-5, 6, size=(8, 8)), dtype=np.float64)
            prof = norm_a21_profile(ahat)
            direct = np.array([np.sum(np.abs(ahat[i + 1 :, : i + 1])) for i in range(7)])
            np.testing.assert_array_equal(prof, direct)


class TestSplitOnce:
    def test_trivial_two_by_two(self, rng):
        out = split_once(np.diag([1.0, -1.0]), SplitRegion.half_plane(0.0), rng=rng)
        assert out.accepted
        assert out.r == 1
        assert out.norm_a21 == 0.0

    def test_no_split_when_one_sided(self, rng):
        # All eigenvalues right of the line: P+ is the identity, no r gives
        # a small below-block, the not-accepted path is exercised.
        a = np.diag([1.0, 2.0, 3.0]) + np.triu(gaussian_matrix(3, 3, rng), 1)
        out = split_once(a, SplitRegion.half_plane(0.0), rng=rng)
        assert not out.accepted

    def test_disk_region_splits_conjugate_pair_from_real(self, rng):
        # Same real parts: a vertical line cannot split, a circle can.
        a = np.array([[0.0, 2.0, 0.3], [-2.0, 0.0, 0.1], [0.0, 0.0, 0.0]])
        q0 = __import__("fastla.rurv", fromlist=["haar_orthogonal"]).haar_orthogonal(
            3, rng.split(9))
        a = q0 @ a @ q0.T
        out_line = split_once(a, SplitRegion.half_plane(0.0), rng=rng.split(0))
        assert not out_line.accepted  # the line passes through the spectrum
        out_disk = split_once(a, SplitRegion.disk(0.0, 1.0), rng=rng.split(1))
        assert out_disk.accepted and out_disk.r in (1, 2)

    def test_singular_disk_denominator_rejected(self, rng):
        # The circle through 1 and 3 meets the eigenvalue 1: A - I is
        # exactly singular, and the split is rejected before any attempt.
        out = split_once(np.diag([1.0, 3.0, -1.0]), SplitRegion.disk(2.0, 1.0), rng=rng)
        assert not out.accepted
        assert out.attempts == 0


class TestGershgorin:
    def test_diagonal(self):
        (lo, hi), (ilo, ihi) = gershgorin_rectangle(np.diag([1.0, 5.0]))
        assert (lo, hi) == (1.0, 5.0)
        assert (ilo, ihi) == (0.0, 0.0)

    def test_antisymmetric(self):
        (lo, hi), (ilo, ihi) = gershgorin_rectangle(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert (lo, hi) == (-1.0, 1.0)

    def test_containment_symmetric_oracle(self, rng):
        a = gaussian_matrix(12, 12, rng)
        s = 0.5 * (a + a.T)
        (lo, hi), _ = gershgorin_rectangle(s)
        lam = jacobi_eig(s)[1]
        assert np.all(lam >= lo - 1e-12) and np.all(lam <= hi + 1e-12)


class TestSchurDandC:
    def test_already_triangular(self, rng):
        a = np.diag([3.0, 1.0, -2.0])
        res = schur_dandc(a, rng=rng)
        np.testing.assert_allclose(sorted(np.diag(res.t)), sorted([3.0, 1.0, -2.0]),
                                   atol=1e2 * EPS * norm(a))
        assert norm(a - res.q @ res.t @ res.q.T) <= 1e2 * EPS * norm(a)

    def test_companion_matrix(self, rng):
        # (x^2+1)(x-2): one real eigenvalue 2 and the pair +-i.
        comp = np.array([[2.0, -1.0, 2.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        res = schur_dandc(comp, rng=rng)
        assert not res.flags
        eigs = block_eigenvalues(res.t)
        assert match_eigs(eigs, [2.0 + 0j, 1j, -1j]) <= 1e-8

    def test_random_symmetric_vs_jacobi(self, rng):
        n = 32
        a = gaussian_matrix(n, n, rng)
        a = a + a.T
        res = schur_dandc(a, rng=rng.split(1), symmetric=True)
        assert not res.flags
        lam = np.sort(np.diag(res.t))
        lam_o = np.sort(jacobi_eig(a)[1])
        assert np.max(np.abs(lam - lam_o)) <= 1e4 * EPS * norm(a)

    def test_planted_spectrum(self, rng):
        n = 16
        eigs = [3.0, -2.5, 1.5, complex(0.5, 2.0), complex(-1.0, 1.0), 2.0,
                -0.5, 0.8, complex(1.8, 0.7), -3.0, 0.1, -1.7, 0.3]
        a, lam = planted_nonsymmetric(n, eigs, rng)
        res = schur_dandc(a, rng=rng.split(3))
        assert not res.flags
        assert match_eigs(block_eigenvalues(res.t), lam) <= 1e4 * EPS * norm(a)

    def test_global_backward_stability_budget(self, rng):
        for t in range(3):
            n = 24
            a = gaussian_matrix(n, n, rng.split(t))
            res = schur_dandc(a, rng=rng.split(100 + t))
            splits = res.n_splits
            resid = norm(a - res.q @ res.t @ res.q.T) / norm(a)
            assert resid <= 10.0 * max(splits, 1) * default_split_tol(n)
            assert norm(res.q.T @ res.q - np.eye(n)) <= 1e3 * n * n * EPS

    def test_split_soundness(self, rng):
        a = gaussian_matrix(16, 16, rng)
        res = schur_dandc(a, rng=rng.split(1))
        for node in res.tree:
            if node["kind"] == "split":
                assert node["norm_a21"] <= default_split_tol(node["hi"] - node["lo"]) * \
                    np.abs(a).sum() * 10  # scale of the parent block

    def test_circles_need_no_switch(self):
        # Every line fails on 0 and +-2i; the driver tries circles itself.
        res = schur_dandc(pair_over_zero())
        assert not res.flags
        assert res.n_splits == 1
        assert [node["kind"] for node in res.tree].count("bump") == 1

    def test_cluster_flagged_when_unsplittable(self, rng):
        # Four identical eigenvalues: no region can split, the block is
        # flagged and left unsplit -- but the factorization stays valid.
        q0 = __import__("fastla.rurv", fromlist=["haar_orthogonal"]).haar_orthogonal(
            4, rng)
        a = q0 @ (2.0 * np.eye(4) + np.diag([1e-13, -1e-13, 0, 0])) @ q0.T
        res = schur_dandc(a, rng=rng.split(1))
        assert any(f.startswith("cluster") for f in res.flags)
        assert norm(a - res.q @ res.t @ res.q.T) <= 1e3 * EPS * norm(a) * 16


class TestSymmetricEig:
    def test_diag(self, rng):
        q, lam = symmetric_eig(np.diag([5.0, -1.0]), rng=rng)
        np.testing.assert_allclose(lam, [5.0, -1.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(q), np.eye(2), atol=1e-12)

    def test_two_by_two_analytic(self, rng):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        q, lam = symmetric_eig(a, rng=rng)
        np.testing.assert_allclose(lam, [3.0, 1.0], atol=1e-12)
        want = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert min(np.linalg.norm(np.abs(q[:, 0]) - want),
                   np.linalg.norm(np.abs(q[:, 0]) - want[::-1])) <= 1e-10

    def test_random_64_vs_jacobi(self, rng):
        n = 64
        a = gaussian_matrix(n, n, rng)
        a = a + a.T
        q, lam = symmetric_eig(a, rng=rng.split(1))
        lam_o = jacobi_eig(a)[1]
        na = norm(a)
        assert np.max(np.abs(lam - lam_o)) <= 1e4 * EPS * na
        assert norm(a @ q - q @ np.diag(lam)) <= 1e4 * EPS * na
        assert norm(q.T @ q - np.eye(n)) <= 1e3 * n * n * EPS

    def test_asymmetric_rejected(self, rng):
        with pytest.raises(Exception):
            symmetric_eig(gaussian_matrix(4, 4, rng), rng=rng)


class TestSvdViaGram:
    def test_diag(self, rng):
        u, s, v, flags = svd_via_gram(np.diag([3.0, 2.0]), rng=rng)
        np.testing.assert_allclose(s, [3.0, 2.0], atol=1e-12)

    def test_orthogonal_all_ones(self, rng):
        from fastla.rurv import haar_orthogonal

        q = haar_orthogonal(8, rng)
        u, s, v, flags = svd_via_gram(q, rng=rng.split(1))
        assert np.max(np.abs(s - 1.0)) <= 1e4 * EPS
        assert norm(q - u @ np.diag(s) @ v.T) <= 1e4 * EPS * 8

    def test_random_vs_jacobi(self, rng):
        from fastla.rurv import haar_orthogonal

        p, q = haar_orthogonal(32, rng.split(2)), haar_orthogonal(32, rng.split(3))
        rank16 = p @ np.diag(np.concatenate([np.linspace(1.0, 2.0, 16), np.zeros(16)])) @ q.T
        rank31 = p @ np.diag(np.concatenate([np.linspace(1.0, 2.0, 31), [0.0]])) @ q.T
        x, y = rng.split(5).gaussians(16), rng.split(6).gaussians(16)
        seed8 = RngStream(8).split(0)
        # (name, A, rng, rank deficient): the rank-deficient inputs leave an
        # unsplit cluster or a 2x2 leaf at 0 in [[0, A], [A^T, 0]], which
        # must be flagged.
        cases = [
            ("gaussian 32", gaussian_matrix(32, 32, rng), rng.split(1), False),
            ("rank 16 of 32", rank16, rng.split(4), True),
            ("rank 1", np.outer(x, y), rng.split(7), True),
            ("zeros", np.zeros((8, 8)), rng.split(8), True),
            ("zero 1x1", np.zeros((1, 1)), rng.split(9), True),
            ("diag(3, 0)", np.diag([3.0, 0.0]), rng.split(10), True),
            ("rank 31 of 32", rank31, rng.split(11), True),
            ("spectral seed 8 job 0", gaussian_matrix(64, 64, seed8.split(0)),
             seed8.split(2).split(2), False),
        ]
        for name, a, sub, deficient in cases:
            n = a.shape[0]
            u, s, v, flags = svd_via_gram(a, rng=sub)
            s_o = jacobi_svd(a)[1]
            na = norm(a)
            assert np.max(np.abs(s - s_o)) <= 1e4 * EPS * na, name
            assert norm(a - u @ np.diag(s) @ v.T) <= 1e4 * EPS * na, name
            assert norm(u.T @ u - np.eye(n)) <= 1e3 * n * n * EPS, name
            assert norm(v.T @ v - np.eye(n)) <= 1e3 * n * n * EPS, name
            assert flags or not deficient, name

    def test_graded_tail_misses_bound_only_when_flagged(self, rng):
        from fastla.rurv import haar_orthogonal

        n = 64
        p, q = haar_orthogonal(n, rng.split(2)), haar_orthogonal(n, rng.split(3))
        sigma = np.concatenate([np.linspace(1.0, 2.0, 32), np.logspace(-3.0, -6.0, 32)])
        a = p @ np.diag(sigma) @ q.T
        u, s, v, flags = svd_via_gram(a, rng=rng.split(4))
        na = norm(a)
        within = (np.max(np.abs(s - np.sort(sigma)[::-1])) <= 1e4 * EPS * na
                  and norm(a - u @ np.diag(s) @ v.T) <= 1e4 * EPS * na
                  and norm(u.T @ u - np.eye(n)) <= 1e3 * n * n * EPS
                  and norm(v.T @ v - np.eye(n)) <= 1e3 * n * n * EPS)
        assert within or flags

    def test_rank_deficiency_inside_unsplit_cluster_flagged(self):
        # sigma_min = 1e-12 sits in an unsplit cluster whose diagonal reads
        # 6.3e-11, above the 1e4 eps ||A||_F floor (1.9e-11); the cluster's
        # Gershgorin lower bound (-1.3e-9) is not, so the result is flagged.
        from helpers import planted_svd

        n = 64
        sigma = np.concatenate([np.linspace(2.0, 1.0, 32), np.logspace(-8.0, -12.0, 32)])
        a, _, _ = planted_svd(n, sigma, RngStream(2024))
        u, s, v, flags = svd_via_gram(a)
        floor = 1e4 * EPS * norm(a)
        assert flags == ["cluster:40:64", "rank-deficient"]
        assert s[-1] > floor
        assert norm(u.T @ u - np.eye(n)) <= 1e3 * n * n * EPS
        assert norm(v.T @ v - np.eye(n)) <= 1e3 * n * n * EPS

    def test_graded_spectrum(self, rng):
        from helpers import planted_svd

        sigma = np.array([10.0, 5.0, 1.0, 0.3, 0.05, 1e-3])
        a, _, _ = planted_svd(6, sigma, rng)
        u, s, v, flags = svd_via_gram(a, rng=rng.split(1))
        np.testing.assert_allclose(s, sigma, atol=1e4 * EPS * sigma[0])


class TestPolar:
    @pytest.mark.parametrize("case", ["gaussian 64", "graded"])
    def test_orthogonal_factor(self, rng, engine, case):
        a = gaussian_matrix(64, 64, rng) if case == "gaussian 64" else graded_tail(rng)[0]
        n = a.shape[0]
        w = _polar(a, engine, None)
        h = w.T @ a
        na = norm(a)
        assert norm(w.T @ w - np.eye(n)) <= 1e3 * n * n * EPS
        assert norm(h - h.T) <= 1e4 * EPS * na
        assert np.min(np.linalg.eigvalsh(0.5 * (h + h.T))) >= -1e4 * EPS * na

    @pytest.mark.parametrize("case", ["rank 16 of 32", "zeros"])
    def test_rank_deficient_symmetric_factor(self, rng, engine, case):
        # W is only a partial isometry here; W^T A must still be symmetric.
        p, q = haar_orthogonal(32, rng.split(2)), haar_orthogonal(32, rng.split(3))
        rank16 = p @ np.diag(np.concatenate([np.linspace(1.0, 2.0, 16), np.zeros(16)])) @ q.T
        a = rank16 if case == "rank 16 of 32" else np.zeros((8, 8))
        h = _polar(a, engine, None).T @ a
        assert norm(h - h.T) <= 1e4 * EPS * norm(a)

    def test_rank_one_of_64(self, rng, engine):
        # W^T A missed the symmetry bound 3x when [sqrt(c) X; I] was factored
        # without first reducing X to triangular form.  Strassen products are
        # accurate only normwise, so on that engine it misses the bound
        # still, and the SVD is flagged instead of within its bounds.
        a = np.outer(rng.split(5).gaussians(64), rng.split(6).gaussians(64))
        h = _polar(a, engine, None).T @ a
        u, s, v, flags = svd_via_gram(a, engine, rng=rng.split(4))
        assert "rank-deficient" in flags
        if engine.kind == "conv":
            assert norm(h - h.T) <= 1e4 * EPS * norm(a)

    def test_graded_tail_within_bounds_unflagged(self, rng, engine):
        # The [[0, A], [A^T, 0]] route flagged this input `reconstruction`.
        a, sigma = graded_tail(rng)
        n = a.shape[0]
        u, s, v, flags = svd_via_gram(a, engine, rng=rng.split(4))
        na = norm(a)
        assert not flags
        assert np.max(np.abs(s - np.sort(sigma)[::-1])) <= 1e4 * EPS * na
        assert norm(a - u @ np.diag(s) @ v.T) <= 1e4 * EPS * na
        assert norm(u.T @ u - np.eye(n)) <= 1e3 * n * n * EPS
        assert norm(v.T @ v - np.eye(n)) <= 1e3 * n * n * EPS

    def test_op_tally_within_five_symmetric_eigs(self, rng, engine):
        # One n x n symmetric eigensolve plus six QDWH steps (3.4-3.8 times
        # symmetric_eig's mults); the 2n x 2n [[0, A], [A^T, 0]] route took
        # 8.5-9.0 times.
        a = gaussian_matrix(32, 32, rng)
        svd_count, eig_count = OpCounter(), OpCounter()
        svd_via_gram(a, engine, rng.split(1), svd_count)
        symmetric_eig(a + a.T, engine, rng.split(1), eig_count)
        assert svd_count.scalar_mults <= 5 * eig_count.scalar_mults


class TestEvecR:
    def test_hand_two_by_two(self):
        v, err = evecr(np.array([[2.0, 1.0], [0.0, 3.0]]))
        np.testing.assert_allclose(v[:, 0], [1.0, 0.0])
        np.testing.assert_allclose(v[:, 1], [1.0 / np.sqrt(2), 1.0 / np.sqrt(2)],
                                   atol=1e-14)

    def test_diagonal_gives_identity(self):
        v, err = evecr(np.diag([4.0, 2.0, -1.0]))
        np.testing.assert_array_equal(v, np.eye(3))

    def test_column_normalization(self, rng):
        t = random_triangular(32, rng, diag_scale=np.linspace(1.0, 17.0, 32))
        v, _ = evecr(t)
        np.testing.assert_allclose(np.linalg.norm(v, axis=0), 1.0, atol=1e-12)

    def test_residual_vs_predicted_bound(self, rng, engine):
        n = 32
        t = random_triangular(n, rng, diag_scale=np.linspace(1.0, 0.5 * (n + 1), n))
        v, err = evecr(t, engine)
        worst = max(np.linalg.norm(t @ v[:, i] - t[i, i] * v[:, i]) for i in range(n))
        assert worst / norm(t) <= err.predicted_evec_bound
        assert err.s_floor > 0

    def test_vs_back_substitution_oracle(self, rng):
        # Conventional per-vector oracle: solve (T - lambda I) v = 0 by
        # back substitution; compare angles against the recursive assembly.
        n = 16
        t = random_triangular(n, rng, diag_scale=np.linspace(1.0, float(n), n))
        v, err = evecr(t)
        for i in range(n):
            ref = np.zeros(n)
            ref[i] = 1.0
            for k in range(i - 1, -1, -1):
                ref[k] = (t[k, k + 1 : i + 1] @ ref[k + 1 : i + 1]) / (t[i, i] - t[k, k])
            ref /= np.linalg.norm(ref)
            cos = abs(float(ref @ v[:, i]))
            angle = np.sqrt(max(0.0, 1.0 - min(cos, 1.0) ** 2))
            assert angle <= err.predicted_evec_bound / max(
                min(np.abs(np.diff(np.diag(t)))), err.s_floor) * norm(t) + 1e-10

    def test_quasi_triangular_bump_atomic(self, rng):
        # A 2x2 complex bump: its two columns represent the invariant-plane
        # basis; the pair residual T V - V T_bump stays at roundoff.
        t = np.array([
            [1.0, 0.5, 0.2, 0.1],
            [0.0, 3.0, 2.0, 0.4],
            [0.0, -2.0, 3.0, 0.3],
            [0.0, 0.0, 0.0, 5.0],
        ])
        v, err = evecr(t)
        pair = v[:, 1:3]
        # Column normalization rescales the pair basis, so the invariance
        # test must be basis independent: T maps span(pair) into itself.
        from fastla.baseline import householder_qr

        qp, _ = householder_qr(pair)
        qp = qp[:, :2]
        image = t @ pair
        resid = norm(image - qp @ (qp.T @ image))
        assert resid <= err.predicted_evec_bound * norm(t) + 1e-10
        np.testing.assert_allclose(np.linalg.norm(v, axis=0), 1.0, atol=1e-12)

    def test_repeated_eigenvalue_rejected(self):
        t = np.triu(np.ones((3, 3)))
        with pytest.raises(Exception):
            evecr(t)

    def test_cost_exponent(self, rng):
        sizes = [32, 64, 128]
        counts = []
        for n in sizes:
            t = random_triangular(n, rng.split(n), diag_scale=np.linspace(1.0, float(n), n))
            counter = OpCounter()
            evecr(t, MmEngine("strassen", cutoff=1), counter)
            counts.append(counter.scalar_mults)
        slope = fit_exponent(sizes, counts)
        assert abs(slope - np.log2(7)) <= 0.15


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [
    schur_dandc, symmetric_eig, svd_via_gram, sign_function,
    pytest.param(lambda a: split_once(a, SplitRegion.half_plane(0.0)), id="split_once"),
])
def test_non_finite_input_rejected(alarm, entry, bad):
    # A 4x4 with one NaN used to send schur_dandc's region search into an
    # endless bisection, made split_once return a rejected split and
    # sign_function raise SignDivergenceError.  The typed error comes before
    # any numpy warning.
    a = np.diag([4.0, 3.0, 2.0, 1.0]) + 0.1
    a[1, 2] = a[2, 1] = bad
    with pytest.raises(NonFiniteInputError):
        entry(a)

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastla import dd
from fastla.core import EPS, RngStream, gaussian_matrix, norm
from fastla.matmul import (ErrorModel, MmEngine, OpCounter, fit_exponent,
                           measure_mm_error, multiply)

from helpers import strassen_reference

ENGINES = [MmEngine("conv"), MmEngine("blocked"), MmEngine("strassen", cutoff=2),
           MmEngine("strassen", cutoff=1)]


class TestMultiply:
    @pytest.mark.parametrize("engine", [MmEngine("conv"), MmEngine("blocked"),
                                        MmEngine("strassen")], ids=str)
    def test_identity_exact_default_engines(self, engine, rng):
        a = gaussian_matrix(7, 7, rng)
        np.testing.assert_array_equal(multiply(np.eye(7), a, engine), a)

    def test_identity_subcutoff_strassen_near_exact(self, rng):
        # Below its cutoff, the Winograd scheme's 15 additions round even
        # for an identity operand; the result is exact only to O(eps).
        a = gaussian_matrix(7, 7, rng)
        got = multiply(np.eye(7), a, MmEngine("strassen", cutoff=1))
        assert norm(got - a) <= 64 * EPS * norm(a)

    @pytest.mark.parametrize("engine", ENGINES, ids=str)
    def test_two_by_two(self, engine):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        # Oracle: conventional triple loop.
        ref = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    ref[i, j] += a[i, k] * b[k, j]
        np.testing.assert_allclose(multiply(a, b, engine), ref, atol=32 * EPS)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            multiply(np.eye(3), np.eye(4))

    @pytest.mark.parametrize("shape", [(3, 5, 7), (8, 2, 6), (1, 9, 1), (6, 6, 6), (13, 4, 9)])
    @pytest.mark.parametrize("engine", ENGINES, ids=str)
    def test_rectangular_partitioning(self, shape, engine, rng):
        p, q, r = shape
        a = gaussian_matrix(p, q, rng.split(hash(shape) % 1000))
        b = gaussian_matrix(q, r, rng.split(hash(shape) % 1000 + 1))
        got = multiply(a, b, engine)
        ref = multiply(a, b, MmEngine("conv"))
        scale = norm(a) * norm(b)
        assert norm(got - ref) <= 1e3 * max(p, q, r) ** 2 * EPS * scale

    @given(st.integers(1, 16), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_engine_equivalence_small_ints(self, n, seed):
        gen = np.random.default_rng(seed)
        a = np.asarray(gen.integers(-2, 3, size=(n, n)), dtype=np.float64)
        b = np.asarray(gen.integers(-2, 3, size=(n, n)), dtype=np.float64)
        ref = multiply(a, b, MmEngine("conv"))
        bound = 1e3 * n * n * EPS * norm(a) * norm(b)
        for engine in ENGINES[1:]:
            assert norm(multiply(a, b, engine) - ref) <= max(bound, 1e-300)

    @pytest.mark.parametrize("engine", [MmEngine("conv"), MmEngine("strassen", 8)], ids=str)
    @pytest.mark.parametrize("shape", [(1, 1, 1), (5, 7, 3), (16, 16, 16), (20, 9, 33)])
    def test_double_word_operands(self, engine, shape, rng):
        # Double-word operands take the slicing product whatever the engine,
        # tallied as a conventional product.
        p, q, r = shape
        a = dd.DD(gaussian_matrix(p, q, rng.split(0)), EPS * gaussian_matrix(p, q, rng.split(1)))
        b = dd.DD(gaussian_matrix(q, r, rng.split(2)), EPS * gaussian_matrix(q, r, rng.split(3)))
        want = a @ b
        counter = OpCounter()
        got = multiply(a, b, engine, counter)
        np.testing.assert_array_equal(got.hi, want.hi)
        np.testing.assert_array_equal(got.lo, want.lo)
        assert counter.scalar_mults == p * q * r
        assert counter.scalar_adds == p * (q - 1) * r


class TestCounting:
    def test_strassen_count_law(self):
        for k in range(1, 5):
            n = 2 ** k
            counter = OpCounter()
            multiply(np.ones((n, n)), np.ones((n, n)), MmEngine("strassen", cutoff=1), counter)
            assert counter.scalar_mults == 7 ** k
            assert counter.scalar_adds == 5 * (7 ** k - 4 ** k)

    def test_strassen_cutoff1_n8_343(self):
        counter = OpCounter()
        multiply(np.eye(8), np.eye(8), MmEngine("strassen", cutoff=1), counter)
        assert counter.scalar_mults == 343

    def test_conventional_counts(self):
        counter = OpCounter()
        multiply(np.ones((3, 4)), np.ones((4, 5)), MmEngine("conv"), counter)
        assert counter.scalar_mults == 3 * 4 * 5
        assert counter.scalar_adds == 3 * 3 * 5

    def test_counter_monotone(self, rng):
        counter = OpCounter()
        a = gaussian_matrix(8, 8, rng)
        multiply(a, a, MmEngine("strassen", cutoff=2), counter)
        m1, a1 = counter.scalar_mults, counter.scalar_adds
        multiply(a, a, MmEngine("strassen", cutoff=2), counter)
        assert counter.scalar_mults > m1 and counter.scalar_adds > a1


class TestStrassenSchedule:
    @pytest.mark.parametrize("n,cutoff", [(n, 1) for n in (2, 3, 9, 16)]
                             + [(n, c) for c in (32, 64) for n in (65, 127, 128, 200, 257)])
    def test_bit_identical_to_reference(self, n, cutoff, rng):
        a = gaussian_matrix(n, n, rng.split(2 * n))
        b = gaussian_matrix(n, n, rng.split(2 * n + 1))
        got = multiply(a, b, MmEngine("strassen", cutoff))
        np.testing.assert_array_equal(got, strassen_reference(a, b, cutoff))

    def test_rectangular_blocks_bit_identical(self, rng):
        # 260 x 130 by 130 x 390: six 130-square blocks, no fringe, no sums.
        s = 130
        a = gaussian_matrix(2 * s, s, rng.split(0))
        b = gaussian_matrix(s, 3 * s, rng.split(1))
        want = np.block([[strassen_reference(a[i * s:(i + 1) * s], b[:, j * s:(j + 1) * s], 32)
                          for j in range(3)] for i in range(2)])
        np.testing.assert_array_equal(multiply(a, b, MmEngine("strassen", 32)), want)

    @pytest.mark.parametrize("shape", [(300, 300, 1), (130, 40, 257), (65, 65, 64)])
    def test_thin_products_are_conventional(self, shape, rng):
        p, q, r = shape
        a = gaussian_matrix(p, q, rng.split(0))
        b = gaussian_matrix(q, r, rng.split(1))
        counter = OpCounter()
        got = multiply(a, b, MmEngine("strassen"), counter)
        np.testing.assert_array_equal(got, a @ b)
        assert counter.scalar_mults == p * q * r
        assert counter.scalar_adds == p * (q - 1) * r

    @pytest.mark.parametrize("n,cutoff,limit", [(512, 64, 16), (256, 1, 32)])
    def test_peak_memory(self, n, cutoff, limit, rng):
        # Peak traced allocation of one product, result included, in n^2 doubles.
        a = gaussian_matrix(n, n, rng.split(0))
        b = gaussian_matrix(n, n, rng.split(1))
        tracemalloc.start()
        try:
            multiply(a, b, MmEngine("strassen", cutoff))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (8 * n * n) <= limit


class TestFitExponent:
    def test_cubic(self):
        sizes = [8, 16, 32, 64]
        counts = [n ** 3 for n in sizes]
        assert fit_exponent(sizes, counts) == pytest.approx(3.0, abs=1e-9)

    def test_seven_power(self):
        sizes = [8, 16, 32, 64]
        counts = [7.0 ** math.log2(n) for n in sizes]
        assert fit_exponent(sizes, counts) == pytest.approx(math.log2(7), abs=1e-9)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_exponent([8, 16], [1, 2])

    def test_not_powers_of_two(self):
        with pytest.raises(ValueError):
            fit_exponent([8, 12, 16], [1, 2, 3])

    def test_measured_strassen_cutoff32_band(self, rng):
        sizes = [64, 128, 256, 512, 1024]
        counts = []
        for i, n in enumerate(sizes):
            c = OpCounter()
            a = gaussian_matrix(n, n, rng.split(2 * i))
            b = gaussian_matrix(n, n, rng.split(2 * i + 1))
            multiply(a, b, MmEngine("strassen", cutoff=32), c)
            counts.append(c.scalar_mults)
        slope = fit_exponent(sizes, counts)
        assert 2.78 <= slope <= 2.93


class TestErrorModel:
    def test_conventional_constant(self, rng):
        model = measure_mm_error(64, MmEngine("conv"), trials=3, rng=rng)
        assert model.observed_constant <= 64.0
        assert model.observed_constant > 0.0

    def test_strassen_constant_finite(self, rng):
        model = measure_mm_error(64, MmEngine("strassen", cutoff=8), trials=3, rng=rng)
        assert model.observed_constant <= 1e4

    def test_zero_matrix_zero_error(self):
        a = np.zeros((8, 8))
        got = multiply(a, a, MmEngine("strassen", cutoff=2))
        np.testing.assert_array_equal(got, np.zeros((8, 8)))

    def test_stability_across_seeds(self):
        consts = []
        for seed in range(20):
            model = measure_mm_error(16, MmEngine("strassen", cutoff=4), trials=1,
                                     rng=RngStream(seed))
            consts.append(model.observed_constant)
        assert max(consts) / min(consts) < 10.0

    def test_vs_extended_oracle_direct(self, rng):
        # The normalized error statistic itself: engine product against the
        # double-word conventional product.
        a = gaussian_matrix(32, 32, rng.split(0))
        b = gaussian_matrix(32, 32, rng.split(1))
        exact = (dd.DD(a) @ dd.DD(b)).to_float64()
        got = multiply(a, b, MmEngine("strassen", cutoff=4))
        stat = norm(got - exact) / (norm(a) * norm(b) * EPS)
        assert stat <= 1e4

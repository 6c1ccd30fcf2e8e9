import tracemalloc

import numpy as np
import pytest

from aaatrig.baselines import (
    AaaModel,
    FourierInterpolant,
    aaa_fit,
    evaluate_aaa,
    evaluate_fourier,
    fft_interpolant,
    fft_least_squares_errors,
    rectangle_samples,
)
from aaatrig.numerics import min_singular_direction
from aaatrig.solver import FitConfig, fit, loewner_system
from aaatrig.trigbary import SampleSet, TWO_PI


class TestAaa:
    def test_constant_data(self):
        ss = SampleSet.from_data(np.linspace(0, 6, 10), np.full(10, 2.5 + 1j))
        model = aaa_fit(ss)
        assert model.m == 1
        assert model.converged
        assert np.allclose(evaluate_aaa(model, [0.3, 4.4]), 2.5 + 1j, atol=1e-13)

    def test_interpolation_at_support(self):
        ss = rectangle_samples(np.exp, 200, seed=1)
        model = aaa_fit(ss)
        vals = evaluate_aaa(model, model.support)
        assert np.array_equal(vals, model.fvals)

    def test_discrete_error_at_termination(self):
        ss = rectangle_samples(np.exp, 500, seed=2)
        model = aaa_fit(ss)
        err = np.max(np.abs(evaluate_aaa(model, ss.points) - ss.values))
        assert err <= 1e-11 * model.scale

    def test_periodic_function_favors_trig(self):
        ss = rectangle_samples(lambda z: np.exp(np.sin(z)), 1000, seed=0)
        trig = fit(ss, FitConfig(cleanup=False))
        aaa = aaa_fit(ss)
        assert trig.m < aaa.m

    def test_nonperiodic_function_favors_aaa(self):
        ss = rectangle_samples(np.exp, 1000, seed=0)
        trig = fit(ss, FitConfig(cleanup=False))
        aaa = aaa_fit(ss)
        assert aaa.m < trig.m

    def test_evaluate_memory_bounded(self):
        # One 200000 x 54 temporary would take 173 MB; blocks of
        # EVAL_CELLS cells keep each at 1 MiB.
        rng = np.random.default_rng(13)
        m, n = 54, 200_000
        model = AaaModel(rng.uniform(0, TWO_PI, m) + 0j, rng.standard_normal(m) + 0j,
                         rng.standard_normal(m) + 0j, np.zeros(m), 1.0)
        zs = rng.uniform(0, TWO_PI, n) + 1j * rng.uniform(-1, 1, n)
        tracemalloc.start()
        try:
            evaluate_aaa(model, zs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    @pytest.mark.parametrize("kwargs, message", [
        ({"max_order": 0}, "max_order must be positive"),
        ({"rel_tol": -1.0}, "rel_tol must be nonnegative"),
        ({"rel_tol": np.nan}, "rel_tol must be nonnegative"),
    ], ids=["max-order-0", "negative-tol", "nan-tol"])
    def test_invalid_limits_rejected(self, kwargs, message):
        ss = rectangle_samples(np.exp, 50, seed=3)
        with pytest.raises(ValueError, match=message):
            aaa_fit(ss, **kwargs)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_cached_columns_match_assembled_system(self, k):
        ss = rectangle_samples(lambda z: np.exp(np.sin(z)), 300, seed=1)
        model = aaa_fit(ss, rel_tol=0.0, max_order=k)
        assert model.m == k
        idx = [int(np.argmin(np.abs(ss.points - s))) for s in model.support]
        system = loewner_system(ss, idx, lambda d: 1.0 / d)
        assert np.array_equal(model.weights, min_singular_direction(system.matrix))


class TestFourier:
    def test_cosine_coefficients(self):
        for M in (16, 33):
            x = TWO_PI * np.arange(M) / M
            ss = SampleSet.from_data(x, np.cos(x))
            interp = fft_interpolant(ss)
            F = interp.coefficients
            assert abs(F[0]) < 1e-14
            assert abs(F[1] - 0.5) < 1e-14
            assert abs(F[M - 1] - 0.5) < 1e-14
            assert np.max(np.abs(np.delete(F, [1, M - 1]))) < 1e-14

    def test_constant_coefficients(self):
        x = TWO_PI * np.arange(8) / 8
        interp = fft_interpolant(SampleSet.from_data(x, np.ones(8)))
        assert abs(interp.coefficients[0] - 1.0) < 1e-15
        assert np.max(np.abs(interp.coefficients[1:])) < 1e-15

    @pytest.mark.parametrize("M", [24, 31])
    def test_full_order_interpolates(self, M):
        rng = np.random.default_rng(3)
        x = TWO_PI * np.arange(M) / M
        f = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        ss = SampleSet.from_data(x, f)
        interp = fft_interpolant(ss)
        vals = evaluate_fourier(interp, x)
        assert np.max(np.abs(vals - f)) <= 1e-12 * np.max(np.abs(f))

    def test_parseval(self):
        rng = np.random.default_rng(4)
        M = 64
        x = TWO_PI * np.arange(M) / M
        f = rng.standard_normal(M)
        interp = fft_interpolant(SampleSet.from_data(x, f))
        lhs = np.sum(np.abs(f) ** 2) / M
        rhs = np.sum(np.abs(interp.coefficients) ** 2)
        assert abs(lhs - rhs) <= 1e-12 * lhs

    def test_truncation_is_least_squares_optimal(self):
        # Normal-equations oracle: best order-m trig polynomial on the grid.
        rng = np.random.default_rng(5)
        M, m = 32, 5
        x = TWO_PI * np.arange(M) / M
        f = np.tanh(2 * np.cos(x)) + 0.1 * rng.standard_normal(M)
        ss = SampleSet.from_data(x, f)
        trunc = FourierInterpolant(fft_interpolant(ss).coefficients, m)
        V = np.column_stack([np.exp(1j * k * x) for k in range(-m, m + 1)])
        coef, *_ = np.linalg.lstsq(V, f.astype(complex), rcond=None)
        best = V @ coef
        ours = evaluate_fourier(trunc, x)
        assert np.max(np.abs(ours - best)) <= 1e-11 * np.max(np.abs(best))

    def test_order_above_half_grid_keeps_nyquist_mode(self):
        # On even M, an order past M/2 keeps every mode, the Nyquist one too.
        M = 8
        x = TWO_PI * np.arange(M) / M
        f = np.cos(4 * x) + np.cos(x)
        coeffs = fft_interpolant(SampleSet.from_data(x, f)).coefficients
        for m in (4, 5):
            vals = evaluate_fourier(FourierInterpolant(coeffs, m), x)
            assert np.max(np.abs(vals - f)) <= 1e-14

    def test_requires_uniform_grid(self):
        ss = SampleSet.from_data([0.0, 1.0, 2.0, 5.0], np.ones(4))
        with pytest.raises(ValueError, match="uniform grid"):
            fft_interpolant(ss)

    def test_shuffled_grid_accepted(self):
        M = 16
        x = TWO_PI * np.arange(M) / M
        f = np.sin(x)
        perm = np.random.default_rng(6).permutation(M)
        interp = fft_interpolant(SampleSet.from_data(x[perm], f[perm]))
        assert np.max(np.abs(evaluate_fourier(interp, x) - f)) < 1e-12

    def test_least_squares_error_decreasing(self):
        M = 200
        x = TWO_PI * np.arange(M) / M
        ss = SampleSet.from_data(x, np.tanh(3 * np.cos(x)))
        errs = fft_least_squares_errors(ss, [2, 5, 10, 20, 50])
        assert np.all(np.diff(errs) < 0)


class TestDeterminism:
    def test_rectangle_samples_reproducible(self):
        a = rectangle_samples(np.exp, 50, seed=9)
        b = rectangle_samples(np.exp, 50, seed=9)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.values, b.values)
        c = rectangle_samples(np.exp, 50, seed=10)
        assert not np.array_equal(a.points, c.points)

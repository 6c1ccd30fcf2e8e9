import numpy as np
import pytest

from aaatrig.trigbary import (
    FarField,
    Parity,
    SampleSet,
    TrigModel,
    TWO_PI,
    canonicalize,
    cst,
    cst_derivatives,
    evaluate,
    evaluate_batch,
    far_field,
    interpolatory_weights,
    strip_distance,
)

from conftest import random_model


def worked_odd_model():
    # Closed form: r(z) = -cot((z - pi/2)/2).
    return TrigModel.build(Parity.ODD, [0.0, np.pi], [1.0, -1.0], [1.0, 1.0])


class TestCanonicalize:
    def test_already_in_strip(self):
        assert canonicalize(np.pi) == np.pi

    def test_shift_down(self):
        z = canonicalize(5 * np.pi / 2 + 0.3j)
        assert abs(z - (np.pi / 2 + 0.3j)) < 1e-14

    def test_shift_up(self):
        assert abs(canonicalize(-np.pi / 2) - 3 * np.pi / 2) < 1e-14

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = complex(rng.uniform(-30, 30), rng.uniform(-5, 5))
            once = canonicalize(z)
            assert canonicalize(once) == once
            assert 0.0 <= once.real < TWO_PI

    def test_tiny_negative_real_part(self):
        z = canonicalize(-1e-18 + 1j)
        assert 0.0 <= z.real < TWO_PI

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            canonicalize(complex(np.inf, 0.0))


class TestCst:
    def test_odd_values(self):
        assert abs(cst(Parity.ODD, np.pi / 2) - 1.0) < 1e-15
        assert abs(cst(Parity.ODD, np.pi / 6) - 2.0) < 1e-14

    def test_even_value(self):
        assert abs(cst(Parity.EVEN, np.pi / 4) - 1.0) < 1e-15

    def test_singularity_guard(self):
        for u in (0.0, np.pi, -2 * np.pi, np.pi + 5e-15):
            with pytest.raises(ValueError, match="basis singularity"):
                cst(Parity.ODD, u)

    def test_exponential_branch_consistency(self):
        # Both evaluation branches must agree where they hand over.
        for parity in Parity:
            for im in (19.5, 20.5, -19.5, -20.5):
                u = 1.234 + 1j * im
                direct = 1 / np.sin(u) if parity is Parity.ODD else np.cos(u) / np.sin(u)
                assert abs(cst(parity, u) - direct) < 1e-12 * abs(direct)

    def test_no_overflow_far_out(self):
        val = cst(Parity.EVEN, 0.7 + 500j)
        assert np.isfinite(val.real) and abs(val + 1j) < 1e-100


class TestCstDerivatives:
    @pytest.mark.parametrize("parity", list(Parity))
    def test_against_finite_differences(self, parity):
        h = 1e-5
        rng = np.random.default_rng(1)
        for _ in range(10):
            u = complex(rng.uniform(0.3, 2.8), rng.uniform(-0.5, 0.5))
            d = cst_derivatives(parity, u, 2)

            def f(x):
                return 1 / np.sin(x) if parity is Parity.ODD else np.cos(x) / np.sin(x)

            fd1 = (f(u + h) - f(u - h)) / (2 * h)
            fd2 = (f(u + h) - 2 * f(u) + f(u - h)) / h**2
            assert abs(d[0] - f(u)) < 1e-13 * abs(f(u))
            assert abs(d[1] - fd1) < 1e-8 * (1 + abs(fd1))
            assert abs(d[2] - fd2) < 1e-5 * (1 + abs(fd2))

    @pytest.mark.parametrize("parity", list(Parity))
    def test_orders_three_and_four_closed_forms(self, parity):
        rng = np.random.default_rng(2)
        u = rng.uniform(0.3, 2.8, 20) + 1j * rng.uniform(-0.5, 0.5, 20)
        x = np.cos(u) / np.sin(u)
        if parity is Parity.ODD:
            csc = 1 / np.sin(u)
            third = -csc * x * (5 + 6 * x**2)
            fourth = csc * (5 + 28 * x**2 + 24 * x**4)
        else:
            third = -2 * (1 + x**2) * (1 + 3 * x**2)
            fourth = 8 * x * (1 + x**2) * (2 + 3 * x**2)
        d = cst_derivatives(parity, u, 4)
        assert np.all(np.abs(d[3] - third) <= 1e-12 * (1 + np.abs(third)))
        assert np.all(np.abs(d[4] - fourth) <= 1e-12 * (1 + np.abs(fourth)))


class TestEvaluate:
    def test_constant_single_term(self):
        model = TrigModel.build(Parity.ODD, [1.0], [5.0], [0.3 + 0.1j])
        for z in (0.2, 2.0 + 1j, 6.1):
            assert abs(evaluate(model, z) - 5.0) < 1e-13

    def test_worked_example(self):
        model = worked_odd_model()
        expected = 2.0 + np.sqrt(3.0)  # -cot((pi/3 - pi/2)/2)
        assert abs(evaluate(model, np.pi / 3) - expected) < 1e-13

    def test_interpolation_shortcut(self):
        model = worked_odd_model()
        assert evaluate(model, 0.0) == 1.0
        assert evaluate(model, np.pi) == -1.0

    def test_interpolation_limit(self):
        model = worked_odd_model()
        for eps in (1e-12, 5e-12):
            val = evaluate(model, eps)
            assert abs(val - 1.0) <= 1e-9 * abs(val)

    def test_accuracy_near_support(self):
        # Barycentric evaluation stays accurate arbitrarily close to support.
        model = worked_odd_model()
        for eps in (1e-6, 1e-9, 1e-11):
            truth = -1.0 / np.tan((eps - np.pi / 2) / 2.0)
            assert abs(evaluate(model, eps) - truth) < 1e-12 * abs(truth)

    def test_pole_hit_returns_infinity(self):
        # Weights summing to zero make the even denominator vanish exactly
        # far up the strip (cot saturates at -i there), a genuine pole hit.
        model = TrigModel.build(Parity.EVEN, [0.0, np.pi], [1.0, 2.0], [1.0, -1.0])
        val = evaluate(model, 1.0 + 800j)
        assert not np.isfinite(val.real) or not np.isfinite(val.imag)

    def test_near_pole_value_is_large(self):
        # The odd worked variant has a denominator zero at z = pi/2; floating
        # point lands next to it and the evaluation must blow up accordingly.
        model = TrigModel.build(Parity.ODD, [0.0, np.pi], [1.0, 2.0], [1.0, 1.0])
        val = evaluate(model, np.pi / 2)
        assert not np.isfinite(val) or abs(val) > 1e12

    def test_batch_empty_and_repeated(self):
        model = worked_odd_model()
        assert evaluate_batch(model, []).shape == (0,)
        out = evaluate_batch(model, [0.0, 0.0])
        assert np.all(out == 1.0)
        grid = evaluate_batch(
            TrigModel.build(Parity.EVEN, [1.0], [2.0 - 1j], [1.0]),
            np.linspace(0.1, 6.0, 10).astype(complex),
        )
        assert np.allclose(grid, 2.0 - 1j, atol=1e-13)

    def test_periodicity(self):
        rng = np.random.default_rng(7)
        for parity in Parity:
            model = random_model(rng, 4, parity)
            for _ in range(20):
                z = complex(rng.uniform(0, TWO_PI), rng.uniform(-2, 2))
                base = evaluate(model, z)
                for k in range(-3, 4):
                    shifted = evaluate(model, z + TWO_PI * k)
                    assert abs(shifted - base) <= 1e-12 * (1 + abs(base))

    def test_weight_scaling_invariance(self):
        rng = np.random.default_rng(8)
        model = random_model(rng, 5, Parity.ODD)
        scaled = TrigModel.build(
            Parity.ODD, model.support, model.fvals, model.weights * (2.0 - 3.0j)
        )
        zs = rng.uniform(0, TWO_PI, 30) + 1j * rng.uniform(-1, 1, 30)
        a = evaluate_batch(model, zs)
        b = evaluate_batch(scaled, zs)
        assert np.all(np.abs(a - b) <= 1e-13 * (1 + np.abs(a)))

    def test_canonicalize_consistency(self):
        rng = np.random.default_rng(9)
        model = random_model(rng, 4, Parity.EVEN)
        for _ in range(20):
            z = complex(rng.uniform(-40, 40), rng.uniform(-1, 1))
            a = evaluate(model, z)
            b = evaluate(model, canonicalize(z))
            assert abs(a - b) <= 1e-13 * (1 + abs(a))


class TestFarField:
    def test_even_constant(self):
        model = TrigModel.build(
            Parity.EVEN, [0.3, 2.0, 4.0], [7.0, 7.0, 7.0], [1.0, 0.5j, -0.2]
        )
        ff = far_field(model)
        assert ff.f_plus == ff.f_minus
        assert abs(ff.f_plus - 7.0) < 1e-13

    def test_odd_worked_example(self):
        model = worked_odd_model()
        ff = far_field(model)
        assert abs(ff.f_plus - 1j) < 1e-14
        assert abs(ff.f_minus + 1j) < 1e-14
        # Oracle: direct evaluation far up/down the strip.
        assert abs(evaluate(model, 40j) - ff.f_plus) < 1e-12
        assert abs(evaluate(model, -40j) - ff.f_minus) < 1e-12

    def test_odd_single_term(self):
        model = TrigModel.build(Parity.ODD, [2.0], [3.0 + 1j], [1.0])
        ff = far_field(model)
        assert abs(ff.f_plus - (3.0 + 1j)) < 1e-14
        assert abs(ff.f_minus - (3.0 + 1j)) < 1e-14

    def test_consistency_at_60i(self):
        rng = np.random.default_rng(11)
        for parity in Parity:
            for _ in range(10):
                model = random_model(rng, 5, parity)
                ff = far_field(model)
                up = evaluate(model, 60j)
                dn = evaluate(model, -60j)
                assert abs(up - ff.f_plus) <= 1e-10 * (1 + abs(ff.f_plus))
                assert abs(dn - ff.f_minus) <= 1e-10 * (1 + abs(ff.f_minus))


class TestInterpolatoryWeights:
    def test_two_points(self):
        a = interpolatory_weights(Parity.EVEN, [0.0, np.pi])
        assert abs(a[0] + a[1]) < 1e-14  # proportional to {1, -1}
        assert abs(np.linalg.norm(a) - 1.0) < 1e-14

    def test_three_point_symmetry(self):
        sup = [0.0, 2 * np.pi / 3, 4 * np.pi / 3]
        a = interpolatory_weights(Parity.ODD, sup)
        # Direct product oracle.
        direct = []
        for j in range(3):
            prod = 1.0 + 0j
            for k in range(3):
                if k != j:
                    prod *= 1.0 / np.sin((sup[k] - sup[j]) / 2.0)
            direct.append(prod)
        direct = np.asarray(direct) / np.linalg.norm(direct)
        ratio = a / direct
        assert np.allclose(ratio, ratio[0], rtol=1e-12)
        assert np.allclose(np.abs(a), np.abs(a[0]), rtol=1e-12)

    def test_single_point(self):
        assert np.array_equal(interpolatory_weights(Parity.ODD, [1.0]), [1.0 + 0j])

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError):
            interpolatory_weights(Parity.ODD, [1.0, 1.0])

    def test_reproduces_trig_polynomial(self):
        # Degree-2 trigonometric polynomial sampled at 5 points (odd count).
        def poly(z):
            return 0.3 + np.exp(1j * z) - 0.5 * np.exp(-1j * z) + 0.25 * np.exp(2j * z)

        rng = np.random.default_rng(13)
        sup = np.sort(rng.uniform(0, TWO_PI, 5)).astype(complex)
        model = TrigModel.build(
            Parity.ODD, sup, poly(sup), interpolatory_weights(Parity.ODD, sup)
        )
        zs = rng.uniform(0, TWO_PI, 40) + 1j * rng.uniform(-0.5, 0.5, 40)
        vals = evaluate_batch(model, zs)
        assert np.all(np.abs(vals - poly(zs)) < 1e-10 * (1 + np.abs(vals)))

    def test_large_support_no_overflow(self):
        sup = TWO_PI * np.arange(64) / 64
        a = interpolatory_weights(Parity.EVEN, sup)
        assert np.all(np.isfinite(a.real) & np.isfinite(a.imag))
        assert abs(np.linalg.norm(a) - 1.0) < 1e-12


class TestSampleSet:
    def test_exact_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SampleSet.from_data([1.0, 1.0, 2.0], [0.0, 0.0, 1.0])

    def test_canonicalized_duplicates_rejected(self):
        pts = np.asarray([1.0 + 0j, 1.0 + TWO_PI])
        canon = pts - TWO_PI * np.floor(pts.real / TWO_PI)
        if canon[0] == canon[1]:  # float wrap landed exactly
            with pytest.raises(ValueError, match="duplicate"):
                SampleSet.from_data(pts, [0.0, 1.0])

    def test_points_in_strip(self):
        ss = SampleSet.from_data([-1.0, 9.0, 3.0], [1.0, 2.0, 3.0])
        assert np.all(ss.points.real >= 0.0)
        assert np.all(ss.points.real < TWO_PI)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            SampleSet.from_data([np.nan, 1.0], [0.0, 1.0])


class TestTrigModel:
    def test_norm_enforced(self):
        with pytest.raises(ValueError, match="unit"):
            TrigModel(Parity.ODD, np.asarray([1.0 + 0j]), np.asarray([1.0 + 0j]),
                      np.asarray([2.0 + 0j]))

    def test_build_normalizes(self):
        model = TrigModel.build(Parity.ODD, [1.0, 2.0], [1.0, 2.0], [3.0, 4.0])
        assert abs(np.linalg.norm(model.weights) - 1.0) < 1e-14

    def test_immutable_arrays(self):
        model = worked_odd_model()
        with pytest.raises(ValueError):
            model.support[0] = 1.0

    def test_strip_distance_wraps(self):
        assert abs(strip_distance(0.1, TWO_PI - 0.1) - 0.2) < 1e-12

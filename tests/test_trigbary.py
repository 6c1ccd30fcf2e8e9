import tracemalloc

import numpy as np
import pytest

from aaatrig.trigbary import (
    EVAL_CELLS,
    FarField,
    Parity,
    SampleSet,
    TrigModel,
    TWO_PI,
    canonicalize,
    cst,
    evaluate,
    evaluate_batch,
    far_field,
    interpolatory_weights,
    strip_distance,
)

from conftest import barycentric_sum, random_model


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
        # Past |Im u| ~ 710, where sin and cos overflow: csc -> 0 and
        # cot -> -+i for Im u -> +-infinity.
        for sign in (1.0, -1.0):
            for parity, limit in ((Parity.ODD, 0.0), (Parity.EVEN, -sign * 1j)):
                val = cst(parity, 0.7 + sign * 800j)
                assert np.isfinite(val.real) and np.isfinite(val.imag)
                assert abs(val - limit) < 1e-100


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

    @pytest.mark.parametrize("parity", list(Parity))
    def test_batch_blocks_match_small_batches(self, parity):
        rng = np.random.default_rng(10)
        model = random_model(rng, 6, parity)
        edge = EVAL_CELLS // model.m
        n = 2 * edge + 7
        zs = rng.uniform(0, TWO_PI, n) + 1j * rng.uniform(-1, 1, n)
        zs[::97] += 1j * rng.uniform(-80, 80, len(zs[::97]))  # far field
        zs[edge - 3 : edge + 3] = model.support[0]  # across a block edge
        whole = evaluate_batch(model, zs.reshape(-1, 1))
        pieces = np.concatenate([evaluate_batch(model, zs[i : i + 1000])
                                 for i in range(0, n, 1000)])
        assert whole.shape == (n, 1)
        assert np.array_equal(whole.ravel(), pieces)

    @pytest.mark.parametrize("parity", list(Parity))
    @pytest.mark.parametrize("m", [1, 6])
    def test_single_point_matches_batch(self, parity, m):
        rng = np.random.default_rng(12)
        model = random_model(rng, m, parity)
        zs = rng.uniform(0, TWO_PI, 300) + 1j * rng.uniform(-2, 2, 300)
        zs[::10] += 1j * rng.uniform(-80, 80, 30)
        zs[5] = model.support[0]
        batch = evaluate_batch(model, zs)
        assert np.array_equal(batch, [evaluate(model, z) for z in zs])

    def test_batch_memory_bounded(self):
        rng = np.random.default_rng(11)
        m, n = 54, 200_000
        model = TrigModel.build(Parity.ODD, rng.uniform(0, TWO_PI, m),
                                rng.standard_normal(m), rng.standard_normal(m))
        zs = rng.uniform(0, TWO_PI, n) + 1j * rng.uniform(-1, 1, n)
        tracemalloc.start()
        try:
            evaluate_batch(model, zs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2**20

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

    @pytest.mark.parametrize("parity", list(Parity))
    @pytest.mark.parametrize("height", [5.0, 31.0])
    def test_support_off_the_real_axis(self, parity, height):
        # Support up to |Im z_j| = height against the direct csc/cot sum, at
        # points beside, above and below it and far out in both directions.
        rng = np.random.default_rng(13)
        model = random_model(rng, 7, parity, im_range=height)
        zs = np.concatenate([
            model.support + 0.3,
            rng.uniform(0, TWO_PI, 40) + 1j * rng.uniform(-height - 1, height + 1, 40),
            rng.uniform(0, TWO_PI, 8) + 1j * np.array([1, -1] * 4) * (height + 9.0),
        ])
        num, _ = barycentric_sum(model, zs, use_numerator=True)
        den, _ = barycentric_sum(model, zs)
        ref = num / den
        assert np.all(np.abs(evaluate_batch(model, zs) - ref) <= 1e-12 * (1 + np.abs(ref)))

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

    @pytest.mark.parametrize("parity", list(Parity))
    @pytest.mark.parametrize("height", [1e3, 1e5])
    def test_consistency_far_out(self, parity, height):
        rng = np.random.default_rng(14)
        for _ in range(10):
            model = random_model(rng, 5, parity)
            ff = far_field(model)
            x = rng.uniform(0, TWO_PI, 4)
            up = evaluate_batch(model, x + 1j * height)
            dn = evaluate_batch(model, x - 1j * height)
            assert np.all(np.abs(up - ff.f_plus) <= 1e-10 * (1 + abs(ff.f_plus)))
            assert np.all(np.abs(dn - ff.f_minus) <= 1e-10 * (1 + abs(ff.f_minus)))


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

    def test_duplicate_pairs_named_in_sorted_point_order(self):
        msg = "duplicate canonical sample points at indices 1/4, 0/2$"
        with pytest.raises(ValueError, match=msg):
            SampleSet.from_data([2.0, 1.0, 2.0, 3.0, 1.0], np.zeros(5))

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

    @pytest.mark.parametrize("field", ["support", "fvals", "weights"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_rejected(self, field, bad):
        # NaN compares False, so it passes any check written as value > bound.
        data = {"support": [1.0, 2.0], "fvals": [1.0, 2.0], "weights": [0.6, 0.8]}
        data[field] = [data[field][0], bad]
        arrays = {k: np.asarray(v, dtype=complex) for k, v in data.items()}
        with pytest.raises(ValueError, match="finite"):
            TrigModel(Parity.ODD, arrays["support"], arrays["fvals"], arrays["weights"])

    def test_non_finite_err_history_allowed(self):
        # A step that did not converge may record an infinite error.
        model = TrigModel(Parity.ODD, np.asarray([1.0 + 0j]), np.asarray([1.0 + 0j]),
                          np.asarray([1.0 + 0j]), err_history=[np.inf])
        assert model.err_history[0] == np.inf

    def test_build_normalizes(self):
        model = TrigModel.build(Parity.ODD, [1.0, 2.0], [1.0, 2.0], [3.0, 4.0])
        assert abs(np.linalg.norm(model.weights) - 1.0) < 1e-14

    def test_immutable_arrays(self):
        model = worked_odd_model()
        with pytest.raises(ValueError):
            model.support[0] = 1.0

    def test_strip_distance_wraps(self):
        assert abs(strip_distance(0.1, TWO_PI - 0.1) - 0.2) < 1e-12


def test_random_model_refuses_crowded_support():
    # 40 points 0.35 apart do not fit in the 2*pi x 0.6 strip; the helper
    # must say so instead of drawing forever.
    with pytest.raises(ValueError, match="m=40"):
        random_model(np.random.default_rng(0), 40, Parity.ODD)

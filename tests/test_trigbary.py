import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from aaatrig.calculus import derivative_at
from aaatrig.solver import FitConfig, fit
from aaatrig.trigbary import (
    EVAL_CELLS,
    FarField,
    Parity,
    POLE_VALUE,
    SampleSet,
    TrigModel,
    TWO_PI,
    _zeta_form,
    barycentric_ratio,
    canonicalize,
    cst,
    evaluate,
    evaluate_batch,
    far_field,
    interpolatory_weights,
    strip_distance,
)

from conftest import barycentric_sum, complex_twins, random_model, real_axis_points, real_model


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, -np.inf)])
    def test_non_finite_point_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite point"):
            evaluate_batch(worked_odd_model(), [1.0, bad])

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
        assert len(ss) == ss.size == 3
        assert np.all(ss.points.real >= 0.0)
        assert np.all(ss.points.real < TWO_PI)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            SampleSet.from_data([np.nan, 1.0], [0.0, 1.0])

    # The tests above, and the input checks, on the constructor itself.
    @pytest.mark.parametrize("points, values, message", [
        ([1.0, 1.0, 2.0], [0.0, 0.0, 1.0], "duplicate"),
        ([2.0, 1.0, 2.0, 3.0, 1.0], np.zeros(5), "at indices 1/4, 0/2$"),
        ([1.0, 1.0 + TWO_PI, 2.0], [0.0, 1.0, 2.0], "duplicate"),
        ([np.nan, 1.0], [0.0, 1.0], "non-finite sample point"),
        ([1.0, 2.0], [1.0, np.inf], "non-finite sample value"),
        ([1.0, 2.0, 3.0], [1.0, 2.0], "equal length"),
        ([1.0], [1.0], "at least 2 points"),
    ], ids=["duplicate", "pairs", "wrapped", "point", "value", "shape", "one-point"])
    def test_constructor_rejects_malformed_input(self, points, values, message):
        with pytest.raises(ValueError, match=message):
            SampleSet(points, values)

    def test_constructor_projects_as_from_data(self):
        pts, vals = [-1.0, 9.0 + 0.5j, 3.0], [1.0, 2.0, 3.0]
        ss = SampleSet(pts, vals)
        assert np.all(ss.points.real >= 0.0) and np.all(ss.points.real < TWO_PI)
        assert ss.points.tobytes() == SampleSet.from_data(pts, vals).points.tobytes()

    def test_callers_arrays_stay_the_callers(self):
        # The set keeps read-only copies: the caller's complex arrays stay
        # writable, and writing to them does not reach the set.
        pts, vals = np.asarray([1.0 + 0j, 2.0]), np.asarray([3.0 + 0j, 4.0])
        ss = SampleSet(pts, vals)
        pts[0], vals[0] = 5.0, 6.0
        assert not ss.points.flags.writeable and not ss.values.flags.writeable
        assert ss.points[0] == 1.0 and ss.values[0] == 3.0


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

    def test_callers_arrays_stay_the_callers(self):
        # As for SampleSet: read-only copies, the caller's arrays untouched.
        given = [np.asarray([1.0 + 0j, 2.0]), np.asarray([3.0 + 0j, 4.0]),
                 np.asarray([0.6 + 0j, 0.8]), np.asarray([1e-3, 1e-9])]
        model = TrigModel(Parity.ODD, *given[:3], err_history=given[3])
        for arr in given:
            arr[0] = 0.5
        for own in (model.support, model.fvals, model.weights, model.err_history):
            assert not own.flags.writeable and own[0] != 0.5

    @pytest.mark.parametrize("support, weights, history, message", [
        ([1.0, 2.0], [0.6, 0.8, 0.0], None, "share length"),
        ([1.0, TWO_PI], [0.6, 0.8], None, "canonical strip"),
        ([1.0, 2.0], [0.0, 0.0], None, "must not all vanish"),
        ([1.0, 2.0], [0.6, 0.8], [0.0], "one entry per support point"),
    ])
    def test_malformed_model_rejected(self, support, weights, history, message):
        with pytest.raises(ValueError, match=message):
            TrigModel(Parity.ODD, np.asarray(support, dtype=complex), np.ones(len(support)),
                      np.asarray(weights, dtype=complex), err_history=history)

    def test_strip_distance_wraps(self):
        assert abs(strip_distance(0.1, TWO_PI - 0.1) - 0.2) < 1e-12


def test_random_model_refuses_crowded_support():
    # 40 points 0.35 apart do not fit in the 2*pi x 0.6 strip; the helper
    # must say so instead of drawing forever.
    with pytest.raises(ValueError, match="m=40"):
        random_model(np.random.default_rng(0), 40, Parity.ODD)


def test_unknown_parity_rejected():
    with pytest.raises(ValueError, match="unknown parity 'x'"):
        Parity.from_string("x")


@pytest.fixture(scope="module")
def tanh_odd_fit():
    x = TWO_PI * np.arange(1000) / 1000
    return fit(SampleSet.from_data(x, np.tanh(60.0 * np.cos(x))), FitConfig())


@pytest.mark.parametrize("periods", [10**3, 10**6])
def test_points_many_periods_out_keep_their_accuracy(tanh_odd_fit, periods):
    # Evaluation reads z through e^{isz}, which reduces z exactly; projecting
    # z - 2*pi*k with the rounded 2*pi first moved it by about k * 2.4e-16,
    # and cost 2.7e-8 (values) and 1.2e-6 (derivatives) at k = 10^6.
    z = np.random.default_rng(22).uniform(0.0, TWO_PI, 2000) + TWO_PI * periods
    t = np.tanh(60.0 * np.cos(z))
    assert np.max(np.abs(evaluate_batch(tanh_odd_fit, z) - t)) <= 1e-13
    dt = -60.0 * np.sin(z) * (1.0 - t * t)
    assert np.max(np.abs(derivative_at(tanh_odd_fit, z, 1) - dt)) <= 1e-10


def lazy_model(parity):
    # e^{iz_j} at z_j = 2 - 800i overflows: only the lower half-plane form
    # of this model can be built without a RuntimeWarning.
    return TrigModel.build(parity, [1, 2 - 800j, 4 + 0.5j], [1, 2, 3], [1, 1, 1])


class TestZetaFormCache:
    """Each model builds its zeta form once per half-plane, on first use there."""

    @pytest.mark.parametrize("parity, value", [
        (Parity.ODD, 1.4836 + 0.5387j),
        (Parity.EVEN, 1.1204 - 0.2032j),
    ])
    def test_only_the_half_plane_used_is_built(self, parity, value):
        model = lazy_model(parity)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert abs(evaluate(model, 0.5 - 1j) - value) < 1e-4
            for p in (1, 4):
                assert np.isfinite(derivative_at(model, 0.5 - 1j, p))
            assert evaluate_batch(model, []).shape == (0,)
            assert derivative_at(model, np.zeros((2, 0)), 1).shape == (2, 0)

    @pytest.mark.parametrize("parity", list(Parity))
    @pytest.mark.parametrize("m", [1, 5, 17])
    @pytest.mark.parametrize("s", [1.0, -1.0])
    def test_cached_form_is_the_zeta_form_bitwise(self, parity, m, s):
        model = random_model(np.random.default_rng(30 + m), m, parity)
        form = model._zeta(s)
        assert model._zeta(s) is form
        zeta_j, a, c = _zeta_form(model, s, model.weights)
        for got, want in zip(form, (zeta_j, a, c, np.abs(zeta_j))):
            assert np.array_equal(got, want) and not got.flags.writeable
        assert np.array_equal(form[4], np.add.reduce(c))
        assert np.array_equal(form[5], np.add.reduce(c * model.fvals))

    @pytest.mark.parametrize("parity", list(Parity))
    def test_replaced_weights_evaluate_as_a_fresh_model(self, parity):
        rng = np.random.default_rng(31)
        model = random_model(rng, 6, parity)
        zs = rng.uniform(0, TWO_PI, 50) + 1j * rng.uniform(-2, 2, 50)
        evaluate_batch(model, zs)
        w = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        w /= np.linalg.norm(w)
        replaced = dataclasses.replace(model, weights=w)
        fresh = TrigModel(parity, model.support, model.fvals, w)
        assert [f.name for f in dataclasses.fields(replaced)] == [
            "parity", "support", "fvals", "weights", "err_history", "scale", "converged",
            "cleanup_warning"]
        assert np.array_equal(evaluate_batch(replaced, zs), evaluate_batch(fresh, zs))
        assert not np.array_equal(evaluate_batch(replaced, zs), evaluate_batch(model, zs))
        for p in (1, 4):
            assert np.array_equal(derivative_at(replaced, zs, p), derivative_at(fresh, zs, p))


class TestOneBlock:
    """A batch that fits one block of by_blocks gives what one-point calls give."""

    @pytest.mark.parametrize("parity", list(Parity))
    @pytest.mark.parametrize("extra", [0, 1])
    def test_batch_equals_one_point_calls(self, parity, extra):
        rng = np.random.default_rng(32)
        model = random_model(rng, 20, parity)
        n = EVAL_CELLS // model.m + extra
        zs = rng.uniform(0, TWO_PI, n) + 1j * rng.uniform(-1, 1, n)
        zs[::50] += 1j * rng.uniform(-80, 80, len(zs[::50]))
        hits = zs.copy()
        hits[::40] = model.support[0]
        assert (evaluate_batch(model, hits).tobytes()
                == np.array([evaluate(model, z) for z in hits]).tobytes())
        for p in (1, 4):
            assert (derivative_at(model, zs, p).tobytes()
                    == np.array([derivative_at(model, z, p) for z in zs]).tobytes())

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (), (3, 4)])
    def test_shapes_are_kept(self, shape):
        rng = np.random.default_rng(33)
        model = random_model(rng, 5, Parity.EVEN)
        zs = (rng.uniform(0, TWO_PI, shape) + 1j * rng.uniform(-1, 1, shape)).astype(complex)
        values = evaluate_batch(model, zs)
        assert values.shape == shape
        assert np.array_equal(values.ravel(), evaluate_batch(model, zs.ravel()))
        for p in (1, 4):
            d = derivative_at(model, zs, p)
            if shape == ():
                assert isinstance(d, complex)
            else:
                assert d.shape == shape
            assert np.array_equal(np.ravel(d), derivative_at(model, zs.ravel(), p))


def zeta_ratio(model, s, zs):
    """barycentric_ratio on the zeta differences evaluate_batch forms in the
    half-plane of sign s, with no real-axis rule."""
    zeta_j, a, _, abs_zeta, c_sum, cf_sum = model._zeta(s)
    diff = np.exp(s * 1j * zs)[:, None] - zeta_j
    return barycentric_ratio(diff, abs_zeta, a, c_sum, cf_sum, model.fvals)


class TestRealAxis:
    """A real model's finite values at real points have imaginary part +0.0,
    and their real parts are the zeta form's bit for bit."""

    @pytest.mark.parametrize("parity", list(Parity))
    @pytest.mark.parametrize("m", [1, 5, 17])
    def test_real_points_give_real_values(self, parity, m):
        rng = np.random.default_rng(40 + m)
        model = real_model(rng, m, parity)
        zs = real_axis_points(rng)
        zs[3] = model.support[-1]
        values = evaluate_batch(model, zs)
        reference = zeta_ratio(model, 1.0, zs)
        assert model._real and "_real" in model.__dict__
        assert np.array_equal(values.real, reference.real)
        assert not np.any(values.imag) and not np.any(np.signbit(values.imag))
        assert values[3] == model.fvals[-1]
        if m > 1:
            assert np.any(reference.imag)
        assert values.tobytes() == np.array([evaluate(model, z) for z in zs]).tobytes()

    @pytest.mark.parametrize("parity", list(Parity))
    @pytest.mark.parametrize("extra", [0, 1])
    def test_batch_equals_one_point_calls(self, parity, extra):
        rng = np.random.default_rng(47)
        model = real_model(rng, 20, parity)
        n = EVAL_CELLS // model.m + extra
        zs = real_axis_points(rng, n)
        zs[::3] += 1j * rng.uniform(-1.0, 1.0, len(zs[::3]))
        hits = zs.copy()
        hits[::40] = model.support[0]
        values = evaluate_batch(model, hits)
        assert values.tobytes() == np.array([evaluate(model, z) for z in hits]).tobytes()
        assert not np.any(values[hits.imag == 0.0].imag)
        for p in (1, 4):
            assert (derivative_at(model, zs, p).tobytes()
                    == np.array([derivative_at(model, z, p) for z in zs]).tobytes())

    @pytest.mark.parametrize("parity", list(Parity))
    def test_complex_models_and_points_keep_their_imaginary_parts(self, parity):
        rng = np.random.default_rng(46)
        model = real_model(rng, 5, parity)
        zs = real_axis_points(rng)
        off_axis = zs + 1j * rng.uniform(-2.0, 2.0, len(zs))
        off_axis[:2] = zs[:2] + np.array([1e-300j, -1e-300j])
        values = evaluate_batch(model, off_axis)
        up = off_axis.imag >= 0.0
        assert values[up].tobytes() == zeta_ratio(model, 1.0, off_axis[up]).tobytes()
        assert values[~up].tobytes() == zeta_ratio(model, -1.0, off_axis[~up]).tobytes()
        for twin in complex_twins(model):
            values = evaluate_batch(twin, zs)
            assert not twin._real and np.all(values.imag != 0.0)
            assert values.tobytes() == zeta_ratio(twin, 1.0, zs).tobytes()

    def test_non_finite_values_keep_their_imaginary_parts(self):
        model = worked_odd_model()
        assert model._real
        poles = evaluate_batch(model, np.array([np.pi / 2, complex(np.pi / 2, -0.0)]))
        assert poles.tobytes() == np.array([POLE_VALUE, POLE_VALUE]).tobytes()
        huge = TrigModel.build(Parity.ODD, [0.5, 2.0, 4.0], [1e308, -1e308, 1e308], [1, 1, 1])
        zs = np.array([1.0, 3.0, 5.0], dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            values = evaluate_batch(huge, zs)
            reference = zeta_ratio(huge, 1.0, zs)
        assert huge._real and not np.any(np.isfinite(values[:2]))
        assert np.all(values[:2].imag != 0.0) and values[2].imag == 0.0
        assert np.array_equal(values[:2], reference[:2])

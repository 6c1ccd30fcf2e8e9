import tracemalloc

import mpmath
import numpy as np
import pytest

from aaatrig import numerics
from aaatrig.polezero import (
    PartialFractions,
    _zeta_sum,
    partial_fraction_eval,
    partial_fractions,
    poles_and_zeros,
    residues,
    taper_fit,
    transform,
)
from aaatrig.solver import FitConfig, fit
from aaatrig.trigbary import (
    Parity,
    SampleSet,
    TrigModel,
    TWO_PI,
    _zeta_form,
    evaluate_batch,
    far_field,
    interpolatory_weights,
    strip_distance,
)

from conftest import barycentric_sum, dense_roots, match_point_sets, random_model


def odd_worked():
    # r(z) = -cot((z - pi/2)/2): pole pi/2, zero 3pi/2, residue -2.
    return TrigModel.build(Parity.ODD, [0.0, np.pi], [1.0, -1.0], [1.0, 1.0])


def even_csc():
    # r(z) = csc(z): poles {0, pi}, no zeros, residues {1, -1}.
    return TrigModel.build(
        Parity.EVEN, [np.pi / 2, 3 * np.pi / 2], [1.0, -1.0], [1.0, 1.0]
    )


def even_pi_special():
    # r(z) = -sec(z): poles {pi/2, 3pi/2}, no zeros, residues {1, -1}.
    return TrigModel.build(Parity.EVEN, [np.pi, 0.0], [1.0, -1.0], [1.0, 1.0])


# 1/(1.05 + cos x) has simple poles at pi -+ i*A_NEAR_PI with residues
# +-i/sinh(A_NEAR_PI).
A_NEAR_PI = np.arccosh(1.05)


def near_pi_samples(eps):
    """1/(1.05 + cos x) on a 400-point grid whose middle point sits at pi + eps."""
    x = TWO_PI * np.arange(400) / 400
    x[200] = np.pi + eps
    return SampleSet.from_data(x, 1.0 / (1.05 + np.cos(x)))


class TestTransform:
    def test_even_relations(self):
        model = TrigModel.build(
            Parity.EVEN, [0.0, np.pi / 2, 4.0], [1.0, 2.0, 3.0], [1.0, 1.0, 1.0]
        )
        tb = transform(model)
        zeta = np.exp(1j * model.support)
        assert np.allclose(tb.shifted_support, zeta, atol=1e-14)
        assert np.allclose(tb.shifted_weights, 2 * model.weights * zeta, atol=1e-14)
        # zeta_j = 1 at z_j = 0 and i at pi/2.
        assert abs(tb.shifted_weights[0] - 2 * model.weights[0]) < 1e-14
        assert abs(tb.shifted_weights[1] - 2j * model.weights[1]) < 1e-14
        assert abs(tb.head_num - np.sum(model.fvals * model.weights)) < 1e-14
        assert abs(tb.head_den - np.sum(model.weights)) < 1e-14

    def test_odd_relations(self):
        model = TrigModel.build(Parity.ODD, [np.pi, 1.0], [1.0, 2.0], [1.0, 1.0])
        tb = transform(model)
        assert tb.head_num == 0 and tb.head_den == 0
        assert abs(tb.shifted_support[0] + 1.0) < 1e-15  # e^{i pi} = -1
        assert abs(tb.shifted_weights[0] - 1j * model.weights[0]) < 1e-15

    def test_pi_is_ordinary_node(self):
        model = even_pi_special()
        tb = transform(model)
        assert len(tb.shifted_support) == model.m
        assert abs(tb.shifted_support[0] + 1.0) < 1e-15  # e^{i pi} = -1
        assert abs(tb.shifted_weights[0] + 2 * model.weights[0]) < 1e-15


class TestWorkedExamples:
    def test_odd(self):
        rep = poles_and_zeros(odd_worked())
        assert len(rep.poles) == 1 and len(rep.zeros) == 1
        assert abs(rep.poles[0] - np.pi / 2) < 1e-10
        assert abs(rep.zeros[0] - 3 * np.pi / 2) < 1e-10
        assert abs(rep.residues[0] + 2.0) < 1e-10

    def test_even_csc(self):
        rep = poles_and_zeros(even_csc())
        assert match_point_sets(rep.poles, [0.0, np.pi], 1e-10)
        assert len(rep.zeros) == 0
        by_pos = rep.residues[np.argsort(rep.poles.real)]
        assert abs(by_pos[0] - 1.0) < 1e-10
        assert abs(by_pos[1] + 1.0) < 1e-10

    def test_even_pi_special(self):
        rep = poles_and_zeros(even_pi_special())
        assert match_point_sets(rep.poles, [np.pi / 2, 3 * np.pi / 2], 1e-10)
        assert len(rep.zeros) == 0
        by_pos = rep.residues[np.argsort(rep.poles.real)]
        assert abs(by_pos[0] - 1.0) < 1e-10
        assert abs(by_pos[1] + 1.0) < 1e-10

    def test_m1_rejected(self):
        with pytest.raises(ValueError, match="m >= 2"):
            poles_and_zeros(TrigModel.build(Parity.ODD, [1.0], [1.0], [1.0]))


class TestCrossFormulationOracle:
    @pytest.mark.parametrize("parity", list(Parity))
    def test_matches_dense_root_search(self, parity):
        rng = np.random.default_rng(42)
        models = [
            random_model(rng, 2 + trial % 5, parity, force_pi=(parity is Parity.EVEN and trial == 3))
            for trial in range(6)
        ]
        if parity is Parity.EVEN:
            # A support point just off pi, which the zeta pencil treats like any other.
            for m, offset in ((3, 1e-9), (4, 1e-7), (5, 1e-9)):
                base = random_model(rng, m, parity, force_pi=True)
                support = base.support.copy()
                support[0] += offset
                models.append(TrigModel.build(parity, support, base.fvals, base.weights))
        for model in models:
            rep = poles_and_zeros(model)
            for pts, use_num in ((rep.poles, False), (rep.zeros, True)):
                oracle = dense_roots(model, use_numerator=use_num)
                window = pts[np.abs(pts.imag) <= 3.5]
                assert match_point_sets(window, oracle, 1e-8)

    @pytest.mark.parametrize("parity", list(Parity))
    def test_residual_checks(self, parity):
        rng = np.random.default_rng(43)
        for _ in range(10):
            model = random_model(rng, 4, parity)
            rep = poles_and_zeros(model)
            if len(rep.poles):
                total, ref = barycentric_sum(model, rep.poles, use_numerator=False)
                assert np.all(np.abs(total) <= 1e-6 * ref)
                order = np.lexsort((rep.poles.imag, rep.poles.real))
                assert np.array_equal(order, np.arange(len(rep.poles)))
            if len(rep.zeros):
                total, ref = barycentric_sum(model, rep.zeros, use_numerator=True)
                assert np.all(np.abs(total) <= 1e-6 * ref)
            # The zeros are the roots of the coefficient vector weights * fvals,
            # which a model with those weights has as its poles.
            numerator = TrigModel.build(parity, model.support, model.fvals,
                                        model.weights * model.fvals)
            assert match_point_sets(rep.zeros, poles_and_zeros(numerator).poles, 1e-12)

    def test_zeros_are_reciprocal_poles(self):
        rng = np.random.default_rng(44)
        for parity in Parity:
            model = random_model(rng, 4, parity)
            recip = TrigModel.build(
                parity, model.support, 1.0 / model.fvals, model.weights * model.fvals
            )
            zeros = poles_and_zeros(model).zeros
            rpoles = poles_and_zeros(recip).poles
            assert match_point_sets(zeros, rpoles, 1e-8)


class TestNearPiSupport:
    """Even fits whose support holds a point within 2e-6 of pi."""

    @pytest.mark.parametrize("eps", [1e-9, 1e-7, 2e-6])
    def test_fit_with_cleanup_returns(self, eps):
        model = fit(near_pi_samples(eps), FitConfig(parity=Parity.EVEN))
        assert model.m >= 2

    @pytest.mark.parametrize("eps", [1e-9, 1e-7, 2e-6])
    def test_raw_fit_poles_and_residues(self, eps):
        samples = near_pi_samples(eps)
        model = fit(samples, FitConfig(parity=Parity.EVEN, cleanup=False))
        assert np.min(strip_distance(model.support, np.pi)) <= 2 * eps
        rep = poles_and_zeros(model)
        genuine = np.zeros(len(rep.poles), dtype=bool)
        for sign in (1, -1):
            d = strip_distance(rep.poles, np.pi + sign * 1j * A_NEAR_PI)
            j = int(np.argmin(d))
            assert d[j] < 1e-10
            assert abs(rep.residues[j] + sign * 1j / np.sinh(A_NEAR_PI)) < 1e-8
            genuine[j] = True
        scale = np.max(np.abs(samples.values))
        assert np.all(np.abs(rep.residues[~genuine]) < 1e-13 * scale)
        for pts, use_num in ((rep.poles, False), (rep.zeros, True)):
            if len(pts):
                total, ref = barycentric_sum(model, pts, use_numerator=use_num)
                assert np.all(np.abs(total) <= 1e-6 * ref)


class TestKernelSum:
    """The sum S(lambda) in lambda = e^{iz} that verifies, polishes and
    takes residues; the kernel sum is h S with h = 2i e^{iz/2} (odd) or i."""

    @pytest.mark.parametrize("parity", list(Parity))
    def test_derivative_against_finite_differences(self, parity):
        # Points at |Im z| about 0.5, 39 and 41, above and below the real
        # axis, where lambda = e^{iz} is near 1, tiny or huge.
        rng = np.random.default_rng(1)
        model = random_model(rng, 5, parity)
        heights = np.repeat([0.5, 39.0, 41.0, -0.5, -39.0, -41.0], 4)
        z = rng.uniform(0.0, TWO_PI, len(heights)) + 1j * heights
        lam = np.exp(1j * z)
        form = _zeta_form(model, 1.0, model.weights)
        total, deriv, ref, dref = _zeta_sum(form, lam)
        h = 2j * np.exp(0.5j * z) if parity is Parity.ODD else 1j
        direct, _ = barycentric_sum(model, z)
        assert np.all(np.abs(h * total - direct) <= 1e-12 * np.abs(h) * ref)
        # Step 1e-5 of the distance to the nearest node, the scale on which
        # S varies; FD rounding is then about eps * m * ref / step.
        step = 1e-5 * np.min(np.abs(lam[:, None] - np.exp(1j * model.support)), axis=1)
        fd = (_zeta_sum(form, lam + step)[0] - _zeta_sum(form, lam - step)[0]) / (2 * step)
        assert np.all(np.abs(deriv - fd) <= 1e-7 * dref + 1e-14 * ref / step)

    @pytest.mark.parametrize("parity", list(Parity))
    @pytest.mark.parametrize("y", [5.0, 10.0, 18.0, 25.0, 40.0, -18.0, -40.0])
    def test_derivative_against_mpmath_off_axis(self, parity, y):
        # Far from the axis cot' = -1 - cot^2 cancels; residues n/d' must
        # keep their relative accuracy there, at any point, pole or not.
        model = random_model(np.random.default_rng(2), 5, parity)
        z = 1.3 + 1j * y
        got = residues(model, [z])[0]
        with mpmath.workdps(40):
            num = dden = mpmath.mpc(0)
            for zj, fj, wj in zip(model.support, model.fvals, model.weights):
                u = (mpmath.mpc(z) - mpmath.mpc(zj)) / 2
                csc = mpmath.csc(u)
                k, dk = (csc, -csc * mpmath.cot(u)) if parity is Parity.ODD else (mpmath.cot(u), -csc * csc)
                num += mpmath.mpc(fj) * mpmath.mpc(wj) * k
                dden += mpmath.mpc(wj) * dk / 2
            exact = complex(num / dden)
        assert abs(got - exact) <= 1e-12 * abs(exact)


class TestResidues:
    def test_quotient_worked_example(self):
        model = odd_worked()
        res = residues(model, [np.pi / 2])
        assert abs(res[0] + 2.0) < 1e-12

    def test_csc_residues_sum_zero(self):
        model = even_csc()
        res = residues(model, [0.0, np.pi])
        assert abs(res[0] - 1.0) < 1e-12
        assert abs(res[1] + 1.0) < 1e-12
        assert abs(np.sum(res)) < 1e-12

    def test_weight_scaling_leaves_residues(self):
        model = odd_worked()
        phase = np.exp(0.7j)
        scaled = TrigModel.build(
            Parity.ODD, model.support, model.fvals, model.weights * 10.0 * phase
        )
        a = residues(model, [np.pi / 2])
        b = residues(scaled, [np.pi / 2])
        assert abs(a[0] - b[0]) < 1e-12

    def test_non_simple_rejected(self):
        model = odd_worked()
        # d'(z) vanishes at the zeros of d' between poles; a fake "pole"
        # list far from any actual pole has |d'| comparable to scale, so
        # force the guard with a genuinely stationary point of d.
        with pytest.raises(ValueError, match="non-simple"):
            residues(model, [np.pi / 2 + np.pi])

    def test_even_residue_sum_law(self):
        rng = np.random.default_rng(45)
        for _ in range(20):
            model = random_model(rng, 4, Parity.EVEN)
            rep = poles_and_zeros(model)
            if len(rep.poles) == 0:
                continue
            assert abs(np.sum(rep.residues)) <= 1e-8 * np.max(np.abs(rep.residues))


class TestPartialFractions:
    def test_odd_worked(self):
        pf = partial_fractions(odd_worked())
        assert len(pf.poles) == 1
        assert abs(pf.coefficients[0] + 1.0) < 1e-10
        assert abs(pf.constant) < 1e-12
        ff = far_field(odd_worked())
        assert abs((pf.constant - 1j * np.sum(pf.coefficients)) - ff.f_plus) < 1e-10
        assert abs((pf.constant + 1j * np.sum(pf.coefficients)) - ff.f_minus) < 1e-10

    def test_even_csc(self):
        pf = partial_fractions(even_csc())
        q = pf.coefficients[np.argsort(pf.poles.real)]
        assert abs(q[0] - 0.5) < 1e-10
        assert abs(q[1] + 0.5) < 1e-10
        assert abs(np.sum(pf.coefficients)) < 1e-10
        assert abs(pf.constant) < 1e-12

    @pytest.mark.parametrize("parity", list(Parity))
    def test_one_pencil_with_the_report_poles(self, monkeypatch, parity):
        # Only the pole pencil is built; poles, coefficients and constant
        # are those of poles_and_zeros and residues bit for bit.
        x = TWO_PI * np.arange(1000) / 1000
        model = fit(SampleSet.from_data(x, np.tanh(60 * np.cos(x))), FitConfig(parity=parity))
        report = poles_and_zeros(model)
        eig, calls = numerics.generalized_eig, []

        def counted(A, B):
            calls.append(A.shape)
            return eig(A, B)

        monkeypatch.setattr(numerics, "generalized_eig", counted)
        pf = partial_fractions(model)
        assert len(calls) == 1
        assert len(pf.poles) > 0
        assert pf.poles.tobytes() == report.poles.tobytes()
        assert pf.coefficients.tobytes() == (residues(model, report.poles) / 2.0).tobytes()
        assert np.complex128(pf.constant).tobytes() == np.complex128(report.constant).tobytes()

    @pytest.mark.parametrize("n_poles", [0, 1])
    def test_fewer_than_two_poles_not_clustered(self, n_poles):
        # The odd interpolant on three points is a trigonometric polynomial.
        sup = [0.5, 2.0, 4.5]
        model = odd_worked() if n_poles else TrigModel.build(
            Parity.ODD, sup, [1.0, 2.0, 0.5], interpolatory_weights(Parity.ODD, sup))
        pf = partial_fractions(model)
        assert len(pf.poles) == n_poles and pf.clustered is False

    def test_constant_model(self):
        pf = partial_fractions(TrigModel.build(Parity.ODD, [1.0], [4.0 - 2j], [1.0]))
        assert len(pf.poles) == 0
        assert pf.constant == 4.0 - 2j

    def test_reconstruction(self):
        rng = np.random.default_rng(46)
        for parity in Parity:
            for _ in range(5):
                model = random_model(rng, 4, parity)
                pf = partial_fractions(model)
                if pf.clustered or len(pf.poles) == 0:
                    continue
                zs = rng.uniform(0, TWO_PI, 50) + 1j * rng.uniform(-1.5, 1.5, 50)
                keep = np.ones(len(zs), dtype=bool)
                for p in np.concatenate([pf.poles, model.support]):
                    keep &= strip_distance(zs, p) > 0.15
                zs = zs[keep]
                direct = evaluate_batch(model, zs)
                recon = partial_fraction_eval(pf, zs)
                assert np.all(np.abs(recon - direct) <= 1e-8 * (1 + np.abs(direct)))

    def test_eval_independent_of_batch(self):
        # A point's value must not depend on the batch it is evaluated in.
        rng = np.random.default_rng(48)
        for parity in Parity:
            for _ in range(20):
                pf = partial_fractions(random_model(rng, 6, parity))
                zs = rng.uniform(0, TWO_PI, 257) + 1j * rng.uniform(-1.5, 1.5, 257)
                batch = partial_fraction_eval(pf, zs)
                alone = np.array([partial_fraction_eval(pf, zs[i:i + 1])[0] for i in range(257)])
                assert np.array_equal(alone, batch)

    def test_eval_without_poles_is_the_constant(self):
        # A one-point model is constant: its form has no poles.
        model = TrigModel.build(Parity.ODD, [1.0], [2.0 - 1.0j], [1.0])
        pf = partial_fractions(model)
        assert len(pf.poles) == 0
        zs = np.asarray([0.5, 3.0 + 2.0j, -1.0 - 40.0j])
        assert np.array_equal(partial_fraction_eval(pf, zs), np.full(3, 2.0 - 1.0j))

    def test_eval_memory_bounded(self):
        # One 200000 x 54 temporary would take 173 MB; blocks of
        # EVAL_CELLS cells keep each at 1 MiB.
        rng = np.random.default_rng(49)
        k, n = 54, 200_000
        pf = PartialFractions(rng.uniform(0, TWO_PI, k) + 1j * rng.uniform(1, 2, k),
                              rng.standard_normal(k) + 0j, 0.5 + 0j)
        zs = rng.uniform(0, TWO_PI, n) + 1j * rng.uniform(-0.5, 0.5, n)
        tracemalloc.start()
        try:
            partial_fraction_eval(pf, zs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_odd_far_field_identity_random(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            model = random_model(rng, 5, Parity.ODD)
            pf = partial_fractions(model)
            ff = far_field(model)
            s = np.sum(pf.coefficients)
            assert abs((pf.constant - 1j * s) - ff.f_plus) <= 1e-8 * (1 + abs(ff.f_plus))
            assert abs((pf.constant + 1j * s) - ff.f_minus) <= 1e-8 * (1 + abs(ff.f_minus))


class TestTaperFit:
    def test_exact_tapered_cluster(self):
        # Distances following the placement law are recovered exactly.
        n, sigma = 12, -2.0
        d = np.exp(sigma * (np.sqrt(n) - np.sqrt(np.arange(1, n + 1))))
        points = 0.5 + 0.5j + d * np.exp(1j * np.pi / 3)
        tf = taper_fit(points, 0.5 + 0.5j, k_max=n)
        assert abs(tf.sigma - sigma) < 1e-10
        assert tf.r_squared > 1.0 - 1e-12
        assert np.all(np.diff(tf.distances) > 0)

    def test_noisy_cluster(self):
        rng = np.random.default_rng(48)
        n, sigma = 16, -2.0
        d = np.exp(sigma * (np.sqrt(n) - np.sqrt(np.arange(1, n + 1))))
        d = d * (1.0 + 0.01 * rng.standard_normal(n))
        tf = taper_fit(1.0 + d, 1.0, k_max=n)
        assert abs(tf.sigma - sigma) <= 0.05 * abs(sigma)
        assert tf.sigma < 0

    def test_uniform_points_score_lower(self):
        n = 12
        tapered = np.exp(-2.0 * (np.sqrt(n) - np.sqrt(np.arange(1, n + 1))))
        uniform = 0.05 * np.arange(1, n + 1)
        r2_t = taper_fit(2.0 + tapered, 2.0, n).r_squared
        r2_u = taper_fit(2.0 + uniform, 2.0, n).r_squared
        assert r2_t > 0.999
        assert r2_u < r2_t - 0.01

    def test_insufficient_cluster(self):
        with pytest.raises(ValueError, match="insufficient cluster"):
            taper_fit([5.0 + 5j, 0.1, 0.2], 0.0, 5)

    def test_corner_on_a_cluster_point(self):
        with pytest.raises(ValueError, match="corner coincides"):
            taper_fit([0.0, 0.1, 0.2, 0.3], 0.0, 4)

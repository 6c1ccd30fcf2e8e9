import dataclasses

import mpmath
import numpy as np
import pytest

from aaatrig.calculus import _derivative_block, derivative_at, diff_matrix
from aaatrig.solver import FitConfig, fit
from aaatrig.trigbary import (
    EVAL_CELLS,
    Parity,
    SampleSet,
    TrigModel,
    TWO_PI,
    evaluate,
    interpolatory_weights,
)

from conftest import (
    cauchy_derivative,
    complex_twins,
    random_model,
    real_axis_points,
    real_model,
)


def odd_worked():
    return TrigModel.build(Parity.ODD, [0.0, np.pi], [1.0, -1.0], [1.0, 1.0])


def interpolant_of(func, n):
    sup = TWO_PI * np.arange(n) / n
    parity = Parity.ODD if n % 2 else Parity.EVEN
    return TrigModel.build(
        parity, sup, func(sup), interpolatory_weights(parity, sup)
    )


class TestDiffMatrix:
    def test_worked_entries(self):
        D = diff_matrix(odd_worked(), 1).entries
        # Off-diagonals +-(1/2) csc(-+pi/2) with equal weights.
        assert abs(D[0, 1] + 0.5) < 1e-14
        assert abs(D[1, 0] - 0.5) < 1e-14
        assert abs(D[0, 0] - 0.5) < 1e-14
        assert abs(D[1, 1] + 0.5) < 1e-14
        # Sanity: r'(0) of -cot((z - pi/2)/2) is 1.
        df = D @ np.asarray([1.0, -1.0])
        assert abs(df[0] - 1.0) < 1e-13

    def test_constant_annihilated(self):
        rng = np.random.default_rng(3)
        for parity in Parity:
            model = random_model(rng, 6, parity)
            D = diff_matrix(model, 1).entries
            out = D @ np.ones(6)
            assert np.max(np.abs(out)) <= 1e-12 * np.max(np.abs(D))

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_row_sums_vanish(self, p):
        rng = np.random.default_rng(4)
        for parity in Parity:
            model = random_model(rng, 7, parity)
            D = diff_matrix(model, p).entries
            sums = np.abs(D.sum(axis=1))
            assert np.max(sums) <= 1e-12 * np.max(np.abs(D))

    def test_interpolatory_derivative(self):
        model = interpolant_of(lambda z: np.exp(np.sin(z)), 64)
        D = diff_matrix(model, 1).entries
        got = D @ model.fvals
        want = np.cos(model.support) * np.exp(np.sin(model.support))
        assert np.max(np.abs(got - want)) <= 1e-8

    def test_linearity(self):
        rng = np.random.default_rng(5)
        model = random_model(rng, 5, Parity.EVEN)
        D = diff_matrix(model, 1).entries
        f = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        g = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        a, b = 2.0 - 1j, 0.5j
        assert np.allclose(D @ (a * f + b * g), a * (D @ f) + b * (D @ g), atol=0)

    def test_second_order_vs_squared_first(self):
        model = interpolant_of(lambda z: np.exp(np.sin(z)), 31)
        D1 = diff_matrix(model, 1).entries
        D2 = diff_matrix(model, 2).entries
        a = D2 @ model.fvals
        b = D1 @ (D1 @ model.fvals)
        assert np.max(np.abs(a - b)) <= 1e-6 * np.max(np.abs(a))

    def test_high_orders_against_analytic(self):
        # 32 points: an even interpolant, whose support pairs sit pi apart.
        for n in (21, 32):
            model = interpolant_of(np.sin, n)
            sup = model.support
            truth = {2: -np.sin(sup), 3: -np.cos(sup), 4: np.sin(sup)}
            for p, want in truth.items():
                got = diff_matrix(model, p).entries @ model.fvals
                assert np.max(np.abs(got - want)) <= 1e-7

    def test_order_cap(self):
        with pytest.raises(ValueError, match="unsupported order"):
            diff_matrix(odd_worked(), 5)
        with pytest.raises(ValueError):
            diff_matrix(odd_worked(), 0)

    def test_even_antipodal_pairs(self):
        # r(z) = 3/2 - sec(z - 0.5)/2, whose sec has derivatives 0, 1, 0, 5
        # at 0 and 0, -1, 0, -5 at pi.
        model = TrigModel.build(
            Parity.EVEN, [0.5, 0.5 + np.pi], [1.0, 2.0], [1.0, 1.0]
        )
        for p, sec in enumerate([0.0, 1.0, 0.0, 5.0], start=1):
            D = diff_matrix(model, p).entries
            assert np.all(np.isfinite(D))
            assert np.max(np.abs(D.sum(axis=1))) <= 1e-14 * np.max(np.abs(D))
            assert np.max(np.abs(D @ model.fvals - [-sec / 2, sec / 2])) <= 1e-13

    @pytest.mark.parametrize("parity", list(Parity))
    def test_zero_weight_row(self, parity):
        # Only the row of a weight that is exactly 0 is not finite; the
        # other rows are the matrix of the model without that point.
        rng = np.random.default_rng(8)
        base = random_model(rng, 6, parity)
        w = np.array(base.weights)
        w[2] = 0.0
        model = TrigModel.build(parity, base.support, base.fvals, w)
        keep = [0, 1, 3, 4, 5]
        reduced = TrigModel.build(parity, base.support[keep], base.fvals[keep], w[keep])
        for p in range(1, 5):
            D = diff_matrix(model, p).entries
            assert np.flatnonzero(~np.all(np.isfinite(D), axis=1)).tolist() == [2]
            assert np.all(D[keep, 2] == 0.0)
            want = diff_matrix(reduced, p).entries
            assert np.max(np.abs(D[np.ix_(keep, keep)] - want)) <= 1e-12 * np.max(np.abs(want))

    def test_fitted_even_against_cauchy_oracle(self):
        # Generic fitted weights exercise the even node at infinity; this
        # seed's support has a pair within 1e-2 of pi apart.
        rng = np.random.default_rng(1)
        x = rng.uniform(0.0, TWO_PI, 400)
        f = np.exp(np.sin(x)) * (1.0 + 0.3 * np.cos(3.0 * x))
        model = fit(SampleSet.from_data(x, f), FitConfig(parity=Parity.EVEN))
        d = model.support[:, None] - model.support[None, :]
        assert np.min(np.abs(np.mod(d.real, TWO_PI) - np.pi)) < 1e-2
        for p in (2, 4):
            got = diff_matrix(model, p).entries @ model.fvals
            want = cauchy_derivative(model, model.support, p, 0.5)
            assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))


class TestDerivativeAt:
    def test_constant_model(self):
        model = TrigModel.build(Parity.ODD, [1.0], [5.0 - 2j], [1.0])
        assert abs(derivative_at(model, 2.3, 1)) < 1e-13

    def test_worked_first_derivative(self):
        # r'(z) = csc^2((z - pi/2)/2)/2; at z = 3pi/2 the value is 1/2.
        val = derivative_at(odd_worked(), 3 * np.pi / 2, 1)
        assert abs(val - 0.5) < 1e-12

    def test_fitted_vs_finite_difference(self):
        model = interpolant_of(lambda z: np.exp(np.sin(z)), 64)
        z = 1.3
        h = 1e-6 * (1 + abs(z))
        fd = (evaluate(model, z + h) - evaluate(model, z - h)) / (2 * h)
        val = derivative_at(model, z, 1)
        assert abs(val - fd) <= 1e-7 * abs(fd)
        assert abs(val - np.cos(z) * np.exp(np.sin(z))) < 1e-8

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_higher_orders_vs_finite_difference(self, p):
        from aaatrig.polezero import poles_and_zeros
        from aaatrig.trigbary import strip_distance

        def fd_stencil(model, z, p, h):
            stencil = {
                2: ([1.0, -2.0, 1.0], [-1, 0, 1], h**2),
                3: ([-0.5, 1.0, -1.0, 0.5], [-2, -1, 1, 2], h**3),
                4: ([1.0, -4.0, 6.0, -4.0, 1.0], [-2, -1, 0, 1, 2], h**4),
            }
            coeffs, offsets, denom = stencil[p]
            return sum(
                c * evaluate(model, z + k * h) for c, k in zip(coeffs, offsets)
            ) / denom

        rng = np.random.default_rng(6)
        for parity in Parity:
            model = random_model(rng, 5, parity)
            # Probe point well clear of poles and support.
            hazards = np.concatenate([poles_and_zeros(model).poles, model.support])
            cands = np.linspace(0.3, 6.0, 17) + 0.05j
            z = complex(cands[np.argmax([np.min(strip_distance(c, hazards)) for c in cands])])
            # Richardson extrapolation of the O(h^2) stencils.
            h = 1e-2
            fd = (4.0 * fd_stencil(model, z, p, h / 2) - fd_stencil(model, z, p, h)) / 3.0
            val = derivative_at(model, z, p)
            assert abs(val - fd) <= 1e-5 * (1.0 + abs(val))

    def test_consistency_with_matrix(self):
        model = interpolant_of(lambda z: np.exp(np.sin(z)), 32)
        D = diff_matrix(model, 1).entries
        on_grid = (D @ model.fvals)[3]
        off_grid = derivative_at(model, model.support[3] + 1e-5, 1)
        assert abs(off_grid - on_grid) <= 1e-4 * abs(on_grid)

    @pytest.mark.parametrize("parity", list(Parity))
    @pytest.mark.parametrize("p", [1, 4])
    def test_array_matches_scalar_calls(self, parity, p):
        rng = np.random.default_rng(15)
        model = random_model(rng, 6, parity)
        zs = (rng.uniform(0, TWO_PI, 40) + 1j * rng.uniform(-1, 1, 40)).reshape(8, 5)
        vals = derivative_at(model, zs, p)
        assert vals.shape == zs.shape
        scalar = [derivative_at(model, z, p) for z in zs.ravel()]
        assert all(isinstance(v, complex) for v in scalar)
        assert np.array_equal(vals.ravel(), scalar)

    @pytest.mark.parametrize("parity", list(Parity))
    @pytest.mark.parametrize("m", [1, 6, 64])
    def test_scalar_calls_match_array_bytes(self, parity, m):
        # The first block mixes both half-planes; the second lies below the
        # real axis, where a block goes to the kernel whole.
        rng = np.random.default_rng(16 + m)
        if m == 64:
            sup = TWO_PI * np.arange(m) / m
            model = TrigModel.build(parity, sup, np.exp(np.sin(sup)),
                                    rng.standard_normal(m) + 1j * rng.standard_normal(m))
        else:
            model = random_model(rng, m, parity)
        edge = EVAL_CELLS // m
        n = edge + 40
        zs = rng.uniform(0, TWO_PI, n) + 1j * rng.uniform(-2, 2, n)
        zs[edge:] = zs[edge:].real - 1j * np.abs(zs[edge:].imag)
        zs[edge + 5] += -60j  # far field
        assert np.any(zs[:edge].imag < 0) and np.any(zs[:edge].imag >= 0)
        # Every point near the block edge, and a sample of the rest.
        idx = np.unique(np.r_[np.arange(0, n, max(1, n // 150)), edge - 3:edge + 3, n - 1])
        for p in range(1, 5):
            whole = derivative_at(model, zs, p)
            scalar = np.array([derivative_at(model, zs[i], p) for i in idx])
            assert whole[idx].tobytes() == scalar.tobytes()

    @pytest.mark.parametrize("parity", list(Parity))
    @pytest.mark.parametrize("p", [1, 4])
    def test_far_field_vanishes(self, parity, p):
        # r tends to constants at +-i*inf, so its derivatives decay like e^{-|Im z|}.
        rng = np.random.default_rng(17)
        model = random_model(rng, 6, parity)
        heights = np.asarray([40.0, 60.0, 80.0])
        zs = rng.uniform(0, TWO_PI, 6) + 1j * np.concatenate([heights, -heights])
        vals = derivative_at(model, zs, p)
        assert np.all(np.isfinite(vals))
        assert np.max(np.abs(vals)) <= 1e-14 * model.scale

    def test_too_close_to_support(self):
        with pytest.raises(ValueError, match="diff_matrix"):
            derivative_at(odd_worked(), 1e-10, 1)
        with pytest.raises(ValueError, match="diff_matrix"):
            derivative_at(odd_worked(), [1.0, 2.0, np.pi + 1e-10], 1)
        # Across the 2*pi seam from the support point at 0.
        with pytest.raises(ValueError, match="diff_matrix"):
            derivative_at(odd_worked(), TWO_PI - 1e-10, 1)
        assert np.isfinite(derivative_at(odd_worked(), TWO_PI - 1e-7, 1))

    def test_order_cap(self):
        with pytest.raises(ValueError, match="unsupported order"):
            derivative_at(odd_worked(), 1.0, 5)

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError, match="order must be positive"):
            derivative_at(odd_worked(), 1.0, 0)


@pytest.fixture(scope="module", params=list(Parity), ids=lambda p: p.value)
def exp_sin_fit(request):
    x = TWO_PI * np.arange(1000) / 1000
    return fit(SampleSet.from_data(x, np.exp(np.sin(x))), FitConfig(parity=request.param))


@pytest.mark.parametrize("p, tol", [(1, 1e-9), (4, 1e-6)])
def test_near_support_accuracy(exp_sin_fit, p, tol):
    """Orders 1 and 4 at 1e-4 from the support, against mpmath."""
    zs = exp_sin_fit.support[:8].real + 1e-4
    with mpmath.workdps(30):
        want = [complex(mpmath.diff(lambda t: mpmath.exp(mpmath.sin(t)), mpmath.mpf(z), p))
                for z in zs]
    assert np.max(np.abs(derivative_at(exp_sin_fit, zs, p) - want)) <= tol


def unprojected_derivative(model, s, zs, p):
    """_derivative_block's arithmetic in the half-plane of sign s with no
    real-axis rule: on a copy of the model whose _real flag reads False."""
    twin = dataclasses.replace(model)
    twin.__dict__["_real"] = False
    return _derivative_block(twin, s, zs, p)


class TestRealAxis:
    """A real model's finite derivatives at real points have imaginary part
    +0.0, and their real parts are the zeta form's bit for bit."""

    @pytest.mark.parametrize("parity", list(Parity))
    @pytest.mark.parametrize("m", [1, 5, 17])
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_real_points_give_real_derivatives(self, parity, m, p):
        rng = np.random.default_rng(50 + m)
        model = real_model(rng, m, parity)
        zs = real_axis_points(rng)
        d = derivative_at(model, zs, p)
        reference = unprojected_derivative(model, 1.0, zs, p)
        assert np.array_equal(d.real, reference.real)
        assert not np.any(d.imag) and not np.any(np.signbit(d.imag))
        if m > 1:
            assert np.any(reference.imag)
        assert d.tobytes() == np.array([derivative_at(model, z, p) for z in zs]).tobytes()

    @pytest.mark.parametrize("parity", list(Parity))
    def test_complex_models_and_points_keep_their_imaginary_parts(self, parity):
        rng = np.random.default_rng(56)
        model = real_model(rng, 5, parity)
        zs = real_axis_points(rng)
        off_axis = zs + 1j * rng.uniform(-2.0, 2.0, len(zs))
        off_axis[:2] = zs[:2] + np.array([1e-300j, -1e-300j])
        up = off_axis.imag >= 0.0
        for p in (1, 4):
            d = derivative_at(model, off_axis, p)
            assert d[up].tobytes() == unprojected_derivative(model, 1.0, off_axis[up], p).tobytes()
            assert (d[~up].tobytes()
                    == unprojected_derivative(model, -1.0, off_axis[~up], p).tobytes())
            for twin in complex_twins(model):
                d = derivative_at(twin, zs, p)
                assert not twin._real and np.all(d.imag != 0.0)
                assert d.tobytes() == _derivative_block(twin, 1.0, zs, p).tobytes()

    def test_non_finite_derivatives_keep_their_imaginary_parts(self):
        huge = TrigModel.build(Parity.ODD, [0.5, 2.0, 4.0], [1e308, -1e308, 1e308], [1, 1, 1])
        zs = np.array([1.0, 3.0], dtype=complex)
        assert huge._real
        for p in (1, 4):
            with np.errstate(over="ignore", invalid="ignore"):
                d = derivative_at(huge, zs, p)
            assert np.all(np.isnan(d.imag))

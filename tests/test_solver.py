import tracemalloc

import numpy as np
import pytest

from aaatrig.numerics import min_singular_direction
from aaatrig.polezero import poles_and_zeros, residues
from aaatrig.solver import (
    FitConfig,
    append_far_field_rows,
    assemble_loewner,
    cleanup,
    fit,
)
from aaatrig.trigbary import (
    FarField,
    Parity,
    SampleSet,
    TrigModel,
    TWO_PI,
    evaluate_batch,
    far_field,
)

from conftest import random_model


class TestFitConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FitConfig(rel_tol=-1.0)
        with pytest.raises(ValueError):
            FitConfig(max_order=0)
        with pytest.raises(ValueError):
            FitConfig(cleanup_tol=-1e-3)


class TestAssembleLoewner:
    def test_worked_entries(self):
        ss = SampleSet.from_data([0.0, np.pi / 2, np.pi], [1.0, 1j, -1.0])
        system = assemble_loewner(ss, [1], Parity.ODD)
        s2 = np.sqrt(2.0)
        expected = np.asarray([[-s2 * (1.0 - 1j)], [s2 * (-1.0 - 1j)]])
        assert system.matrix.shape == (2, 1)
        assert np.allclose(system.matrix, expected, atol=1e-14)

    def test_constant_data_zero_matrix(self):
        ss = SampleSet.from_data(np.linspace(0.1, 5.9, 8), np.full(8, 2.0 + 1j))
        system = assemble_loewner(ss, [0, 3], Parity.EVEN)
        assert np.all(system.matrix == 0.0)

    def test_factorization_identity(self):
        rng = np.random.default_rng(0)
        pts = np.sort(rng.uniform(0, TWO_PI, 12))
        vals = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        ss = SampleSet.from_data(pts, vals)
        for parity in Parity:
            system = assemble_loewner(ss, [2, 7, 9], parity)
            rebuilt = (
                np.diag(system.s_F) @ system.cauchy
                - system.cauchy @ np.diag(system.s_f)
            )
            scale = np.max(np.abs(system.matrix))
            assert np.max(np.abs(system.matrix - rebuilt)) <= 1e-14 * scale

    def test_order_cap(self):
        ss = SampleSet.from_data([0.0, 1.0, 2.0, 3.0], np.arange(4.0))
        with pytest.raises(ValueError, match="half the sample count"):
            assemble_loewner(ss, [0, 1, 2], Parity.ODD)

    def test_duplicate_support_rejected(self):
        ss = SampleSet.from_data(np.arange(6.0), np.arange(6.0))
        with pytest.raises(ValueError, match="distinct"):
            assemble_loewner(ss, [1, 1], Parity.ODD)


class TestFarFieldRows:
    def test_even_row(self):
        ss = SampleSet.from_data([0.0, np.pi / 2, np.pi, 4.0], [1.0, 0.5, -1.0, 0.2])
        system = assemble_loewner(ss, [0, 2], Parity.EVEN)
        grown = append_far_field_rows(
            system, FarField(0.0, 0.0), Parity.EVEN, ss.points[[0, 2]]
        )
        assert grown.matrix.shape[0] == system.matrix.shape[0] + 1
        assert np.allclose(grown.matrix[-1], [-1.0, 1.0], atol=1e-15)

    def test_odd_rows_zero_for_matching_target(self):
        ss = SampleSet.from_data([1.0, 2.0, 3.0, 4.0], [5.0, 1.0, 2.0, 0.0])
        system = assemble_loewner(ss, [0], Parity.ODD)
        grown = append_far_field_rows(
            system, FarField(5.0, 5.0), Parity.ODD, ss.points[[0]]
        )
        assert grown.matrix.shape[0] == system.matrix.shape[0] + 2
        assert np.allclose(grown.matrix[-2:], 0.0, atol=1e-15)

    def test_odd_rows_worked_example(self):
        ss = SampleSet.from_data([0.0, np.pi, 1.0, 2.0], [1.0, -1.0, 0.3, 0.4])
        system = assemble_loewner(ss, [0, 1], Parity.ODD)
        grown = append_far_field_rows(
            system, FarField(1j, -1j), Parity.ODD, ss.points[[0, 1]]
        )
        expected = np.asarray(
            [
                [1j - 1.0, (1j + 1.0) * np.exp(-1j * np.pi / 2)],
                [-1j - 1.0, (-1j + 1.0) * np.exp(1j * np.pi / 2)],
            ]
        )
        assert np.allclose(grown.matrix[-2:], expected, atol=1e-14)


class TestFit:
    def test_constant_data(self):
        ss = SampleSet.from_data(np.linspace(0, 6, 12), np.full(12, 3.0 + 4.0j))
        model = fit(ss, FitConfig())
        assert model.m == 1
        assert model.err_history[-1] <= 5e-16 * model.scale  # zero up to rounding
        assert model.converged
        vals = evaluate_batch(model, np.linspace(0.05, 6.2, 7).astype(complex))
        assert np.allclose(vals, 3.0 + 4.0j, atol=1e-13)

    def test_minimum_sample_count(self):
        ss = SampleSet.from_data([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="at least 4"):
            fit(ss, FitConfig())

    @pytest.mark.parametrize("parity", list(Parity))
    def test_exact_recovery(self, parity):
        # Data generated by a low-order model is recovered almost exactly.
        rng = np.random.default_rng(21)
        for k in (2, 4):
            truth = random_model(rng, k, parity)
            pts = rng.uniform(0, TWO_PI, 40) + 1j * rng.uniform(-0.2, 0.2, 40)
            vals = evaluate_batch(truth, pts)
            ss = SampleSet.from_data(pts, vals)
            model = fit(ss, FitConfig(parity=parity, cleanup=False))
            assert model.m <= k + 2
            resid = np.abs(evaluate_batch(model, ss.points) - ss.values)
            assert np.max(resid) <= 1e-12 * model.scale

    def test_support_points_drawn_from_samples(self):
        rng = np.random.default_rng(22)
        pts = rng.uniform(0, TWO_PI, 50)
        ss = SampleSet.from_data(pts, np.exp(np.sin(pts)))
        model = fit(ss, FitConfig(max_order=6, cleanup=False))
        for z in model.support:
            assert np.min(np.abs(ss.points - z)) == 0.0
        assert len(np.unique(model.support)) == model.m

    def test_err_history_recomputable(self):
        pts = TWO_PI * np.arange(64) / 64
        ss = SampleSet.from_data(pts, np.exp(np.sin(pts)))
        full = fit(ss, FitConfig(cleanup=False))
        for m in (1, 3, full.m):
            partial = fit(ss, FitConfig(rel_tol=0.0, max_order=m, cleanup=False))
            active = np.ones(len(pts), dtype=bool)
            for z in partial.support:
                active[np.argmin(np.abs(ss.points - z))] = False
            resid = np.abs(
                evaluate_batch(partial, ss.points[active]) - ss.values[active]
            )
            recomputed = float(np.max(resid))
            recorded = full.err_history[m - 1]
            assert abs(recorded - recomputed) <= 1e-13 * max(1.0, recorded)

    def test_deterministic(self):
        rng = np.random.default_rng(23)
        pts = rng.uniform(0, TWO_PI, 200)
        ss = SampleSet.from_data(pts, np.cos(pts) + 0.3j * np.sin(2 * pts))
        a = fit(ss, FitConfig())
        b = fit(ss, FitConfig())
        assert np.array_equal(a.support, b.support)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.err_history, b.err_history)

    def test_convergence_flag_false_at_cap(self):
        pts = TWO_PI * np.arange(40) / 40
        ss = SampleSet.from_data(pts, np.exp(np.sin(pts)))
        model = fit(ss, FitConfig(rel_tol=0.0, max_order=5, cleanup=False))
        assert model.m == 5
        assert not model.converged

    @pytest.mark.parametrize("parity", list(Parity))
    def test_far_field_constraint(self, parity):
        rng = np.random.default_rng(24)
        truth = random_model(rng, 4, parity)
        target = far_field(truth)
        pts = rng.uniform(0, TWO_PI, 60) + 1j * rng.uniform(-0.2, 0.2, 60)
        ss = SampleSet.from_data(pts, evaluate_batch(truth, pts))
        model = fit(ss, FitConfig(parity=parity, far_field=target, cleanup=False))
        got = far_field(model)
        assert abs(got.f_plus - target.f_plus) <= 1e-6 * (1 + abs(target.f_plus))
        assert abs(got.f_minus - target.f_minus) <= 1e-6 * (1 + abs(target.f_minus))


class TestGreedyCore:
    @pytest.mark.parametrize("k", range(1, 9))
    @pytest.mark.parametrize("parity, target", [
        (Parity.ODD, None),
        (Parity.EVEN, FarField(0.0, 0.0)),
    ])
    def test_cached_columns_match_assembled_system(self, k, parity, target):
        x = TWO_PI * np.arange(400) / 400
        ss = SampleSet.from_data(x, np.tanh(20 * np.cos(x)))
        config = FitConfig(parity=parity, far_field=target, max_order=k, rel_tol=0.0,
                           cleanup=False)
        model = fit(ss, config)
        assert model.m == k
        idx = [int(np.argmin(np.abs(ss.points - s))) for s in model.support]
        system = assemble_loewner(ss, idx, parity)
        if target is not None:
            system = append_far_field_rows(system, target, parity, ss.points[idx])
        assert np.array_equal(model.weights, min_singular_direction(system.matrix))

    @pytest.mark.parametrize("func, max_order", [
        (lambda x: np.tanh(20 * np.cos(x)), 20),
        (lambda x: np.exp(np.sin(x)), 10**6),  # converges early; no buffer at the cap
    ], ids=["tanh-capped", "exp-sin-early"])
    def test_fit_memory_linear_in_samples(self, func, max_order):
        x = TWO_PI * np.arange(3000) / 3000
        ss = SampleSet.from_data(x, func(x))
        tracemalloc.start()
        try:
            fit(ss, FitConfig(max_order=max_order, cleanup=False))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestCleanup:
    def _smooth_fit(self):
        pts = TWO_PI * np.arange(128) / 128
        ss = SampleSet.from_data(pts, np.exp(np.sin(pts)))
        return ss, fit(ss, FitConfig(cleanup=False))

    def test_idempotent_without_small_residues(self):
        ss, model = self._smooth_fit()
        cleaned = cleanup(model, ss, FitConfig())
        assert cleaned is model

    @pytest.mark.parametrize("pin_far_field", [False, True])
    def test_removes_hand_built_doublet(self, pin_far_field):
        from aaatrig.numerics import min_singular_direction
        from aaatrig.polezero import _residues_unchecked
        from aaatrig.solver import assemble_loewner
        from aaatrig.trigbary import strip_distance

        ss, model = self._smooth_fit()
        # Duplicate one support point at a tiny offset and re-solve: the
        # least squares parks a pole-zero pair on the near-duplicate.
        extra = model.support[0] + 1e-7
        extended = SampleSet.from_data(
            np.append(ss.points, extra), np.append(ss.values, np.exp(np.sin(extra)))
        )
        sup_idx = [int(np.argmin(np.abs(extended.points - s))) for s in model.support]
        sup_idx.append(len(extended.points) - 1)
        system = assemble_loewner(extended, sup_idx, model.parity)
        weights = min_singular_direction(system.matrix)
        doubled = TrigModel(
            model.parity,
            extended.points[sup_idx],
            extended.values[sup_idx],
            weights,
            np.zeros(len(sup_idx)),
            model.scale,
        )

        report = poles_and_zeros(doubled)
        res = np.abs(_residues_unchecked(doubled, report.poles))
        near_pair = strip_distance(report.poles, extra) < 1e-4
        assert np.any(near_pair)
        assert np.min(res[near_pair]) < 1e-13 * doubled.scale  # a real doublet

        # The re-solve with far-field rows pins the cleaned model's far field.
        # Those rows weigh as much as a sample row and the data fix the far
        # field only loosely, so the pinned solve gives up some sample accuracy.
        target = far_field(model) if pin_far_field else None
        cleaned = cleanup(doubled, extended, FitConfig(far_field=target))
        assert cleaned.m == doubled.m - 1
        resid = np.abs(evaluate_batch(cleaned, ss.points) - ss.values)
        assert np.max(resid) <= (1e-9 if pin_far_field else 1e-11) * model.scale
        if pin_far_field:
            got = far_field(cleaned)
            assert abs(got.f_plus - target.f_plus) <= 1e-6 * (1 + abs(target.f_plus))
            assert abs(got.f_minus - target.f_minus) <= 1e-6 * (1 + abs(target.f_minus))

    def test_refuses_to_empty_support(self):
        # Constant data on an m=2 model: every pole carries zero residue,
        # and each one pulls out a different support point.
        sup = [np.pi / 2, 3 * np.pi / 2 + 0.4]
        model = TrigModel.build(Parity.EVEN, sup, [5.0, 5.0], [1.0, 1.0])
        pts = np.concatenate([np.asarray(sup), [0.3, 1.0, 2.0, 5.0]])
        ss = SampleSet.from_data(pts, np.full(len(pts), 5.0 + 0j))
        cleaned = cleanup(model, ss, FitConfig())
        if cleaned.cleanup_warning:
            assert cleaned.m == model.m
        else:
            # If ties spared a support point the result must still fit.
            resid = np.abs(evaluate_batch(cleaned, ss.points) - ss.values)
            assert np.max(resid) <= 1e-10 * model.scale

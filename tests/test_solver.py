import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from aaatrig import numerics, solver
from aaatrig.baselines import aaa_fit, rectangle_samples
from aaatrig.numerics import constrained_min_singular_direction, min_singular_direction
from aaatrig.polezero import poles_and_zeros, residues
from aaatrig.solver import (
    FitConfig,
    append_far_field_rows,
    assemble_loewner,
    cleanup,
    fit,
    kernel_columns,
    loewner_system,
)
from aaatrig.trigbary import (
    FarField,
    Parity,
    SampleSet,
    TrigModel,
    TWO_PI,
    _cst_values,
    _far_weights,
    evaluate_batch,
    far_field,
)

from conftest import constrained_svd_direction, random_model, thin_svd_direction


class TestFitConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FitConfig(rel_tol=-1.0)
        with pytest.raises(ValueError):
            FitConfig(max_order=0)
        with pytest.raises(ValueError):
            FitConfig(cleanup_tol=-1e-3)
        with pytest.raises(ValueError, match="rel_tol must be nonnegative"):
            FitConfig(rel_tol=np.nan)
        with pytest.raises(ValueError, match="cleanup_tol must be nonnegative"):
            FitConfig(cleanup_tol=np.nan)


class TestAssembleLoewner:
    @pytest.mark.parametrize("m", [1, 15, 31])
    @pytest.mark.parametrize("parity", [Parity.ODD, Parity.EVEN])
    def test_bitwise_the_entrywise_formula(self, parity, m):
        # (F_k - f_j) * kernel(Z_k - z_j) over the non-support rows k, as one
        # broadcast product: the assembly must reproduce it bit for bit.
        x = TWO_PI * np.arange(400) / 400
        ss = SampleSet.from_data(x, np.tanh(20 * np.cos(x)) + 0.5j * np.sin(3 * x))
        idx = np.random.default_rng(m).choice(400, m, replace=False)
        kernel = lambda d: _cst_values(parity, d / 2.0)
        rows = np.setdiff1d(np.arange(400), idx)
        F, fj = ss.values[rows], ss.values[idx]
        expected = (F[:, None] - fj[None, :]) * kernel_columns(ss, idx, kernel)[rows]
        assert np.array_equal(loewner_system(ss, idx, kernel).matrix, expected)

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

    @pytest.mark.parametrize("parity", list(Parity))
    def test_rows_annihilate_weights_at_own_far_field(self, parity):
        # far_field and the constraint rows read one far-field map, so the
        # rows built for a model's own far field vanish on its weights.
        rng = np.random.default_rng(25)
        cases = []
        for m in (2, 5, 9):
            model = random_model(rng, m, parity)
            pts = np.append(model.support, rng.uniform(0, TWO_PI, 2 * m) + 0.5j)
            vals = np.append(model.fvals, evaluate_batch(model, pts[m:]))
            cases.append((model, SampleSet.from_data(pts, vals), np.arange(m)))
        if parity is Parity.EVEN:
            x = TWO_PI * np.arange(1000) / 1000
            ss = SampleSet.from_data(x, np.tanh(60 * np.cos(x)))
            model = fit(ss, FitConfig(parity=parity))
            idx = [int(np.argmin(np.abs(ss.points - z))) for z in model.support]
            cases.append((model, ss, idx))
        for model, ss, idx in cases:
            system = assemble_loewner(ss, idx, parity)
            grown = append_far_field_rows(system, far_field(model), parity, ss.points[idx])
            rows = grown.matrix[system.matrix.shape[0]:]
            scale = np.sum(np.abs(rows * model.weights), axis=1)
            assert np.all(np.abs(rows @ model.weights) <= 1e-13 * scale)


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

    @pytest.mark.parametrize("cleaned", [False, True], ids=["raw", "cleaned"])
    @pytest.mark.parametrize("target", [FarField(0.0, 0.0), FarField(0.3, -0.2)],
                             ids=["zero", "mixed"])
    @pytest.mark.parametrize("parity", list(Parity))
    def test_far_field_constraint_held_to_rounding(self, parity, target, cleaned):
        # The weight solve holds C w = 0 exactly: each far-field sum
        # sum_j (f_inf - f_j) t_j vanishes to rounding of its terms.  The
        # limit far_field itself divides by sum_j t_j, 1e-9 to 1e-7 here,
        # so it is not held to that accuracy.
        x = TWO_PI * np.arange(1000) / 1000
        ss = SampleSet.from_data(x, np.tanh(60 * np.cos(x)))
        model = fit(ss, FitConfig(parity=parity, far_field=target, cleanup=cleaned))
        limits = _far_weights(parity, model.support, model.weights, model.weights)
        targets = (target.f_plus, target.f_minus)
        eps = np.finfo(float).eps
        for t, f_inf in list(zip(limits, targets))[: 2 if parity is Parity.ODD else 1]:
            terms = (f_inf - model.fvals) * t
            assert abs(np.sum(terms)) <= 2 * eps * np.sum(np.abs(terms))


class TestGreedyCore:
    # The greedy's buffers grow at m = 1, 3, 7, 15 and 31, so the fits to
    # k = 15 and 31 grow them on their last step.
    @pytest.mark.parametrize("k", [*range(1, 9), 15, 31])
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
        if target is None:
            assert np.array_equal(model.weights, min_singular_direction(system.matrix))
        else:
            grown = append_far_field_rows(system, target, parity, ss.points[idx])
            rows = grown.matrix[system.matrix.shape[0]:]
            assert np.array_equal(
                model.weights, constrained_min_singular_direction(system.matrix, rows))
            if k <= 8:
                # The null-space solve against an independent one, to rounding.
                # Past k = 8 the gap between the two smallest singular values
                # falls below 1e-4 of the largest, and the two solves differ
                # by more: 3e-14 at k = 15 and 3e-7 at k = 31.
                reference = constrained_svd_direction(system.matrix, rows)
                assert np.max(np.abs(model.weights - reference)) <= 1e-14

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


class TestWeightSolvePin:
    """The fits of the R-only weight solve equal those of a thin SVD."""

    @staticmethod
    def _tanh():
        x = TWO_PI * np.arange(400) / 400
        return SampleSet.from_data(x, np.tanh(60 * np.cos(x)))

    # The weight solves of each fit: one per greedy step, plus one for a
    # cleanup re-solve (the even far-field fit has no small residues).
    SOLVES = {"odd-raw": 53, "odd-cleaned": 53 + 1, "even-far-field": 52, "aaa": 21}

    @pytest.mark.parametrize("case, m", [
        ("odd-raw", 53),
        ("odd-cleaned", 52),
        ("even-far-field", 52),
        ("aaa", 21),
    ])
    def test_same_fit_as_thin_svd(self, monkeypatch, case, m):
        run = {
            "odd-raw": lambda: fit(self._tanh(), FitConfig(cleanup=False)),
            "odd-cleaned": lambda: fit(self._tanh(), FitConfig()),
            "even-far-field": lambda: fit(
                self._tanh(), FitConfig(parity=Parity.EVEN, far_field=FarField(0.0, 0.0))),
            "aaa": lambda: aaa_fit(rectangle_samples(lambda z: np.exp(np.sin(z)), 400, 7)),
        }[case]
        shipped = run()
        calls = []

        def counted(A, overwrite_a=False):
            calls.append(A.shape)
            return thin_svd_direction(A, overwrite_a)

        monkeypatch.setattr(numerics, "min_singular_direction", counted)
        reference = run()
        assert shipped.m == m
        assert len(calls) == self.SOLVES[case]
        for field in ("support", "weights", "err_history"):
            assert np.array_equal(getattr(shipped, field), getattr(reference, field)), field


class TestNonFiniteGuard:
    """A non-finite kernel value reaches the weight solve only at a row the
    Loewner matrix gathers, that is, at a sample not in the support."""

    STEP = 4

    @staticmethod
    def _samples():
        x = TWO_PI * np.arange(200) / 200
        return SampleSet.from_data(x, np.exp(np.sin(x)))

    def _patch_kernel(self, monkeypatch, row):
        """Make the kernel return inf at sample ``row`` on the STEP-th call."""
        calls = []

        def patched(parity, d):
            out = np.array(_cst_values(parity, d))
            calls.append(len(calls) + 1)
            if len(calls) == self.STEP:
                out[row] = np.inf
            return out

        monkeypatch.setattr(solver, "_cst_values", patched)
        return calls

    def _raw_fit(self):
        ss = self._samples()
        model = fit(ss, FitConfig(cleanup=False))
        idx = [int(np.argmin(np.abs(ss.points - s))) for s in model.support]
        return ss, model, idx

    def test_inf_at_active_row_raises_at_its_step(self, monkeypatch):
        ss, model, idx = self._raw_fit()
        assert model.m > self.STEP
        row = next(k for k in range(ss.size) if k not in idx[: self.STEP])
        calls = self._patch_kernel(monkeypatch, row)
        with pytest.raises(ValueError, match="matrix has non-finite entries"):
            fit(ss, FitConfig(cleanup=False))
        assert len(calls) == self.STEP

    @pytest.mark.parametrize("which", ["own", "earlier"])
    def test_inf_at_support_row_is_never_gathered(self, monkeypatch, which):
        ss, model, idx = self._raw_fit()
        row = idx[self.STEP - 1] if which == "own" else idx[0]
        self._patch_kernel(monkeypatch, row)
        patched = fit(ss, FitConfig(cleanup=False))
        for field in ("support", "weights", "err_history"):
            assert np.array_equal(getattr(patched, field), getattr(model, field)), field


class TestCleanup:
    def _smooth_fit(self):
        pts = TWO_PI * np.arange(128) / 128
        ss = SampleSet.from_data(pts, np.exp(np.sin(pts)))
        return ss, fit(ss, FitConfig(cleanup=False))

    def test_idempotent_without_small_residues(self):
        ss, model = self._smooth_fit()
        cleaned = cleanup(model, ss, FitConfig())
        assert cleaned is model

    def test_support_point_absent_from_samples(self):
        # cleanup_tol 10 marks the worked model's pole (residue -2), so the
        # support must be found among samples that do not hold it.
        model = TrigModel.build(Parity.ODD, [0.0, np.pi], [1.0, -1.0], [1.0, 1.0])
        pts = TWO_PI * (np.arange(16) + 0.5) / 16
        ss = SampleSet.from_data(pts, evaluate_batch(model, pts))
        with pytest.raises(ValueError, match="not present in the sample set"):
            cleanup(model, ss, FitConfig(cleanup_tol=10.0))

    def test_unchanged_without_poles(self):
        # Odd, m = 2, shifted weights w_j e^{i z_j/2} summing to zero: the
        # denominator is a multiple of 1/((zeta - zeta_1)(zeta - zeta_2)),
        # so the pole pencil has no finite nonzero eigenvalue.
        model = TrigModel.build(Parity.ODD, [0.0, np.pi], [1.0, 2.0], [-1j, 1.0])
        assert len(poles_and_zeros(model).poles) == 0
        pts = TWO_PI * np.arange(16) / 16
        ss = SampleSet.from_data(pts, evaluate_batch(model, pts))
        assert cleanup(model, ss, FitConfig()) is model

    @pytest.mark.parametrize("pin_far_field, offsets", [
        pytest.param(False, (1e-7,), id="False"),
        pytest.param(True, (1e-7,), id="True"),
        # Two doublets share one nearest support point; each must remove
        # its own near-duplicate.
        pytest.param(False, (1e-7, 2e-7), id="two-doublets"),
    ])
    def test_removes_hand_built_doublet(self, pin_far_field, offsets):
        from aaatrig.numerics import min_singular_direction
        from aaatrig.polezero import _residues_unchecked
        from aaatrig.solver import assemble_loewner
        from aaatrig.trigbary import strip_distance

        ss, model = self._smooth_fit()
        # Duplicate one support point at tiny offsets and re-solve: the
        # least squares parks a pole-zero pair on each near-duplicate.
        extras = model.support[0] + np.asarray(offsets)
        extended = SampleSet.from_data(
            np.append(ss.points, extras), np.append(ss.values, np.exp(np.sin(extras)))
        )
        sup_idx = [int(np.argmin(np.abs(extended.points - s))) for s in model.support]
        sup_idx.extend(range(ss.size, extended.size))
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
        near_pair = strip_distance(report.poles, model.support[0]) < 1e-4
        # One real doublet per near-duplicate.
        assert np.count_nonzero(res[near_pair] < 1e-13 * doubled.scale) == len(offsets)

        # The re-solve under the far-field constraint pins the cleaned model's
        # far field.  The data fix the far field only loosely, so the pinned
        # solve gives up some sample accuracy at this order (m = 13).
        target = far_field(model) if pin_far_field else None
        cleaned = cleanup(doubled, extended, FitConfig(far_field=target))
        assert cleaned.m == doubled.m - len(offsets)
        resid = np.abs(evaluate_batch(cleaned, ss.points) - ss.values)
        assert np.max(resid) <= (1e-9 if pin_far_field else 1e-11) * model.scale
        if pin_far_field:
            got = far_field(cleaned)
            assert abs(got.f_plus - target.f_plus) <= 1e-6 * (1 + abs(target.f_plus))
            assert abs(got.f_minus - target.f_minus) <= 1e-6 * (1 + abs(target.f_minus))

    @pytest.mark.parametrize("parity, target", [
        (Parity.ODD, None),
        (Parity.EVEN, None),
        (Parity.ODD, FarField(0.0, 0.0)),
    ], ids=["odd", "even", "odd-far-field"])
    def test_fit_runs_the_public_cleanup(self, parity, target):
        # cleanup locates the support among the samples itself; on distinct
        # samples that finds the greedy's own indices.
        x = TWO_PI * np.arange(1000) / 1000
        ss = SampleSet.from_data(x, np.tanh(60 * np.cos(x)))
        config = FitConfig(parity=parity, far_field=target)
        raw = fit(ss, replace(config, cleanup=False))
        fitted = fit(ss, config)
        cleaned = cleanup(raw, ss, config)
        assert fitted.m < raw.m
        for field in ("support", "weights", "err_history"):
            assert getattr(fitted, field).tobytes() == getattr(cleaned, field).tobytes(), field
        assert fitted.converged == cleaned.converged

    def test_converged_means_within_tolerance(self):
        # Even parity with a sample 2e-6 from pi: the raw fit converges at
        # m = 3, and cleanup drops the third support point, leaving an
        # error of 4.1e-5 against 2e-12; the cleaned model must say so.
        x = TWO_PI * np.arange(400) / 400
        x[200] = np.pi + 2e-6
        ss = SampleSet.from_data(x, 1.0 / (1.05 + np.cos(x)))
        config = FitConfig(parity=Parity.EVEN)
        model = fit(ss, config)
        err = np.max(np.abs(evaluate_batch(model, ss.points) - ss.values))
        assert not model.converged or err <= config.rel_tol * model.scale

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

import tracemalloc

import numpy as np
import pytest

from aaatrig import lightning as lt
from aaatrig.polezero import poles_and_zeros, taper_fit
from aaatrig.trigbary import TWO_PI, evaluate_batch


class TestPlacePoles:
    def test_distance_law(self):
        # n=4, L=1, sigma=-2: distances exp(-2(2-sqrt(k))).
        poles = lt.place_poles(
            [0.0], 4, 2.0, directions=[1.0], length_scale=1.0, containment=None
        )
        got = np.abs(poles)
        want = np.exp(-2.0 * (2.0 - np.sqrt(np.arange(1, 5))))
        assert np.allclose(got, want, rtol=1e-14)
        assert abs(want[0] - 0.1353352832366127) < 1e-15

    def test_single_pole_at_length_scale(self):
        poles = lt.place_poles(
            [1.0], 1, 2.0, directions=[1j], length_scale=0.7, containment=None
        )
        assert len(poles) == 1
        assert abs(poles[0] - (1.0 + 0.7j)) < 1e-15

    def test_taper_fit_recovers_sigma(self):
        poles = lt.place_poles(
            [2.0], 16, 3.0, directions=[np.exp(0.4j)], length_scale=0.9,
            containment=None,
        )
        tf = taper_fit(poles, 2.0, k_max=16)
        assert abs(tf.sigma + 3.0) < 1e-6
        assert tf.r_squared > 1.0 - 1e-12

    def test_containment_enforced(self):
        with pytest.raises(ValueError, match="inside the flow domain"):
            lt.place_poles(lt.CORNERS, 4, 2.0, length_scale=5.0)

    def test_demo_poles_inside_obstacle(self):
        poles = lt.place_poles(lt.CORNERS, 30, 4.0)
        assert np.all(lt.inside_obstacle(poles))
        assert len(poles) == 60


class TestArnoldi:
    def test_discrete_orthonormality(self):
        rng = np.random.default_rng(0)
        t = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        Q, H = lt._arnoldi_basis(t, 12)
        gram = Q.conj().T @ Q / len(t)
        assert np.max(np.abs(gram - np.eye(13))) < 1e-10

    def test_reevaluation_matches(self):
        rng = np.random.default_rng(1)
        t = rng.standard_normal(300) + 1j * rng.standard_normal(300)
        Q, H = lt._arnoldi_basis(t, 8)
        W = lt._arnoldi_eval(t, H)
        assert np.max(np.abs(W - Q)) < 1e-9


class TestSolve:
    def test_zero_boundary_data(self):
        poles = lt.place_poles(lt.CORNERS, 8, 4.0)
        pts = lt.collocation_points(8, 4.0)
        model = lt.solve_dirichlet([(p, 0.0) for p in pts], poles, 6)
        assert np.max(np.abs(model.newman_coeffs)) == 0.0
        assert np.max(np.abs(model.runge_coeffs)) == 0.0
        assert model.boundary_residual == 0.0

    def test_residual_decreases_with_poles(self):
        residuals = []
        for per_corner in (8, 16, 32):
            model = lt.solve_flow_demo(per_corner=per_corner, n_runge=16)
            residuals.append(model.boundary_residual)
        assert residuals[0] > residuals[1] > residuals[2]

    def test_ansatz_periodicity(self):
        model = lt.solve_flow_demo(per_corner=12, n_runge=10)
        rng = np.random.default_rng(2)
        z = rng.uniform(0, TWO_PI, 25) + 1j * rng.uniform(-1.5, 1.5, 25)
        z = z[~lt.inside_obstacle(z)]
        a = lt.evaluate_lightning(model, z)
        b = lt.evaluate_lightning(model, z + TWO_PI)
        assert np.max(np.abs(a - b)) <= 1e-10 * (1 + np.max(np.abs(a)))

    def test_residual_is_the_solved_systems(self):
        # The residual of the least-squares system agrees with the solved
        # model evaluated at the collocation points, to rounding.
        poles = lt.place_poles(lt.CORNERS, 12, lt.SIGMA_SCALE)
        pts = lt.collocation_points(12, lt.SIGMA_SCALE)
        target = lt.flow_targets(pts)
        model = lt.solve_dirichlet(list(zip(pts, target)), poles, 10)
        want = np.max(np.abs(lt.evaluate_lightning(model, pts).imag - target))
        assert abs(model.boundary_residual - want) <= 1e-12 * want

    def test_not_enough_collocation(self):
        poles = lt.place_poles(lt.CORNERS, 8, 4.0)
        pts = lt.boundary_points(10)
        with pytest.raises(ValueError, match="collocation"):
            lt.solve_dirichlet([(p, 0.0) for p in pts], poles, 6)


class TestEvaluate:
    @staticmethod
    def _demo_sized_model():
        # The demo's 122 Newman poles and 24 Runge terms, random coefficients.
        rng = np.random.default_rng(5)
        poles = lt.place_poles(lt.CORNERS, 61, 4.0)
        t = lt._runge_coordinate(lt.boundary_points(400), lt.RUNGE_CENTER)
        _, H = lt._arnoldi_basis(t, 24)
        return lt.LightningModel(
            poles, rng.standard_normal(122) + 1j * rng.standard_normal(122),
            complex(lt.RUNGE_CENTER), rng.standard_normal(25) + 1j * rng.standard_normal(25), H)

    @staticmethod
    def _points(rng, n):
        return rng.uniform(0, TWO_PI, n) + 1j * rng.uniform(-1.5, -0.2, n)

    @pytest.mark.parametrize("n", [200, 1000, 5000])
    def test_blocks_match_the_whole_array(self, n):
        model = self._demo_sized_model()
        z = self._points(np.random.default_rng(n), n)
        whole = (lt._newman_block(z, model.newman_poles) @ model.newman_coeffs
                 + lt._arnoldi_eval(lt._runge_coordinate(z, model.runge_center),
                                    model.arnoldi_hessenberg) @ model.runge_coeffs)
        assert np.array_equal(lt.evaluate_lightning(model, z), whole)
        shaped = lt.evaluate_lightning(model, z[:200].reshape(10, 20))
        assert np.array_equal(shaped, whole[:200].reshape(10, 20))

    def test_memory_bounded(self):
        # One 50000 x 147 temporary would take 118 MB; blocks of
        # EVAL_CELLS cells keep each at 1 MiB.
        model = self._demo_sized_model()
        z = self._points(np.random.default_rng(6), 50_000)
        tracemalloc.start()
        try:
            lt.evaluate_lightning(model, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestCompress:
    def test_zero_solution_compresses_to_constant(self):
        poles = lt.place_poles(lt.CORNERS, 8, 4.0)
        pts = lt.collocation_points(8, 4.0)
        model = lt.solve_dirichlet([(p, 0.0) for p in pts], poles, 6)
        compressed = lt.compress(model)
        assert compressed.m == 1

    def test_moderate_demo_chain(self):
        model = lt.solve_flow_demo(per_corner=40, n_runge=20)
        assert model.boundary_residual <= 1e-4
        compressed = lt.compress(model)
        grid = lt.interior_grid()
        diff = np.max(
            np.abs(evaluate_batch(compressed, grid) - lt.evaluate_lightning(model, grid))
        )
        assert diff <= 10.0 * model.boundary_residual
        report = poles_and_zeros(compressed)
        assert 0 < len(report.poles) < model.n_newman
        for corner in lt.CORNERS:
            near = report.poles[np.abs(report.poles - corner) < 0.45]
            assert len(near) >= 4
            tf = taper_fit(report.poles, corner, k_max=min(10, len(near)))
            assert tf.sigma < 0
            assert tf.r_squared >= 0.9

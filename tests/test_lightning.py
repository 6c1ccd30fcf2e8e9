import tracemalloc

import numpy as np
import pytest

from aaatrig import lightning as lt
from aaatrig.polezero import _cot_block, poles_and_zeros, taper_fit
from aaatrig.trigbary import TWO_PI, evaluate_batch


class TestPlacePoles:
    def test_distance_law(self):
        # n=4: distances 0.4 exp(-4(2-sqrt(k))) along each corner's bisector.
        poles = lt.place_poles(4).reshape(2, 4)
        want = 0.4 * np.exp(-4.0 * (2.0 - np.sqrt(np.arange(1, 5))))
        for corner, direction, cluster in zip(lt.CORNERS, lt.CORNER_DIRECTIONS, poles):
            assert np.allclose(cluster - corner, direction * want, rtol=1e-13, atol=0.0)
        assert abs(want[0] - 0.4 * 0.01831563888873418) < 1e-16

    def test_single_pole_at_length_scale(self):
        poles = lt.place_poles(1)
        assert len(poles) == 2
        for pole, corner, direction in zip(poles, lt.CORNERS, lt.CORNER_DIRECTIONS):
            assert abs(pole - (corner + 0.4 * direction)) < 1e-15

    def test_taper_fit_recovers_sigma(self):
        poles = lt.place_poles(16)
        for corner in lt.CORNERS:
            tf = taper_fit(poles, corner, k_max=16)
            assert abs(tf.sigma + lt.SIGMA_SCALE) < 1e-6
            assert tf.r_squared > 1.0 - 1e-12

    def test_per_corner_limit(self):
        # From 94 on, the innermost pole 0.4 exp(-4(sqrt(n)-1)) comes within
        # rounding of its corner, which is not strictly inside the obstacle.
        assert len(lt.place_poles(93)) == 186
        with pytest.raises(ValueError, match="per_corner 94 too large"):
            lt.place_poles(94)

    def test_per_corner_must_be_positive(self):
        with pytest.raises(ValueError, match="per_corner must be positive"):
            lt.place_poles(0)

    def test_n_runge_must_be_nonnegative(self):
        pts = lt.collocation_points(4)
        with pytest.raises(ValueError, match="n_runge must be nonnegative"):
            lt.solve_dirichlet(pts, lt.flow_targets(pts), lt.place_poles(4), -1)
        with pytest.raises(ValueError, match="n_runge must be nonnegative"):
            lt.solve_flow_demo(4, -2)
        assert lt.solve_flow_demo(4, 0).n_runge == 1

    @pytest.mark.parametrize("per_corner", [1, 12, 61, 93])
    def test_demo_poles_inside_obstacle(self, per_corner):
        poles = lt.place_poles(per_corner)
        assert np.all(lt.inside_obstacle(poles))
        assert len(poles) == 2 * per_corner


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


def masked_assembly_solve(points, targets, poles, n_runge):
    """Reference for solve_dirichlet: the complex basis, its [Im | Re] real
    columns, the gauge column Re(b_0) masked out, then the columns scaled;
    returns (coefficients, Hessenberg data, residual)."""
    newman = _cot_block(points, poles)
    Q, H = lt._arnoldi_basis(lt._runge_coordinate(points), n_runge)
    basis = np.hstack([newman, Q])
    n = basis.shape[1]
    re_block = np.hstack([basis.imag, basis.real])
    keep = np.ones(2 * n, dtype=bool)
    keep[len(poles)] = False
    re_block = re_block[:, keep]
    norms = np.linalg.norm(re_block, axis=0)
    norms[norms == 0.0] = 1.0
    scaled = re_block / norms
    sol = np.linalg.lstsq(scaled, targets, rcond=None)[0]
    full = np.zeros(2 * n)
    full[keep] = sol / norms
    return full[:n] + 1j * full[n:], H, float(np.max(np.abs(scaled @ sol - targets)))


class TestSolve:
    @pytest.mark.parametrize("per_corner, n_runge", [(12, 8), (30, 12)])
    def test_matches_the_masked_assembly_bitwise(self, per_corner, n_runge):
        poles = lt.place_poles(per_corner)
        pts = lt.collocation_points(per_corner)
        targets = lt.flow_targets(pts)
        model = lt.solve_dirichlet(pts, targets, poles, n_runge)
        coefs, H, resid = masked_assembly_solve(pts, targets, poles, n_runge)
        got = np.concatenate([model.newman_coeffs, model.runge_coeffs])
        assert got.tobytes() == coefs.tobytes()
        assert model.arnoldi_hessenberg.tobytes() == H.tobytes()
        assert model.boundary_residual == resid
        assert model.runge_coeffs[0].real == 0.0

    def test_zero_boundary_data(self):
        pts = lt.collocation_points(8)
        model = lt.solve_dirichlet(pts, np.zeros(len(pts)), lt.place_poles(8), 6)
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
        pts = lt.collocation_points(12)
        target = lt.flow_targets(pts)
        model = lt.solve_dirichlet(pts, target, lt.place_poles(12), 10)
        want = np.max(np.abs(lt.evaluate_lightning(model, pts).imag - target))
        assert abs(model.boundary_residual - want) <= 1e-12 * want

    def test_not_enough_collocation(self):
        pts = lt.boundary_points(10)
        with pytest.raises(ValueError, match="collocation"):
            lt.solve_dirichlet(pts, np.zeros(len(pts)), lt.place_poles(8), 6)

    def test_repeated_pole_is_rank_deficient(self):
        # The copied pole repeats a column in both the real and imaginary halves.
        poles = lt.place_poles(4)
        pts = lt.collocation_points(4)
        with pytest.raises(ValueError, match="rank 25 < 27 columns"):
            lt.solve_dirichlet(pts, lt.flow_targets(pts), np.append(poles, poles[0]), 4)


class TestEvaluate:
    @staticmethod
    def _demo_sized_model():
        # The demo's 122 Newman poles and 24 Runge terms, random coefficients.
        rng = np.random.default_rng(5)
        poles = lt.place_poles(61)
        t = lt._runge_coordinate(lt.boundary_points(400))
        _, H = lt._arnoldi_basis(t, 24)
        return lt.LightningModel(
            poles, rng.standard_normal(122) + 1j * rng.standard_normal(122),
            rng.standard_normal(25) + 1j * rng.standard_normal(25), H)

    @staticmethod
    def _points(rng, n):
        return rng.uniform(0, TWO_PI, n) + 1j * rng.uniform(-1.5, -0.2, n)

    @pytest.mark.parametrize("n", [200, 1000, 5000])
    def test_blocks_match_the_whole_array(self, n):
        model = self._demo_sized_model()
        z = self._points(np.random.default_rng(n), n)
        W = lt._arnoldi_eval(lt._runge_coordinate(z), model.arnoldi_hessenberg)
        whole = (np.einsum("ij,j->i", _cot_block(z, model.newman_poles), model.newman_coeffs)
                 + np.einsum("ij,j->i", W, model.runge_coeffs))
        got = lt.evaluate_lightning(model, z)
        assert np.array_equal(got, whole)
        shaped = lt.evaluate_lightning(model, z[:200].reshape(10, 20))
        assert np.array_equal(shaped, whole[:200].reshape(10, 20))
        # A point's value does not depend on the batch it comes in.
        for i in range(0, n, n // 200):
            assert lt.evaluate_lightning(model, z[i:i + 1])[0] == got[i]

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
        pts = lt.collocation_points(8)
        model = lt.solve_dirichlet(pts, np.zeros(len(pts)), lt.place_poles(8), 6)
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

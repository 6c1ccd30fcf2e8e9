import numpy as np
import pytest
import scipy.linalg

from aaatrig.numerics import (
    constrained_min_singular_direction,
    generalized_eig,
    generalized_eig_arrow,
    min_singular_direction,
)

from aaatrig.trigbary import Parity, _zeta_form

from conftest import constrained_svd_direction, random_model, thin_svd_direction


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestMinSingularDirection:
    def test_diagonal(self):
        w = min_singular_direction(np.diag([1.0, 2.0]).astype(complex))
        assert np.allclose(w, [1.0, 0.0], atol=1e-14)

    def test_scalar_matrix(self):
        w = min_singular_direction(np.asarray([[3.0 + 0j]]))
        assert np.allclose(w, [1.0], atol=1e-14)

    def test_beats_random_sphere(self):
        # Brute-force oracle: no random unit vector does better.
        rng = np.random.default_rng(5)
        A = random_complex(rng, 6, 3)
        w = min_singular_direction(A)
        assert abs(np.linalg.norm(w) - 1.0) < 1e-13
        best = np.linalg.norm(A @ w)
        V = random_complex(rng, 10000, 3)
        V = V / np.linalg.norm(V, axis=1)[:, None]
        assert np.all(best <= np.linalg.norm(V @ A.T, axis=1) + 1e-12)

    def test_matches_smallest_singular_value(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            A = random_complex(rng, 8, 4)
            w = min_singular_direction(A)
            smin = scipy.linalg.svdvals(A)[-1]
            assert np.linalg.norm(A @ w) <= smin * (1.0 + 1e-10)

    def test_deterministic_phase(self):
        rng = np.random.default_rng(7)
        A = random_complex(rng, 5, 3)
        w1 = min_singular_direction(A)
        w2 = min_singular_direction(A.copy())
        assert np.array_equal(w1, w2)
        k = np.argmax(np.abs(w1))
        assert abs(w1[k].imag) < 1e-15 and w1[k].real > 0

    def test_errors(self):
        with pytest.raises(ValueError, match="non-finite"):
            min_singular_direction(np.asarray([[np.nan, 0], [0, 1], [1, 1]]))
        with pytest.raises(ValueError, match="rows >= cols"):
            min_singular_direction(np.ones((2, 3), dtype=complex))

    # Tall enough (rows >= floor(17*cols/9)) for zgesdd to factor A = QR
    # itself, so the R-only solve repeats the thin SVD's vector bit for bit.
    @pytest.mark.parametrize("shape", [(1000, 1), (1000, 60), (1000, 100), (400, 53), (64, 20)])
    def test_tall_matches_thin_svd_bitwise(self, shape):
        A = random_complex(np.random.default_rng(shape[1]), *shape)
        assert np.array_equal(min_singular_direction(A), thin_svd_direction(A))

    @pytest.mark.parametrize("shape", [(1000, 200), (900, 300), (64, 40), (100, 100)])
    def test_backward_stable(self, shape):
        A = random_complex(np.random.default_rng(shape[1]), *shape)
        w = min_singular_direction(A)
        sigma = scipy.linalg.svdvals(A)
        eps = np.finfo(float).eps
        assert abs(np.linalg.norm(w) - 1.0) < 1e-13
        assert np.linalg.norm(A @ w) <= sigma[-1] * (1.0 + 1e-10) + 10 * eps * sigma[0]

    @pytest.mark.parametrize("kind", ["c-complex", "f-complex", "real", "list"])
    def test_input_unchanged(self, kind):
        rng = np.random.default_rng(11)
        A = {
            "c-complex": random_complex(rng, 30, 4),
            "f-complex": np.asfortranarray(random_complex(rng, 30, 4)),
            "real": rng.standard_normal((30, 4)),
            "list": rng.standard_normal((30, 4)).tolist(),
        }[kind]
        before = np.array(A, copy=True)
        w = min_singular_direction(A)
        assert np.array_equal(np.asarray(A), before)
        assert np.array_equal(w, thin_svd_direction(before))


    def test_overwrite_a_factors_in_place(self):
        A = np.asfortranarray(random_complex(np.random.default_rng(16), 40, 6))
        before = A.copy()
        w = min_singular_direction(A, overwrite_a=True)
        assert np.array_equal(w, min_singular_direction(before))
        assert not np.array_equal(A, before)

    @pytest.mark.parametrize("kind", ["c-complex", "real"])
    def test_overwrite_a_copies_other_input(self, kind):
        rng = np.random.default_rng(17)
        A = {"c-complex": random_complex(rng, 30, 4), "real": rng.standard_normal((30, 4))}[kind]
        before = A.copy()
        w = min_singular_direction(A, overwrite_a=True)
        assert np.array_equal(A, before)
        assert np.array_equal(w, min_singular_direction(before))

    @pytest.mark.parametrize("overwrite_a", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, -np.inf)])
    def test_non_finite_rejected_in_both_modes(self, overwrite_a, bad):
        A = np.asfortranarray(random_complex(np.random.default_rng(18), 10, 3))
        A[4, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            min_singular_direction(A, overwrite_a=overwrite_a)


class TestConstrainedMinSingularDirection:
    @pytest.mark.parametrize("k", [1, 2])
    def test_matches_null_space_reference(self, k):
        rng = np.random.default_rng(12 + k)
        for cols in (k + 1, 5, 40):
            A, C = random_complex(rng, 200, cols), random_complex(rng, k, cols)
            w = constrained_min_singular_direction(A, C)
            assert abs(np.linalg.norm(w) - 1.0) < 1e-13
            assert np.max(np.abs(C @ w)) <= 4 * np.finfo(float).eps * np.linalg.norm(C)
            assert np.max(np.abs(w - constrained_svd_direction(A, C))) <= 1e-12

    def test_zero_and_repeated_rows_constrain_nothing(self):
        rng = np.random.default_rng(14)
        A, c = random_complex(rng, 50, 6), random_complex(rng, 1, 6)
        one = constrained_min_singular_direction(A, c)
        for C in (np.vstack([c, 2j * c]), np.vstack([np.zeros_like(c), c])):
            assert np.max(np.abs(constrained_min_singular_direction(A, C) - one)) <= 1e-13
        zero = constrained_min_singular_direction(A, np.zeros((2, 6)))
        assert np.array_equal(zero, min_singular_direction(A))

    def test_unconstrained_without_rows_or_null_space(self):
        rng = np.random.default_rng(15)
        A = random_complex(rng, 30, 2)
        free = min_singular_direction(A)
        assert np.array_equal(constrained_min_singular_direction(A, np.zeros((0, 2))), free)
        # Two independent rows on two columns leave only w = 0.
        assert np.array_equal(constrained_min_singular_direction(A, random_complex(rng, 2, 2)), free)

    @pytest.mark.parametrize("k", [0, 1])
    def test_overwrite_a_passed_through(self, k):
        # Without constraint rows A itself is factored in place; with them
        # the solve factors its own product A Q and leaves A as it was.
        rng = np.random.default_rng(19)
        A, C = np.asfortranarray(random_complex(rng, 40, 5)), random_complex(rng, k, 5)
        before = A.copy()
        w = constrained_min_singular_direction(A, C, overwrite_a=True)
        assert np.array_equal(w, constrained_min_singular_direction(before, C))
        assert np.array_equal(A, before) == (k > 0)

    def test_non_finite_constraint(self):
        with pytest.raises(ValueError, match="non-finite"):
            constrained_min_singular_direction(np.eye(3), [[np.inf, 0.0, 1.0]])


def dense_arrow_pencil(head, payload, shifts):
    """A = [[head, payload], [1, diag(shifts)]] and B = diag(0, 1, ..., 1)."""
    m = len(payload)
    A = np.zeros((m + 1, m + 1), dtype=complex)
    A[0, 0] = head
    A[0, 1:] = payload
    A[1:, 0] = 1.0
    A[1:, 1:] = np.diag(shifts)
    B = np.eye(m + 1, dtype=complex)
    B[0, 0] = 0.0
    return A, B


class TestGeneralizedEigArrow:
    def test_zero_head_single_payload(self):
        # det(A - lambda*B) = -1 identically: no finite eigenvalues.
        res = generalized_eig_arrow(0.0, [1.0], [0.0])
        assert len(res.finite_eigenvalues) == 0
        assert res.discarded_count == 2

    def test_nonzero_head_single_payload(self):
        # det = -c*lambda - 1, root at -1/c (hand-solved 2x2 determinant).
        for c in (2.0, 1.5 - 0.5j):
            res = generalized_eig_arrow(c, [1.0], [0.0])
            assert len(res.finite_eigenvalues) == 1
            assert abs(res.finite_eigenvalues[0] - (-1.0 / c)) < 1e-14

    def test_empty_payload_is_the_one_by_one_pencil(self):
        # A = [head], B = [0]: beta = 0, so the one eigenvalue is infinite.
        for head in (0.0, 2.0 - 1j):
            res = generalized_eig_arrow(head, [], [])
            assert len(res.finite_eigenvalues) == 0
            assert res.discarded_count == 1

    def test_odd_pole_pencil_worked_example(self):
        # Support {0, pi}, w prop {1, 1}: denominator root at zhat = i,
        # i.e. the pole z = pi/2 of -cot((z - pi/2)/2).
        w = np.asarray([1.0, 1.0]) / np.sqrt(2.0)
        zhat = np.exp(1j * np.asarray([0.0, np.pi]))
        what = w * np.exp(1j * np.asarray([0.0, np.pi]) / 2.0)
        res = generalized_eig_arrow(0.0, what, zhat)
        assert len(res.finite_eigenvalues) == 1
        assert res.discarded_count == 2
        assert abs(res.finite_eigenvalues[0] - 1j) < 1e-13

    def test_identity_mass_matches_standard_eig(self):
        rng = np.random.default_rng(8)
        A = random_complex(rng, 5, 5)
        res = generalized_eig(A, np.eye(5, dtype=complex))
        direct = np.sort_complex(np.linalg.eigvals(A))
        assert np.allclose(np.sort_complex(res.finite_eigenvalues), direct, atol=1e-10)

    def test_eigenvalue_residuals(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            parts = complex(random_complex(rng)), random_complex(rng, 4), random_complex(rng, 4)
            A, B = dense_arrow_pencil(*parts)
            res = generalized_eig_arrow(*parts)
            assert res.discarded_count >= 1
            for lam in res.finite_eigenvalues:
                smin = scipy.linalg.svdvals(A - lam * B)[-1]
                assert smin <= 1e-8 * np.linalg.norm(A)

    def test_matches_the_dense_pencil_bitwise(self):
        # The zeta forms of the pole and zero sums of both parities, as pole
        # extraction passes them, and random complex parts.
        rng = np.random.default_rng(11)
        cases = []
        for parity in (Parity.ODD, Parity.EVEN):
            for m in (2, 5, 9):
                model = random_model(rng, m, parity)
                for coeff in (model.weights, model.weights * model.fvals):
                    zeta_j, a, c = _zeta_form(model, 1.0, coeff)
                    cases.append((np.sum(c), a, zeta_j))
        for m in (1, 3, 7):
            head = complex(random_complex(rng))
            cases.append((head, random_complex(rng, m), random_complex(rng, m)))
        for parts in cases:
            got = generalized_eig_arrow(*parts)
            want = generalized_eig(*dense_arrow_pencil(*parts))
            assert np.array_equal(got.finite_eigenvalues, want.finite_eigenvalues)
            assert got.discarded_count == want.discarded_count

    def test_sorted_output(self):
        rng = np.random.default_rng(10)
        res = generalized_eig_arrow(1.0, random_complex(rng, 6), random_complex(rng, 6))
        lam = res.finite_eigenvalues
        key = np.lexsort((lam.imag, lam.real))
        assert np.array_equal(key, np.arange(len(lam)))

    def test_arrowhead_lengths_must_match(self):
        with pytest.raises(ValueError, match="share length"):
            generalized_eig_arrow(0.0, [1.0, 2.0], [3.0])

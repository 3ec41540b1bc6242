import json

import numpy as np
import pytest

from mubqpt import (
    ChiMatrix,
    NumericalError,
    ProbabilityTensor,
    ValidationError,
    check_density_matrix,
    frobenius_norm,
    generate_mub,
    hermitian_eig,
    hermiticity_defect,
    make_cnot,
    matrix_from_json,
    matrix_to_json,
    nearest_density_matrix,
    random_density_matrix,
    save_chi,
    save_kraus,
    save_mub,
    save_probabilities,
    svd_pseudoinverse,
    trace_distance,
)

SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


def random_hermitian(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return g + g.conj().T


class TestHermitianEig:
    def test_identity(self):
        vals, vecs = hermitian_eig(np.eye(2))
        assert np.allclose(vals, [1.0, 1.0])
        assert np.allclose(vecs.conj().T @ vecs, np.eye(2), atol=1e-12)

    def test_sigma_z(self):
        vals, vecs = hermitian_eig(SIGMA_Z)
        assert np.allclose(vals, [-1.0, 1.0])
        # eigenvalues ascending: first column is the -1 eigenvector
        assert abs(vecs[1, 0]) == pytest.approx(1.0, abs=1e-12)
        assert abs(vecs[0, 1]) == pytest.approx(1.0, abs=1e-12)

    def test_reassembly(self, rng):
        for _ in range(5):
            h = random_hermitian(rng, 4)
            vals, vecs = hermitian_eig(h)
            back = vecs @ np.diag(vals) @ vecs.conj().T
            assert np.max(np.abs(back - h)) <= 1e-8
            assert np.all(np.diff(vals) >= 0)

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            hermitian_eig(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValidationError) as exc:
            hermitian_eig(m)
        # the defect magnitude is part of the message
        assert any(ch.isdigit() for ch in str(exc.value))

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            hermitian_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestPseudoinverse:
    def test_diagonal(self):
        pinv, rank, s = svd_pseudoinverse(np.diag([2.0, 4.0]).astype(complex))
        assert np.allclose(pinv, np.diag([0.5, 0.25]))
        assert rank == 2
        assert np.allclose(s, [4.0, 2.0])

    def test_rank_deficient(self):
        pinv, rank, _ = svd_pseudoinverse(np.diag([1.0, 0.0]).astype(complex))
        assert rank == 1
        assert np.allclose(pinv, np.diag([1.0, 0.0]))

    def test_zero_matrix(self):
        pinv, rank, _ = svd_pseudoinverse(np.zeros((3, 5)))
        assert rank == 0
        assert pinv.shape == (5, 3)
        assert np.all(pinv == 0)

    def test_penrose_identities(self, rng):
        for shape in [(4, 4), (3, 6), (7, 2)]:
            m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            pinv, rank, _ = svd_pseudoinverse(m)
            assert rank == min(shape)
            assert np.max(np.abs(m @ pinv @ m - m)) <= 1e-10
            assert np.max(np.abs(pinv @ m @ pinv - pinv)) <= 1e-10
            mp = m @ pinv
            pm = pinv @ m
            assert np.max(np.abs(mp - mp.conj().T)) <= 1e-10
            assert np.max(np.abs(pm - pm.conj().T)) <= 1e-10

    def test_rank_detection(self, rng):
        # 5x7 matrix assembled from 3 rank-one terms
        m = np.zeros((5, 7), dtype=complex)
        for _ in range(3):
            u = rng.normal(size=5) + 1j * rng.normal(size=5)
            v = rng.normal(size=7) + 1j * rng.normal(size=7)
            m += np.outer(u, v)
        _, rank, _ = svd_pseudoinverse(m)
        assert rank == 3


class TestTraceDistance:
    def test_identical(self, rng):
        rho = random_density_matrix(3, rng)
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-14)

    def test_orthogonal_pure(self):
        r0 = np.diag([1.0, 0.0]).astype(complex)
        r1 = np.diag([0.0, 1.0]).astype(complex)
        assert trace_distance(r0, r1) == pytest.approx(1.0, abs=1e-12)

    def test_pure_vs_maximally_mixed(self):
        r0 = np.diag([1.0, 0.0]).astype(complex)
        assert trace_distance(r0, np.eye(2) / 2) == pytest.approx(0.5, abs=1e-12)

    def test_symmetry_and_triangle(self, rng):
        a = random_density_matrix(4, rng)
        b = random_density_matrix(4, rng)
        c = random_density_matrix(4, rng)
        assert trace_distance(a, b) == pytest.approx(trace_distance(b, a), abs=1e-12)
        assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            trace_distance(np.eye(2) / 2, np.eye(3) / 3)


class TestNormsAndChecks:
    def test_frobenius(self):
        assert frobenius_norm(np.zeros((3, 3))) == 0.0
        assert frobenius_norm(np.eye(4)) == pytest.approx(2.0)
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        assert frobenius_norm(sx) == pytest.approx(np.sqrt(2))

    def test_hermiticity_defect(self):
        assert hermiticity_defect(np.eye(2)) == 0.0
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert hermiticity_defect(m) == pytest.approx(1.0)

    def test_density_accepts_valid(self, rng):
        check_density_matrix(random_density_matrix(4, rng))

    def test_density_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValidationError):
            check_density_matrix(m)

    def test_density_rejects_bad_trace(self):
        with pytest.raises(ValidationError):
            check_density_matrix(np.eye(2))

    def test_density_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError):
            check_density_matrix(np.diag([1.5, -0.5]).astype(complex))

    def test_random_density_valid(self, rng):
        for d in (2, 3, 4):
            check_density_matrix(random_density_matrix(d, rng))

    def test_random_density_deterministic(self):
        a = random_density_matrix(4, np.random.default_rng(7))
        b = random_density_matrix(4, np.random.default_rng(7))
        assert np.array_equal(a, b)


class TestNearestDensity:
    def test_repairs_negative_spectrum(self):
        m = np.diag([1.2, -0.2]).astype(complex)
        rho = nearest_density_matrix(m)
        check_density_matrix(rho)
        assert rho[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_fixed_point_on_valid_state(self, rng):
        rho = random_density_matrix(3, rng)
        assert np.max(np.abs(nearest_density_matrix(rho) - rho)) <= 1e-12

    def test_rejects_all_negative(self):
        with pytest.raises(NumericalError):
            nearest_density_matrix(np.diag([-1.0, -2.0]).astype(complex))


class TestMatrixJson:
    def test_round_trip_exact(self, rng):
        m = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
        back = matrix_from_json(json.loads(json.dumps(matrix_to_json(m))))
        assert np.array_equal(back, m)

    def test_rejects_shape_mismatch(self):
        blob = matrix_to_json(np.eye(2))
        blob["cols"] = 3
        with pytest.raises(ValidationError):
            matrix_from_json(blob)

    def test_rejects_malformed_entries(self):
        blob = matrix_to_json(np.eye(2))
        blob["data"][0][0] = [1.0]
        with pytest.raises(ValidationError):
            matrix_from_json(blob)

    @pytest.mark.parametrize("saver,make", [
        (save_chi, lambda: ChiMatrix(2, np.eye(6))),
        (save_probabilities, lambda: ProbabilityTensor(2, np.full(36, 0.5))),
        (save_mub, lambda: generate_mub(2)),
        (save_kraus, make_cnot),
    ], ids=["save_chi", "save_probabilities", "save_mub", "save_kraus"])
    def test_savers_reject_missing_directory(self, saver, make, tmp_path):
        with pytest.raises(ValidationError, match="cannot write"):
            saver(make(), tmp_path / "missing" / "out.json")

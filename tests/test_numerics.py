import json

import numpy as np
import pytest

from mubqpt import (
    BetaMatrix,
    ChiMatrix,
    KrausChannel,
    MubSet,
    NumericalError,
    ProbabilityTensor,
    ValidationError,
    check_density_matrix,
    default_factorization,
    frobenius_norm,
    generate_mub,
    generate_mub_prime,
    hermiticity_defect,
    load_chi,
    load_kraus,
    load_mub,
    load_probabilities,
    make_cnot,
    matrix_from_json,
    matrix_to_json,
    n_projectors,
    nearest_density_matrix,
    random_density_matrix,
    save_chi,
    save_kraus,
    save_mub,
    save_probabilities,
    trace_distance,
)
from mubqpt.numerics import _require_hermitian


class TestHermitianEig:
    """numerics has no eigendecomposition helper: each caller of numpy's
    Hermitian eigensolvers checks its input with `_require_hermitian`."""

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValidationError, match=r"operator is not Hermitian: .* 1\.000e\+00 >"):
            _require_hermitian(m, "operator")
        # trace_distance eigendecomposes a - b only after this check
        with pytest.raises(ValidationError, match=r"difference of the two states is not Hermitian"):
            trace_distance(m, np.zeros((2, 2)))

    def test_rejects_nan(self):
        m = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValidationError, match="nan"):
            _require_hermitian(m, "operator")


class TestPseudoinverse:
    """The pipeline's one pseudoinverse is the dual frame of the MUB
    projectors: W+ = dual^dag, checked here against the four Penrose
    identities."""

    def test_penrose_identities(self, beta_d2, beta_d3, beta_d4, beta_d5):
        for beta in (beta_d2, beta_d3, beta_d4, beta_d5):
            w, k = beta.frame, beta.dual.conj().T
            assert k.shape == (n_projectors(beta.dim), beta.dim**2)
            assert np.max(np.abs(w @ k @ w - w)) <= 1e-10
            assert np.max(np.abs(k @ w @ k - k)) <= 1e-10
            wk, kw = w @ k, k @ w
            assert np.max(np.abs(wk - wk.conj().T)) <= 1e-10
            assert np.max(np.abs(kw - kw.conj().T)) <= 1e-10


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
        # complex() and numpy would read the boolean pairs as numbers
        for entry in ([1.0], [True, False], [0.0, True], [1.0, "0"], [None, 0.0], "ab", 1.0):
            blob = matrix_to_json(np.eye(2))
            blob["data"][3] = entry
            with pytest.raises(ValidationError):
                matrix_from_json(blob)

    def test_integer_entries_are_numbers(self):
        blob = {"rows": 1, "cols": 2, "data": [[1, 0], [-0.0, 2]]}
        back = matrix_from_json(blob)
        assert np.array_equal(back, [[1.0, 2.0j]])
        assert np.signbit(back[0, 1].real)

    @pytest.mark.parametrize("saver,make", [
        (save_chi, lambda: ChiMatrix(2, np.eye(6))),
        (save_probabilities, lambda: ProbabilityTensor(2, np.full(36, 0.5))),
        (save_mub, lambda: generate_mub(2)),
        (save_kraus, make_cnot),
    ], ids=["save_chi", "save_probabilities", "save_mub", "save_kraus"])
    def test_savers_reject_missing_directory(self, saver, make, tmp_path):
        with pytest.raises(ValidationError, match="cannot write"):
            saver(make(), tmp_path / "missing" / "out.json")


# each entry point that takes a dimension: how to build with dim d, and the
# saver and loader of what it builds, if it has them
DIM_ENTRY_POINTS = {
    "MubSet": (lambda d: MubSet(d, generate_mub(2).bases, "test"), save_mub, load_mub),
    "BetaMatrix": (lambda d: BetaMatrix(d, generate_mub(2).frame), None, None),
    "ProbabilityTensor": (lambda d: ProbabilityTensor(d, np.full(36, 0.5)),
                          save_probabilities, load_probabilities),
    "ChiMatrix": (lambda d: ChiMatrix(d, np.eye(6)), save_chi, load_chi),
    "KrausChannel": (lambda d: KrausChannel(d, (np.eye(2),), "identity", {}),
                     save_kraus, load_kraus),
    "generate_mub": (generate_mub, save_mub, load_mub),
    "generate_mub_prime": (generate_mub_prime, save_mub, load_mub),
    "default_factorization": (default_factorization, None, None),
}


@pytest.mark.parametrize("entry", DIM_ENTRY_POINTS)
def test_one_dimension_rule(entry, tmp_path):
    make, save, load = DIM_ENTRY_POINTS[entry]
    for bad in (2.0, True, "2", 1, np.int64(1)):
        with pytest.raises(ValidationError, match="dimension"):
            make(bad)
    made = make(np.int64(2))
    if entry == "default_factorization":
        assert made == (2,) and type(made[0]) is int
        return
    assert type(made.dim) is int and made.dim == 2
    if save is not None:
        save(made, tmp_path / "out.json")
        assert load(tmp_path / "out.json").dim == 2

import numpy as np
import pytest

from mubqpt import (
    ValidationError,
    apply_channel,
    channel_checks,
    concurrence,
    load_kraus,
    make_cnot,
    make_local_channel,
    parse_channel_spec,
    random_density_matrix,
    save_kraus,
    tensor_lift,
)
from mubqpt import channels
from mubqpt.paulis import pauli_string

BELL = np.zeros((4, 4), dtype=complex)
_b = np.array([1, 0, 0, 1]) / np.sqrt(2)
BELL[:, :] = np.outer(_b, _b)

KET = {s: np.eye(4)[int(s, 2)] for s in ("00", "01", "10", "11")}


def proj(ket):
    return np.outer(ket, ket.conj()).astype(complex)


class TestLocalChannels:
    def test_depolarizing_zero_is_identity(self):
        ch = make_local_channel("depolarizing", 0.0)
        assert len(ch.operators) == 1
        assert np.allclose(ch.operators[0], np.eye(2))

    def test_depolarizing_full_mixes(self, rng):
        ch = make_local_channel("depolarizing", 1.0)
        rho = random_density_matrix(2, rng)
        assert np.max(np.abs(apply_channel(ch, rho) - np.eye(2) / 2)) <= 1e-12

    @pytest.mark.parametrize("kind,param", [
        ("depolarizing", 0.3), ("amplitude_damping", 0.4), ("bit_phase_flip", 0.25),
    ])
    def test_trace_preserving(self, kind, param):
        ch = make_local_channel(kind, param)
        s = sum(a.conj().T @ a for a in ch.operators)
        assert np.max(np.abs(s - np.eye(2))) <= 1e-12

    def test_amplitude_damping_full_decay(self):
        ch = make_local_channel("amplitude_damping", 1.0)
        excited = np.diag([0.0, 1.0]).astype(complex)
        ground = np.diag([1.0, 0.0]).astype(complex)
        assert np.max(np.abs(apply_channel(ch, excited) - ground)) <= 1e-12

    def test_amplitude_damping_operators(self):
        ch = make_local_channel("amplitude_damping", 0.36)
        a1, a2 = ch.operators
        assert np.allclose(a1, np.diag([1.0, 0.8]))
        assert np.allclose(a2, [[0.0, 0.6], [0.0, 0.0]])

    def test_bit_phase_flip_operators(self):
        ch = make_local_channel("bit_phase_flip", 0.25)
        a1, a2 = ch.operators
        assert np.allclose(a1, np.sqrt(0.75) * np.eye(2))
        assert np.allclose(a2, 0.5 * pauli_string("Y"))

    def test_rejects_bad_param(self):
        with pytest.raises(ValidationError):
            make_local_channel("depolarizing", 1.5)
        with pytest.raises(ValidationError):
            make_local_channel("amplitude_damping", -0.1)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValidationError):
            make_local_channel("phase_flip", 0.1)


class TestLiftAndCnot:
    def test_lift_counts_and_completeness(self):
        dep = make_local_channel("depolarizing", 0.1)
        both = tensor_lift(dep, dep)
        assert both.dim == 4 and len(both.operators) == 16
        s = sum(a.conj().T @ a for a in both.operators)
        assert np.max(np.abs(s - np.eye(4))) <= 1e-12

    def test_lift_acts_locally(self, rng):
        ad = make_local_channel("amplitude_damping", 0.4)
        ident = make_local_channel("depolarizing", 0.0)
        left_only = tensor_lift(ad, ident)
        ra = random_density_matrix(2, rng)
        rb = random_density_matrix(2, rng)
        out = apply_channel(left_only, np.kron(ra, rb))
        assert np.max(np.abs(out - np.kron(apply_channel(ad, ra), rb))) <= 1e-12

    def test_lift_params_prefixed(self):
        dep = make_local_channel("depolarizing", 0.1)
        ad = make_local_channel("amplitude_damping", 0.4)
        both = tensor_lift(dep, ad)
        assert any(k.startswith("left_") for k in both.params)
        assert any(k.startswith("right_") for k in both.params)

    def test_cnot_is_unitary_permutation(self):
        (u,) = make_cnot().operators
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-12
        assert np.max(np.abs(u @ u - np.eye(4))) <= 1e-12
        perm = np.zeros((4, 4))
        perm[0, 0] = perm[1, 1] = perm[2, 3] = perm[3, 2] = 1.0
        assert np.max(np.abs(u - perm)) <= 1e-12

    def test_cnot_truth_table(self):
        ch = make_cnot()
        assert np.allclose(apply_channel(ch, proj(KET["00"])), proj(KET["00"]))
        assert np.allclose(apply_channel(ch, proj(KET["01"])), proj(KET["01"]))
        assert np.allclose(apply_channel(ch, proj(KET["10"])), proj(KET["11"]))
        assert np.allclose(apply_channel(ch, proj(KET["11"])), proj(KET["10"]))

    def test_cnot_entangles(self):
        plus0 = np.kron([1, 1], [1, 0]) / np.sqrt(2)
        out = apply_channel(make_cnot(), proj(plus0))
        assert np.max(np.abs(out - BELL)) <= 1e-12


class TestApplication:
    def test_linearity(self, rng):
        ch = parse_channel_spec("ad:0.4", 4)
        a = random_density_matrix(4, rng)
        b = random_density_matrix(4, rng)
        mix = apply_channel(ch, 0.3 * a + 0.7 * b)
        parts = 0.3 * apply_channel(ch, a) + 0.7 * apply_channel(ch, b)
        assert np.max(np.abs(mix - parts)) <= 1e-12

    def test_unitary_preserves_purity(self, rng):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        out = apply_channel(make_cnot(), proj(v))
        assert np.trace(out @ out).real == pytest.approx(1.0, abs=1e-12)

    def test_decoherence_free_states(self, set_d4):
        # the sigma_y eigenbasis row is untouched by two-sided sigma_y noise
        ch = parse_channel_spec("bpf:0.3", 4)
        for m in range(1, 5):
            v = set_d4.vector(2, m)
            rho = proj(v)
            assert np.max(np.abs(apply_channel(ch, rho) - rho)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            apply_channel(make_cnot(), np.eye(2) / 2)


class TestChecks:
    def test_depolarizing_unital(self):
        checks = channel_checks(parse_channel_spec("dep:0.2", 4))
        assert checks.trace_preserving and checks.unital
        assert checks.trace_residual <= 1e-12

    def test_amplitude_damping_not_unital(self):
        checks = channel_checks(make_local_channel("amplitude_damping", 0.4))
        assert checks.trace_preserving and not checks.unital
        # sum A A^dag - I = diag(g, -g), Frobenius norm g*sqrt(2)
        assert checks.unital_residual == pytest.approx(0.4 * np.sqrt(2), abs=1e-12)

    def test_cnot_unital(self):
        checks = channel_checks(make_cnot())
        assert checks.trace_preserving and checks.unital


class TestConcurrence:
    def test_reference_states(self):
        assert concurrence(BELL) == pytest.approx(1.0, abs=1e-10)
        assert concurrence(proj(KET["00"])) == pytest.approx(0.0, abs=1e-10)
        assert concurrence(np.eye(4) / 4) == pytest.approx(0.0, abs=1e-10)

    def test_local_unitary_invariance(self, rng):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u, _ = np.linalg.qr(g)
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        v, _ = np.linalg.qr(g)
        w = np.kron(u, v)
        rotated = w @ BELL @ w.conj().T
        assert concurrence(rotated) == pytest.approx(1.0, abs=1e-8)

    def test_werner_threshold(self):
        # Werner state p*Bell + (1-p)*I/4: C = max(0, (3p-1)/2)
        for p, expected in [(0.2, 0.0), (0.5, 0.25), (1.0, 1.0)]:
            rho = p * BELL + (1 - p) * np.eye(4) / 4
            assert concurrence(rho) == pytest.approx(expected, abs=1e-10)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValidationError):
            concurrence(np.eye(2) / 2)

    def test_spin_flip_is_a_read_only_constant(self):
        assert np.array_equal(channels._YY, pauli_string("YY"))
        assert not channels._YY.flags.writeable


class TestSpecParsing:
    def test_local_lifted_to_two_qubits(self):
        ch = parse_channel_spec("dep:0.1", 4)
        assert ch.dim == 4 and len(ch.operators) == 16
        assert ch.name == "dep:0.1"

    def test_long_names_accepted(self):
        ch = parse_channel_spec("amplitude_damping:0.4", 2)
        assert ch.name == "ad:0.4" and ch.dim == 2

    def test_cnot(self):
        ch = parse_channel_spec("cnot", 4)
        assert ch.dim == 4 and len(ch.operators) == 1

    def test_cnot_rejects_param_and_dim(self):
        with pytest.raises(ValidationError):
            parse_channel_spec("cnot:0.5", 4)
        with pytest.raises(ValidationError):
            parse_channel_spec("cnot", 2)

    def test_rejects_unknown_and_missing_param(self):
        with pytest.raises(ValidationError):
            parse_channel_spec("nope:0.1", 4)
        with pytest.raises(ValidationError):
            parse_channel_spec("dep", 4)
        with pytest.raises(ValidationError):
            parse_channel_spec("dep:zero", 4)

    def test_rejects_unsupported_dim(self):
        with pytest.raises(ValidationError):
            parse_channel_spec("dep:0.1", 8)


class TestPersistence:
    def test_round_trip_map_equality(self, tmp_path, rng):
        ch = parse_channel_spec("ad:0.4", 4)
        path = tmp_path / "ad.json"
        save_kraus(ch, path)
        back = load_kraus(path)
        assert back.dim == 4 and back.name == "ad:0.4"
        rho = random_density_matrix(4, rng)
        assert np.max(np.abs(apply_channel(back, rho) - apply_channel(ch, rho))) <= 1e-12

    def test_strict_load_rejects_overcomplete(self, tmp_path):
        from mubqpt import KrausChannel

        bad = KrausChannel(2, (1.1 * np.eye(2),), "bad", {})
        path = tmp_path / "bad.json"
        save_kraus(bad, path)
        with pytest.raises(ValidationError):
            load_kraus(path)
        assert load_kraus(path, strict=False).dim == 2

    def test_load_rejects_malformed(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"dim": 2}')
        with pytest.raises(ValidationError):
            load_kraus(path)

import json

import numpy as np
import pytest

from mubqpt import (
    ComplexityModel,
    NumericalError,
    ValidationError,
    common_eigenbasis,
    complexity_totals,
    default_complexity,
    default_factorization,
    factorizability,
    flat_index,
    generate_mub,
    generate_mub_prime,
    generate_mub_two_power,
    index_from_flat,
    load_mub,
    mub_from_json,
    mub_to_json,
    n_projectors,
    projectors,
    save_mub,
    verify_mub,
)
from mubqpt.mub import PAULI_PARTITION
from mubqpt.paulis import pauli_string


def cross_gram(set_a, set_b=None):
    va = set_a.vectors()
    vb = va if set_b is None else set_b.vectors()
    return np.abs(va.conj() @ vb.T) ** 2


class TestPrimeConstruction:
    def test_qubit_bases_are_pauli_eigenbases(self):
        s = generate_mub_prime(2)
        assert s.dim == 2 and s.bases.shape == (3, 2, 2)
        for gamma, label in enumerate("ZXY"):
            op = pauli_string(label)
            for m in (1, 2):
                v = s.vector(gamma, m)
                lam = np.real(v.conj() @ op @ v)
                assert np.linalg.norm(op @ v - lam * v) <= 1e-12
                assert abs(abs(lam) - 1.0) <= 1e-12

    def test_qubit_overlaps(self):
        s = generate_mub_prime(2)
        g = cross_gram(s)
        # off-block entries all 1/2, blocks are identity
        for i in range(6):
            for j in range(6):
                expected = (1.0 if i == j else 0.0) if i // 2 == j // 2 else 0.5
                assert g[i, j] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_odd_primes_verify(self, p):
        report = verify_mub(generate_mub_prime(p), tol=1e-12)
        assert report.passed, report

    def test_basis_zero_is_computational(self):
        s = generate_mub_prime(5)
        assert np.allclose(s.bases[0], np.eye(5), atol=1e-15)

    def test_rejects_composite(self):
        with pytest.raises(ValidationError):
            generate_mub_prime(6)

    def test_rejects_large_prime(self):
        with pytest.raises(ValidationError):
            generate_mub_prime(29)


class TestTwoPowerConstruction:
    def test_r1_matches_prime_up_to_phase(self):
        a = generate_mub_two_power(1)
        b = generate_mub_prime(2)
        for gamma in range(3):
            for m in (1, 2):
                ov = abs(np.vdot(a.vector(gamma, m), b.vector(gamma, m)))
                assert ov == pytest.approx(1.0, abs=1e-12)

    def test_r2_shape_and_validity(self, set_d4):
        assert set_d4.bases.shape == (5, 4, 4)
        report = verify_mub(set_d4, tol=1e-10)
        assert report.passed
        assert report.max_orthonormality_violation <= 1e-12
        assert report.max_unbiasedness_violation <= 1e-12

    def test_r2_eigenbasis_rows(self, set_d4):
        # every basis vector is a joint eigenvector of its operator triple
        for gamma, row in enumerate(PAULI_PARTITION[2]):
            for label in row:
                op = pauli_string(label)
                for m in range(1, 5):
                    v = set_d4.vector(gamma, m)
                    lam = np.real(v.conj() @ op @ v)
                    assert np.linalg.norm(op @ v - lam * v) <= 1e-8
                    assert abs(abs(lam) - 1.0) <= 1e-9

    def test_r2_basis_zero_is_computational(self, set_d4):
        assert np.max(np.abs(set_d4.bases[0] - np.eye(4))) <= 1e-12

    def test_r3_validity(self):
        s = generate_mub_two_power(3)
        assert s.bases.shape == (9, 8, 8)
        report = verify_mub(s, tol=1e-10)
        assert report.passed

    def test_r3_partition_covers_pauli_group(self):
        rows = PAULI_PARTITION[3]
        assert len(rows) == 9 and all(len(r) == 7 for r in rows)
        seen = set()
        for row in rows:
            seen.update(row)
        assert len(seen) == 63 and "III" not in seen

    def test_rejects_r4(self):
        with pytest.raises(ValidationError):
            generate_mub_two_power(4)


class TestDispatcher:
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 7, 8])
    def test_supported_dims(self, dim):
        s = generate_mub(dim)
        assert s.dim == dim
        assert verify_mub(s).passed

    def test_rejects_huge_prime_without_factoring(self):
        # 2^61 - 1 is prime; the size bound is checked before primality
        with pytest.raises(ValidationError, match="not supported"):
            generate_mub(2**61 - 1)

    def test_rejects_dim_six(self):
        with pytest.raises(ValidationError) as exc:
            generate_mub(6)
        assert "prime" in str(exc.value)

    def test_rejects_dim_nine(self):
        # 9 = 3^2 is a prime power this generator does not cover
        with pytest.raises(ValidationError):
            generate_mub(9)


class TestCommonEigenbasis:
    def test_single_sigma_z(self):
        vecs = common_eigenbasis([pauli_string("Z")])
        assert np.allclose(vecs[0], [1, 0]) and np.allclose(vecs[1], [0, 1])

    def test_diagonal_row_gives_computational_order(self):
        ops = [pauli_string(lbl) for lbl in PAULI_PARTITION[2][0]]
        vecs = common_eigenbasis(ops)
        assert np.max(np.abs(np.array(vecs) - np.eye(4))) <= 1e-12

    def test_entangled_row_has_maximally_mixed_marginals(self):
        ops = [pauli_string(lbl) for lbl in PAULI_PARTITION[2][3]]
        for v in common_eigenbasis(ops):
            rho = np.outer(v, v.conj()).reshape(2, 2, 2, 2)
            left = np.trace(rho, axis1=1, axis2=3)
            right = np.trace(rho, axis1=0, axis2=2)
            assert np.max(np.abs(left - np.eye(2) / 2)) <= 1e-10
            assert np.max(np.abs(right - np.eye(2) / 2)) <= 1e-10

    def test_phase_convention(self):
        for v in common_eigenbasis([pauli_string("X"), ]):
            nz = v[np.abs(v) > 1e-12][0]
            assert abs(nz.imag) <= 1e-12 and nz.real > 0

    def test_rejects_non_commuting(self):
        with pytest.raises(ValidationError) as exc:
            common_eigenbasis([pauli_string("Z"), pauli_string("X")])
        assert "commut" in str(exc.value)

    def test_rejects_unresolvable_degeneracy(self):
        with pytest.raises(NumericalError):
            common_eigenbasis([np.eye(2), np.eye(2)])


class TestVerification:
    def test_trace_table(self, set_d4):
        projs = projectors(set_d4)
        for i, p in enumerate(projs[:10]):
            for j, q in enumerate(projs[:10]):
                t = np.trace(p.matrix @ q.matrix).real
                if p.gamma == q.gamma:
                    expected = 1.0 if p.m == q.m else 0.0
                else:
                    expected = 0.25
                assert t == pytest.approx(expected, abs=1e-10), (i, j)

    def test_detects_broken_set(self, set_d4):
        bases = set_d4.bases.copy()
        v = bases[1, 0] + 0.05 * bases[1, 1]
        bases[1, 0] = v / np.linalg.norm(v)
        broken = mub_from_json({"dim": 4, "bases": [
            [[[z.real, z.imag] for z in vec] for vec in b] for b in bases]})
        report = verify_mub(broken, tol=1e-10)
        assert not report.passed
        assert report.max_orthonormality_violation > 1e-3


class TestProjectorsAndIndexing:
    def test_counts(self):
        assert n_projectors(2) == 6
        assert n_projectors(4) == 20
        assert n_projectors(8) == 72

    def test_projector_properties(self, set_d3):
        projs = projectors(set_d3)
        assert len(projs) == 12
        for p in projs:
            m = p.matrix
            assert np.max(np.abs(m - m.conj().T)) <= 1e-14
            assert np.max(np.abs(m @ m - m)) <= 1e-12
            assert np.trace(m).real == pytest.approx(1.0, abs=1e-12)

    def test_completeness_per_basis(self, set_d2):
        projs = projectors(set_d2)
        for gamma in range(3):
            total = sum(p.matrix for p in projs if p.gamma == gamma)
            assert np.max(np.abs(total - np.eye(2))) <= 1e-12

    def test_flat_order_matches_enumeration(self, set_d4):
        projs = projectors(set_d4)
        for flat, p in enumerate(projs):
            assert flat_index(p.gamma, p.m, 4) == flat
            idx = index_from_flat(flat, 4)
            assert (idx.gamma, idx.m, idx.flat) == (p.gamma, p.m, flat)

    def test_index_bounds(self):
        with pytest.raises(ValidationError):
            flat_index(5, 1, 4)
        with pytest.raises(ValidationError):
            flat_index(0, 0, 4)
        with pytest.raises(ValidationError):
            index_from_flat(20, 4)


class TestFactorization:
    def test_product_basis_factorizes(self, set_d4):
        assert factorizability(set_d4.bases[0], (2, 2))
        assert factorizability(set_d4.bases[1], (2, 2))

    def test_entangled_basis_does_not(self, set_d4):
        assert not factorizability(set_d4.bases[3], (2, 2))
        assert not factorizability(set_d4.bases[4], (2, 2))

    def test_trivial_cut_always_passes(self, set_d4):
        for g in range(5):
            assert factorizability(set_d4.bases[g], (4,))

    def test_global_phase_invariance(self, set_d4, rng):
        phases = np.exp(2j * np.pi * rng.random(4))
        basis = set_d4.bases[3] * phases[:, None]
        assert factorizability(basis, (2, 2)) == factorizability(set_d4.bases[3], (2, 2))

    def test_rejects_inconsistent_factorization(self, set_d4):
        with pytest.raises(ValidationError):
            factorizability(set_d4.bases[0], (3, 2))

    def test_defaults(self):
        assert default_factorization(4) == (2, 2)
        assert default_factorization(8) == (2, 2, 2)
        assert default_factorization(5) == (5,)


class TestComplexity:
    def test_two_qubit_costs(self, set_d4):
        model = default_complexity(set_d4)
        assert model.c_alpha == (0, 0, 0, 1, 1)
        totals = complexity_totals(model, 4)
        assert totals == {"C": 2, "qpt_gates": 16}

    def test_single_system_costs_nothing(self, set_d3):
        model = default_complexity(set_d3)
        assert model.c_alpha == (0, 0, 0, 0)
        assert complexity_totals(model, 3) == {"C": 0, "qpt_gates": 0}

    def test_totals_validation(self):
        with pytest.raises(ValidationError):
            complexity_totals(ComplexityModel((0, 0), (2, 2)), 4)
        with pytest.raises(ValidationError):
            complexity_totals(ComplexityModel((0, 0, 0, -1, 1), (2, 2)), 4)


class TestPersistence:
    def test_round_trip_exact(self, set_d4, tmp_path):
        path = tmp_path / "mub4.json"
        save_mub(set_d4, path)
        back = load_mub(path)
        assert back.dim == 4
        assert np.array_equal(back.bases, set_d4.bases)
        assert back.source == "file"

    def test_json_round_trip(self, set_d3):
        blob = json.loads(json.dumps(mub_to_json(set_d3)))
        back = mub_from_json(blob)
        assert np.array_equal(back.bases, set_d3.bases)

    def test_load_rejects_unbiasedness_break(self, set_d2, tmp_path):
        blob = mub_to_json(set_d2)
        # nudge one component by 1e-3, then restore the norm
        vec = np.array([complex(re, im) for re, im in blob["bases"][1][0]])
        vec[0] += 1e-3
        vec /= np.linalg.norm(vec)
        blob["bases"][1][0] = [[z.real, z.imag] for z in vec]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(blob))
        with pytest.raises(ValidationError):
            load_mub(path, tol=1e-10)
        # but loads with verification disabled
        assert load_mub(path, verify=False).dim == 2

    def test_load_rejects_malformed(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError):
            load_mub(path)
        path.write_text(json.dumps({"dim": 2, "bases": [[1, 2]]}))
        with pytest.raises(ValidationError):
            load_mub(path)
        for entry in ([True, False], [1.0, "0"], ["1", 0.0]):
            blob = mub_to_json(generate_mub(2))
            blob["bases"][0][0][0] = entry
            path.write_text(json.dumps(blob))
            with pytest.raises(ValidationError, match="JSON number"):
                load_mub(path)

    def test_load_rejects_dim_one(self, tmp_path):
        # two copies of [1] pass the pairwise-trace check at D=1
        path = tmp_path / "d1.json"
        path.write_text(json.dumps({"dim": 1, "bases": [[[[1, 0]]], [[[1, 0]]]]}))
        with pytest.raises(ValidationError):
            load_mub(path)

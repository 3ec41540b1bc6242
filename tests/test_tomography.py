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
    apply_channel,
    apply_chi,
    build_beta,
    constraint_tensor,
    extract_kraus,
    flat_index,
    generate_mub,
    load_chi,
    load_probabilities,
    make_cnot,
    matrix_to_json,
    n_projectors,
    parse_channel_spec,
    perturb_probabilities,
    process_fidelity,
    process_probabilities,
    projectors,
    random_density_matrix,
    reconstruct_state,
    refine_physical,
    refinement_objective,
    save_chi,
    save_probabilities,
    solve_chi,
    state_probabilities,
    trace_distance,
    trial_rng,
)
from mubqpt import tomography


def random_stinespring_channel(dim, rank, rng):
    """Random CPTP map: Kraus operators cut from the Q factor of a
    (dim*rank x dim) Ginibre matrix, an isometry."""
    g = rng.normal(size=(dim * rank, dim)) + 1j * rng.normal(size=(dim * rank, dim))
    v, _ = np.linalg.qr(g)
    ops = tuple(v[i * dim:(i + 1) * dim] for i in range(rank))
    return KrausChannel(dim, ops, f"stinespring:{rank}", {})


def choi_of_kraus(ch):
    """J = sum_i vec(A_i) vec(A_i)^dag with row-major vec."""
    vecs = np.array([a.ravel() for a in ch.operators])
    return vecs.T @ vecs.conj()


def nearby_channel(j, eps, rng):
    """Random CPTP map near the CPTP map with Choi matrix j: perturb the
    Kraus operators of its spectral decomposition by eps, then restore
    trace preservation with A_i -> A_i S^(-1/2), S = sum A_i^dag A_i."""
    d = int(round(np.sqrt(j.shape[0])))
    lam, u = np.linalg.eigh(j)
    keep = lam > 1e-12
    ops = (u[:, keep] * np.sqrt(lam[keep])).T.reshape(-1, d, d)
    ops = ops + eps * (rng.normal(size=ops.shape) + 1j * rng.normal(size=ops.shape))
    s_lam, s_u = np.linalg.eigh(np.einsum("kji,kjl->il", ops.conj(), ops))
    ops = ops @ ((s_u / np.sqrt(s_lam)) @ s_u.conj().T)
    return KrausChannel(d, tuple(ops), "nearby", {})


def choi_of_chi(chi, mub_set):
    """J = sum_{a,b} chi[a,b] vec(P_a) vec(P_b)^dag."""
    w = np.array([pr.matrix.ravel() for pr in projectors(mub_set)]).T
    return w @ chi.matrix @ w.conj().T


# zoo channels at D = 2 and 4, and seeded random channels at D = 2..5
PROJECTION_CASES = [
    (2, "dep:0.1"), (2, "ad:0.4"), (2, "bpf:0.25"),
    (4, "dep:0.1"), (4, "ad:0.4"), (4, "cnot"),
    (2, "random"), (3, "random"), (4, "random"), (5, "random"),
]


def refinement_case(request, dim, spec, mu):
    mub_set = request.getfixturevalue(f"set_d{dim}")
    beta = request.getfixturevalue(f"beta_d{dim}")
    if spec == "random":
        ch = random_stinespring_channel(dim, 1, np.random.default_rng(100 + dim))
    else:
        ch = parse_channel_spec(spec, dim)
    noisy = perturb_probabilities(process_probabilities(ch, mub_set), mu, trial_rng(7, dim, 0, 0))
    raw = solve_chi(beta, noisy)
    return mub_set, raw, refine_physical(raw, noisy, beta, mub_set)


class TestStateProbabilities:
    def test_maximally_mixed(self, set_d4):
        p = state_probabilities(np.eye(4) / 4, set_d4)
        assert np.max(np.abs(p - 0.25)) <= 1e-12

    def test_computational_state_d2(self, set_d2):
        p = state_probabilities(np.diag([1.0, 0.0]).astype(complex), set_d2)
        assert np.allclose(p, [1, 0, 0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_projector_probe(self, set_d4):
        # measuring P_2^(3) against its own basis is deterministic,
        # against every other basis uniform
        v = set_d4.vector(3, 2)
        p = state_probabilities(np.outer(v, v.conj()), set_d4)
        table = p.reshape(5, 4)
        assert np.allclose(table[3], [0, 1, 0, 0], atol=1e-12)
        for gamma in (0, 1, 2, 4):
            assert np.max(np.abs(table[gamma] - 0.25)) <= 1e-12

    def test_round_trip(self, set_d3, rng):
        for _ in range(5):
            rho = random_density_matrix(3, rng)
            back = reconstruct_state(state_probabilities(rho, set_d3), set_d3)
            assert trace_distance(back, rho) <= 1e-10

    def test_pure_state_round_trip(self, set_d4, rng):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        rho = np.outer(v, v.conj())
        back = reconstruct_state(state_probabilities(rho, set_d4), set_d4)
        assert trace_distance(back, rho) <= 1e-10

    def test_uniform_probabilities_give_mixed_state(self, set_d2):
        rho = reconstruct_state(np.full(6, 0.5), set_d2)
        assert np.max(np.abs(rho - np.eye(2) / 2)) <= 1e-12

    def test_reconstruct_rejects_wrong_length(self, set_d2):
        with pytest.raises(ValidationError):
            reconstruct_state(np.full(5, 0.5), set_d2)


class TestProcessProbabilities:
    def test_tensor_validation(self):
        with pytest.raises(ValidationError):
            ProbabilityTensor(2, np.zeros(35))
        with pytest.raises(ValidationError):
            ProbabilityTensor(2, np.full(36, 1.5))
        with pytest.raises(ValidationError):
            ProbabilityTensor(2, np.full(36, np.nan))

    def test_group_sums_are_one(self, set_d4):
        for spec in ("dep:0.1", "ad:0.4", "cnot"):
            ch = parse_channel_spec(spec, 4)
            p = process_probabilities(ch, set_d4)
            sums = p.values.reshape(-1, 4).sum(axis=1)
            assert np.max(np.abs(sums - 1.0)) <= 1e-12, spec

    def test_full_depolarizing_is_flat(self, set_d2):
        ch = parse_channel_spec("dep:1", 2)
        p = process_probabilities(ch, set_d2)
        assert np.max(np.abs(p.values - 0.5)) <= 1e-12

    def test_cnot_row_matches_state_table(self, set_d4):
        ch = make_cnot()
        p = process_probabilities(ch, set_d4)
        n = n_projectors(4)
        row = p.values[flat_index(0, 1, 4) * n:(flat_index(0, 1, 4) + 1) * n]
        ket = np.zeros(4); ket[0] = 1.0
        direct = state_probabilities(np.outer(ket, ket), set_d4)
        assert np.max(np.abs(row - direct)) <= 1e-12


class TestBetaMatrix:
    def test_shape_and_rank(self, beta_d2, beta_d4):
        assert beta_d2.matrix.shape == (36, 36) and beta_d2.rank == 16
        assert beta_d4.matrix.shape == (400, 400) and beta_d4.rank == 256
        for beta in (beta_d2, beta_d4):
            m, k = beta.matrix, beta.pinv
            assert np.max(np.abs(m @ k @ m - m)) <= 1e-8
            assert np.max(np.abs(k @ m @ k - k)) <= 1e-8

    def test_rank_d3(self, set_d3):
        assert build_beta(set_d3).rank == 81

    def test_diagonal_self_traces(self, beta_d4):
        n = n_projectors(4)
        for b in range(0, n, 3):
            assert beta_d4.matrix[b * n + b, b * n + b].real == pytest.approx(1.0, abs=1e-12)

    def test_entries_match_projector_traces(self, set_d4, beta_d4, rng):
        projs = [p.matrix for p in projectors(set_d4)]
        n = len(projs)
        for _ in range(20):
            a, b, c, d = rng.integers(0, n, size=4)
            direct = np.trace(projs[a] @ projs[b] @ projs[c] @ projs[d])
            entry = beta_d4.matrix[b * n + d, a * n + c]
            assert abs(entry - direct) <= 1e-12

    def test_pseudoinverse_consistency(self, beta_d2):
        m, k = beta_d2.matrix, beta_d2.pinv
        assert np.max(np.abs(m @ k @ m - m)) <= 1e-8

    def test_frame_is_read_only(self, beta_d2):
        assert beta_d2.frame.shape == beta_d2.dual.shape == (4, 6)
        with pytest.raises(ValueError):
            beta_d2.frame[0, 0] = 0.0
        with pytest.raises(ValueError):
            beta_d2.dual[0, 0] = 0.0

    def test_basis_set_frame_is_built_once(self, monkeypatch):
        mub_set = generate_mub(3)
        calls = []
        vectors = MubSet.vectors
        monkeypatch.setattr(MubSet, "vectors", lambda self: calls.append(1) or vectors(self))
        w = mub_set.frame
        chi = ChiMatrix(3, np.eye(12))
        beta = build_beta(mub_set)
        apply_chi(chi, np.eye(3) / 3, mub_set)
        extract_kraus(chi, mub_set)
        reconstruct_state(np.full(12, 1 / 3), mub_set)
        assert len(calls) == 1 and mub_set.frame is w and beta.frame is w
        with pytest.raises(ValueError):
            w[0, 0] = 0.0
        monkeypatch.undo()
        assert np.array_equal(w, build_beta(generate_mub(3)).frame)
        # column a is vec(P_a), row-major, in flat-index order
        cols = np.stack([p.matrix.ravel() for p in projectors(mub_set)], axis=1)
        assert np.max(np.abs(w - cols)) <= 1e-15

    def test_dual_is_frame_pseudoinverse(self, beta_d3):
        w = beta_d3.frame
        assert np.max(np.abs(beta_d3.dual.conj().T - np.linalg.pinv(w))) <= 1e-12

    def test_hand_built_frame_is_checked(self, beta_d3):
        # the frame of an orthonormal but biased set is not a 2-design frame
        v = np.stack([np.eye(3)] * 4).reshape(12, 3)
        biased = np.einsum("ad,ae->dea", v, v).reshape(9, 12)
        with pytest.raises(NumericalError):
            BetaMatrix(3, biased)
        with pytest.raises(ValidationError):
            BetaMatrix(2, beta_d3.frame)

    def test_rejects_biased_bases(self):
        # orthonormal but not unbiased: the frame identity fails
        biased = MubSet(3, np.stack([np.eye(3)] * 4), "test")
        with pytest.raises(NumericalError):
            build_beta(biased)


class TestFrameSolve:
    """The closed-form dual-frame solve against the dense beta and its SVD
    pseudoinverse, which it replaces."""

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_matches_dense_reference(self, request, dim):
        mub_set = request.getfixturevalue(f"set_d{dim}")
        beta = request.getfixturevalue(f"beta_d{dim}")
        dense, kappa = beta.matrix, beta.pinv
        assert np.linalg.matrix_rank(dense) == beta.rank == dim**4
        n = n_projectors(dim)
        ch = random_stinespring_channel(dim, 2, np.random.default_rng(300 + dim))
        exact = process_probabilities(ch, mub_set)
        tables = [exact] + [perturb_probabilities(exact, mu, trial_rng(11, dim, i, 0))
                            for i, mu in enumerate((0.05, 0.15))]
        stacked = tomography._solve_tables(beta, np.stack([p.values for p in tables]))
        for p, m_k in zip(tables, stacked):
            chi = solve_chi(beta, p)
            # one stacked solve gives each table's solve_chi bit for bit
            assert np.array_equal(0.5 * (m_k + m_k.conj().T), chi.matrix)
            m = (kappa @ p.values).reshape(n, n)
            assert np.max(np.abs(chi.matrix - 0.5 * (m + m.conj().T))) <= 1e-12
            resid = np.linalg.norm(dense @ chi.matrix.ravel() - p.values)
            assert abs(chi.forward_residual - resid) <= 1e-12
            out = refine_physical(chi, p, beta, mub_set)
            resid = np.linalg.norm(dense @ out.matrix.ravel() - p.values)
            assert abs(out.forward_residual - resid) <= 1e-12
            c = np.einsum("ac,bac->b", out.matrix, constraint_tensor(mub_set)).real
            assert abs(out.tp_max_violation - np.abs(c - 1.0).max()) <= 1e-12

    @pytest.mark.parametrize("dim", [7, 8])
    def test_round_trip_beyond_dense_reach(self, dim):
        mub_set = generate_mub(dim)
        ch = random_stinespring_channel(dim, 3, np.random.default_rng(400 + dim))
        beta = build_beta(mub_set)
        exact = process_probabilities(ch, mub_set)
        chi = solve_chi(beta, exact)
        tables = [exact] + [perturb_probabilities(exact, 0.05, trial_rng(12, dim, 0, t))
                            for t in range(2)]
        stacked = tomography._solve_tables(beta, np.stack([p.values for p in tables]))
        for p, m_k in zip(tables, stacked):
            assert np.array_equal(0.5 * (m_k + m_k.conj().T), solve_chi(beta, p).matrix)
        rng = np.random.default_rng(dim)
        for _ in range(5):
            rho = random_density_matrix(dim, rng)
            assert trace_distance(apply_chi(chi, rho, mub_set), apply_channel(ch, rho)) <= 1e-8


def refine_formula(raw, beta):
    """The matrix refine_physical gives, by the formulas it used before
    ChiMatrix owned Hermiticity: its input and its output symmetrized
    in place."""
    d = beta.dim
    w, dual = beta.frame, beta.dual
    t = raw.matrix
    x = w @ (0.5 * (t + t.conj().T)) @ w.conj().T
    tol = 1e-12 * np.linalg.norm(x)
    eye = np.eye(d)
    q = np.zeros_like(x)
    for _ in range(1000):
        y = x - np.kron(eye, np.einsum("ijil->jl", x.reshape(d, d, d, d)) - eye) / d
        lam, u = np.linalg.eigh(y + q)
        x_new = (u * np.clip(lam, 0.0, None)) @ u.conj().T
        q = y + q - x_new
        step = np.linalg.norm(x_new - x)
        x = x_new
        if step <= tol:
            break
    chi = dual.conj().T @ x @ dual
    return 0.5 * (chi + chi.conj().T)


class TestChiMatrix:
    def test_hermiticity_bound(self, rng):
        g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        herm = g + g.conj().T
        anti = (g - g.conj().T) / np.abs(g - g.conj().T).max()  # largest entry 1
        with pytest.raises(ValidationError, match="process matrix is not Hermitian"):
            ChiMatrix(2, herm + 1e-6 * anti)
        m = herm + 1e-9 * anti
        chi = ChiMatrix(2, m)
        assert chi.matrix.tobytes() == (0.5 * (m + m.conj().T)).tobytes()
        assert np.array_equal(chi.matrix, chi.matrix.conj().T)
        assert not chi.matrix.flags.writeable

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_producers_keep_their_formulas(self, request, tmp_path, dim):
        # solve_chi, refine_physical and load_chi give the bytes of the
        # symmetrizations they wrote out before ChiMatrix did it for them
        mub_set = request.getfixturevalue(f"set_d{dim}")
        beta = request.getfixturevalue(f"beta_d{dim}")
        ch = random_stinespring_channel(dim, 2, np.random.default_rng(dim))
        noisy = perturb_probabilities(process_probabilities(ch, mub_set), 0.1,
                                      trial_rng(4, dim, 0, 0))
        m = tomography._solve_tables(beta, noisy.values[None])[0]
        raw = solve_chi(beta, noisy)
        assert raw.matrix.tobytes() == (0.5 * (m + m.conj().T)).tobytes()
        refined = refine_physical(raw, noisy, beta, mub_set)
        assert refined.matrix.tobytes() == refine_formula(raw, beta).tobytes()
        skewed = refined.matrix + 1e-12 * np.triu(np.ones_like(refined.matrix), 1)
        path = tmp_path / "chi.json"
        path.write_text(json.dumps({**matrix_to_json(skewed), "dim": dim,
                                    "index_order": "gamma-major"}))
        formula = 0.5 * (skewed + skewed.conj().T)
        assert load_chi(path).matrix.tobytes() == formula.tobytes()


class TestSolveChi:
    def test_identity_process(self, set_d2, beta_d2, rng):
        ch = parse_channel_spec("dep:0", 2)
        chi = solve_chi(beta_d2, process_probabilities(ch, set_d2))
        assert chi.asymmetry <= 1e-6
        assert chi.forward_residual <= 1e-8
        for _ in range(20):
            rho = random_density_matrix(2, rng)
            assert trace_distance(apply_chi(chi, rho, set_d2), rho) <= 1e-8

    def test_cnot_reconstruction(self, set_d4, beta_d4, rng):
        ch = make_cnot()
        chi = solve_chi(beta_d4, process_probabilities(ch, set_d4))
        u = ch.operators[0]
        for _ in range(20):
            rho = random_density_matrix(4, rng)
            direct = u @ rho @ u.conj().T
            assert trace_distance(apply_chi(chi, rho, set_d4), direct) <= 1e-8

    def test_solution_is_hermitian(self, set_d4, beta_d4):
        chi = solve_chi(beta_d4, process_probabilities(parse_channel_spec("ad:0.4", 4), set_d4))
        assert np.array_equal(chi.matrix, chi.matrix.conj().T)

    def test_apply_chi_linearity(self, set_d2, beta_d2):
        chi = solve_chi(beta_d2, process_probabilities(parse_channel_spec("bpf:0.3", 2), set_d2))
        zero = ChiMatrix(2, np.zeros((6, 6)))
        rho = np.diag([0.7, 0.3]).astype(complex)
        assert np.max(np.abs(apply_chi(zero, rho, set_d2))) == 0.0
        doubled = ChiMatrix(2, 2.0 * chi.matrix)
        assert np.max(np.abs(apply_chi(doubled, rho, set_d2)
                             - 2.0 * apply_chi(chi, rho, set_d2))) <= 1e-12


class TestExtractKraus:
    def test_identity_map_round_trip(self, set_d2, beta_d2, rng):
        chi = solve_chi(beta_d2, process_probabilities(parse_channel_spec("dep:0", 2), set_d2))
        ch = extract_kraus(chi, set_d2)
        for _ in range(10):
            rho = random_density_matrix(2, rng)
            assert trace_distance(apply_channel(ch, rho), rho) <= 1e-8

    def test_noisy_zoo_round_trip(self, set_d4, beta_d4, rng):
        src = parse_channel_spec("ad:0.4", 4)
        chi = solve_chi(beta_d4, process_probabilities(src, set_d4))
        ch = extract_kraus(chi, set_d4)
        for _ in range(10):
            rho = random_density_matrix(4, rng)
            assert trace_distance(apply_channel(ch, rho), apply_channel(src, rho)) <= 1e-8

    def test_rejects_deeply_negative_spectrum(self, set_d2, beta_d2):
        chi = solve_chi(beta_d2, process_probabilities(parse_channel_spec("dep:0.3", 2), set_d2))
        _, u = np.linalg.eigh(choi_of_chi(chi, set_d2))
        v = beta_d2.dual.conj().T @ u[:, 0]  # W+ u, so that J loses 0.5 u u^dag
        bad = ChiMatrix(2, chi.matrix - 0.5 * np.outer(v, v.conj()))
        assert np.linalg.eigvalsh(choi_of_chi(bad, set_d2))[0] < -0.3
        with pytest.raises(NumericalError) as exc:
            extract_kraus(bad, set_d2)
        assert "refine" in str(exc.value)

    def test_null_frame_component_is_ignored(self, set_d3, beta_d3):
        # chi and chi - 5 z z^dag, z in null(W), expand the same map
        ch = random_stinespring_channel(3, 2, np.random.default_rng(11))
        chi = solve_chi(beta_d3, process_probabilities(ch, set_d3))
        r = np.random.default_rng(12).normal(size=12)
        z = r - beta_d3.dual.conj().T @ (beta_d3.frame @ r)
        z /= np.linalg.norm(z)
        gauged = ChiMatrix(3, chi.matrix - 5.0 * np.outer(z, z.conj()))
        assert np.linalg.eigvalsh(gauged.matrix)[0] < -4.0
        ops = extract_kraus(chi, set_d3).operators
        gauged_ops = extract_kraus(gauged, set_d3).operators
        assert len(ops) == len(gauged_ops) == 2
        for a, b in zip(ops, gauged_ops):  # equal up to the eigenvector phase
            assert np.max(np.abs(np.outer(a, a.conj()) - np.outer(b, b.conj()))) <= 1e-10

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_operators_are_orthogonal(self, request, dim):
        mub_set = request.getfixturevalue(f"set_d{dim}")
        beta = request.getfixturevalue(f"beta_d{dim}")
        ch = random_stinespring_channel(dim, dim * dim + 2, np.random.default_rng(dim))
        ops = np.array(extract_kraus(solve_chi(beta, process_probabilities(ch, mub_set)),
                                     mub_set).operators)
        assert len(ops) <= dim * dim
        gram = np.einsum("iab,jab->ij", ops.conj(), ops)
        assert np.max(np.abs(gram - np.diag(np.diag(gram)))) <= 1e-10
        assert np.max(np.abs(choi_of_kraus(KrausChannel(dim, tuple(ops), "x", {}))
                             - choi_of_kraus(ch))) <= 1e-10

    def test_cnot_is_one_operator(self, set_d4, beta_d4):
        gate = make_cnot().operators[0]
        chi = solve_chi(beta_d4, process_probabilities(make_cnot(), set_d4))
        (op,) = extract_kraus(chi, set_d4).operators
        phase = np.vdot(op, gate) / abs(np.vdot(op, gate))
        assert np.max(np.abs(phase * op - gate)) <= 1e-10


class TestRefinement:
    def test_noise_free_fixed_point(self, set_d2, beta_d2):
        p = process_probabilities(parse_channel_spec("ad:0.4", 2), set_d2)
        raw = solve_chi(beta_d2, p)
        refined = refine_physical(raw, p, beta_d2, set_d2)
        assert refined.physical and refined.converged
        assert np.max(np.abs(refined.matrix - raw.matrix)) <= 1e-6
        assert refined.tp_max_violation <= 1e-10
        assert np.linalg.eigvalsh(refined.matrix)[0] >= -1e-12

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_choi_convention(self, request, dim):
        mub_set = request.getfixturevalue(f"set_d{dim}")
        beta = request.getfixturevalue(f"beta_d{dim}")
        ch = random_stinespring_channel(dim, 2, np.random.default_rng(dim))
        chi = solve_chi(beta, process_probabilities(ch, mub_set))
        assert np.max(np.abs(choi_of_chi(chi, mub_set) - choi_of_kraus(ch))) <= 1e-10

    @pytest.mark.parametrize("mu", [0.05, 0.15])
    @pytest.mark.parametrize("dim,spec", PROJECTION_CASES)
    def test_projection_is_cptp(self, request, dim, spec, mu):
        mub_set, _, out = refinement_case(request, dim, spec, mu)
        assert out.physical and out.converged
        assert out.tp_max_violation <= 1e-10
        assert np.linalg.eigvalsh(choi_of_chi(out, mub_set))[0] >= -1e-10

    @pytest.mark.parametrize("mu", [0.05, 0.15])
    @pytest.mark.parametrize("dim,spec", PROJECTION_CASES)
    def test_projection_is_optimal(self, request, dim, spec, mu):
        # variational inequality of the projection onto the convex CPTP set:
        # Re<J_raw - J_out, J_phi - J_out> <= 0 for every CPTP phi
        mub_set, raw, out = refinement_case(request, dim, spec, mu)
        j_raw = choi_of_chi(raw, mub_set)
        j_out = choi_of_chi(out, mub_set)
        rng = np.random.default_rng(200 + dim)
        worst = -np.inf
        for _ in range(20):
            rank = int(rng.integers(1, dim * dim + 1))
            j_phi = choi_of_kraus(random_stinespring_channel(dim, rank, rng))
            worst = max(worst, np.vdot(j_raw - j_out, j_phi - j_out).real)
        # maps close to the estimate probe the first-order optimality that
        # far-away samples leave slack on
        for _ in range(20):
            j_phi = choi_of_kraus(nearby_channel(j_out, 1e-4, rng))
            worst = max(worst, np.vdot(j_raw - j_out, j_phi - j_out).real)
        assert worst <= 1e-8

    def test_round_cap_reports_not_converged(self, set_d4, beta_d4, monkeypatch, caplog):
        monkeypatch.setattr(tomography, "_MAX_ROUNDS", 1)
        exact = process_probabilities(make_cnot(), set_d4)
        noisy = perturb_probabilities(exact, 0.15, trial_rng(3, 0, 0, 0))
        out = refine_physical(solve_chi(beta_d4, noisy), noisy, beta_d4, set_d4)
        assert not out.converged
        assert np.linalg.eigvalsh(out.matrix)[0] >= -1e-10  # ends on the clip
        assert "round cap" in caplog.text

    def test_rejects_beta_of_other_dim(self, set_d2, beta_d2, beta_d4):
        p = process_probabilities(parse_channel_spec("dep:0.3", 2), set_d2)
        raw = solve_chi(beta_d2, p)
        with pytest.raises(ValidationError):
            refine_physical(raw, p, beta_d4, set_d2)

    def test_rejects_non_hermitian_raw(self):
        # a raw estimate that is not Hermitian cannot reach refine_physical:
        # ChiMatrix rejects it
        m = np.zeros((6, 6), dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(ValidationError, match="process matrix is not Hermitian"):
            ChiMatrix(2, m)

    def test_gradient_matches_finite_differences(self, set_d2, rng):
        n = 6
        k = constraint_tensor(set_d2)
        weights = np.full(n, 10.0)
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        chi_raw = g + g.conj().T
        t = np.tril(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        t = t - 1j * np.diag(np.diag(t).imag)
        f0, g_re, g_im = refinement_objective(t, chi_raw, k, weights)
        eps = 1e-6
        num_re = np.zeros((n, n))
        num_im = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1):
                d = np.zeros((n, n)); d[i, j] = eps
                fp = refinement_objective(t + d, chi_raw, k, weights)[0]
                fm = refinement_objective(t - d, chi_raw, k, weights)[0]
                num_re[i, j] = (fp - fm) / (2 * eps)
                if j < i:
                    fp = refinement_objective(t + 1j * d, chi_raw, k, weights)[0]
                    fm = refinement_objective(t - 1j * d, chi_raw, k, weights)[0]
                    num_im[i, j] = (fp - fm) / (2 * eps)
        scale = max(np.linalg.norm(num_re), np.linalg.norm(num_im))
        assert np.linalg.norm(g_re - num_re) <= 1e-5 * scale
        assert np.linalg.norm(g_im - num_im) <= 1e-5 * scale


class TestFidelity:
    def test_self_fidelity(self, set_d2, beta_d2):
        chi = solve_chi(beta_d2, process_probabilities(parse_channel_spec("dep:0.3", 2), set_d2))
        assert process_fidelity(chi, chi) == pytest.approx(1.0, abs=1e-12)

    def test_linearity_in_test_argument(self, set_d2, beta_d2):
        a = solve_chi(beta_d2, process_probabilities(parse_channel_spec("dep:0.3", 2), set_d2))
        b = solve_chi(beta_d2, process_probabilities(parse_channel_spec("ad:0.4", 2), set_d2))
        mix = ChiMatrix(2, 0.25 * a.matrix + 0.75 * b.matrix)
        expected = 0.25 * process_fidelity(a, a) + 0.75 * process_fidelity(a, b)
        assert process_fidelity(a, mix) == pytest.approx(expected, abs=1e-12)

    def test_zero_reference_rejected(self, set_d2, beta_d2):
        chi = solve_chi(beta_d2, process_probabilities(parse_channel_spec("dep:0.3", 2), set_d2))
        zero = ChiMatrix(2, np.zeros((6, 6)))
        with pytest.raises(NumericalError):
            process_fidelity(zero, chi)

    def test_dim_mismatch(self, set_d2, beta_d2, set_d4, beta_d4):
        a = solve_chi(beta_d2, process_probabilities(parse_channel_spec("dep:0.3", 2), set_d2))
        b = solve_chi(beta_d4, process_probabilities(make_cnot(), set_d4))
        with pytest.raises(ValidationError):
            process_fidelity(a, b)


class TestPersistence:
    def test_chi_round_trip(self, set_d2, beta_d2, tmp_path):
        chi = solve_chi(beta_d2, process_probabilities(parse_channel_spec("bpf:0.3", 2), set_d2))
        path = tmp_path / "chi.json"
        save_chi(chi, path)
        back = load_chi(path)
        assert back.dim == 2 and not back.physical
        assert np.max(np.abs(back.matrix - chi.matrix)) == 0.0

    def test_chi_load_rejects_wrong_order(self, set_d2, beta_d2, tmp_path):
        chi = solve_chi(beta_d2, process_probabilities(parse_channel_spec("bpf:0.3", 2), set_d2))
        path = tmp_path / "chi.json"
        save_chi(chi, path)
        obj = json.loads(path.read_text())
        obj["index_order"] = "m-major"
        path.write_text(json.dumps(obj))
        with pytest.raises(ValidationError):
            load_chi(path)

    def test_probability_round_trip(self, set_d2, tmp_path):
        p = process_probabilities(parse_channel_spec("dep:0.25", 2), set_d2)
        path = tmp_path / "p.json"
        save_probabilities(p, path)
        back = load_probabilities(path)
        assert back.dim == 2
        assert np.array_equal(back.values, p.values)

    def test_probability_load_rejects_malformed(self, tmp_path):
        path = tmp_path / "p.json"
        for text in ('{"dim": 2}', '{"dim": 0, "values": []}',
                     '{"dim": -2, "values": [0.5, 0.5, 0.5, 0.5]}',
                     '{"dim": 2.7, "values": %s}' % ([0.5] * 36),
                     '{"dim": 2.0, "values": %s}' % ([0.5] * 36),
                     # numpy would read these entries as 0.5, 1.0 and 0.0
                     json.dumps({"dim": 2, "values": ["0.5"] * 36}),
                     json.dumps({"dim": 2, "values": [True] + [0.5] * 35}),
                     json.dumps({"dim": 2, "values": [0.5] * 35 + [False]}),
                     json.dumps({"dim": 2, "values": "0.5"})):
            path.write_text(text)
            with pytest.raises(ValidationError):
                load_probabilities(path)

    @pytest.mark.parametrize("dim", [-2, True])
    def test_chi_load_rejects_small_dim(self, tmp_path, dim):
        # n_projectors(-2) == 2, so a 2x2 matrix fits the shape check
        path = tmp_path / "chi.json"
        obj = {"index_order": "gamma-major", "dim": dim, "rows": 2, "cols": 2,
               "data": [[1, 0], [0, 0], [0, 0], [1, 0]]}
        path.write_text(json.dumps(obj))
        with pytest.raises(ValidationError):
            load_chi(path)

    @pytest.mark.parametrize("physical", ["false", 0, None])
    def test_chi_load_rejects_non_boolean_physical(self, set_d2, beta_d2, tmp_path, physical):
        chi = solve_chi(beta_d2, process_probabilities(parse_channel_spec("bpf:0.3", 2), set_d2))
        path = tmp_path / "chi.json"
        save_chi(chi, path)
        path.write_text(json.dumps({**json.loads(path.read_text()), "physical": physical}))
        with pytest.raises(ValidationError, match="physical"):
            load_chi(path)

    @pytest.mark.parametrize("text", ["[]", "null", "3", '"x"'])
    def test_chi_load_rejects_non_object(self, tmp_path, text):
        path = tmp_path / "chi.json"
        path.write_text(text)
        with pytest.raises(ValidationError):
            load_chi(path)

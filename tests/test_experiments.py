import json

import numpy as np
import pytest

from mubqpt import (
    NoiseConfig,
    ValidationError,
    apply_chi,
    concurrence,
    concurrence_trace,
    default_channel_suite,
    default_mu_grid,
    export_results,
    import_results,
    make_cnot,
    nearest_density_matrix,
    parse_channel_spec,
    perturb_probabilities,
    process_probabilities,
    run_sweep,
    run_trial,
    solve_chi,
    trial_rng,
)

PLUS0 = np.kron([1, 1], [1, 0]) / np.sqrt(2)
RHO_PLUS0 = np.outer(PLUS0, PLUS0)
_b = np.array([1, 0, 0, 1]) / np.sqrt(2)
RHO_BELL = np.outer(_b, _b).astype(complex)


class TestNoiseConfig:
    def test_accepts_bounds(self):
        NoiseConfig(0.0, 0, 1)
        NoiseConfig(1.0, 0, 500)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            NoiseConfig(-0.01, 0, 10)
        with pytest.raises(ValidationError):
            NoiseConfig(1.01, 0, 10)
        with pytest.raises(ValidationError):
            NoiseConfig(0.1, 0, 0)


class TestStreams:
    def test_same_key_same_draws(self):
        a = trial_rng(7, 1, 2, 3).random(5)
        b = trial_rng(7, 1, 2, 3).random(5)
        assert np.array_equal(a, b)

    def test_distinct_keys_differ(self):
        base = trial_rng(7, 0, 0, 0).random(5)
        for key in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
            assert not np.array_equal(base, trial_rng(7, *key).random(5))

    def test_seed_changes_stream(self):
        assert not np.array_equal(
            trial_rng(1, 0, 0, 0).random(5), trial_rng(2, 0, 0, 0).random(5)
        )


class TestPerturbation:
    def test_zero_mu_is_identity(self, set_d2):
        p = process_probabilities(parse_channel_spec("dep:0.3", 2), set_d2)
        out = perturb_probabilities(p, 0.0, trial_rng(0, 0, 0, 0))
        assert np.array_equal(out.values, p.values)

    def test_group_sums_renormalized(self, set_d4, beta_d4):
        p = process_probabilities(make_cnot(), set_d4)
        out = perturb_probabilities(p, 0.1, trial_rng(3, 0, 0, 0))
        sums = out.values.reshape(-1, 4).sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-12

    def test_reproduces_declared_formula(self, set_d2):
        # replaying the stream must give exactly (p + mu*zeta) renormalized
        p = process_probabilities(parse_channel_spec("ad:0.4", 2), set_d2)
        mu = 0.07
        out = perturb_probabilities(p, mu, trial_rng(11, 0, 0, 0))
        zeta = trial_rng(11, 0, 0, 0).random(p.values.shape)
        raw = p.values + mu * zeta
        assert np.all(raw >= p.values) and np.all(raw < p.values + mu)
        manual = (raw.reshape(-1, 2) / raw.reshape(-1, 2).sum(axis=1, keepdims=True)).reshape(-1)
        assert np.array_equal(out.values, manual)

    def test_rejects_negative_mu(self, set_d2):
        p = process_probabilities(parse_channel_spec("dep:0.3", 2), set_d2)
        with pytest.raises(ValidationError):
            perturb_probabilities(p, -0.1, trial_rng(0, 0, 0, 0))


class TestTrials:
    def test_noise_free_trial_is_exact(self, set_d4, beta_d4):
        for ch in (parse_channel_spec("dep:0.1", 4), make_cnot()):
            res = run_trial(ch, set_d4, beta_d4, 0.0, 0)
            assert res.fidelity == pytest.approx(1.0, abs=1e-10)

    def test_trial_deterministic(self, set_d2, beta_d2):
        ch = parse_channel_spec("bpf:0.3", 2)
        a = run_trial(ch, set_d2, beta_d2, 0.08, 42)
        b = run_trial(ch, set_d2, beta_d2, 0.08, 42)
        assert a.fidelity == b.fidelity

    def test_refined_trial_is_physical(self, set_d2, beta_d2):
        ch = parse_channel_spec("ad:0.4", 2)
        res = run_trial(ch, set_d2, beta_d2, 0.05, 5, refine=True)
        assert res.chi.physical
        assert np.linalg.eigvalsh(res.chi.matrix)[0] >= -1e-10

    def test_default_suite_and_grid(self):
        names = [ch.name for ch in default_channel_suite()]
        assert names == ["dep:0.1", "ad:0.4", "cnot"]
        grid = default_mu_grid()
        assert len(grid) == 15
        assert grid[0] == 0.01 and grid[-1] == 0.15
        assert default_mu_grid(0.05, 0.07, 0.01) == [0.05, 0.06, 0.07]
        with pytest.raises(ValidationError):
            default_mu_grid(step=0.0)

    @pytest.mark.parametrize("bounds", [
        (float("nan"), 0.15, 0.01), (0.01, float("nan"), 0.01), (0.01, 0.15, float("nan")),
        (0.01, float("inf"), 0.01), (float("-inf"), 0.15, 0.01), (0.01, 0.15, float("inf")),
    ])
    def test_grid_rejects_non_finite_values(self, bounds):
        with pytest.raises(ValidationError, match="finite"):
            default_mu_grid(*bounds)


class TestSweep:
    def test_row_ordering_and_counts(self, set_d2, beta_d2):
        chans = [parse_channel_spec("dep:0.2", 2), parse_channel_spec("ad:0.4", 2)]
        res = run_sweep(chans, set_d2, mu_grid=[0.02, 0.05], trials=3,
                        base_seed=9, beta=beta_d2)
        assert len(res.rows) == 2 * 2 * 3
        keys = [(r.mu, r.channel, r.trial) for r in res.rows]
        # mu-major, then channels in the given order, then trial
        expected = [(mu, ch.name, t) for mu in (0.02, 0.05) for ch in chans for t in range(3)]
        assert keys == expected

    def test_aggregates_match_rows(self, set_d2, beta_d2):
        res = run_sweep([parse_channel_spec("dep:0.2", 2)], set_d2,
                        mu_grid=[0.05], trials=8, base_seed=1, beta=beta_d2)
        fids = np.array([r.fidelity for r in res.rows])
        agg = res.aggregates[0]
        assert agg.mean_fidelity == pytest.approx(fids.mean(), abs=1e-15)
        assert agg.std_fidelity == pytest.approx(fids.std(), abs=1e-15)
        assert agg.trials == 8

    @pytest.mark.parametrize("refine", [False, True])
    @pytest.mark.parametrize("trials", [1, 16, 17, 40])
    @pytest.mark.parametrize("dim,specs", [(2, "dep:0.2,ad:0.4"), (4, "ad:0.4,cnot")])
    def test_rows_equal_per_trial_reference(self, request, dim, specs, trials, refine):
        # the blocked solve must give each trial's run_trial fidelity bit for
        # bit, across block boundaries (16 trials) and at mu = 0
        mub_set = request.getfixturevalue(f"set_d{dim}")
        beta = request.getfixturevalue(f"beta_d{dim}")
        chans = [parse_channel_spec(s, dim) for s in specs.split(",")]
        grid = [0.0, 0.05]
        res = run_sweep(chans, mub_set, mu_grid=grid, trials=trials, base_seed=3,
                        refine=refine, beta=beta)
        expected = []
        for mi, mu in enumerate(grid):
            for ci, ch in enumerate(chans):
                exact = process_probabilities(ch, mub_set)
                chi_ref = solve_chi(beta, exact)
                expected += [
                    run_trial(ch, mub_set, beta, mu, trial_rng(3, ci, mi, t), refine,
                              exact=exact, chi_ref=chi_ref).fidelity
                    for t in range(trials)
                ]
        assert [r.fidelity for r in res.rows] == expected
        assert all(r.refined == refine for r in res.rows)

    def test_rejects_empty_inputs(self, set_d2, beta_d2):
        with pytest.raises(ValidationError):
            run_sweep([], set_d2, mu_grid=[0.05], beta=beta_d2)
        with pytest.raises(ValidationError):
            run_sweep([parse_channel_spec("dep:0.2", 2)], set_d2, mu_grid=[],
                      beta=beta_d2)
        with pytest.raises(ValidationError):
            run_sweep([parse_channel_spec("dep:0.2", 2)], set_d2, mu_grid=[1.5],
                      beta=beta_d2)


class TestConcurrenceTrace:
    def test_noise_free_entangler(self, set_d4, beta_d4):
        pts = concurrence_trace(RHO_PLUS0, make_cnot(), set_d4,
                                mu_grid=[0.0], trials=2, base_seed=1, beta=beta_d4)
        assert pts[0].mu == 0.0
        assert pts[0].mean_concurrence == pytest.approx(1.0, abs=1e-8)

    def test_identity_on_bell(self, set_d4, beta_d4):
        ident = parse_channel_spec("dep:0", 4)
        pts = concurrence_trace(RHO_BELL, ident, set_d4,
                                mu_grid=[0.0], trials=2, base_seed=1, beta=beta_d4)
        assert pts[0].mean_concurrence == pytest.approx(1.0, abs=1e-8)

    def test_values_stay_in_range(self, set_d4, beta_d4):
        pts = concurrence_trace(RHO_PLUS0, make_cnot(), set_d4,
                                mu_grid=[0.05, 0.1], trials=4, base_seed=2, beta=beta_d4)
        for pt in pts:
            assert 0.0 <= pt.mean_concurrence <= 1.0

    @pytest.mark.parametrize("trials", [16, 17, 40])
    def test_matches_per_trial_reference(self, set_d4, beta_d4, trials):
        ch = parse_channel_spec("ad:0.4", 4)
        grid = [0.0, 0.05]
        pts = concurrence_trace(RHO_BELL, ch, set_d4, mu_grid=grid, trials=trials,
                                base_seed=4, beta=beta_d4)
        exact = process_probabilities(ch, set_d4)
        for mi, (mu, pt) in enumerate(zip(grid, pts)):
            vals = []
            for t in range(trials):
                chi = solve_chi(beta_d4, perturb_probabilities(exact, mu, trial_rng(4, 0, mi, t)))
                vals.append(concurrence(nearest_density_matrix(apply_chi(chi, RHO_BELL, set_d4))))
            assert pt.mu == mu
            assert pt.mean_concurrence == float(np.mean(vals))

    @pytest.mark.parametrize("mu_grid,trials", [([2.0], 1), ([0.05], 0)])
    def test_rejects_out_of_range_noise(self, set_d4, beta_d4, mu_grid, trials):
        with pytest.raises(ValidationError):
            concurrence_trace(RHO_PLUS0, make_cnot(), set_d4,
                              mu_grid=mu_grid, trials=trials, beta=beta_d4)

    def test_requires_two_qubit_input(self, set_d4, beta_d4):
        with pytest.raises(ValidationError):
            concurrence_trace(np.eye(2) / 2, make_cnot(), set_d4,
                              mu_grid=[0.0], trials=1, beta=beta_d4)


class TestExport:
    @pytest.fixture()
    def small_result(self, set_d2, beta_d2):
        return run_sweep([parse_channel_spec("dep:0.2", 2)], set_d2,
                         mu_grid=[0.02, 0.05], trials=3, base_seed=9, beta=beta_d2)

    def test_csv_layout(self, small_result, tmp_path):
        rows_path = tmp_path / "rows.csv"
        agg_path = tmp_path / "agg.csv"
        export_results(small_result, "csv", rows_path, agg_path)
        lines = rows_path.read_text().splitlines()
        assert lines[0] == "mu,channel,trial,fidelity,refined"
        assert len(lines) == 1 + len(small_result.rows)
        first = small_result.rows[0]
        assert lines[1] == f"{first.mu!r},{first.channel},{first.trial},{first.fidelity!r},false"
        agg_lines = agg_path.read_text().splitlines()
        assert agg_lines[0] == "mu,channel,mean_fidelity,std_fidelity,trials"
        assert len(agg_lines) == 1 + len(small_result.aggregates)

    def test_csv_bytes_deterministic(self, small_result, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        export_results(small_result, "csv", a)
        export_results(small_result, "csv", b)
        assert a.read_bytes() == b.read_bytes()

    def test_json_round_trip(self, small_result, tmp_path):
        path = tmp_path / "res.json"
        export_results(small_result, "json", path)
        back = import_results(path)
        assert back.rows == small_result.rows
        assert back.aggregates == small_result.aggregates
        json.loads(path.read_text())  # well-formed document

    def test_rejects_unknown_format(self, small_result, tmp_path):
        with pytest.raises(ValidationError):
            export_results(small_result, "xml", tmp_path / "res.xml")

    def test_import_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"rows": 3}')
        with pytest.raises(ValidationError):
            import_results(path)

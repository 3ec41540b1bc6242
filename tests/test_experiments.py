import json
import logging
import time

import numpy as np
import pytest

from mubqpt import (
    NoiseConfig,
    ProbabilityTensor,
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
    process_fidelity,
    process_probabilities,
    run_sweep,
    run_trial,
    solve_chi,
    trial_rng,
)
from mubqpt import experiments
from mubqpt.experiments import _perturb_tables
from mubqpt.tomography import _check_probabilities, _fidelities
from test_cli import run_cli
from test_tomography import random_stinespring_channel

PLUS0 = np.kron([1, 1], [1, 0]) / np.sqrt(2)
RHO_PLUS0 = np.outer(PLUS0, PLUS0)
_b = np.array([1, 0, 0, 1]) / np.sqrt(2)
RHO_BELL = np.outer(_b, _b).astype(complex)


def sweep_channels(dim, specs):
    """Channels from comma-separated specs; "rank:r" is a Stinespring
    channel of Kraus rank r seeded by dim, since parse_channel_spec
    builds channels at D = 2 and 4 only."""
    rng = np.random.default_rng(dim)
    return [random_stinespring_channel(dim, int(s[5:]), rng) if s.startswith("rank:")
            else parse_channel_spec(s, dim) for s in specs.split(",")]


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
        with pytest.raises(ValidationError, match="seed"):
            NoiseConfig(0.1, -1, 10)


def _rule_entry_points(set_d4, beta_d4, capsys, tmp_path):
    """Each entry point that takes an error amplitude, as a call of mu;
    the CLI commands return run_cli's (code, out, err)."""
    cnot = make_cnot()
    exact = process_probabilities(cnot, set_d4)
    return {
        "perturb_probabilities": lambda mu: perturb_probabilities(exact, mu, trial_rng(0, 0, 0, 0)),
        "run_trial": lambda mu: run_trial(cnot, set_d4, beta_d4, mu, 0, exact=exact),
        "run_sweep": lambda mu: run_sweep([cnot], set_d4, [mu], trials=1, beta=beta_d4),
        "concurrence_trace": lambda mu: concurrence_trace(RHO_PLUS0, cnot, set_d4, [mu],
                                                          trials=1, beta=beta_d4),
        "qpt run": lambda mu: run_cli(capsys, "qpt", "run", "--dim", "4", "--channel", "cnot",
                                      f"--mu={mu}", "--out", str(tmp_path / "chi.json")),
        "sweep": lambda mu: run_cli(capsys, "sweep", "--channels", "cnot", "--trials", "1",
                                    f"--mu-start={mu}", f"--mu-end={mu}",
                                    "--out", str(tmp_path / "rows.csv")),
    }


class TestNoiseRule:
    """NoiseConfig's rule on mu, applied by every entry point."""

    @pytest.mark.parametrize("entry", ["perturb_probabilities", "run_trial", "run_sweep",
                                       "concurrence_trace", "qpt run", "sweep"])
    @pytest.mark.parametrize("mu", [-0.01, 1.01, float("nan"), float("inf")])
    def test_every_entry_point_rejects_mu(self, set_d4, beta_d4, capsys, tmp_path, entry, mu):
        with pytest.raises(ValidationError) as want:
            NoiseConfig(mu, 0)
        message = str(want.value)
        if entry == "sweep" and not np.isfinite(mu):
            # the sweep command builds its grid first, and the grid's own
            # rule rejects a non-finite bound
            message = f"grid bounds and step must be finite, got {mu}, {mu}, 0.01"
        call = _rule_entry_points(set_d4, beta_d4, capsys, tmp_path)[entry]
        if entry in ("qpt run", "sweep"):
            code, out, err = call(mu)
            assert (code, out, err) == (1, "", f"error: {message}\n")
            assert list(tmp_path.iterdir()) == []
        else:
            with pytest.raises(ValidationError) as got:
                call(mu)
            assert str(got.value) == message

    @pytest.mark.parametrize("seed", [-1, 3.7, float("nan"), True])
    def test_run_trial_rejects_bad_seed(self, set_d2, beta_d2, seed):
        # 3.7 was truncated to 3 and NaN raised numpy's ValueError
        with pytest.raises(ValidationError) as want:
            NoiseConfig(0.05, seed)
        with pytest.raises(ValidationError) as got:
            run_trial(parse_channel_spec("dep:0.1", 2), set_d2, beta_d2, 0.05, seed)
        assert str(got.value) == str(want.value) == f"seed must be an integer >= 0, got {seed!r}"


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


class TestBlockKernels:
    """The block kernels that run_sweep uses, against the per-trial
    public functions that are their k = 1 case."""

    @pytest.fixture()
    def exact(self, set_d4):
        return process_probabilities(make_cnot(), set_d4)

    @pytest.mark.parametrize("mu", [0.05, 0.3])
    def test_perturb_rows_equal_per_trial(self, exact, mu):
        trials = [0, 1, 5, 16, 17]
        block = _perturb_tables(exact, mu, [trial_rng(2, 1, 3, t) for t in trials])
        assert block.shape == (len(trials), exact.values.size)
        for row, t in zip(block, trials):
            one = perturb_probabilities(exact, mu, trial_rng(2, 1, 3, t))
            assert np.array_equal(row, one.values)

    def test_zero_mu_copies_exact_and_draws_nothing(self, exact):
        rngs = [trial_rng(2, 0, 0, t) for t in range(3)]
        block = _perturb_tables(exact, 0.0, rngs)
        assert not np.shares_memory(block, exact.values)
        for row, rng, t in zip(block, rngs, range(3)):
            assert np.array_equal(row, exact.values)
            assert rng.random() == trial_rng(2, 0, 0, t).random()

    def test_nan_mu_message_unchanged(self, exact):
        with pytest.raises(ValidationError, match=r"^error amplitude nan outside \[0, 1\]$"):
            perturb_probabilities(exact, float("nan"), trial_rng(0, 0, 0, 0))

    @pytest.mark.parametrize("table,message", [
        (np.full((3, 400), 0.5), None), (np.full((3, 400), np.nan), "contains NaN or Inf"),
        (np.full((3, 400), 1.01), "outside \\[0, 1\\]: min 1.010e\\+00, max 1.010e\\+00"),
    ])
    def test_block_check_is_the_tensor_check(self, table, message):
        # the check run_sweep applies to each block is ProbabilityTensor's
        checks = [lambda: _check_probabilities(table),
                  lambda: [ProbabilityTensor(4, row) for row in table]]
        for check in checks:
            if message is None:
                check()
            else:
                with pytest.raises(ValidationError, match=message):
                    check()

    def test_fidelities_equal_process_fidelity(self, exact, beta_d4):
        chi_ref = solve_chi(beta_d4, exact)
        chis = [solve_chi(beta_d4, perturb_probabilities(exact, 0.1, trial_rng(5, 0, 0, t)))
                for t in range(17)]
        fids = _fidelities(chi_ref.matrix, np.stack([c.matrix for c in chis]))
        assert fids.shape == (17,)
        for f, chi in zip(fids, chis):
            assert f == process_fidelity(chi_ref, chi)


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

    @pytest.mark.parametrize("bounds", [
        (0.01, 0.15, 5e-324), (0.01, 0.15, 1e-300), (0.0, 1.0, 1e-4), (-1e308, 1e308, 1.0),
    ])
    def test_grid_rejects_too_many_points(self, bounds):
        # the point count is checked as a float before any list is built
        start = time.perf_counter()
        with pytest.raises(ValidationError, match="10000"):
            default_mu_grid(*bounds)
        assert time.perf_counter() - start < 1.0

    def test_grid_size_bound_is_inclusive(self):
        grid = default_mu_grid(0.0, 0.9999, 1e-4)
        assert len(grid) == 10_000 and grid[-1] == 0.9999


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
    @pytest.mark.parametrize("dim,specs", [
        (2, "dep:0.2,ad:0.4"), (4, "ad:0.4,cnot"),
        (3, "rank:1,rank:3,rank:9"), (5, "rank:1,rank:5,rank:25"),
    ])
    def test_rows_equal_per_trial_reference(self, request, monkeypatch, dim, specs, trials,
                                            refine):
        # the blocked draw, check, solve and score must give each trial's
        # run_trial fidelity bit for bit, at any block size, across block
        # boundaries and at mu = 0
        mub_set = request.getfixturevalue(f"set_d{dim}")
        beta = request.getfixturevalue(f"beta_d{dim}")
        chans = sweep_channels(dim, specs)
        grid = [0.0, 0.05]
        # refine each distinct (estimate, table) input once across the four
        # passes below; an input whose bits differ misses the memo, and every
        # call must pass this run's own beta and MUB set in order
        memo, refine_physical = {}, experiments.refine_physical

        def refine_once(chi, p, *args):
            assert len(args) == 2 and args[0] is beta and args[1] is mub_set
            key = (chi.dim, p.dim, chi.matrix.tobytes(), p.values.tobytes())
            if key not in memo:
                memo[key] = refine_physical(chi, p, *args)
            return memo[key]

        monkeypatch.setattr(experiments, "refine_physical", refine_once)
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
        for block in (1, 16, 100):
            monkeypatch.setattr(experiments, "_BLOCK", block)
            res = run_sweep(chans, mub_set, mu_grid=grid, trials=trials, base_seed=3,
                            refine=refine, beta=beta)
            assert [r.fidelity for r in res.rows] == expected
            assert all(type(r.fidelity) is float and r.refined == refine for r in res.rows)

    def test_logs_trials_per_second_per_level(self, set_d2, beta_d2, caplog):
        with caplog.at_level(logging.INFO, logger="mubqpt.experiments"):
            run_sweep([parse_channel_spec("dep:0.2", 2)], set_d2, mu_grid=[0.02, 0.05],
                      trials=3, beta=beta_d2)
        lines = [r.getMessage() for r in caplog.records]
        assert len(lines) == 2
        for mu, line in zip(("0.02", "0.05"), lines):
            assert line.startswith(f"noise level {mu} done (1 channels x 3 trials, ")
            assert line.endswith(" trials/s)")
            assert float(line.split(", ")[1].split()[0]) > 0

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
    def test_matches_per_trial_reference(self, set_d4, beta_d4, monkeypatch, trials):
        ch = parse_channel_spec("ad:0.4", 4)
        grid = [0.0, 0.05]
        exact = process_probabilities(ch, set_d4)
        expected = []
        for mi, mu in enumerate(grid):
            vals = []
            for t in range(trials):
                chi = solve_chi(beta_d4, perturb_probabilities(exact, mu, trial_rng(4, 0, mi, t)))
                vals.append(concurrence(nearest_density_matrix(apply_chi(chi, RHO_BELL, set_d4))))
            expected.append((mu, float(np.mean(vals))))
        for block in (1, 16, 100):
            monkeypatch.setattr(experiments, "_BLOCK", block)
            pts = concurrence_trace(RHO_BELL, ch, set_d4, mu_grid=grid, trials=trials,
                                    base_seed=4, beta=beta_d4)
            assert [(pt.mu, pt.mean_concurrence) for pt in pts] == expected

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

    def test_import_rejects_malformed(self, small_result, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"rows": 3}')
        with pytest.raises(ValidationError):
            import_results(path)
        export_results(small_result, "json", path)
        good = json.loads(path.read_text())
        for key, index, field, value in [
            ("rows", 0, "refined", "false"), ("rows", 1, "trial", 2.7),
            ("aggregates", 0, "trials", True), ("rows", 2, "mu", "0.05"),
            ("rows", 0, "fidelity", None), ("aggregates", 1, "channel", 4),
        ]:
            bad = json.loads(json.dumps(good))
            bad[key][index][field] = value
            path.write_text(json.dumps(bad))
            with pytest.raises(ValidationError, match=field):
                import_results(path)
        for key in ("rows", "aggregates"):
            bad = json.loads(json.dumps(good))
            bad[key][0] = [0.02, "dep:0.2", 0, 0.9, False]
            path.write_text(json.dumps(bad))
            with pytest.raises(ValidationError, match="not a JSON object"):
                import_results(path)

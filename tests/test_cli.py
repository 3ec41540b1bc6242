import json
import time

import numpy as np
import pytest

from mubqpt import (
    build_beta,
    generate_mub,
    load_chi,
    matrix_from_json,
    matrix_to_json,
    mub_from_json,
    parse_channel_spec,
    run_trial,
    save_kraus,
    save_mub,
    verify_mub,
)
from mubqpt.cli import main


def _no_sweep(*args, **kwargs):
    raise AssertionError("the sweep ran before its options were checked")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMubCommands:
    def test_gen_emits_valid_set(self, capsys):
        code, out, _ = run_cli(capsys, "mub", "gen", "--dim", "4")
        assert code == 0
        mub_set = mub_from_json(json.loads(out))
        assert mub_set.dim == 4
        assert verify_mub(mub_set).passed

    def test_gen_to_file(self, capsys, tmp_path):
        path = tmp_path / "mub.json"
        code, out, _ = run_cli(capsys, "mub", "gen", "--dim", "3", "--out", str(path))
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["dim"] == 3

    def test_gen_rejects_dim_six(self, capsys):
        code, _, err = run_cli(capsys, "mub", "gen", "--dim", "6")
        assert code == 1
        assert "prime" in err

    def test_verify_pass_and_fail(self, capsys, tmp_path, set_d2):
        path = tmp_path / "mub.json"
        save_mub(set_d2, path)
        code, out, _ = run_cli(capsys, "mub", "verify", "--in", str(path))
        assert code == 0
        assert json.loads(out)["pass"] is True

        blob = json.loads(path.read_text())
        blob["bases"][0][0][0] = [0.9, 0.0]
        path.write_text(json.dumps(blob))
        code, out, err = run_cli(capsys, "mub", "verify", "--in", str(path))
        assert code == 1
        assert json.loads(out)["pass"] is False
        assert "error" in err

    @pytest.mark.parametrize("flags,config", [
        (["--tol", "nan"], "{}"), (["--tol", "inf"], "{}"),
        ([], '{"tol": NaN}'), ([], '{"tol": Infinity}'), ([], '{"tol": 1e999}'),
    ], ids=["flag-nan", "flag-inf", "config-nan", "config-infinity", "config-overflow"])
    def test_verify_rejects_non_finite_tol(self, capsys, tmp_path, set_d2, flags, config):
        path = tmp_path / "mub.json"
        save_mub(set_d2, path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        code, out, err = run_cli(capsys, "mub", "verify", "--in", str(path),
                                 "--config", str(cfg), *flags)
        assert code == 1 and out == "" and err.startswith("error:")

    def test_verify_rejects_number_beyond_double(self, capsys, tmp_path):
        # an overflowing component used to read as inf and print a NaN violation
        path = tmp_path / "mub.json"
        save_mub(generate_mub(3), path)
        blob = json.loads(path.read_text())
        blob["bases"][1][2][0] = [0.25, 0.0]
        path.write_text(json.dumps(blob).replace("[0.25, 0.0]", "[1e999, 0.0]"))
        code, out, err = run_cli(capsys, "mub", "verify", "--in", str(path))
        assert code == 1 and out == "" and err.startswith("error:") and "1e999" in err

    def test_complexity_defaults(self, capsys):
        code, out, _ = run_cli(capsys, "mub", "complexity", "--dim", "4")
        assert code == 0
        obj = json.loads(out)
        assert obj["c_alpha"] == [0, 0, 0, 1, 1]
        assert obj["C"] == 2 and obj["qpt_gates"] == 16

    def test_complexity_override(self, capsys):
        code, out, _ = run_cli(
            capsys, "mub", "complexity", "--dim", "4", "--c-alpha", "1,1,1,2,2"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["C"] == 7 and obj["qpt_gates"] == 4 * 49


    def test_complexity_config_takes_comma_separated_strings(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dim": 4, "c_alpha": "1,1,1,2,2", "factorization": "2,2"}))
        code, out, _ = run_cli(capsys, "mub", "complexity", "--config", str(cfg))
        assert code == 0 and json.loads(out)["C"] == 7
        cfg.write_text(json.dumps({"dim": 4, "c_alpha": [1, 1, 1, 2, 2]}))
        code, out, err = run_cli(capsys, "mub", "complexity", "--config", str(cfg))
        assert code == 1 and out == "" and err.startswith("error:") and "c_alpha" in err

    @pytest.mark.parametrize("flags", [
        # the product wraps to 4 in int64
        ["--factorization", "4611686018427387905,4"],
        ["--c-alpha", "0,0,0,1,1", "--factorization", "0,-7"],
        ["--c-alpha", "0,0,0,1,1", "--factorization", "3,3"],
    ], ids=["int64-wrap", "c-alpha-non-positive", "c-alpha-wrong-product"])
    def test_complexity_rejects_bad_factorization(self, capsys, flags):
        code, out, err = run_cli(capsys, "mub", "complexity", "--dim", "4", *flags)
        assert code == 1 and out == "" and err.startswith("error:") and "factorization" in err


class TestChannelCommands:
    def test_apply_cnot(self, capsys, tmp_path):
        ket = np.zeros(4)
        ket[2] = 1.0  # |10>
        state = tmp_path / "state.json"
        state.write_text(json.dumps(matrix_to_json(np.outer(ket, ket))))
        code, out, _ = run_cli(
            capsys, "channel", "apply", "--channel", "cnot", "--state", str(state)
        )
        assert code == 0
        rho = matrix_from_json(json.loads(out))
        expected = np.zeros((4, 4)); expected[3, 3] = 1.0
        assert np.max(np.abs(rho - expected)) <= 1e-12

    def test_apply_param_flag(self, capsys, tmp_path):
        state = tmp_path / "state.json"
        state.write_text(json.dumps(matrix_to_json(np.diag([0.0, 1.0]))))
        code, out, _ = run_cli(
            capsys, "channel", "apply", "--channel", "ad", "--param", "1.0",
            "--state", str(state)
        )
        assert code == 0
        rho = matrix_from_json(json.loads(out))
        assert np.max(np.abs(rho - np.diag([1.0, 0.0]))) <= 1e-12

    def test_apply_rejects_double_param(self, capsys, tmp_path):
        state = tmp_path / "state.json"
        state.write_text(json.dumps(matrix_to_json(np.eye(2) / 2)))
        code, _, err = run_cli(
            capsys, "channel", "apply", "--channel", "ad:0.4", "--param", "0.3",
            "--state", str(state)
        )
        assert code == 1 and "not both" in err

    def test_check_reports_flags(self, capsys, tmp_path):
        path = tmp_path / "ad.json"
        save_kraus(parse_channel_spec("ad:0.4", 2), path)
        code, out, _ = run_cli(capsys, "channel", "check", "--in", str(path))
        assert code == 0
        obj = json.loads(out)
        assert obj["trace_preserving"] is True
        assert obj["unital"] is False


class TestQptRun:
    def test_noise_free_identity_fidelity(self, capsys, tmp_path):
        path = tmp_path / "chi.json"
        code, _, err = run_cli(
            capsys, "qpt", "run", "--dim", "2", "--channel", "dep:0.2",
            "--mu", "0", "--out", str(path)
        )
        assert code == 0
        assert "fidelity=1.0000000000" in err
        assert "rank=16" in err
        chi = load_chi(path)
        assert chi.dim == 2

    def test_noisy_refined_run(self, capsys, tmp_path):
        path = tmp_path / "chi.json"
        code, _, err = run_cli(
            capsys, "qpt", "run", "--dim", "2", "--channel", "bpf:0.3",
            "--mu", "0.05", "--seed", "7", "--refine", "--out", str(path)
        )
        assert code == 0
        chi = load_chi(path)
        assert chi.physical
        assert np.linalg.eigvalsh(chi.matrix)[0] >= -1e-10

    @pytest.mark.parametrize("refine", [False, True])
    def test_chi_equals_run_trial(self, capsys, tmp_path, refine):
        path = tmp_path / "chi.json"
        argv = ["qpt", "run", "--dim", "2", "--channel", "ad:0.4", "--mu", "0.1",
                "--seed", "7", "--out", str(path)]
        code, _, _ = run_cli(capsys, *argv, *(["--refine"] if refine else []))
        assert code == 0
        mub_set = generate_mub(2)
        ref = run_trial(parse_channel_spec("ad:0.4", 2), mub_set, build_beta(mub_set), 0.1, 7,
                        refine)
        assert np.array_equal(matrix_from_json(json.loads(path.read_text())), ref.chi.matrix)

    def test_refined_run_reports_raw_asymmetry(self, capsys, tmp_path):
        argv = ["qpt", "run", "--dim", "2", "--channel", "bpf:0.3", "--mu", "0.05",
                "--seed", "3", "--out", str(tmp_path / "chi.json")]
        fields = []
        for extra in ([], ["--refine"]):
            code, _, err = run_cli(capsys, *argv, *extra)
            assert code == 0
            fields.append(next(f for f in err.split() if f.startswith("asymmetry=")))
        assert fields[0] == fields[1] != "asymmetry=0.000e+00"

    @pytest.mark.parametrize("mu", ["2", "-0.5"])
    def test_rejects_mu_out_of_range(self, capsys, mu):
        code, _, err = run_cli(
            capsys, "qpt", "run", "--dim", "2", "--channel", "dep:0.2", "--mu", mu
        )
        assert code == 1 and err.startswith("error:")

    @pytest.mark.parametrize("command", [["qpt", "run", "--channel", "dep:0.2"],
                                         ["sweep", "--channels", "dep:0.2", "--trials", "1"]])
    def test_rejects_negative_seed(self, capsys, tmp_path, command):
        code, out, err = run_cli(capsys, *command, "--dim", "2", "--seed", "-1",
                                 "--out", str(tmp_path / "out"))
        assert code == 1 and out == "" and err.startswith("error:") and "seed" in err
        assert list(tmp_path.iterdir()) == []

    def test_missing_channel(self, capsys):
        code, _, err = run_cli(capsys, "qpt", "run", "--dim", "2")
        assert code == 1 and "--channel" in err

    def test_config_takes_json_numbers_and_booleans(self, capsys, tmp_path):
        # a JSON integer is a valid value for a float flag
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"dim": 2, "channel": "dep", "param": 0, "mu": 0, "refine": True}
        ))
        path = tmp_path / "chi.json"
        code, _, err = run_cli(capsys, "qpt", "run", "--config", str(cfg), "--out", str(path))
        assert code == 0 and "fidelity=1.0000000000" in err
        assert load_chi(path).physical

    @pytest.mark.parametrize("refine", ["false", 1])
    def test_config_refine_must_be_boolean(self, capsys, tmp_path, refine):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dim": 2, "channel": "dep:0.2", "refine": refine}))
        code, _, err = run_cli(capsys, "qpt", "run", "--config", str(cfg))
        assert code == 1 and err.startswith("error:") and "refine" in err


    @pytest.mark.parametrize("bad", [{"out": 1}, {"out": True}, {"channel": 5}])
    def test_config_string_flags_take_json_strings(self, capsys, tmp_path, bad):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dim": 2, "channel": "dep:0.2", **bad}))
        code, out, err = run_cli(capsys, "qpt", "run", "--config", str(cfg))
        assert code == 1 and out == "" and err.startswith("error:")
        assert next(iter(bad)) in err

    def test_flag_beats_config_string(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dim": 2, "channel": "ad:0.3", "out": str(tmp_path / "a.json")}))
        code, _, err = run_cli(capsys, "qpt", "run", "--config", str(cfg),
                               "--channel", "dep:0.2", "--out", str(tmp_path / "b.json"))
        assert code == 0 and "channel=dep:0.2" in err
        assert load_chi(tmp_path / "b.json").dim == 2
        assert not (tmp_path / "a.json").exists()


class TestSweepCommand:
    def test_small_sweep_csv(self, capsys, tmp_path):
        out = tmp_path / "rows.csv"
        agg = tmp_path / "agg.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--dim", "2", "--channels", "dep:0.2",
            "--mu-start", "0.05", "--mu-end", "0.06", "--mu-step", "0.01",
            "--trials", "3", "--seed", "1",
            "--out", str(out), "--aggregates-out", str(agg)
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "mu,channel,trial,fidelity,refined"
        assert len(lines) == 1 + 2 * 3
        assert agg.read_text().splitlines()[0] == "mu,channel,mean_fidelity,std_fidelity,trials"

    def test_config_merge_and_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "dim": 2, "channels": "dep:0.2", "mu_start": 0.05, "mu_end": 0.05,
            "mu_step": 0.01, "trials": 4, "seed": 1,
            # null keeps the default, as an absent flag does
            "format": None, "refine": None,
        }))
        out = tmp_path / "rows.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--config", str(cfg), "--trials", "2", "--out", str(out)
        )
        assert code == 0
        # the explicit flag wins over the config value
        assert len(out.read_text().splitlines()) == 1 + 2

    def test_config_rejects_unknown_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dim": 2, "bogus": 1}))
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg), "--out", "x.csv")
        assert code == 1 and "bogus" in err

    def test_config_rejects_bad_value_type(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr("mubqpt.cli.run_sweep", _no_sweep)
        cfg = tmp_path / "cfg.json"
        for key, val in [
            ("trials", "abc"), ("trials", 2.9), ("trials", True), ("seed", 1.0),
            ("mu_step", True), ("mu_start", 10**400), ("refine", "false"), ("refine", 1),
            ("format", "xml"),
        ]:
            cfg.write_text(json.dumps({"dim": 2, key: val}))
            code, _, err = run_cli(capsys, "sweep", "--config", str(cfg), "--out", "x.csv")
            assert code == 1 and err.startswith("error:") and key in err, (key, val)

    @pytest.mark.parametrize("argv,message", [
        ([], "--out"),
        (["--format", "json", "--out", "rows.json", "--aggregates-out", "agg.json"],
         "--aggregates-out"),
    ])
    def test_outputs_checked_before_sweep(self, capsys, tmp_path, monkeypatch, argv, message):
        monkeypatch.setattr("mubqpt.cli.run_sweep", _no_sweep)
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(capsys, "sweep", "--dim", "2", *argv)
        assert code == 1 and err.startswith("error:") and message in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag,value", [
        ("--mu-step", "nan"), ("--mu-end", "nan"), ("--mu-end", "inf"),
    ])
    def test_rejects_non_finite_grid(self, capsys, tmp_path, flag, value):
        code, _, err = run_cli(capsys, "sweep", "--dim", "2", "--channels", "dep:0.1",
                               flag, value, "--out", str(tmp_path / "rows.csv"))
        assert code == 1 and err.startswith("error:") and "finite" in err

    @pytest.mark.parametrize("step", ["5e-324", "1e-300"])
    def test_rejects_huge_grid_fast(self, capsys, tmp_path, monkeypatch, step):
        monkeypatch.setattr("mubqpt.cli.run_sweep", _no_sweep)
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "sweep", "--dim", "2", "--channels", "dep:0.1",
                               "--mu-step", step, "--out", str(tmp_path / "rows.csv"))
        assert code == 1 and err.startswith("error:") and "10000" in err
        assert time.perf_counter() - start < 1.0

    def test_help_shows_declared_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--help"])
        out = capsys.readouterr().out
        for text in ["dimension (default 4)", "(default dep:0.1,ad:0.4,cnot)",
                     "grid start (default 0.01)", "(default 100)", "(default csv)"]:
            assert text in out

    def test_repeat_runs_byte_identical(self, capsys, tmp_path):
        argv = ["sweep", "--dim", "2", "--channels", "ad:0.4",
                "--mu-start", "0.05", "--mu-end", "0.06", "--mu-step", "0.01",
                "--trials", "3", "--seed", "5"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


class TestTopLevel:
    def test_no_subcommand(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1 and "subcommand" in err

    def test_unknown_flag_is_validation_error(self, capsys):
        code, _, err = run_cli(capsys, "mub", "gen", "--dim", "2", "--frobnicate")
        assert code == 1

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

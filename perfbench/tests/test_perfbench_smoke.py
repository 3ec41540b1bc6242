"""Smoke test for the benchmark: every workload's code path at D=2/3
with a handful of trials, in this process.

    python3 -m pytest perfbench/tests
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

m = workloads.m
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.SMOKE))
def test_every_metric_prints_with_its_unit(name, trace, capsys):
    argv = ["--workload", name, "--seed", "3", "--seconds", "0.3", "--trace", str(trace)]
    assert run.main(argv, sizes=workloads.SMOKE) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == {x["name"]: x["unit"] for x in listed}
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())


def test_traced_redrive_equals_run_sweep(tmp_path):
    cls, size = workloads.SMOKE["sweep_raw_d4"]
    wl = cls(size, 5, tmp_path)
    wl.warm()
    records = [wl.op(k)[1] for k in range(2)]
    tr = harness.Tracer()
    assert wl.redrive(tr, records).failed == 0
    assert len(tr.durations("experiments.trial_rng")) == 2 * wl.trials_per_op
    # a fidelity that run_sweep did not produce is caught
    records[1].fidelities[0] += 1e-15
    assert wl.redrive(harness.Tracer(), records).failed == 1


def test_stored_reference_matches(tmp_path):
    cls, size = workloads.FULL["sweep_raw_d4"]
    wl = cls(size, 0, tmp_path)
    wl.setup()
    attempted, failed = wl.check_reference()
    assert attempted == 450 and failed == 0


def test_oracle_agrees_with_solve_chi():
    mub_set = m.generate_mub(3)
    beta = m.build_beta(mub_set)
    ch = workloads.random_channel(3, 2, np.random.default_rng(0))
    assert m.channel_checks(ch).trace_preserving
    noisy = m.perturb_probabilities(m.process_probabilities(ch, mub_set), 0.05,
                                    m.trial_rng(1, 0, 0, 0))
    want = workloads.DenseOracle(mub_set).chis([noisy.values])[0]
    assert np.abs(m.solve_chi(beta, noisy).matrix - want).max() < 1e-12


def test_tail_has_ten_samples_beyond_it():
    assert harness.tail(range(100)) == (89.0, 90.0)
    assert harness.tail(range(5)) == (4.0, 100.0)


def test_bare_directory_exits_without_a_result(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "sweep_raw_d4", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

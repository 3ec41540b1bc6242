"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones, measured with tracing off; with
`--trace 1` they are the per-layer ones, taken from a traced re-drive of
the operations an untraced pass has just timed. The lines before it give
the environment and the details behind the numbers (sample counts, the
tail percentile, failure rate, refinement gain). Spans and a copy of the
result go to perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import harness
import workloads
from harness import median, tail

SETUP_REPS = 7

END_TO_END = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MiB",
    "fidelity_mean": "1",
}

# name -> unit; the busy_s entries are summed span time of that call
PER_LAYER = {
    "tomography.solve_chi.calls": "count",
    "tomography.solve_chi.busy_s": "s",
    "tomography.solve_chi.p50_us": "us",
    "tomography.solve_chi.macs_computed": "MAC",
    "experiments.trial_rng.busy_s": "s",
    "experiments.perturb_probabilities.busy_s": "s",
    "tomography.refine_physical.calls": "count",
    "tomography.refine_physical.busy_s": "s",
    "tomography.refine_physical.p50_ms": "ms",
    "tomography.refine_physical.tail_ms": "ms",
    "tomography.refine_physical.not_converged": "count",
    "tomography.refine_physical.tp_max_violation": "1",
    "tomography.refine_physical.fidelity_gain": "1",
    "tomography.build_beta.busy_s": "s",
    "tomography.beta_bytes_computed": "B",
    "mub.generate_mub.busy_s": "s",
    "tomography.process_probabilities.busy_s": "s",
    "tomography.process_fidelity.busy_s": "s",
    "tomography.extract_kraus.busy_s": "s",
    "channels.channel_checks.busy_s": "s",
    "tomography.save_chi.busy_s": "s",
    "tomography.load_chi.busy_s": "s",
    "experiments.export_results.busy_s": "s",
    "experiments.export_results.bytes": "B",
    "cli.import_s": "s",
    "cli.main.busy_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def measure(wl, seconds: float, setup_reps: int = 0):
    """Closed loop: the next operation starts when the last one ends,
    until `seconds` of operations have passed. An operation that raises
    is counted and left out of the timings. `setup_reps` timed set-ups
    are spread evenly over the run. After each operation and set-up the
    speed probe runs for a tenth of its time, at least once. Set-ups and
    probes do not count against `seconds`."""
    times, records, setups, probes, raised = [], [], [], [], 0
    probe = harness.SpeedProbe()
    start = time.perf_counter()
    deadline = start + seconds

    def timed(fn):
        nonlocal deadline
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        spent = 0.0
        while spent < 0.1 * dt or spent == 0.0:
            probes.append(probe())
            spent += probes[-1]
        deadline += spent
        return dt, out

    k = 0
    while True:
        due = start + len(setups) * seconds / setup_reps if setup_reps else deadline
        if len(setups) < setup_reps and time.perf_counter() >= due:
            dt, _ = timed(wl.setup)
            setups.append(dt)
            deadline += dt
        try:
            _, (dt, rec) = timed(lambda: wl.op(k))
        except Exception:
            traceback.print_exc()
            raised += 1
        else:
            times.append(dt)
            records.append(rec)
        k += 1
        if time.perf_counter() >= deadline:
            break
    while len(setups) < setup_reps:
        setups.append(timed(wl.setup)[0])
    if not records:
        raise SystemExit("perfbench: no operation succeeded")
    return times, records, setups, probes, raised


def end_to_end(wl, seconds: float):
    wl.warm()
    times, records, setups, probes, raised = measure(wl, seconds, SETUP_REPS)
    rss = harness.peak_rss_mib(children=wl.children)  # before the checks allocate
    extra, failed, info = wl.check(records)
    trials = len(records) * wl.trials_per_op
    tail_s, tail_pct = tail(times)
    wall = {
        "setup_s": median(setups),
        "trials_per_s": trials / sum(times),
        "latency_p50_s": median(times),
        "latency_tail_s": tail_s,
    }
    # seconds at the reference host speed; see README.md, "Steadiness"
    scale = harness.PROBE_REFERENCE_S / median(probes)
    values = {k: v / scale if k == "trials_per_s" else v * scale for k, v in wall.items()}
    values.update(peak_rss_mb=rss, fidelity_mean=float(np.mean(wl.fidelities(records))))
    info.update(ops=len(times), trials=trials, setup_reps=SETUP_REPS,
                latency_tail_percentile=tail_pct, probe_median_s=median(probes),
                speed_scale=scale, wall_clock=wall, op_times_s=times,
                setup_times_s=setups)
    attempted = (len(records) + raised) * wl.trials_per_op + extra
    return values, END_TO_END, attempted, failed + raised * wl.trials_per_op, info


def per_layer(wl, seconds: float, spans_path):
    wl.warm()
    times, records, _, _, raised = measure(wl, seconds / 2)
    extra, failed, info = wl.check(records)
    tr = harness.Tracer()
    rd = wl.redrive(tr, records)
    wl.probe(tr, rd)
    untraced = sum(times) if rd.untraced_s is None else rd.untraced_s
    tr.write(spans_path)
    n = wl.size.dim ** 2 + wl.size.dim
    solve = tr.durations("tomography.solve_chi")
    refine = tr.durations("tomography.refine_physical")
    values = {
        "tomography.solve_chi.calls": len(solve),
        "tomography.solve_chi.busy_s": sum(solve),
        "tomography.solve_chi.p50_us": median(solve) * 1e6,
        "tomography.solve_chi.macs_computed": len(solve) * 2 * n**4,
        "tomography.refine_physical.calls": len(refine),
        "tomography.refine_physical.busy_s": sum(refine),
        "tomography.refine_physical.p50_ms": median(refine) * 1e3,
        "tomography.refine_physical.tail_ms": tail(refine)[0] * 1e3,
        "tomography.refine_physical.not_converged": rd.not_converged,
        "tomography.refine_physical.tp_max_violation": rd.tp_max_violation,
        "tomography.refine_physical.fidelity_gain": float(np.mean(rd.gains)),
        # dense beta and its pseudoinverse, complex128, per build
        "tomography.beta_bytes_computed": 2 * 16 * n**4,
        "experiments.export_results.bytes": rd.export_bytes,
        "cli.import_s": median(tr.durations("cli.import")),
        "trace.overhead_s": rd.traced_s - untraced,
        "trace.spans": len(tr.spans),
    }
    for metric in PER_LAYER:
        if metric.endswith(".busy_s"):
            values[metric] = sum(tr.durations(metric[: -len(".busy_s")]))
    info.update(ops=len(times), traced_s=rd.traced_s, untraced_s=untraced,
                redrive_mismatches=rd.failed)
    attempted = (len(records) + raised) * wl.trials_per_op + extra
    return values, PER_LAYER, attempted, failed + rd.failed + raised * wl.trials_per_op, info


def main(argv=None, sizes=None) -> int:
    sizes = sizes or workloads.FULL
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(sizes))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    cls, size = sizes[args.workload]
    harness.OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=harness.OUT)
    try:
        wl = cls(size, args.seed, Path(tmp))
        t0 = time.perf_counter()
        if args.trace:
            spans = harness.OUT / f"spans-{args.workload}.json"
            values, table, attempted, failed, info = per_layer(wl, args.seconds, spans)
        else:
            values, table, attempted, failed, info = end_to_end(wl, args.seconds)
        info["wall_s"] = time.perf_counter() - t0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, failure_rate=failed / attempted)
    result = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in table.items()},
    }
    env = harness.environment()
    with open(harness.OUT / f"result-{args.workload}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"env": env, "info": info, "result": result}, fh, indent=1)
    print(json.dumps({"env": env}))
    print(json.dumps({"info": {k: v for k, v in info.items() if not k.endswith("_times_s")}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

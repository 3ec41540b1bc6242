"""Write reference/sweep_raw_d4.json: the unrefined fidelities of the
default D=4 channel suite over the default noise grid, 10 trials per
point, base seed 0. The sweep workloads check their solve path against
it within 1e-9, so regenerate it only with a change that is meant to
alter these numbers, and say so where that change is described.

    python3 perfbench/make_reference.py
"""
import json

import harness
import workloads

m = workloads.m


def main() -> None:
    channels = list(workloads.SUITE)
    grid = m.default_mu_grid()
    trials, base_seed = 10, 0
    result = m.run_sweep([m.parse_channel_spec(c, 4) for c in channels], m.generate_mub(4),
                         grid, trials=trials, base_seed=base_seed)
    env = harness.environment()
    obj = {
        "dim": 4,
        "channels": channels,
        "mu_grid": grid,
        "trials": trials,
        "base_seed": base_seed,
        "git_sha": env["git_sha"],
        "src_sha256": env["src_sha256"],
        "fidelities": [r.fidelity for r in result.rows],
    }
    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    main()

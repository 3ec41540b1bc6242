"""Reconstruction quality under measurement noise.

Perturbs every probability by mu * uniform(0, 1), renormalizes, and
watches the fidelity of the reconstructed process fall as mu grows,
next to its exact expectation. Also shows the positivity refinement and
the decay of reconstructed entanglement.

Run: python3 demos/04_noise_robustness.py  (about half a minute)
"""
import numpy as np

from mubqpt import (
    build_beta,
    concurrence_trace,
    default_channel_suite,
    expected_raw_fidelity,
    export_results,
    generate_mub,
    make_cnot,
    perturb_probabilities,
    process_fidelity,
    process_probabilities,
    refine_physical,
    run_sweep,
    solve_chi,
    trial_rng,
)

mub_set = generate_mub(4)
beta = build_beta(mub_set)

grid = [0.03, 0.06, 0.09, 0.12, 0.15]
suite = default_channel_suite()
result = run_sweep(suite, mub_set, mu_grid=grid,
                   trials=30, base_seed=42, beta=beta)

# The raw score is linear in the noisy table, whose mean is a p + (1 - a)/D
# with a = E[1/(1 + mu S)], S the sum of D uniforms: so E[F] = a + (1 - a) F_dep.
print("mean fidelity (30 trials each) / its exact expectation E[F]:")
names = [ch.name for ch in suite]
print("  mu  " + "  ".join(f"{n:>15}" for n in names))
for mu in grid:
    row = {a.channel: a.mean_fidelity for a in result.aggregates if a.mu == mu}
    laws = [expected_raw_fidelity(ch, mub_set, mu, beta) for ch in suite]
    print(f"  {mu:.2f}  " + "  ".join(f"{row[n]:.4f} / {law:.4f}" for n, law in zip(names, laws)))

export_results(result, "csv", "sweep_rows.csv", "sweep_aggregates.csv")
print("wrote sweep_rows.csv and sweep_aggregates.csv")

# The raw minimum-norm solution can have small negative eigenvalues
# under noise; the refinement projects it onto the nearest CPTP map. On
# these biased tables that costs a little fidelity against the raw solve.
exact = process_probabilities(make_cnot(), mub_set)
chi_ref = solve_chi(beta, exact)
noisy = perturb_probabilities(exact, 0.05, trial_rng(42, 0, 0, 0))
raw = solve_chi(beta, noisy)
refined = refine_physical(raw, noisy, beta, mub_set)
print(f"\nCNOT at mu=0.05: raw min eigenvalue "
      f"{np.linalg.eigvalsh(raw.matrix)[0]:.2e}, refined "
      f"{np.linalg.eigvalsh(refined.matrix)[0]:.2e}")
print(f"fidelity raw {process_fidelity(chi_ref, raw):.4f} "
      f"-> refined {process_fidelity(chi_ref, refined):.4f}, "
      f"trace-preservation violation {refined.tp_max_violation:.1e}")

# Entanglement produced by the reconstructed gate decays with mu.
plus0 = np.kron([1, 1], [1, 0]) / np.sqrt(2)
points = concurrence_trace(np.outer(plus0, plus0), make_cnot(), mub_set,
                           mu_grid=grid, trials=20, base_seed=42, beta=beta)
print("\nreconstructed concurrence of CNOT(|+0>):")
for pt in points:
    print(f"  mu={pt.mu:.2f}: {pt.mean_concurrence:.4f}")

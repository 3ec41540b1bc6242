"""Full process reconstruction from projector probabilities.

Every basis state doubles as an input probe and a measurement outcome,
so the D^2+D projectors alone determine the channel: measure
p[(input), (outcome)], solve the linear system, and read the channel
back out.

Run: python3 demos/03_reconstruction.py
"""
import numpy as np

from mubqpt import (
    apply_channel,
    apply_chi,
    build_beta,
    extract_kraus,
    generate_mub,
    make_cnot,
    process_probabilities,
    random_density_matrix,
    solve_chi,
    trace_distance,
)

mub_set = generate_mub(4)
beta = build_beta(mub_set)
# The solve runs through the 16x20 projector frame; the dense transfer
# matrix and its pseudoinverse are built here only to show their structure.
dense, kappa = beta.matrix, beta.pinv
print(f"transfer matrix: {dense.shape[0]}x{dense.shape[1]}, "
      f"rank {beta.rank} (D^4 = 256), pseudoinverse defect "
      f"{np.linalg.norm(dense @ kappa @ dense - dense):.1e}")

ch = make_cnot()
p = process_probabilities(ch, mub_set)
print(f"probability table: {p.values.size} entries, "
      f"each input/basis group sums to "
      f"{p.values.reshape(-1, 4).sum(axis=1).max():.6f}")

chi = solve_chi(beta, p)
print(f"solved process matrix: asymmetry {chi.asymmetry:.1e}, "
      f"forward residual {chi.forward_residual:.1e}")

# The reconstructed map should be indistinguishable from the channel.
rng = np.random.default_rng(7)
worst = max(
    trace_distance(apply_chi(chi, rho, mub_set), apply_channel(ch, rho))
    for rho in (random_density_matrix(4, rng) for _ in range(20))
)
print(f"worst trace distance over 20 random states: {worst:.2e}")

# Operator form recovered from the eigenbasis of the Choi matrix: the
# operators are canonical, so the unitary CNOT comes back as one operator
# equal to the gate up to a global phase.
extracted = extract_kraus(chi, mub_set)
worst = max(
    trace_distance(apply_channel(extracted, rho), apply_channel(ch, rho))
    for rho in (random_density_matrix(4, rng) for _ in range(20))
)
print(f"extracted {len(extracted.operators)} operators; "
      f"worst map deviation {worst:.2e}")
op, gate = extracted.operators[0], ch.operators[0]
phase = np.vdot(op, gate) / abs(np.vdot(op, gate))
print(f"extracted operator vs CNOT up to a global phase: "
      f"max deviation {np.abs(phase * op - gate).max():.1e}")

"""Process tomography with mutually unbiased bases.

Build maximal MUB sets for prime-power dimensions, simulate channels in
operator-sum form, reconstruct the process matrix from projector
probabilities through the closed-form dual frame, refine it to a positive
estimate, and study the reconstruction's robustness to measurement
noise.
"""
from .channels import (
    ChannelChecks,
    KrausChannel,
    apply_channel,
    channel_checks,
    concurrence,
    load_kraus,
    make_cnot,
    make_local_channel,
    parse_channel_spec,
    save_kraus,
    tensor_lift,
)
from .errors import MubQptError, NumericalError, ValidationError
from .experiments import (
    ConcurrencePoint,
    NoiseConfig,
    SweepAggregate,
    SweepResult,
    SweepRow,
    TrialResult,
    concurrence_trace,
    default_channel_suite,
    default_mu_grid,
    expected_raw_fidelity,
    export_results,
    import_results,
    perturb_probabilities,
    run_sweep,
    run_trial,
    trial_rng,
)
from .mub import (
    ComplexityModel,
    MubReport,
    MubSet,
    Projector,
    complexity_totals,
    default_complexity,
    default_factorization,
    factorizability,
    flat_index,
    generate_mub,
    generate_mub_prime,
    generate_mub_two_power,
    load_mub,
    mub_from_json,
    mub_to_json,
    n_projectors,
    projectors,
    save_mub,
    verify_mub,
)
from .numerics import (
    as_complex_matrix,
    check_density_matrix,
    frobenius_norm,
    hermiticity_defect,
    matrix_from_json,
    matrix_to_json,
    nearest_density_matrix,
    random_density_matrix,
    trace_distance,
)
from .tomography import (
    BetaMatrix,
    ChiMatrix,
    ProbabilityTensor,
    apply_chi,
    build_beta,
    chi_to_json,
    constraint_tensor,
    extract_kraus,
    load_chi,
    load_probabilities,
    process_fidelity,
    process_probabilities,
    reconstruct_state,
    refine_physical,
    refinement_objective,
    save_chi,
    save_probabilities,
    solve_chi,
    state_probabilities,
)

__version__ = "0.1.0"

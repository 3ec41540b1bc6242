"""Noise-robustness study for the reconstruction pipeline.

Measured probabilities are corrupted by a positive additive error,
p_tilde = p + mu * zeta with zeta uniform on [0, 1), then renormalized
within each (input, outcome-basis) group. Note the perturbation is a
bias, not zero-mean noise; it is applied verbatim. Each trial re-solves
the process matrix from the corrupted tensor and scores it against the
exact one. Sweeps walk a grid of error amplitudes with a fixed number of
trials per point and fully deterministic per-trial random streams, so a
sweep is reproducible bit for bit. The trials of one point run in blocks
of 16: the noise is drawn into one array and range-checked once, the
tables are solved by stacked dual-frame products and the fidelities are
scored by one stacked product. Each per-trial function is the one-trial
case of its block kernel, so rows do not depend on the block size.
"""
from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import get_type_hints

import numpy as np

from .channels import KrausChannel, concurrence, make_cnot, parse_channel_spec
from .errors import ValidationError
from .mub import MubSet
from .numerics import (
    check_density_matrix,
    json_value,
    nearest_density_matrix,
    read_json_object,
    write_json_object,
)
from .tomography import (
    BetaMatrix,
    ChiMatrix,
    ProbabilityTensor,
    _check_probabilities,
    _fidelities,
    _solve_tables,
    apply_chi,
    build_beta,
    process_fidelity,
    process_probabilities,
    refine_physical,
    solve_chi,
)

__all__ = [
    "NoiseConfig",
    "TrialResult",
    "SweepRow",
    "SweepAggregate",
    "SweepResult",
    "ConcurrencePoint",
    "trial_rng",
    "perturb_probabilities",
    "run_trial",
    "default_mu_grid",
    "default_channel_suite",
    "run_sweep",
    "concurrence_trace",
    "export_results",
    "import_results",
]

logger = logging.getLogger(__name__)

# largest noise grid default_mu_grid builds; the default grid has 15 points
_MAX_GRID_POINTS = 10_000


# NoiseConfig's rule, one predicate per noise parameter
def _check_mu(mu: float) -> None:
    if not 0.0 <= mu <= 1.0:  # NaN fails too
        raise ValidationError(f"error amplitude {mu} outside [0, 1]")


def _check_seed(seed: int) -> int:
    # a seed sequence takes non-negative integer entropy only
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError(f"seed must be an integer >= 0, got {seed!r}")
    return seed


@dataclass(frozen=True)
class NoiseConfig:
    """Error amplitude, base seed, and trial count for one noise point."""

    mu: float
    seed: int
    trials: int = 100

    def __post_init__(self):
        _check_mu(self.mu)
        if self.trials < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials}")
        _check_seed(self.seed)


@dataclass(frozen=True)
class TrialResult:
    chi: ChiMatrix
    fidelity: float


@dataclass(frozen=True)
class SweepRow:
    mu: float
    channel: str
    trial: int
    fidelity: float
    refined: bool


@dataclass(frozen=True)
class SweepAggregate:
    mu: float
    channel: str
    mean_fidelity: float
    std_fidelity: float
    trials: int


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    aggregates: tuple[SweepAggregate, ...]


@dataclass(frozen=True)
class ConcurrencePoint:
    mu: float
    mean_concurrence: float


def trial_rng(base_seed: int, channel_index: int, mu_index: int, trial_index: int) -> np.random.Generator:
    """Independent counter-based stream per (channel, noise level, trial).

    Streams are derived by spawn key, never by jumping, so adding trials
    or reordering execution cannot change any draw.
    """
    ss = np.random.SeedSequence(
        entropy=base_seed, spawn_key=(channel_index, mu_index, trial_index)
    )
    return np.random.Generator(np.random.Philox(ss))


def _perturb_tables(exact: ProbabilityTensor, mu: float, rngs) -> np.ndarray:
    """The noisy tables of k trials as a (k, n^2) array: row i is
    `exact` + mu * zeta_i with zeta_i drawn from rngs[i], renormalized
    to unit sum within each (input, outcome-basis) group of D entries.
    The caller has checked mu and range-checks the block:
    ProbabilityTensor for one table, _check_probabilities for a block.

    mu = 0 returns copies of the exact table and draws nothing (a
    renormalization pass could disturb the last bits).
    """
    if mu == 0.0:
        return np.tile(exact.values, (len(rngs), 1))
    z = np.empty((len(rngs), exact.values.size))
    for row, rng in zip(z, rngs):
        rng.random(out=row)
    vals = exact.values + mu * z
    grouped = vals.reshape(len(rngs), -1, exact.dim)
    grouped /= grouped.sum(axis=-1, keepdims=True)
    return vals


def perturb_probabilities(
    p: ProbabilityTensor, mu: float, rng: np.random.Generator
) -> ProbabilityTensor:
    """p_tilde = p + mu * zeta, renormalized to unit sum within each
    (input, outcome-basis) group of D entries; mu must lie in [0, 1].

    mu = 0 returns the input values unchanged (no renormalization pass,
    which could disturb the last bits).
    """
    _check_mu(mu)
    return ProbabilityTensor(p.dim, _perturb_tables(p, mu, [rng])[0])


def run_trial(
    ch: KrausChannel,
    mub_set: MubSet,
    beta: BetaMatrix,
    mu: float,
    seed,
    refine: bool = False,
    exact: ProbabilityTensor | None = None,
    chi_ref: ChiMatrix | None = None,
) -> TrialResult:
    """One reconstruction under noise: perturb the exact tensor, solve,
    optionally refine, and score against the exact process matrix.

    mu must lie in [0, 1] (perturb_probabilities checks it); `seed` is
    an integer >= 0 or a ready Generator. The exact tensor and reference
    solution are recomputed when not supplied.
    """
    rng = seed if isinstance(seed, np.random.Generator) else trial_rng(_check_seed(seed), 0, 0, 0)
    if exact is None:
        exact = process_probabilities(ch, mub_set)
    if chi_ref is None:
        chi_ref = solve_chi(beta, exact)
    noisy = perturb_probabilities(exact, mu, rng)
    chi = solve_chi(beta, noisy)
    if refine:
        chi = refine_physical(chi, noisy, beta, mub_set)
    return TrialResult(chi, process_fidelity(chi_ref, chi))


def default_mu_grid(start: float = 0.01, end: float = 0.15, step: float = 0.01) -> list[float]:
    """Inclusive grid of error amplitudes with rounding-clean values, at
    most 10 000 points."""
    if not np.all(np.isfinite([start, end, step])):
        raise ValidationError(f"grid bounds and step must be finite, got {start}, {end}, {step}")
    if step <= 0:
        raise ValidationError(f"step must be positive, got {step}")
    if end < start:
        raise ValidationError(f"empty grid: end {end} < start {start}")
    count = np.floor((end - start) / step + 1e-9) + 1  # a float, so a huge count cannot overflow
    if not count <= _MAX_GRID_POINTS:
        raise ValidationError(f"grid of {count:g} points exceeds {_MAX_GRID_POINTS}")
    return [round(start + k * step, 12) for k in range(int(count))]


def default_channel_suite() -> list[KrausChannel]:
    """The two-qubit comparison set: lifted depolarizing(0.1), lifted
    amplitude damping(0.4), and CNOT."""
    return [
        parse_channel_spec("dep:0.1", 4),
        parse_channel_spec("ad:0.4", 4),
        make_cnot(),
    ]


def _noise_grid(mu_grid, base_seed: int, trials: int) -> list:
    """The noise grid (the default one for None), every point
    range-checked through NoiseConfig together with `trials`."""
    mus = list(mu_grid) if mu_grid is not None else default_mu_grid()
    if not mus:
        raise ValidationError("noise grid is empty")
    for mu in mus:
        NoiseConfig(mu, base_seed, trials)
    return mus


# trials per stacked solve: whole 100-trial points are no faster and hold ~4 MiB more at peak
_BLOCK = 16


def _trial_estimates(exact, mu, beta, base_seed, ch_idx, mu_idx, trials):
    """(noisy tables, raw estimates) of trials 0..trials-1 of one noise
    point, in trial order, _BLOCK trials at a time: a (k, n^2) block of
    tables, each drawn from its own trial_rng stream and checked as one
    array, and the (k, n, n) stack of their Hermitian estimates, solved
    by one stacked dual-frame product. Each estimate is the matrix
    solve_chi gives bit for bit (the asymmetry and forward residual are
    not computed)."""
    for start in range(0, trials, _BLOCK):
        rngs = [trial_rng(base_seed, ch_idx, mu_idx, t)
                for t in range(start, min(start + _BLOCK, trials))]
        tables = _perturb_tables(exact, mu, rngs)
        _check_probabilities(tables)
        m = _solve_tables(beta, tables)
        yield tables, 0.5 * (m + m.conj().swapaxes(-1, -2))


def run_sweep(
    channels,
    mub_set: MubSet,
    mu_grid=None,
    trials: int = 100,
    base_seed: int = 0,
    refine: bool = False,
    beta: BetaMatrix | None = None,
) -> SweepResult:
    """Full study: every channel at every error amplitude, `trials` times.

    Rows are ordered by (mu, channel, trial) and every trial draws from
    its own stream keyed by (base_seed, channel index, mu index, trial
    index), so identical inputs give identical results. The trials of
    one (mu, channel) point are drawn, range-checked, solved and scored
    in blocks of 16 as stacked arrays (refinement runs per trial); each
    row equals the `run_trial` fidelity of its stream, so rows do not
    depend on the block size. Each finished noise level is logged at
    INFO with its trials per second.
    """
    channels = list(channels)
    if not channels:
        raise ValidationError("need at least one channel")
    mus = _noise_grid(mu_grid, base_seed, trials)
    if beta is None:
        beta = build_beta(mub_set)
    d = beta.dim
    prepared = []
    for ch in channels:
        exact = process_probabilities(ch, mub_set)
        prepared.append((ch, exact, solve_chi(beta, exact)))

    rows = []
    aggregates = []
    for mu_idx, mu in enumerate(mus):
        start = time.perf_counter()
        for ch_idx, (ch, exact, chi_ref) in enumerate(prepared):
            fids = []
            blocks = _trial_estimates(exact, mu, beta, base_seed, ch_idx, mu_idx, trials)
            for tables, chis in blocks:
                if refine:
                    chis = np.stack([
                        refine_physical(ChiMatrix(d, h), ProbabilityTensor(d, p), beta,
                                        mub_set).matrix
                        for p, h in zip(tables, chis)
                    ])
                fids.append(_fidelities(chi_ref.matrix, chis))
            arr = np.concatenate(fids)
            rows.extend(SweepRow(mu, ch.name, t, f, refine) for t, f in enumerate(arr.tolist()))
            aggregates.append(
                SweepAggregate(mu, ch.name, float(arr.mean()), float(arr.std()), trials)
            )
        rate = len(prepared) * trials / (time.perf_counter() - start)
        logger.info("noise level %g done (%d channels x %d trials, %.0f trials/s)",
                    mu, len(prepared), trials, rate)
    return SweepResult(tuple(rows), tuple(aggregates))


def concurrence_trace(
    input_rho,
    ch: KrausChannel,
    mub_set: MubSet,
    mu_grid=None,
    trials: int = 100,
    base_seed: int = 0,
    beta: BetaMatrix | None = None,
) -> tuple[ConcurrencePoint, ...]:
    """Mean concurrence of the reconstructed channel output per noise level.

    Each trial applies the noisy reconstructed map to the fixed input and
    projects the result back to the nearest density matrix before
    scoring.
    """
    rho = check_density_matrix(input_rho, dim=4)
    if mub_set.dim != 4:
        raise ValidationError("concurrence trace requires the two-qubit set")
    mus = _noise_grid(mu_grid, base_seed, trials)
    if beta is None:
        beta = build_beta(mub_set)
    exact = process_probabilities(ch, mub_set)
    points = []
    for mu_idx, mu in enumerate(mus):
        vals = [
            concurrence(nearest_density_matrix(apply_chi(ChiMatrix(beta.dim, h), rho, mub_set)))
            for _, chis in _trial_estimates(exact, mu, beta, base_seed, 0, mu_idx, trials)
            for h in chis
        ]
        points.append(ConcurrencePoint(mu, float(np.mean(vals))))
    return tuple(points)


# the record lists of a results document, by key, and the field types of
# each record type in declaration order: the JSON keys and the CSV columns
_RECORDS = {"rows": SweepRow, "aggregates": SweepAggregate}
_FIELDS = {cls: get_type_hints(cls) for cls in _RECORDS.values()}


def export_results(result: SweepResult, fmt: str, path, aggregates_path=None) -> None:
    """Write rows (and optionally aggregates) as CSV, or both as one JSON
    document. Output bytes depend only on the result contents."""
    if fmt == "csv":
        _write_csv(path, SweepRow, [f"{r.mu!r},{r.channel},{r.trial},{r.fidelity!r},"
                                    f"{'true' if r.refined else 'false'}\n" for r in result.rows])
        if aggregates_path is not None:
            _write_csv(aggregates_path, SweepAggregate, [
                f"{a.mu!r},{a.channel},{a.mean_fidelity!r},{a.std_fidelity!r},{a.trials}\n"
                for a in result.aggregates])
    elif fmt == "json":
        obj = {key: [{name: getattr(rec, name) for name in _FIELDS[cls]}
                     for rec in getattr(result, key)] for key, cls in _RECORDS.items()}
        write_json_object(path, obj, "results")
    else:
        raise ValidationError(f"unknown export format {fmt!r}; use csv or json")


def _write_csv(path, cls, lines: list) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(_FIELDS[cls]) + "\n" + "".join(lines))
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def import_results(path) -> SweepResult:
    """Read back a JSON export. Every record must be an object holding
    each field of its record type with the field's JSON type."""
    obj = read_json_object(path, "results")
    try:
        return SweepResult(**{key: tuple(_record_from_json(cls, rec) for rec in obj[key])
                              for key, cls in _RECORDS.items()})
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed results file {path}: {exc}") from exc


def _record_from_json(cls, rec):
    if not isinstance(rec, dict):
        raise ValidationError(f"{cls.__name__} record {rec!r} is not a JSON object")
    return cls(**{name: json_value(rec, name, kind) for name, kind in _FIELDS[cls].items()})

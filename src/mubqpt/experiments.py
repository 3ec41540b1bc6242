"""Noise-robustness study for the reconstruction pipeline.

Measured probabilities are corrupted by a positive additive error,
p_tilde = p + mu * zeta with zeta uniform on [0, 1), then renormalized
within each (input, outcome-basis) group. Note the perturbation is a
bias, not zero-mean noise; it is applied verbatim, and
expected_raw_fidelity gives the exact mean of a raw trial's fidelity
under it. Each trial re-solves the process matrix from the corrupted
tensor and scores it against the exact one. Sweeps walk a grid of
error amplitudes with a fixed number of trials per point and fully
deterministic per-trial random streams, so a sweep is reproducible bit
for bit.

Trial t of channel c at noise level m draws from the Philox stream of
SeedSequence(base_seed, spawn_key=(c, m, t)), the stream trial_rng
returns. A sweep computes the Philox keys of the streams of consecutive
noise levels, up to 2**16 keys, in one array pass (_stream_keys runs
numpy's SeedSequence mixing, after O'Neill's randutils seed_seq_fe, with
the index words as uint64 arrays) and draws each trial's noise by
resetting one reused Philox to the trial's key. numpy keeps that mixing
stable (NEP 19); a test pins the keys to SeedSequence's, so a numpy that
changed it would fail loudly. The trials of one point run in blocks of
16: the noise is drawn into one array and range-checked once, the
tables are solved by stacked dual-frame products and the fidelities are
scored by one stacked product. A refined sweep projects block b of
every channel at one noise level as one stack of Choi matrices, each
trial running and stopping on its own. Each per-trial function
(perturb_probabilities, solve_chi, refine_physical, process_fidelity) is
the one-trial case of its block kernel, so rows do not depend on the
block size.
"""
from __future__ import annotations

import logging
import math
import numbers
import sys
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
    _refine_stack,
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
    "expected_raw_fidelity",
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


def _is_real(x) -> bool:
    # a real number, bools excluded; the mu rule and the grid bounds share it
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


# NoiseConfig's rule, one predicate per noise parameter
def _check_mu(mu: float) -> float:
    # a real number, returned as the Python float the results carry
    if not _is_real(mu):
        raise ValidationError(f"error amplitude must be a real number, got {mu!r}")
    if not 0.0 <= mu <= 1.0:  # NaN fails too
        raise ValidationError(f"error amplitude {mu} outside [0, 1]")
    return float(mu)


def _check_seed(seed: int) -> int:
    # a seed sequence takes non-negative integer entropy only
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError(f"seed must be an integer >= 0, got {seed!r}")
    return seed


def _check_trials(trials: int) -> None:
    if isinstance(trials, bool) or not isinstance(trials, (int, np.integer)) or trials < 1:
        raise ValidationError(f"trials must be an integer >= 1, got {trials!r}")


@dataclass(frozen=True)
class NoiseConfig:
    """Error amplitude, base seed, and trial count for one noise point."""

    mu: float
    seed: int
    trials: int = 100

    def __post_init__(self):
        _check_mu(self.mu)
        _check_trials(self.trials)
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


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx, after
# O'Neill's randutils seed_seq_fe): a pool of four 32-bit words, the
# hashmix constant sequences and the mix multipliers
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _stream_keys(base_seed: int, ch, level, trial) -> np.ndarray:
    """The Philox keys of the trial_rng streams of (ch, level, trial),
    broadcast over integer index arrays below 2**32: a (..., 2) uint64
    array whose entry for (c, m, t) equals
    SeedSequence(base_seed, spawn_key=(c, m, t)).generate_state(2, np.uint64).

    Runs SeedSequence's mixing on 32-bit words: the base seed's words on
    Python ints, the index words on uint64 arrays that keep a trailing
    axis, so no operand is a numpy scalar. Every product is of two words
    below 2**32 and every difference is taken as a sum plus 2**32, so no
    uint64 operation wraps. The base seed is split into 32-bit words as
    numpy splits it; up to four words are zero-padded into the pool, and
    extra words are mixed in after it.
    """
    seed = int(base_seed)
    entropy = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _MASK32)
    entropy += [0] * (_POOL - len(entropy))
    entropy += [np.asarray(i, dtype=np.uint64)[..., None] for i in (ch, level, trial)]
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        r = ((_MIX_L * x & _MASK32) + (_MASK32 + 1) - (_MIX_R * y & _MASK32)) & _MASK32
        return r ^ (r >> 16)

    pool = [hashmix(w) for w in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    state = []
    for word in pool:  # generate_state: four 32-bit words, little-endian pairs
        word = word ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        word = word * hash_const & _MASK32
        state.append(word ^ (word >> 16))
    return np.concatenate([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=-1)


def _stream_filler():
    """fill(keys, out): row i of out gets the uniforms of the stream whose
    Philox key is keys[i], the draws of the trial_rng stream with that
    key. Each row resets one reused Philox to {counter 0, the key, an
    empty buffer}, the state a fresh trial_rng starts from."""
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    inner = {"counter": [0] * 4, "key": None}
    state = {"bit_generator": "Philox", "state": inner, "buffer": [0] * 4,
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def fill(keys, out):
        for key, row in zip(keys.tolist(), out):
            inner["key"] = key
            bitgen.state = state
            gen.random(out=row)

    return fill


def _perturb_tables(exact: ProbabilityTensor, mu: float, k: int, draw) -> np.ndarray:
    """The noisy tables of k trials as a (k, n^2) array: draw(z) fills the
    (k, n^2) array z with uniforms zeta, row i from trial i's stream, and
    row i is `exact` + mu * zeta_i renormalized to unit sum within each
    (input, outcome-basis) group of D entries. The caller has checked mu
    and range-checks the block: ProbabilityTensor for one table,
    _check_probabilities for a block.

    mu = 0 returns copies of the exact table and calls no draw (a
    renormalization pass could disturb the last bits).
    """
    if mu == 0.0:
        return np.tile(exact.values, (k, 1))
    z = np.empty((k, exact.values.size))
    draw(z)
    vals = exact.values + mu * z
    grouped = vals.reshape(k, -1, exact.dim)
    grouped /= grouped.sum(axis=-1, keepdims=True)
    return vals


def perturb_probabilities(
    p: ProbabilityTensor, mu: float, rng: np.random.Generator
) -> ProbabilityTensor:
    """p_tilde = p + mu * zeta, renormalized to unit sum within each
    (input, outcome-basis) group of D entries; mu must be a real number
    in [0, 1].

    mu = 0 returns the input values unchanged (no renormalization pass,
    which could disturb the last bits).
    """
    mu = _check_mu(mu)
    return ProbabilityTensor(p.dim, _perturb_tables(p, mu, 1, lambda z: rng.random(out=z))[0])


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


def _irwin_hall_mean(d: int, mu: float) -> float:
    """a_D(mu) = E[1/(1 + mu S)] for S the sum of D independent uniforms on
    [0, 1] (the Irwin-Hall law), by Gauss-Legendre quadrature with 20
    nodes on each unit interval, where the density is a polynomial."""
    nodes, weights = np.polynomial.legendre.leggauss(20)
    s = (np.arange(d)[:, None] + (nodes + 1.0) / 2.0).ravel()
    k = np.arange(d + 1)
    signs = np.array([(-1) ** i * math.comb(d, i) for i in k], dtype=float)
    density = (signs * np.clip(s[:, None] - k, 0.0, None) ** (d - 1)).sum(axis=1)
    density /= math.factorial(d - 1)
    return float(np.tile(weights / 2.0, d) @ (density / (1.0 + mu * s)))


def expected_raw_fidelity(ch: KrausChannel, mub_set: MubSet, mu: float,
                          beta: BetaMatrix | None = None) -> float:
    """The exact mean of the raw (unrefined) trial fidelity of `ch` at
    noise mu, E[F] = a + (1 - a) F_dep with a = a_D(mu) = E[1/(1 + mu S)].

    In a group of D entries the noisy table is (p + mu zeta)/(1 + mu S),
    S the sum of the group's zeta; the entries are exchangeable, so its
    mean is a p + (1 - a)/D. The raw score is linear in the table, so its
    mean is the score of that mean table: a for the exact table, F_dep
    for the uniform one, the table of the completely depolarizing map.
    S has the Irwin-Hall(D) law. mu must be a real number in [0, 1].
    """
    mu = _check_mu(mu)
    if beta is None:
        beta = build_beta(mub_set)
    exact = process_probabilities(ch, mub_set)
    uniform = ProbabilityTensor(exact.dim, np.full(exact.values.size, 1.0 / exact.dim))
    f_dep = process_fidelity(solve_chi(beta, exact), solve_chi(beta, uniform))
    a = _irwin_hall_mean(exact.dim, mu)
    return a + (1.0 - a) * f_dep


def default_mu_grid(start: float = 0.01, end: float = 0.15, step: float = 0.01) -> list[float]:
    """Inclusive grid of error amplitudes with rounding-clean values, at
    most 10 000 points; the bounds and step must be finite real numbers."""
    bounds = (start, end, step)
    if not all(_is_real(x) and abs(x) <= sys.float_info.max for x in bounds):  # NaN fails too
        raise ValidationError(
            f"grid bounds and step must be finite, got {start!r}, {end!r}, {step!r}"
        )
    start, end, step = map(float, bounds)
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


def _noise_grid(mu_grid, base_seed: int, trials: int) -> tuple[list[float], int]:
    """The noise grid (the default one for None) as Python floats and the
    trial count as a Python int, every point checked through NoiseConfig
    together with `base_seed` and `trials`."""
    mus = list(mu_grid) if mu_grid is not None else default_mu_grid()
    if not mus:
        raise ValidationError("noise grid is empty")
    for mu in mus:
        NoiseConfig(mu, base_seed, trials)
    return [float(mu) for mu in mus], int(trials)


# trials per stacked solve: whole 100-trial points are no faster and hold ~4 MiB more at peak
_BLOCK = 16


def _trial_estimates(exact, mu, beta, keys, fill):
    """(noisy tables, raw estimates) of the trials of one noise point, in
    the order of their (trials, 2) Philox keys, _BLOCK trials at a time:
    a (k, n^2) block of tables, each drawn by fill (a _stream_filler) from
    its own stream and checked as one array, and the (k, n, n) stack of
    their Hermitian estimates, solved by one stacked dual-frame product.
    Each estimate is the matrix solve_chi gives bit for bit (the
    asymmetry and forward residual are not computed)."""
    for start in range(0, len(keys), _BLOCK):
        block = keys[start:start + _BLOCK]
        tables = _perturb_tables(exact, mu, len(block), lambda z: fill(block, z))
        _check_probabilities(tables)
        m = _solve_tables(beta, tables)
        yield tables, 0.5 * (m + m.conj().swapaxes(-1, -2))


# stream keys per _stream_keys call: whole noise levels, at least one; ~1 MiB of keys
_KEY_CHUNK = 2**16


def _level_keys(base_seed: int, levels: int, channels: int, trials: int):
    """The (channels, trials, 2) Philox keys of each noise level in turn,
    computed for as many consecutive levels per _stream_keys call as fit
    in _KEY_CHUNK keys (one level when a level alone holds more)."""
    step = max(1, _KEY_CHUNK // (channels * trials))
    for first in range(0, levels, step):
        yield from _stream_keys(base_seed, np.arange(channels)[:, None],
                                np.arange(first, min(first + step, levels))[:, None, None],
                                np.arange(trials))


def _refined_fidelities(beta, streams, refs):
    """The refined fidelities of one noise level, one array per channel:
    block b of every channel's _trial_estimates stream is refined as one
    stack and scored against that channel's reference. Also returns the
    projection's converged mask and rounds over all the level's trials."""
    fids = [[] for _ in refs]
    converged, rounds = [], []
    for blocks in zip(*streams):
        refined, c, n = _refine_stack(beta, np.concatenate([h for _, h in blocks]))
        # every channel's block b has one size
        for f, ref, h in zip(fids, refs, np.split(refined, len(blocks))):
            f.append(_fidelities(ref, h))
        converged.append(c)
        rounds.append(n)
    return [np.concatenate(f) for f in fids], np.concatenate(converged), np.concatenate(rounds)


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
    index), the trial_rng stream, so identical inputs give identical
    results. The Philox keys are computed in array passes over
    consecutive noise levels, up to 2**16 keys each, with numpy's
    SeedSequence algorithm, which a test pins to SeedSequence itself, and
    each trial's noise is drawn by resetting one reused Philox to its
    key. The trials of one (mu, channel) point are drawn, range-checked,
    solved and scored in blocks of 16 as stacked arrays. With refine,
    block b of every channel at one noise level is projected onto the
    CPTP maps as one stack, in which each trial runs and stops on its
    own. Each row equals the `run_trial` fidelity of its stream, so rows
    do not depend on the block size.
    Rows and aggregates carry mu as a Python float. Each finished noise
    level is logged at INFO with its trials per second and, with refine,
    the mean and largest projection rounds of its trials and how many of
    them hit the round cap. A projection round is one eigendecomposition
    of a trial's Choi matrix.
    """
    channels = list(channels)
    if not channels:
        raise ValidationError("need at least one channel")
    mus, trials = _noise_grid(mu_grid, base_seed, trials)
    if beta is None:
        beta = build_beta(mub_set)
    tables = [process_probabilities(ch, mub_set) for ch in channels]
    refs = [solve_chi(beta, exact).matrix for exact in tables]
    fill = _stream_filler()

    rows = []
    aggregates = []
    for mu, keys in zip(mus, _level_keys(base_seed, len(mus), len(channels), trials)):
        start = time.perf_counter()
        streams = [_trial_estimates(exact, mu, beta, ch_keys, fill)
                   for exact, ch_keys in zip(tables, keys)]
        if refine:
            fids, converged, rounds = _refined_fidelities(beta, streams, refs)
        else:  # one channel's blocks at a time
            fids = [np.concatenate([_fidelities(ref, h) for _, h in stream])
                    for stream, ref in zip(streams, refs)]
        for ch, arr in zip(channels, fids):
            rows.extend(SweepRow(mu, ch.name, t, x, refine) for t, x in enumerate(arr.tolist()))
            aggregates.append(
                SweepAggregate(mu, ch.name, float(arr.mean()), float(arr.std()), trials)
            )
        rate = len(channels) * trials / (time.perf_counter() - start)
        if refine:
            logger.info("noise level %g done (%d channels x %d trials, %.0f trials/s; "
                        "projection rounds (one eigendecomposition each) mean %.1f, max %d, "
                        "%d at the round cap)",
                        mu, len(channels), trials, rate, rounds.mean(), rounds.max(),
                        np.count_nonzero(~converged))
        else:
            logger.info("noise level %g done (%d channels x %d trials, %.0f trials/s)",
                        mu, len(channels), trials, rate)
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
    mus, trials = _noise_grid(mu_grid, base_seed, trials)
    if beta is None:
        beta = build_beta(mub_set)
    exact = process_probabilities(ch, mub_set)
    fill = _stream_filler()
    points = []
    for mu, keys in zip(mus, _level_keys(base_seed, len(mus), 1, trials)):
        vals = [
            concurrence(nearest_density_matrix(apply_chi(ChiMatrix(beta.dim, h), rho, mub_set)))
            for _, chis in _trial_estimates(exact, mu, beta, keys[0], fill)
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

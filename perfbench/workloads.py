"""The benchmark's workloads.

Each workload makes its inputs from the benchmark seed, times one kind
of operation through the package's public functions (the CLI workload
through child interpreters), checks every output it produced against an
oracle that shares no code with the solve path, and can re-drive the
operations it timed under the span tracer. `README.md` in this
directory says why each workload exists and which layer metric should
move which end-to-end metric.
"""
from __future__ import annotations

import contextlib
import io
import json
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import harness

m = harness.import_package()
import mubqpt.cli  # noqa: E402  (after the checkout's src/ is on the path)

REFERENCE = harness.BENCH_DIR / "reference" / "sweep_raw_d4.json"
RAW_TOL = 1e-9  # unrefined fidelities and chi entries against the oracle
FID_MAX = 1.0 + 1e-9  # refined fidelities lie in [0, FID_MAX]
PSD_TOL = 1e-9  # lowest eigenvalue >= -PSD_TOL * largest |eigenvalue|
ROUNDTRIP_TOL = 1e-12  # save_chi/load_chi
KRAUS_TOL = 1e-8  # extracted Kraus map against apply_chi; extract_kraus clamps at 1e-8

CLI_SETUP = (
    "import sys, mubqpt as m; d = int(sys.argv[1]); s = m.generate_mub(d); "
    "b = m.build_beta(s); ch = m.parse_channel_spec(sys.argv[2], d); "
    "m.solve_chi(b, m.process_probabilities(ch, s))"
)


# --- inputs and oracle ------------------------------------------------------


def random_channel(dim: int, rank: int, rng: np.random.Generator):
    """Seeded random CPTP map with `rank` Kraus operators.

    The Stinespring isometry V (dim*rank x dim) is the Q factor of a
    complex Gaussian matrix; its dim x dim blocks are the Kraus
    operators, so sum_k A_k^dag A_k = V^dag V = I.
    """
    g = rng.standard_normal((dim * rank, dim)) + 1j * rng.standard_normal((dim * rank, dim))
    v, _ = np.linalg.qr(g)
    ops = tuple(v[k * dim:(k + 1) * dim] for k in range(rank))
    return m.KrausChannel(dim, ops, f"random-r{rank}", {})


class DenseOracle:
    """Reference solve that shares no code with the package's solve path:
    beta assembled from its definition Tr(P_a P_b P_c P_d) and inverted
    by LAPACK's least-squares solver (gelsd), giving the minimum-norm chi."""

    def __init__(self, mub_set):
        v = mub_set.vectors()
        n = len(v)
        g = v.conj() @ v.T
        beta = np.einsum("ab,bc,cd,da->bdac", g, g, g, g).reshape(n * n, n * n)
        self.n = n
        self.kappa = np.linalg.lstsq(beta, np.eye(n * n), rcond=1e-10)[0]

    def chis(self, tables) -> np.ndarray:
        """Hermitian chi for each probability table (rows of `tables`)."""
        x = (self.kappa @ np.asarray(tables, dtype=float).T).T.reshape(-1, self.n, self.n)
        return 0.5 * (x + x.conj().transpose(0, 2, 1))

    @staticmethod
    def fidelities(ref: np.ndarray, chis: np.ndarray) -> np.ndarray:
        num = np.einsum("ji,tij->t", ref, chis).real
        return num / np.einsum("ji,ij->", ref, ref).real


def is_psd(chi: np.ndarray) -> bool:
    w = np.linalg.eigvalsh(chi)
    return bool(np.all(np.isfinite(w)) and w[0] >= -PSD_TOL * max(1.0, np.abs(w).max()))


def read_matrix(path) -> np.ndarray:
    """Parse a matrix-json file ({"rows", "cols", "data": [[re, im], ...]})."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    data = np.asarray(obj["data"], dtype=float)
    return (data[:, 0] + 1j * data[:, 1]).reshape(obj["rows"], obj["cols"])


def quiet_main(argv) -> tuple[int, str]:
    """mubqpt.cli.main in this process, with its standard error captured."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = mubqpt.cli.main(argv)
    return code, err.getvalue()


# --- shared shape -----------------------------------------------------------


@dataclass
class Redrive:
    """What a traced re-drive found besides its spans."""

    failed: int = 0
    traced_s: float = 0.0
    untraced_s: float | None = None  # None: the timed pass's own wall time
    not_converged: int = 0
    tp_max_violation: float = 0.0
    gains: list = field(default_factory=list)
    export_bytes: int = 0


class Workload:
    """One workload: `warm` lets lazy set-up finish, `setup` is the timed
    set-up unit, `op(k)` returns (seconds, record) for the k-th timed
    operation, `check` returns (attempted extra, failed, info) over all
    records, and `redrive` repeats the records under a Tracer."""

    trials_per_op = 1
    children = False  # peak memory of child processes, not of this one

    def __init__(self, size, seed: int, tmp: Path):
        self.size, self.seed, self.tmp = size, seed, tmp
        self.rng = np.random.default_rng(seed)

    def warm(self) -> None:
        self.setup()

    def cli_argv(self) -> list[str]:
        raise NotImplementedError

    def probe(self, tr: harness.Tracer, rd: Redrive) -> None:
        """Call once each layer that the re-drive did not reach, on the
        workload's first noisy table, so every per-layer metric holds a
        measured per-call cost. Spans go under a `probe` span."""
        seen = tr.names()
        noisy, raw, ref = self.sample
        with tr.span("probe", -1):
            if "tomography.refine_physical" not in seen:
                phys = tr.call("tomography.refine_physical", m.refine_physical,
                               raw, noisy, self.beta, self.mub_set)
                rd.not_converged += int(not phys.converged)
                rd.tp_max_violation = max(rd.tp_max_violation, phys.tp_max_violation)
                rd.gains.append(m.process_fidelity(ref, phys) - m.process_fidelity(ref, raw))
                rd.failed += int(not is_psd(phys.matrix))
                self.sample_phys = phys
            phys = self.sample_phys
            if "tomography.extract_kraus" not in seen:
                kraus = tr.call("tomography.extract_kraus", m.extract_kraus, phys, self.mub_set)
                tr.call("channels.channel_checks", m.channel_checks, kraus)
            if "tomography.save_chi" not in seen:
                path = self.tmp / "probe_chi.json"
                tr.call("tomography.save_chi", m.save_chi, phys, path)
                back = tr.call("tomography.load_chi", m.load_chi, path)
                rd.failed += int(np.abs(back.matrix - phys.matrix).max() > ROUNDTRIP_TOL)
            if "experiments.export_results" not in seen:
                rows = self.tmp / "probe_rows.csv"
                tr.call("experiments.export_results", m.export_results,
                        self.sample_result, "csv", rows)
                rd.export_bytes += rows.stat().st_size
            if "cli.main" not in seen:
                code, _ = tr.call("cli.main", quiet_main, self.cli_argv())
                rd.failed += int(code != 0)
        env = harness.child_env()
        for _ in range(5):
            with tr.span("cli.import", -1):
                proc = subprocess.run([sys.executable, "-c", "import mubqpt"], env=env,
                                      capture_output=True, timeout=120)
            rd.failed += int(proc.returncode != 0)


# --- sweeps -----------------------------------------------------------------


@dataclass(frozen=True)
class SweepSize:
    dim: int
    channels: tuple[str, ...]
    mu_start: float
    mu_end: float
    mu_step: float
    trials: int
    refine: bool


@dataclass
class SweepRecord:
    base_seed: int
    fidelities: np.ndarray


class Sweep(Workload):
    """An in-process `mubqpt sweep` study: run_sweep with the package's
    default (serial) threading, then export_results to rows and
    aggregates CSV. The basis set and beta come from the set-up, which
    setup_s times; run_sweep still prepares the exact tables and the
    reference chi of every channel itself."""

    def __init__(self, size: SweepSize, seed: int, tmp: Path):
        super().__init__(size, seed, tmp)
        self.grid = m.default_mu_grid(size.mu_start, size.mu_end, size.mu_step)
        self.trials_per_op = len(self.grid) * len(size.channels) * size.trials
        self.rows_path = tmp / "rows.csv"
        self.agg_path = tmp / "aggregates.csv"
        self.first_csv = None

    def setup(self) -> None:
        s = self.size
        self.mub_set = m.generate_mub(s.dim)
        self.beta = m.build_beta(self.mub_set)
        self.channels = [m.parse_channel_spec(c, s.dim) for c in s.channels]
        self.exact = [m.process_probabilities(ch, self.mub_set) for ch in self.channels]
        self.refs = [m.solve_chi(self.beta, e) for e in self.exact]

    def warm(self) -> None:
        self.setup()
        m.run_sweep(self.channels, self.mub_set, self.grid[:1], trials=1,
                    refine=self.size.refine, beta=self.beta)

    def op(self, k: int):
        s = self.size
        base_seed = int(self.rng.integers(2**31))
        t0 = time.perf_counter()
        result = m.run_sweep(self.channels, self.mub_set, self.grid, trials=s.trials,
                             base_seed=base_seed, refine=s.refine, beta=self.beta)
        m.export_results(result, "csv", self.rows_path, self.agg_path)
        dt = time.perf_counter() - t0
        if k == 0:
            self.first_seed, self.first_csv = base_seed, self.rows_path.read_bytes()
        return dt, SweepRecord(base_seed, np.array([r.fidelity for r in result.rows]))

    def fidelities(self, records) -> np.ndarray:
        return np.concatenate([r.fidelities for r in records])

    def _noisy_tables(self, base_seed: int):
        """The noisy tables of one sweep, grouped per (mu, channel) in row order."""
        for mi, mu in enumerate(self.grid):
            for ci, exact in enumerate(self.exact):
                yield ci, np.array([
                    m.perturb_probabilities(exact, mu, m.trial_rng(base_seed, ci, mi, t)).values
                    for t in range(self.size.trials)
                ])

    def oracle_raw(self, oracle: DenseOracle, base_seed: int) -> np.ndarray:
        refs = [oracle.chis([e.values])[0] for e in self.exact]
        return np.concatenate([
            oracle.fidelities(refs[ci], oracle.chis(tables))
            for ci, tables in self._noisy_tables(base_seed)
        ])

    def check(self, records):
        oracle = DenseOracle(self.mub_set)
        failed, gains = 0, []
        for rec in records:
            raw = self.oracle_raw(oracle, rec.base_seed)
            f = rec.fidelities
            if self.size.refine:
                failed += int(np.count_nonzero(~(np.isfinite(f) & (f >= 0) & (f <= FID_MAX))))
                gains.append(f - raw)
            else:
                failed += int(np.count_nonzero(~(np.abs(f - raw) <= RAW_TOL)))
        if self.size.refine and records:
            # run_sweep returns fidelities only: redo the first trial of each
            # channel to check its chi is PSD and its fidelity is the row's
            rec = records[0]
            for ci, ch in enumerate(self.channels):
                trial = m.run_trial(ch, self.mub_set, self.beta, self.grid[0],
                                    m.trial_rng(rec.base_seed, ci, 0, 0), True,
                                    exact=self.exact[ci], chi_ref=self.refs[ci])
                row = rec.fidelities[ci * self.size.trials]
                failed += int(not is_psd(trial.chi.matrix) or trial.fidelity != row)
        ref_attempted, ref_failed = self.check_reference()
        info = {"reference_rows": ref_attempted}
        if gains:
            info["refine_gain"] = float(np.concatenate(gains).mean())
        return ref_attempted, failed + ref_failed, info

    def check_reference(self) -> tuple[int, int]:
        """Unrefined rows of the stored sweep must match within RAW_TOL."""
        with open(REFERENCE, encoding="utf-8") as fh:
            ref = json.load(fh)
        if ref["dim"] != self.size.dim or tuple(ref["channels"]) != self.size.channels:
            return 0, 0
        channels = [m.parse_channel_spec(c, ref["dim"]) for c in ref["channels"]]
        result = m.run_sweep(channels, self.mub_set, ref["mu_grid"], trials=ref["trials"],
                             base_seed=ref["base_seed"])
        got = np.array([r.fidelity for r in result.rows])
        want = np.array(ref["fidelities"])
        if got.shape != want.shape:
            return len(want), len(want)
        return len(want), int(np.count_nonzero(~(np.abs(got - want) <= RAW_TOL)))

    def redrive(self, tr: harness.Tracer, records) -> Redrive:
        """run_sweep's serial loop, call for call, under spans."""
        s = self.size
        rd = Redrive()
        with tr.span("setup", -1):
            mub_set = tr.call("mub.generate_mub", m.generate_mub, s.dim)
            beta = tr.call("tomography.build_beta", m.build_beta, mub_set)
            channels = [m.parse_channel_spec(c, s.dim) for c in s.channels]
        for k, rec in enumerate(records):
            with tr.span("op", k):
                prepared = []
                for ch in channels:
                    exact = tr.call("tomography.process_probabilities",
                                    m.process_probabilities, ch, mub_set)
                    prepared.append((ch, exact, tr.call("tomography.solve_chi",
                                                        m.solve_chi, beta, exact)))
                rows, aggregates, refined = [], [], []
                for mi, mu in enumerate(self.grid):
                    for ci, (ch, exact, chi_ref) in enumerate(prepared):
                        fids = []
                        for t in range(s.trials):
                            rng = tr.call("experiments.trial_rng", m.trial_rng,
                                          rec.base_seed, ci, mi, t)
                            noisy = tr.call("experiments.perturb_probabilities",
                                            m.perturb_probabilities, exact, mu, rng)
                            chi = tr.call("tomography.solve_chi", m.solve_chi, beta, noisy)
                            if k == 0 and not rows and not fids:
                                self.sample = (noisy, chi, chi_ref)
                            if s.refine:
                                raw = chi
                                chi = tr.call("tomography.refine_physical", m.refine_physical,
                                              raw, noisy, beta, mub_set)
                                refined.append((chi_ref, raw, chi))
                            fids.append(tr.call("tomography.process_fidelity",
                                                m.process_fidelity, chi_ref, chi))
                        rows.extend(m.SweepRow(mu, ch.name, t, f, s.refine)
                                    for t, f in enumerate(fids))
                        arr = np.asarray(fids)
                        aggregates.append(m.SweepAggregate(mu, ch.name, float(arr.mean()),
                                                           float(arr.std()), s.trials))
                result = m.SweepResult(tuple(rows), tuple(aggregates))
                tr.call("experiments.export_results", m.export_results, result, "csv",
                        self.rows_path, self.agg_path)
            rd.export_bytes += self.rows_path.stat().st_size + self.agg_path.stat().st_size
            got = np.array([r.fidelity for r in rows])
            rd.failed += int(np.count_nonzero(got != rec.fidelities))
            for chi_ref, raw, chi in refined:
                rd.not_converged += int(not chi.converged)
                rd.tp_max_violation = max(rd.tp_max_violation, chi.tp_max_violation)
                rd.failed += int(not is_psd(chi.matrix))
                rd.gains.append(m.process_fidelity(chi_ref, chi) - m.process_fidelity(chi_ref, raw))
            if k == 0:
                self.sample_result = result
                if refined:
                    self.sample_phys = refined[0][2]
        rd.traced_s = sum(tr.durations("op"))
        return rd

    def cli_argv(self) -> list[str]:
        s = self.size
        argv = ["sweep", "--dim", str(s.dim), "--channels", ",".join(s.channels),
                "--mu-start", repr(s.mu_start), "--mu-end", repr(s.mu_end),
                "--mu-step", repr(s.mu_step), "--trials", str(s.trials),
                "--seed", str(self.first_seed), "--out", str(self.tmp / "main_rows.csv")]
        return argv + (["--refine"] if s.refine else [])

    def probe(self, tr, rd) -> None:
        super().probe(tr, rd)
        # the CLI form of the first timed sweep writes the same bytes
        rd.failed += int((self.tmp / "main_rows.csv").read_bytes() != self.first_csv)


# --- one-shot reconstruction ------------------------------------------------


@dataclass(frozen=True)
class OneshotSize:
    dim: int
    kraus_rank: int
    mu: float


@dataclass
class OneshotRecord:
    k: int
    noisy: np.ndarray
    raw: np.ndarray
    chi: np.ndarray
    back: np.ndarray
    kraus: object
    trace_residual: float
    fidelity: float
    raw_fidelity: float


class Oneshot(Workload):
    """Fresh reconstructions of seeded random channels, one per
    operation: perturb, solve_chi, refine_physical, extract_kraus,
    channel_checks, process_fidelity, save_chi and load_chi."""

    def channel(self, k: int):
        return random_channel(self.size.dim, self.size.kraus_rank,
                              np.random.default_rng([self.seed, 0, k]))

    def setup(self) -> None:
        self.mub_set = m.generate_mub(self.size.dim)
        self.beta = m.build_beta(self.mub_set)
        exact = m.process_probabilities(self.channel(0), self.mub_set)
        m.solve_chi(self.beta, exact)

    def warm(self) -> None:
        self.setup()
        self.op(0)

    def _prepare(self, k: int):
        exact = m.process_probabilities(self.channel(k), self.mub_set)
        return exact, m.solve_chi(self.beta, exact)

    def op(self, k: int):
        exact, ref = self._prepare(k)
        path = self.tmp / "chi.json"
        t0 = time.perf_counter()
        noisy = m.perturb_probabilities(exact, self.size.mu, m.trial_rng(self.seed, 0, 0, k))
        raw = m.solve_chi(self.beta, noisy)
        chi = m.refine_physical(raw, noisy, self.beta, self.mub_set)
        kraus = m.extract_kraus(chi, self.mub_set)
        checks = m.channel_checks(kraus)
        fid = m.process_fidelity(ref, chi)
        m.save_chi(chi, path)
        back = m.load_chi(path)
        dt = time.perf_counter() - t0
        return dt, OneshotRecord(k, noisy.values, raw.matrix, chi.matrix, back.matrix,
                                 kraus, checks.trace_residual, fid,
                                 m.process_fidelity(ref, raw))

    def fidelities(self, records) -> np.ndarray:
        return np.array([r.fidelity for r in records])

    def check(self, records):
        failed = 0
        state_rng = np.random.default_rng([self.seed, 1])
        for rec in records:
            rho = m.random_density_matrix(self.size.dim, state_rng)
            via_kraus = m.apply_channel(rec.kraus, rho)
            via_chi = m.apply_chi(m.ChiMatrix(self.size.dim, rec.chi), rho, self.mub_set)
            ok = (
                np.all(np.isfinite(rec.chi))
                and is_psd(rec.chi)
                and 0.0 <= rec.fidelity <= FID_MAX
                and np.abs(rec.back - rec.chi).max() <= ROUNDTRIP_TOL
                and np.abs(via_kraus - via_chi).max() <= KRAUS_TOL
                and np.isfinite(rec.trace_residual)
            )
            failed += int(not ok)
        if records:
            oracle = DenseOracle(self.mub_set)
            want = oracle.chis([r.noisy for r in records])
            for rec, w in zip(records, want):
                failed += int(np.abs(rec.raw - w).max() > RAW_TOL)
        # the generated channels themselves must be trace preserving
        bad_inputs = sum(not m.channel_checks(self.channel(r.k)).trace_preserving for r in records)
        info = {"refine_gain": float(np.mean([r.fidelity - r.raw_fidelity for r in records]))}
        return 0, failed + bad_inputs, info

    def redrive(self, tr: harness.Tracer, records) -> Redrive:
        rd = Redrive()
        path = self.tmp / "chi_traced.json"
        with tr.span("setup", -1):
            mub_set = tr.call("mub.generate_mub", m.generate_mub, self.size.dim)
            beta = tr.call("tomography.build_beta", m.build_beta, mub_set)
        rows = []
        for rec in records:
            k = rec.k
            with tr.span("prepare", k):
                exact = tr.call("tomography.process_probabilities", m.process_probabilities,
                                self.channel(k), mub_set)
                ref = tr.call("tomography.solve_chi", m.solve_chi, beta, exact)
            with tr.span("op", k):
                rng = tr.call("experiments.trial_rng", m.trial_rng, self.seed, 0, 0, k)
                noisy = tr.call("experiments.perturb_probabilities", m.perturb_probabilities,
                                exact, self.size.mu, rng)
                raw = tr.call("tomography.solve_chi", m.solve_chi, beta, noisy)
                chi = tr.call("tomography.refine_physical", m.refine_physical,
                              raw, noisy, beta, mub_set)
                kraus = tr.call("tomography.extract_kraus", m.extract_kraus, chi, mub_set)
                tr.call("channels.channel_checks", m.channel_checks, kraus)
                fid = tr.call("tomography.process_fidelity", m.process_fidelity, ref, chi)
                tr.call("tomography.save_chi", m.save_chi, chi, path)
                back = tr.call("tomography.load_chi", m.load_chi, path)
            if k == records[0].k:
                self.sample, self.sample_phys = (noisy, raw, ref), chi
            rd.failed += int(fid != rec.fidelity or not is_psd(chi.matrix)
                             or np.abs(back.matrix - chi.matrix).max() > ROUNDTRIP_TOL)
            rd.not_converged += int(not chi.converged)
            rd.tp_max_violation = max(rd.tp_max_violation, chi.tp_max_violation)
            rd.gains.append(fid - rec.raw_fidelity)
            rows.append(m.SweepRow(self.size.mu, "random", k, fid, True))
        rd.traced_s = sum(tr.durations("op"))
        self.sample_result = m.SweepResult(tuple(rows), ())
        return rd

    def cli_argv(self) -> list[str]:
        # no CLI command reconstructs a random channel; `mub gen` is its first step
        return ["mub", "gen", "--dim", str(self.size.dim), "--out", str(self.tmp / "mub.json")]


# --- command line -----------------------------------------------------------


@dataclass(frozen=True)
class CliSize:
    dim: int
    channels: tuple[str, ...]
    mu: float


@dataclass
class CliRecord:
    argv: list
    spec: str
    seed: int
    returncode: int
    fidelity_text: str | None
    chi: np.ndarray | None


FIDELITY = re.compile(r"fidelity=(\S+)")


class Cli(Workload):
    """Sequential `python -m mubqpt qpt run` invocations, unrefined,
    cycling through the channel specs with a fresh noise seed each."""

    children = True

    def __init__(self, size: CliSize, seed: int, tmp: Path):
        super().__init__(size, seed, tmp)
        self.env = harness.child_env()

    def argv(self, spec: str, seed: int, out: Path) -> list[str]:
        return ["qpt", "run", "--dim", str(self.size.dim), "--channel", spec,
                "--mu", repr(self.size.mu), "--seed", str(seed), "--out", str(out)]

    def warm(self) -> None:
        for spec in self.size.channels[:2]:
            argv = self.argv(spec, 0, self.tmp / "warm.json")
            subprocess.run([sys.executable, "-m", "mubqpt", *argv],
                           env=self.env, capture_output=True, timeout=120)

    def setup(self) -> None:
        """A child interpreter doing what every invocation does before
        its noisy solve: import, generate_mub, build_beta, exact table."""
        proc = subprocess.run([sys.executable, "-c", CLI_SETUP, str(self.size.dim),
                               self.size.channels[0]],
                              env=self.env, capture_output=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.decode()[-500:]}")

    def op(self, k: int):
        spec = self.size.channels[k % len(self.size.channels)]
        seed = int(self.rng.integers(2**31))
        out = self.tmp / "cli_chi.json"
        out.unlink(missing_ok=True)
        argv = self.argv(spec, seed, out)
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "mubqpt", *argv], env=self.env,
                              capture_output=True, text=True, timeout=120)
        dt = time.perf_counter() - t0
        found = FIDELITY.search(proc.stderr)
        chi = read_matrix(out) if proc.returncode == 0 and out.exists() else None
        return dt, CliRecord(argv, spec, seed, proc.returncode,
                             found.group(1) if found else None, chi)

    def fidelities(self, records) -> np.ndarray:
        return np.array([float(r.fidelity_text) for r in records if r.fidelity_text])

    def check(self, records):
        mub_set = m.generate_mub(self.size.dim)
        oracle = DenseOracle(mub_set)
        exact = {s: m.process_probabilities(m.parse_channel_spec(s, self.size.dim), mub_set)
                 for s in self.size.channels}
        failed = 0
        for rec in records:
            if rec.returncode != 0 or rec.chi is None or rec.fidelity_text is None:
                failed += 1
                continue
            noisy = m.perturb_probabilities(exact[rec.spec], self.size.mu,
                                            m.trial_rng(rec.seed, 0, 0, 0))
            ref, chi = oracle.chis([exact[rec.spec].values, noisy.values])
            fid = oracle.fidelities(ref, chi[None])[0]
            failed += int(np.abs(rec.chi - chi).max() > RAW_TOL
                          or abs(float(rec.fidelity_text) - fid) > RAW_TOL)
        return 0, failed, {}

    def redrive(self, tr: harness.Tracer, records) -> Redrive:
        """Each invocation again in this process, first through
        mubqpt.cli.main (the untraced form), then as the public calls
        cmd_qpt_run makes, under spans."""
        d, mu = self.size.dim, self.size.mu
        rd = Redrive()
        rows = []
        for k, rec in enumerate(records):
            with tr.span("op", k):
                argv = rec.argv[:-1] + [str(self.tmp / "main_chi.json")]
                code, err = tr.call("cli.main", quiet_main, argv)
                found = FIDELITY.search(err)
                with tr.span("redrive", k):
                    ch = m.parse_channel_spec(rec.spec, d)
                    mub_set = tr.call("mub.generate_mub", m.generate_mub, d)
                    beta = tr.call("tomography.build_beta", m.build_beta, mub_set)
                    exact = tr.call("tomography.process_probabilities",
                                    m.process_probabilities, ch, mub_set)
                    chi_ref = tr.call("tomography.solve_chi", m.solve_chi, beta, exact)
                    rng = tr.call("experiments.trial_rng", m.trial_rng, rec.seed, 0, 0, 0)
                    noisy = tr.call("experiments.perturb_probabilities",
                                    m.perturb_probabilities, exact, mu, rng)
                    chi = tr.call("tomography.solve_chi", m.solve_chi, beta, noisy)
                    fid = tr.call("tomography.process_fidelity", m.process_fidelity, chi_ref, chi)
            text = f"{fid:.10f}"
            rd.failed += int(code != 0 or found is None or found.group(1) != text
                             or text != rec.fidelity_text)
            if k == 0:
                self.sample, self.mub_set, self.beta = (noisy, chi, chi_ref), mub_set, beta
            rows.append(m.SweepRow(mu, ch.name, k, fid, False))
        self.sample_result = m.SweepResult(tuple(rows), ())
        rd.traced_s = sum(tr.durations("redrive"))
        rd.untraced_s = sum(tr.durations("cli.main"))
        return rd


# --- sizes ------------------------------------------------------------------

SUITE = ("dep:0.1", "ad:0.4", "cnot")

FULL = {
    "sweep_raw_d4": (Sweep, SweepSize(4, SUITE, 0.01, 0.15, 0.01, 100, False)),
    "sweep_refine_d4": (Sweep, SweepSize(4, SUITE, 0.05, 0.05, 0.01, 1, True)),
    "oneshot_d5": (Oneshot, OneshotSize(5, 25, 0.05)),
    "cli_qpt_d4": (Cli, CliSize(4, SUITE, 0.05)),
}

# the same code paths at D=2/3 with a handful of trials, for the smoke test
SMOKE = {
    "sweep_raw_d4": (Sweep, SweepSize(2, ("dep:0.1", "ad:0.4"), 0.02, 0.05, 0.03, 3, False)),
    "sweep_refine_d4": (Sweep, SweepSize(2, ("dep:0.1", "ad:0.4"), 0.05, 0.05, 0.01, 1, True)),
    "oneshot_d5": (Oneshot, OneshotSize(3, 9, 0.05)),
    "cli_qpt_d4": (Cli, CliSize(2, ("dep:0.1", "ad:0.4"), 0.05)),
}

"""Measurement plumbing shared by the workloads: checkout paths, the
in-memory span tracer, order statistics and the environment record."""
from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"


def import_package():
    """Import mubqpt from this checkout's src/ and from nowhere else.

    Exits non-zero without a result when the checkout holds no package
    source, so a bare benchmark directory can never report numbers.
    """
    pkg = SRC / "mubqpt"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"perfbench: package source not found at {pkg}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mubqpt

    if Path(mubqpt.__file__).resolve().parent != pkg:
        raise SystemExit(f"perfbench: imported mubqpt from {mubqpt.__file__}, not {pkg}")
    return mubqpt


def child_env() -> dict:
    """Environment for child interpreters: this checkout's src/ first on
    the import path, everything else inherited (BLAS threads included)."""
    extra = os.environ.get("PYTHONPATH")
    path = str(SRC) if not extra else f"{SRC}{os.pathsep}{extra}"
    return dict(os.environ, PYTHONPATH=path)


def median(xs) -> float:
    return float(statistics.median(xs))


def tail(xs) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it: the 11th-largest of n >= 20 samples. Below 20
    samples no such percentile lies above the median, so the maximum is
    reported as the 100th percentile."""
    s = sorted(xs)
    n = len(s)
    if n >= 20:
        return float(s[n - 11]), 100.0 * (n - 10) / n
    return float(s[-1]), 100.0


# Median time of the speed probe on the development host (2 vCPUs,
# OpenBLAS with 2 threads). Timings are scaled by PROBE_REFERENCE_S over
# the probe's median in the run; see README.md, "Steadiness".
PROBE_REFERENCE_S = 3.0e-3


class SpeedProbe:
    """A fixed numpy job resembling the package's inner loop (a
    400-long real matrix-vector product and small complex matrix
    products). It shares no code with the package, so a change to the
    package cannot change its time; the host's speed can."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.k = rng.standard_normal((400, 400))
        self.v = rng.standard_normal(400)
        self.a = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))

    def __call__(self) -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(60):
            y = self.k @ self.v
            h = self.a @ self.a.conj().T
            acc += float(np.trace(0.5 * (h + h.conj().T)).real) + y[0]
        return time.perf_counter() - t0


def peak_rss_mib(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


class Tracer:
    """Spans kept in memory as (name, trace_id, parent, start_ns, end_ns).

    `parent` is the index of the enclosing span or -1; spans of one
    benchmark operation share its trace_id. Leaf calls go through
    `call`, operation brackets through `span`.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.trace_id = -1

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        t0 = time.perf_counter_ns()
        out = fn(*args, **kwargs)
        t1 = time.perf_counter_ns()
        self.spans.append((name, self.trace_id, parent, t0, t1))
        return out

    @contextmanager
    def span(self, name: str, trace_id: int):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        saved, self.trace_id = self.trace_id, trace_id
        self.spans.append(None)
        self._stack.append(index)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.trace_id = saved
            self.spans[index] = (name, trace_id, parent, t0, t1)

    def durations(self, name: str) -> list[float]:
        """Seconds spent in each span called `name`."""
        return [(s[4] - s[3]) * 1e-9 for s in self.spans if s[0] == name]

    def names(self) -> set[str]:
        return {s[0] for s in self.spans}

    def write(self, path: Path) -> None:
        names = sorted(self.names())
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": names,
                    "fields": ["name", "trace_id", "parent", "start_ns", "end_ns"],
                    "spans": [[index[s[0]], *s[1:]] for s in self.spans],
                },
                fh,
                separators=(",", ":"),
            )


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, asked through its
    own entry point; None when it cannot be found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    """SHA-256 over the package sources, which identifies the code when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "mubqpt").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
    }

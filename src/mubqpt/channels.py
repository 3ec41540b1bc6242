"""Quantum channels in operator-sum form.

Provides the standard single-qubit noise zoo (depolarizing, amplitude
damping, bit-phase flip), tensor lifting of local channels to two
qubits, the CNOT gate as a one-operator channel, channel application,
trace-preservation/unitality checks, and the two-qubit concurrence.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from types import MappingProxyType

import numpy as np

from .errors import ValidationError
from .numerics import (
    _check_dim,
    as_complex_matrix,
    check_density_matrix,
    frobenius_norm,
    json_value,
    matrix_from_json,
    matrix_to_json,
    read_json_object,
    write_json_object,
)
from .paulis import SIGMA_X, SIGMA_Y, SIGMA_Z, pauli_string

__all__ = [
    "KrausChannel",
    "ChannelChecks",
    "LOCAL_KINDS",
    "CHANNEL_ALIASES",
    "make_local_channel",
    "tensor_lift",
    "make_cnot",
    "apply_channel",
    "channel_checks",
    "concurrence",
    "parse_channel_spec",
    "save_kraus",
    "load_kraus",
]

LOCAL_KINDS = ("depolarizing", "amplitude_damping", "bit_phase_flip")

CHANNEL_ALIASES = {
    "dep": "depolarizing",
    "ad": "amplitude_damping",
    "bpf": "bit_phase_flip",
}

_SHORT_NAMES = {v: k for k, v in CHANNEL_ALIASES.items()}

_CHECK_TOL = 1e-10  # channel_checks' bound on each residual norm
_COMPLETE_TOL = 1e-10  # load_kraus's bound on the largest eigenvalue of sum A^dag A - I
_YY = pauli_string("YY")  # sigma_y (x) sigma_y of concurrence, built once
_YY.flags.writeable = False


@dataclass(frozen=True)
class KrausChannel:
    """Channel E(rho) = sum_i A_i rho A_i^dag given by its operators A_i."""

    dim: int
    operators: tuple[np.ndarray, ...]
    name: str
    params: MappingProxyType

    def __post_init__(self):
        d = _check_dim(self.dim)
        ops = tuple(as_complex_matrix(a) for a in self.operators)
        if not ops:
            raise ValidationError("channel needs at least one operator")
        for a in ops:
            if a.shape != (d, d):
                raise ValidationError(f"operator shape {a.shape} does not match dim {d}")
            a.flags.writeable = False
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "operators", ops)
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))


@dataclass(frozen=True)
class ChannelChecks:
    """Completeness diagnostics: residual Frobenius norms of
    sum A^dag A - I (trace preservation) and sum A A^dag - I (unitality)."""

    trace_preserving: bool
    unital: bool
    trace_residual: float
    unital_residual: float


def make_local_channel(kind: str, param: float) -> KrausChannel:
    """Build one of the single-qubit zoo channels.

    Parameters
    ----------
    kind : {"depolarizing", "amplitude_damping", "bit_phase_flip"}
        depolarizing(p): {sqrt(1-3p/4) I, sqrt(p/4) sigma_x, sigma_y, sigma_z}.
        amplitude_damping(g): {diag(1, sqrt(1-g)), sqrt(g) |0><1|}.
        bit_phase_flip(p): {sqrt(1-p) I, sqrt(p) sigma_y}.
    param : float
        Channel strength in [0, 1]. Operators with zero weight are dropped,
        so param=0 always yields the identity channel.

    Returns
    -------
    KrausChannel
        Trace-preserving by construction (exact up to rounding).
    """
    if kind not in LOCAL_KINDS:
        raise ValidationError(f"unknown channel kind {kind!r}; choose from {LOCAL_KINDS}")
    p = float(param)
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"channel parameter {p} outside [0, 1]")
    eye = np.eye(2, dtype=complex)
    if kind == "depolarizing":
        weighted = [(np.sqrt(1.0 - 3.0 * p / 4.0), eye)] + [
            (np.sqrt(p / 4.0), s) for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)
        ]
        params = {"p": p}
    elif kind == "amplitude_damping":
        a1 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - p)]], dtype=complex)
        a2 = 0.5 * np.sqrt(p) * (SIGMA_X + 1j * SIGMA_Y)  # = sqrt(g) |0><1|
        weighted = [(1.0, a1)] + ([(1.0, a2)] if p > 0 else [])
        params = {"gamma": p}
    else:
        weighted = [(np.sqrt(1.0 - p), eye), (np.sqrt(p), SIGMA_Y)]
        params = {"p": p}
    ops = tuple(c * m for c, m in weighted if c > 0)
    return KrausChannel(2, ops, kind, params)


def tensor_lift(a: KrausChannel, b: KrausChannel) -> KrausChannel:
    """Product channel acting on the joint system: operators A_i (x) B_j.

    Trace-preserving exactly when both factors are.
    """
    ops = tuple(np.kron(x, y) for x in a.operators for y in b.operators)
    params = {f"left_{k}": v for k, v in a.params.items()}
    params.update({f"right_{k}": v for k, v in b.params.items()})
    return KrausChannel(a.dim * b.dim, ops, f"{a.name}(x){b.name}", params)


def make_cnot() -> KrausChannel:
    """CNOT on two qubits as the coherent sum
    (1(x)1 + 1(x)sigma_x + sigma_z(x)1 - sigma_z(x)sigma_x)/2,
    a single unitary Kraus operator."""
    u = 0.5 * (
        pauli_string("II") + pauli_string("IX") + pauli_string("ZI") - pauli_string("ZX")
    )
    return KrausChannel(4, (u,), "cnot", {})


def apply_channel(ch: KrausChannel, rho) -> np.ndarray:
    """E(rho) = sum_i A_i rho A_i^dag."""
    r = as_complex_matrix(rho)
    if r.shape != (ch.dim, ch.dim):
        raise ValidationError(
            f"state shape {r.shape} does not match channel dim {ch.dim}"
        )
    out = np.zeros_like(r)
    for a in ch.operators:
        out += a @ r @ a.conj().T
    return out


def channel_checks(ch: KrausChannel) -> ChannelChecks:
    """Report trace preservation (sum A^dag A = I) and unitality
    (sum A A^dag = I), each up to a residual norm of 1e-10, with the
    residual norms."""
    eye = np.eye(ch.dim)
    s_tp = sum(a.conj().T @ a for a in ch.operators)
    s_un = sum(a @ a.conj().T for a in ch.operators)
    r_tp = frobenius_norm(s_tp - eye)
    r_un = frobenius_norm(s_un - eye)
    return ChannelChecks(r_tp <= _CHECK_TOL, r_un <= _CHECK_TOL, r_tp, r_un)


def concurrence(rho) -> float:
    """Two-qubit concurrence max(0, l1 - l2 - l3 - l4) from the square
    roots of the eigenvalues of rho (sy(x)sy) rho* (sy(x)sy), descending."""
    r = as_complex_matrix(rho)
    if r.shape != (4, 4):
        raise ValidationError(f"concurrence needs a 4x4 state, got {r.shape}")
    r = check_density_matrix(r, dim=4, tol=1e-8)
    m = r @ _YY @ r.conj() @ _YY
    # spectrum of r * r~ is real non-negative; clip rounding dust
    lam = np.sqrt(np.clip(np.linalg.eigvals(m).real, 0.0, None))
    lam[::-1].sort()
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def parse_channel_spec(spec: str, dim: int) -> KrausChannel:
    """Parse the mini-grammar name[:param].

    Known names: dep, ad, bpf (long forms accepted) and cnot. Local
    channels are built at dim 2 and lifted to both qubits when dim is 4.
    The returned channel is renamed to the normalized spec string.
    """
    text = spec.strip()
    name, sep, ptext = text.partition(":")
    name = name.strip().lower()
    if name == "cnot":
        if sep:
            raise ValidationError("cnot takes no parameter")
        if dim != 4:
            raise ValidationError("cnot requires dim 4")
        return make_cnot()
    kind = CHANNEL_ALIASES.get(name, name)
    if kind not in LOCAL_KINDS:
        raise ValidationError(
            f"unknown channel {name!r}; known: dep, ad, bpf, cnot"
        )
    if not sep:
        raise ValidationError(f"channel {name!r} needs a parameter, e.g. {name}:0.1")
    try:
        param = float(ptext)
    except ValueError as exc:
        raise ValidationError(f"bad channel parameter {ptext!r}") from exc
    base = make_local_channel(kind, param)
    canonical = f"{_SHORT_NAMES[kind]}:{param:g}"
    if dim == 2:
        return replace(base, name=canonical)
    if dim == 4:
        return replace(tensor_lift(base, base), name=canonical)
    raise ValidationError(f"local channels support dim 2 or 4, not {dim}")


def save_kraus(ch: KrausChannel, path) -> None:
    """Write {"dim": D, "name": ..., "operators": [matrix-json, ...]}."""
    obj = {
        "dim": ch.dim,
        "name": ch.name,
        "operators": [matrix_to_json(a) for a in ch.operators],
    }
    write_json_object(path, obj, "Kraus")


def load_kraus(path, strict: bool = True) -> KrausChannel:
    """Read a Kraus file. With strict=True the completeness bound
    sum A^dag A <= I is enforced at 1e-10."""
    obj = read_json_object(path, "Kraus")
    try:
        dim = json_value(obj, "dim", int)
        name = json_value(obj, "name", str) if "name" in obj else "channel"
        ops = tuple(matrix_from_json(o) for o in obj["operators"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed Kraus file {path}: {exc}") from exc
    ch = KrausChannel(dim, ops, name, {})
    if strict:
        excess = np.linalg.eigvalsh(sum(a.conj().T @ a for a in ch.operators) - np.eye(dim))[-1]
        if excess > _COMPLETE_TOL:
            raise ValidationError(
                f"Kraus file {path}: sum A^dag A exceeds the identity by {excess:.3e}")
    return ch

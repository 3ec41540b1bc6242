"""Mutually unbiased bases for prime and small two-power dimensions.

A maximal set holds D+1 orthonormal bases of C^D whose cross-basis
overlaps all satisfy |<psi_m^(g)|psi_n^(b)>|^2 = 1/D. Bases carry labels
g in 0..D, states m in 1..D, and every projector gets the flat index
flat = g*D + (m-1) that fixes the vectorization order used repo-wide.

Odd prime dimensions use the computational basis plus quadratic
Gauss-sum bases. Two-power dimensions 2, 4 and 8 come from fixed
partitions of the nontrivial Pauli strings into commuting rows, and the
joint eigenbases of the rows form the MUB set. Each joint eigenprojector
is a product of the exact projectors (I + O)/2 and (I - O)/2 of its
row's strings, so the bases are built in closed form, with no
eigensolver.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .numerics import (
    _check_dim,
    json_numbers,
    json_value,
    read_json_object,
    write_json_object,
)
from .paulis import pauli_string

__all__ = [
    "MubSet",
    "Projector",
    "MubReport",
    "ComplexityModel",
    "PAULI_PARTITION",
    "flat_index",
    "n_projectors",
    "generate_mub_prime",
    "generate_mub_two_power",
    "generate_mub",
    "verify_mub",
    "projectors",
    "factorizability",
    "default_factorization",
    "default_complexity",
    "complexity_totals",
    "mub_to_json",
    "mub_from_json",
    "save_mub",
    "load_mub",
]

# Commuting Pauli-string rows whose common eigenbases form the MUB set
# for D = 2^r. Each row lists the 2^r - 1 nontrivial strings of one
# maximal commuting class; the rows partition all nontrivial strings.
# Row 0 is always the purely-Z class, so basis 0 is computational.
PAULI_PARTITION: dict[int, tuple[tuple[str, ...], ...]] = {
    1: (("Z",), ("X",), ("Y",)),
    2: (
        ("ZI", "IZ", "ZZ"),
        ("XI", "IX", "XX"),
        ("YI", "IY", "YY"),
        ("XY", "ZX", "YZ"),
        ("YX", "ZY", "XZ"),
    ),
    3: (
        ("ZII", "IZI", "IIZ", "ZZI", "ZIZ", "IZZ", "ZZZ"),
        ("IIX", "IXI", "IXX", "XII", "XIX", "XXI", "XXX"),
        ("IIY", "IYI", "IYY", "YII", "YIY", "YYI", "YYY"),
        ("IZX", "XXZ", "XYY", "YIX", "YZI", "ZXY", "ZYZ"),
        ("IZY", "XIY", "XZI", "YXX", "YYZ", "ZXZ", "ZYX"),
        ("IYZ", "XIZ", "XYI", "YXY", "YZX", "ZXX", "ZZY"),
        ("IXZ", "XYX", "XZY", "YIZ", "YXI", "ZYY", "ZZX"),
        ("IXY", "XYZ", "XZX", "YYX", "YZZ", "ZIY", "ZXI"),
        ("IYX", "XXY", "XZZ", "YXZ", "YZY", "ZIX", "ZYI"),
    ),
}

_MAX_PRIME = 23
# factorizability's bound on 1 - the largest Schmidt coefficient
_PRODUCT_TOL = 1e-10


@dataclass(frozen=True)
class MubSet:
    """D+1 orthonormal bases stored as bases[gamma, m-1] row vectors."""

    dim: int
    bases: np.ndarray
    source: str

    def __post_init__(self):
        d = _check_dim(self.dim)
        b = np.asarray(self.bases, dtype=complex)
        if b.shape != (d + 1, d, d):
            raise ValidationError(
                f"bases array has shape {b.shape}, expected {(d + 1, d, d)}"
            )
        b.flags.writeable = False
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "bases", b)

    def vectors(self) -> np.ndarray:
        """All D(D+1) basis vectors stacked in flat-index order."""
        return self.bases.reshape((self.dim + 1) * self.dim, self.dim)

    @cached_property
    def frame(self) -> np.ndarray:
        """The read-only projector frame W of shape (D^2, D^2 + D), built
        on first use: column a is vec(P_a), row-major, in flat-index
        order, so the Choi matrix of a process matrix chi is W chi W^dag."""
        v = self.vectors()
        w = np.einsum("ad,ae->dea", v, v.conj()).reshape(self.dim**2, -1)
        w.flags.writeable = False
        return w

    def vector(self, gamma: int, m: int) -> np.ndarray:
        return self.bases[gamma, m - 1]


@dataclass(frozen=True)
class Projector:
    """Rank-1 projector |psi_m^(gamma)><psi_m^(gamma)|."""

    gamma: int
    m: int
    matrix: np.ndarray


@dataclass(frozen=True)
class MubReport:
    """Outcome of the pairwise projector-trace check."""

    max_orthonormality_violation: float
    max_unbiasedness_violation: float
    tol: float
    passed: bool


@dataclass(frozen=True)
class ComplexityModel:
    """Per-basis measurement gate costs C_alpha and the factorization they
    were scored against."""

    c_alpha: tuple[int, ...]
    factorization: tuple[int, ...]


def n_projectors(dim: int) -> int:
    """Number of projectors in a maximal set: D^2 + D."""
    return dim * dim + dim


def flat_index(gamma: int, m: int, dim: int) -> int:
    """flat = gamma*D + (m - 1) for gamma in 0..D, m in 1..D."""
    if not 0 <= gamma <= dim:
        raise ValidationError(f"basis label {gamma} outside 0..{dim}")
    if not 1 <= m <= dim:
        raise ValidationError(f"state label {m} outside 1..{dim}")
    return gamma * dim + (m - 1)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


def generate_mub_prime(p: int) -> MubSet:
    """Maximal MUB set for a prime dimension p <= 23.

    Basis 0 is computational. For odd p, basis a+1 (a = 0..p-1) holds the
    vectors with components exp(2*pi*i*(a*k^2 + b*k)/p)/sqrt(p), b = 0..p-1.
    For p = 2 that quadratic construction fails, so the set is the
    Pauli-partition one, generate_mub_two_power(1).
    """
    p = _check_dim(p)
    if not _is_prime(p):
        raise ValidationError(
            f"{p} is not prime; use generate_mub_two_power for D = 2^r "
            "or load a set from file"
        )
    if p > _MAX_PRIME:
        raise ValidationError(f"prime {p} exceeds the supported bound {_MAX_PRIME}")
    if p == 2:
        return generate_mub_two_power(1)
    bases = np.empty((p + 1, p, p), dtype=complex)
    bases[0] = np.eye(p)
    k = np.arange(p)
    for a in range(p):
        for b in range(p):
            # reduce the exponent mod p in exact integers before the
            # complex exponential, otherwise large a*k^2 loses precision
            phase = (a * k * k + b * k) % p
            bases[a + 1, b] = np.exp(2j * np.pi * phase / p) / np.sqrt(p)
    return MubSet(p, bases, "analytic-prime")


def generate_mub_two_power(r: int) -> MubSet:
    """Maximal MUB set for D = 2^r, r in {1, 2, 3}: basis g is the joint
    eigenbasis of row g of the fixed commuting Pauli-string partition.

    Each vector is the largest-diagonal column of its eigenprojector over
    the square root of that entry, with the first component above 1e-12
    in modulus made real positive."""
    if isinstance(r, bool) or not isinstance(r, (int, np.integer)) or r not in PAULI_PARTITION:
        raise ValidationError(f"two-power exponent {r!r} outside supported range 1..3")
    dim = 2**r
    eye = np.eye(dim, dtype=complex)
    bases = []
    for row in PAULI_PARTITION[r]:
        # split I by the exact projectors (I + O)/2, (I - O)/2 of each
        # string in turn; the D nonzero halves are the rank-1 joint
        # eigenprojectors, in descending eigenvalue-tuple order
        halves = [eye]
        for label in row:
            plus = (eye + pauli_string(label)) / 2
            halves = [h @ q for h in halves for q in (plus, eye - plus)]
            halves = [h for h in halves if h.trace().real >= 0.5]
        basis = []
        for h in halves:
            j = np.argmax(h.diagonal().real)
            v = h[:, j] / np.sqrt(h[j, j].real)
            nz = v[np.abs(v) > 1e-12][0]
            basis.append(v * (nz.conjugate() / abs(nz)))
        bases.append(basis)
    return MubSet(dim, np.array(bases), "pauli-partition")


def generate_mub(dim: int) -> MubSet:
    """Dispatch on dimension: primes up to 23, or two-powers 4 and 8."""
    dim = _check_dim(dim)
    if dim in (4, 8):
        return generate_mub_two_power(dim.bit_length() - 1)
    if dim <= _MAX_PRIME and _is_prime(dim):
        return generate_mub_prime(dim)
    raise ValidationError(
        f"dimension {dim} is not supported: D must be a prime power, and the "
        f"available constructions cover primes up to {_MAX_PRIME} and D = 4, 8"
    )


def verify_mub(mub_set: MubSet, tol: float = 1e-10) -> MubReport:
    """Check the pairwise projector traces Tr(P_m^(g) P_n^(b)).

    Same-basis pairs must reproduce delta_mn, cross-basis pairs 1/D. The
    report carries the worst deviation of each kind; a single pass flag
    covers both (the table implies orthonormality and unbiasedness); a
    NaN entry fails it. tol must be finite and positive.
    """
    if not 0.0 < tol < np.inf:
        raise ValidationError(f"tolerance must be finite and positive, got {tol}")
    d = mub_set.dim
    v = mub_set.vectors()
    table = np.abs(v.conj() @ v.T) ** 2  # Tr(P_i P_j) = |<i|j>|^2
    same_basis = np.kron(np.eye(d + 1, dtype=bool), np.ones((d, d), dtype=bool))
    dev = np.abs(table - np.where(same_basis, np.eye(len(v)), 1.0 / d))
    same = float(dev[same_basis].max())
    cross = float(dev[~same_basis].max())
    return MubReport(same, cross, tol, same <= tol and cross <= tol)


def projectors(mub_set: MubSet) -> list[Projector]:
    """All D^2 + D rank-1 projectors in flat-index order."""
    out = []
    for g in range(mub_set.dim + 1):
        for m in range(1, mub_set.dim + 1):
            v = mub_set.vector(g, m)
            out.append(Projector(g, m, np.outer(v, v.conj())))
    return out


def default_factorization(dim: int) -> tuple[int, ...]:
    """Qubit factorization for two-powers, the trivial one otherwise."""
    dim = _check_dim(dim)
    if dim in (4, 8):
        return (2,) * (dim.bit_length() - 1)
    return (dim,)


def _check_factorization(factorization, dim: int) -> tuple[int, ...]:
    """The factors as ints, if each is >= 1 and their exact product is dim."""
    dims = tuple(int(x) for x in factorization)
    if any(x < 1 for x in dims) or math.prod(dims) != dim:
        raise ValidationError(f"factorization {dims} does not multiply to {dim} with factors >= 1")
    return dims


def factorizability(basis, factorization) -> bool:
    """True iff every vector is a product state across every cut of the
    factorization (largest Schmidt coefficient 1 within 1e-10)."""
    vecs = [np.asarray(v, dtype=complex).ravel() for v in basis]
    if not vecs:
        raise ValidationError("empty basis")
    dims = _check_factorization(factorization, vecs[0].size)
    for v in vecs:
        norm = np.linalg.norm(v)
        if norm == 0.0:
            raise ValidationError("zero vector in basis")
        left = 1
        for d in dims[:-1]:
            left *= d
            s = np.linalg.svd(v.reshape(left, -1), compute_uv=False)
            if s[0] / norm < 1.0 - _PRODUCT_TOL:
                return False
    return True


def default_complexity(mub_set: MubSet, factorization=None) -> ComplexityModel:
    """Heuristic per-basis costs: 0 for factorizable bases, one entangling
    gate per extra subsystem otherwise. Override with explicit values when
    an exact circuit count is known."""
    dims = tuple(factorization) if factorization else default_factorization(mub_set.dim)
    nonlocal_cost = len(dims) - 1
    c = tuple(
        0 if factorizability(mub_set.bases[g], dims) else nonlocal_cost
        for g in range(mub_set.dim + 1)
    )
    return ComplexityModel(c, dims)


def complexity_totals(model: ComplexityModel, dim: int) -> dict:
    """Total cost C = sum C_alpha and the protocol gate count D*C^2."""
    _check_factorization(model.factorization, dim)
    if len(model.c_alpha) != dim + 1:
        raise ValidationError(
            f"expected {dim + 1} per-basis costs, got {len(model.c_alpha)}"
        )
    if any(c < 0 for c in model.c_alpha):
        raise ValidationError("per-basis costs must be non-negative")
    total = int(sum(model.c_alpha))
    return {"C": total, "qpt_gates": dim * total * total}


def mub_to_json(mub_set: MubSet) -> dict:
    """Basis object {"dim": D, "bases": [[[ [re, im], ...], ...], ...]}."""
    return {
        "dim": mub_set.dim,
        "bases": [
            [[[float(z.real), float(z.imag)] for z in vec] for vec in basis]
            for basis in mub_set.bases
        ],
    }


def mub_from_json(obj) -> MubSet:
    """Parse the basis object; every part of every vector component must
    be a JSON number. No unbiasedness check is done here."""
    try:
        dim = json_value(obj, "dim", int)
        raw = obj["bases"]
        json_numbers([x for basis in raw for vec in basis for z in vec for x in z], "basis data")
        bases = np.array(
            [[[complex(re, im) for re, im in vec] for vec in basis] for basis in raw],
            dtype=complex,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed basis object: {exc}") from exc
    return MubSet(dim, bases, "file")


def save_mub(mub_set: MubSet, path) -> None:
    """Write the basis file."""
    write_json_object(path, mub_to_json(mub_set), "basis")


def load_mub(path, verify: bool = True) -> MubSet:
    """Read a basis file; unless verify=False, reject sets failing the
    pairwise-trace check at verify_mub's default tolerance."""
    mub_set = mub_from_json(read_json_object(path, "basis"))
    if verify:
        report = verify_mub(mub_set)
        if not report.passed:
            raise ValidationError(
                f"basis file {path} fails verification: "
                f"orthonormality off by {report.max_orthonormality_violation:.3e}, "
                f"unbiasedness off by {report.max_unbiasedness_violation:.3e} "
                f"(tol {report.tol:.1e})"
            )
    return mub_set

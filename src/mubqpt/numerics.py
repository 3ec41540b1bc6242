"""Dense complex matrix kernel: Hermitian eigendecomposition, pseudoinverse,
norms, distances, and density-matrix utilities used by every other module."""
from __future__ import annotations

import json
import math
from itertools import chain

import numpy as np

from .errors import NumericalError, ValidationError

# _require_hermitian's bound on |M - M^dag|; svd_pseudoinverse's relative rank cutoff
_HERMITIAN_TOL, _RANK_TOL = 1e-8, 1e-10

__all__ = [
    "as_complex_matrix",
    "hermiticity_defect",
    "frobenius_norm",
    "hermitian_eig",
    "svd_pseudoinverse",
    "check_density_matrix",
    "trace_distance",
    "random_density_matrix",
    "nearest_density_matrix",
    "matrix_to_json",
    "matrix_from_json",
    "json_value",
    "json_numbers",
    "read_json_object",
    "write_json_object",
]


def as_complex_matrix(m) -> np.ndarray:
    """Coerce input to a 2-D complex array with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValidationError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValidationError("matrix contains NaN or Inf entries")
    return a


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation |M - M^dag|."""
    return float(np.abs(m - m.conj().T).max())


def _require_hermitian(m: np.ndarray, what: str) -> None:
    """Reject m, named `what`, if its largest |M - M^dag| entry is NaN or above 1e-8."""
    defect = hermiticity_defect(m)
    if not defect <= _HERMITIAN_TOL:
        raise ValidationError(
            f"{what} is not Hermitian: max |M - M^dag| entry = {defect:.3e} > {_HERMITIAN_TOL:.1e}"
        )


def frobenius_norm(m) -> float:
    """sqrt(sum of |entry|^2)."""
    return float(np.linalg.norm(np.asarray(m, dtype=complex)))


def hermitian_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues, eigenvectors): real eigenvalues in ascending
    order and an orthonormal set of eigenvectors as matrix columns.
    Rejects non-square input, and input whose largest |M - M^dag| entry
    exceeds 1e-8, naming the violated check and its magnitude.
    """
    a = as_complex_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValidationError(f"matrix is not square: shape {a.shape}")
    _require_hermitian(a, "matrix")
    return np.linalg.eigh(a)


def svd_pseudoinverse(m) -> tuple[np.ndarray, int, np.ndarray]:
    """Moore-Penrose pseudoinverse via SVD with a relative rank cutoff.

    Returns (pinv, rank, singular_values). Rank counts singular values
    above 1e-10 * (largest singular value); the remainder are treated
    as an exact nullspace. An all-zero matrix yields the zero matrix of
    transposed shape and rank 0.
    """
    a = as_complex_matrix(m)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((a.shape[1], a.shape[0]), dtype=complex), 0, s
    rank = int(np.count_nonzero(s > _RANK_TOL * s[0]))
    inv = np.zeros_like(s)
    inv[:rank] = 1.0 / s[:rank]
    pinv = (vh.conj().T * inv) @ u.conj().T
    return pinv, rank, s


def check_density_matrix(rho, dim: int | None = None, tol: float = 1e-10) -> np.ndarray:
    """Validate Hermiticity, unit trace, and positivity; return the array."""
    a = as_complex_matrix(rho)
    if a.shape[0] != a.shape[1]:
        raise ValidationError(f"density matrix is not square: shape {a.shape}")
    if dim is not None and a.shape[0] != dim:
        raise ValidationError(f"expected dimension {dim}, got {a.shape[0]}")
    defect = hermiticity_defect(a)
    if defect > tol:
        raise ValidationError(f"density matrix not Hermitian: defect {defect:.3e}")
    tr = complex(a.trace())
    if abs(tr - 1.0) > tol:
        raise ValidationError(f"density matrix trace {tr:.12g} is not 1")
    wmin = float(np.linalg.eigvalsh(a)[0])
    if wmin < -tol:
        raise ValidationError(f"density matrix has negative eigenvalue {wmin:.3e}")
    return a


def trace_distance(a, b) -> float:
    """Half the absolute-eigenvalue sum of (a - b)."""
    x = as_complex_matrix(a)
    y = as_complex_matrix(b)
    if x.shape != y.shape or x.shape[0] != x.shape[1]:
        raise ValidationError(f"dimension mismatch: {x.shape} vs {y.shape}")
    d = x - y
    _require_hermitian(d, "difference of the two states")
    return float(0.5 * np.abs(np.linalg.eigvalsh(d)).sum())


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random state: Ginibre matrix G, then G G^dag / Tr."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / rho.trace().real


def nearest_density_matrix(m) -> np.ndarray:
    """Project onto density matrices: hermitize, clip negative eigenvalues,
    renormalize the trace."""
    a = as_complex_matrix(m)
    h = 0.5 * (a + a.conj().T)
    w, v = np.linalg.eigh(h)
    w = np.clip(w, 0.0, None)
    total = w.sum()
    if total <= 0.0:
        raise NumericalError("projection collapsed to the zero matrix")
    rho = (v * w) @ v.conj().T
    return rho / total


def matrix_to_json(m) -> dict:
    """Serialize to {"rows": R, "cols": C, "data": [[re, im], ...]} row-major."""
    a = as_complex_matrix(m)
    data = [[float(z.real), float(z.imag)] for z in a.ravel()]
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "data": data}


def matrix_from_json(obj) -> np.ndarray:
    """Parse the row-major [[re, im], ...] matrix object; every part of
    every entry must be a JSON number."""
    try:
        rows = json_value(obj, "rows", int)
        cols = json_value(obj, "cols", int)
        data = list(obj["data"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed matrix object: {exc}") from exc
    if rows <= 0 or cols <= 0:
        raise ValidationError(f"matrix shape ({rows}, {cols}) is not positive")
    if len(data) != rows * cols:
        raise ValidationError(
            f"matrix data has {len(data)} entries, expected {rows * cols}"
        )
    try:
        if set(map(len, data)) != {2}:
            raise ValueError("entries must be [re, im] pairs")
        parts = json_numbers(list(chain.from_iterable(data)), "matrix data")
        flat = np.array(parts, dtype=float).view(complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed matrix entry: {exc}") from exc
    return as_complex_matrix(flat.reshape(rows, cols))


# the JSON types, and their name, that a value read as each Python kind may have
_JSON_KINDS = {int: (int, "integer"), float: ((int, float), "number"),
               bool: (bool, "boolean"), str: (str, "string")}


def json_value(obj, key, kind: type):
    """obj[key], read from a file or a config, as a `kind`: a JSON integer,
    number, boolean or string for int, float, bool or str. Nothing is
    coerced, so 2.7 is not truncated to 2, "false" is not True and 1 is
    not a path."""
    val = obj[key]
    types, name = _JSON_KINDS[kind]
    if isinstance(val, bool) != (kind is bool) or not isinstance(val, types):
        raise ValidationError(f"{key!r} must be a JSON {name}, got {val!r}")
    try:
        return kind(val)
    except OverflowError as exc:
        raise ValidationError(f"{key!r} is out of range: {exc}") from exc


def json_numbers(values, what: str) -> list:
    """`values` if it is a list of JSON numbers: unless all entries are
    plain ints and floats, each goes through json_value."""
    if not isinstance(values, list):
        raise ValidationError(f"{what} must be a JSON list")
    if not set(map(type, values)) <= {int, float}:
        for val in values:
            json_value({what: val}, what, float)
    return values


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _finite_float(text: str) -> float:
    val = float(text)
    if not math.isfinite(val):  # called per number: np.isfinite would triple load_chi's time
        raise ValueError(f"number {text} overflows a double")
    return val


def read_json_object(path, what: str) -> dict:
    """Parse an RFC 8259 JSON file whose top level must be an object;
    unreadable, undecodable or non-object content, Python's NaN,
    Infinity and -Infinity literals, and numbers beyond the double range
    (1e999) raise ValidationError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh, parse_constant=_reject_constant, parse_float=_finite_float)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read {what} file {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} file {path} must hold a JSON object")
    return obj


def write_json_object(path, obj: dict, what: str) -> None:
    """Write obj as one line of JSON and a newline; an unwritable path
    raises ValidationError."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
            fh.write("\n")
    except OSError as exc:
        raise ValidationError(f"cannot write {what} file {path}: {exc}") from exc

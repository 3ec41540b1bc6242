"""Process reconstruction from projector probabilities.

The D^2 + D projectors of a maximal MUB set serve three roles at once:
they are the tomography inputs, the measured observables, and the
operator basis of the process expansion

    E(rho) = sum_{a,b} chi[a, b] P_a rho P_b

over flat projector indices a, b. Measuring every input/outcome pair
gives the linear system p = beta chi with

    beta[(b, d), (a, c)] = Tr(P_a P_b P_c P_d),

a (D^2+D)^2-square matrix of rank D^4. With W the projector frame
(columns vec(P_a), row-major) it factors as beta = R L: L maps chi to
the Choi matrix J = W chi W^dag reshuffled to the superoperator S
(onto), R maps S to p^T = W^dag S W (one-to-one). MUB sets are
2-designs, W W^dag = I + |I>><<I|, so beta+ p = W+ J W+^dag with J the
reshuffle of S = W+^dag p^T W+ and W+^dag = (I - |I>><<I|/(D+1)) W.
J is blind to the null(W) gauge of the overcomplete chi, so every
map-level operation (forward table, applying the map, Kraus extraction,
refinement) reads J. The physical estimate is the nearest completely
positive, trace-preserving map in the Frobenius norm of J, found by
accelerated ascent on the dual of its trace-preserving constraint.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .channels import KrausChannel, apply_channel
from .errors import NumericalError, ValidationError
from .mub import MubSet, n_projectors
from .numerics import (
    _check_dim,
    _require_hermitian,
    as_complex_matrix,
    frobenius_norm,
    json_numbers,
    json_value,
    matrix_from_json,
    matrix_to_json,
    read_json_object,
    write_json_object,
)

__all__ = [
    "ProbabilityTensor",
    "BetaMatrix",
    "ChiMatrix",
    "state_probabilities",
    "reconstruct_state",
    "process_probabilities",
    "build_beta",
    "solve_chi",
    "apply_chi",
    "extract_kraus",
    "constraint_tensor",
    "refinement_objective",
    "refine_physical",
    "process_fidelity",
    "chi_to_json",
    "save_chi",
    "load_chi",
    "save_probabilities",
    "load_probabilities",
]

logger = logging.getLogger(__name__)

# round cap of the CPTP projection in refine_physical
_MAX_ROUNDS = 1000
# Anderson memory of the projection and the ridge of its normal equations, relative to their trace
_MEMORY = 5
_RIDGE = 1e-12
_TINY = np.finfo(float).tiny
# bounds on the Choi spectrum in extract_kraus: rejection floor, keep threshold
_KRAUS_FLOOR = 1e-8
_KRAUS_KEEP = 1e-10


@dataclass(frozen=True)
class ProbabilityTensor:
    """Measured probabilities p[(g,l),(e,s)] = Tr(P_s^(e) E(P_l^(g))),
    flattened to length (D^2+D)^2 with index flat(g,l)*(D^2+D) + flat(e,s)."""

    dim: int
    values: np.ndarray

    def __post_init__(self):
        d = _check_dim(self.dim)
        v = np.asarray(self.values, dtype=float)
        n = n_projectors(d)
        if v.shape != (n * n,):
            raise ValidationError(
                f"probability tensor has {v.shape} values, expected ({n * n},)"
            )
        _check_probabilities(v)
        v.flags.writeable = False
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "values", v)


def _check_probabilities(v: np.ndarray) -> None:
    """Reject tables, of any shape, with an entry that is not finite or
    lies outside [0, 1] by more than 1e-10."""
    if not np.all(np.isfinite(v)):
        raise ValidationError("probability tensor contains NaN or Inf")
    if v.min() < -1e-10 or v.max() > 1.0 + 1e-10:
        raise ValidationError(
            f"probabilities outside [0, 1]: min {v.min():.3e}, max {v.max():.3e}"
        )


@dataclass(frozen=True)
class BetaMatrix:
    """The four-projector trace matrix, held as its read-only projector
    frame W and dual frame W+^dag = (I - |I>><<I|/(D+1)) W. Construction
    checks the frame identity W W^dag = I + |I>><<I| that makes the dual
    the pseudoinverse and beta rank D^4. `matrix` builds the dense beta
    on each read, and `pinv` builds beta+ from the dual frame, as the
    minimum-norm solves of the n^2 unit tables."""

    dim: int
    frame: np.ndarray
    dual: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        d = _check_dim(self.dim)
        w = np.asarray(self.frame, dtype=complex)
        if w.shape != (d * d, n_projectors(d)):
            raise ValidationError(f"frame of shape {w.shape} does not fit dim {d}")
        eye = np.eye(d).ravel()
        defect = float(np.abs(w @ w.conj().T - np.eye(d * d) - np.outer(eye, eye)).max())
        if not defect <= 1e-10:  # NaN entries fail too
            raise NumericalError(f"projector frame identity defect {defect:.3e} exceeds 1e-10")
        dual = w - np.outer(eye, eye @ w) / (d + 1)
        w.flags.writeable = False
        dual.flags.writeable = False
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "frame", w)
        object.__setattr__(self, "dual", dual)

    @property
    def rank(self) -> int:
        return self.dim**4

    @property
    def matrix(self) -> np.ndarray:
        n = n_projectors(self.dim)
        p = self.frame.T.reshape(n, self.dim, self.dim)
        return np.einsum("aij,bjk,ckl,dli->bdac", p, p, p, p, optimize=True).reshape(n * n, -1)

    @property
    def pinv(self) -> np.ndarray:
        nn = n_projectors(self.dim) ** 2
        return _solve_tables(self, np.eye(nn)).reshape(nn, nn).T


@dataclass(frozen=True)
class ChiMatrix:
    """Process matrix over composite projector indices, Hermitian by
    construction: it rejects a largest |M - M^dag| entry above 1e-8 and
    stores (M + M^dag)/2. `physical` marks positive semidefinite estimates;
    `rounds` is the projection rounds of a refined one (None otherwise)."""

    dim: int
    matrix: np.ndarray
    physical: bool = False
    asymmetry: float = 0.0
    forward_residual: float | None = None
    tp_max_violation: float | None = None
    converged: bool = True
    rounds: int | None = None

    def __post_init__(self):
        d = _check_dim(self.dim)
        m = as_complex_matrix(self.matrix)
        n = n_projectors(d)
        if m.shape != (n, n):
            raise ValidationError(f"chi has shape {m.shape}, expected {(n, n)}")
        _require_hermitian(m, "process matrix")
        m = 0.5 * (m + m.conj().T)
        m.flags.writeable = False
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "matrix", m)


def _reshuffle(m: np.ndarray, d: int) -> np.ndarray:
    """Choi matrix <-> superoperator over the last two axes; the index
    swap is its own inverse."""
    lead = m.shape[:-2]
    return m.reshape(*lead, d, d, d, d).swapaxes(-3, -2).reshape(*lead, d * d, d * d)


def _choi(w: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """The Choi matrix J = W chi W^dag of the map that chi expands."""
    return w @ chi @ w.conj().T


def _forward(w: np.ndarray, chi: np.ndarray, d: int) -> np.ndarray:
    """beta chi as the (input, outcome) table (W^dag S W)^T."""
    return (w.conj().T @ _reshuffle(_choi(w, chi), d) @ w).T


def state_probabilities(rho, mub_set: MubSet) -> np.ndarray:
    """p[flat(g,m)] = Tr(P_m^(g) rho) for all D^2 + D projectors."""
    r = as_complex_matrix(rho)
    if r.shape != (mub_set.dim, mub_set.dim):
        raise ValidationError(
            f"state shape {r.shape} does not match dim {mub_set.dim}"
        )
    v = mub_set.vectors()
    return np.einsum("nd,de,ne->n", v.conj(), r, v).real


def reconstruct_state(p, mub_set: MubSet) -> np.ndarray:
    """rho = sum_{g,m} p[g,m] P_m^(g) - I.

    Exact on probabilities of a true state; Hermitian always, positivity
    is the caller's concern for noisy input.
    """
    d = mub_set.dim
    n = n_projectors(d)
    arr = np.asarray(p, dtype=float)
    if arr.shape != (n,):
        raise ValidationError(f"expected {n} probabilities, got shape {arr.shape}")
    return (mub_set.frame @ arr).reshape(d, d) - np.eye(d)


def process_probabilities(ch: KrausChannel, mub_set: MubSet) -> ProbabilityTensor:
    """Noise-free tensor: send every projector through the channel and
    measure every projector on the output."""
    if ch.dim != mub_set.dim:
        raise ValidationError(
            f"channel dim {ch.dim} does not match basis dim {mub_set.dim}"
        )
    rows = [
        state_probabilities(apply_channel(ch, np.outer(v, v.conj())), mub_set)
        for v in mub_set.vectors()
    ]
    return ProbabilityTensor(mub_set.dim, np.concatenate(rows))


def build_beta(mub_set: MubSet) -> BetaMatrix:
    """The transfer matrix of `mub_set` as its projector frame."""
    return BetaMatrix(mub_set.dim, mub_set.frame)


def _solve_tables(beta: BetaMatrix, tables: np.ndarray) -> np.ndarray:
    """The un-symmetrized minimum-norm solves M = W+ J W+^dag of k flat
    tables of shape (k, n^2), J the reshuffle of S = W+^dag p^T W+, as
    one set of stacked products; shape (k, n, n)."""
    d = beta.dim
    n = n_projectors(d)
    dual = beta.dual
    s = dual @ tables.reshape(-1, n, n).swapaxes(-1, -2) @ dual.conj().T
    return dual.conj().T @ _reshuffle(s, d) @ dual


def solve_chi(beta: BetaMatrix, p: ProbabilityTensor) -> ChiMatrix:
    """Minimum-norm solve chi = beta+ p through the dual frame, then
    Hermitian symmetrization. The asymmetry is the Frobenius norm that
    (M + M^dag)/2 removes; the forward residual is |beta chi - p| after."""
    if beta.dim != p.dim:
        raise ValidationError(f"dim mismatch: beta {beta.dim}, p {p.dim}")
    d = beta.dim
    m = _solve_tables(beta, p.values[None])[0]
    asym = frobenius_norm(m - m.conj().T)
    h = 0.5 * (m + m.conj().T)
    resid = float(np.linalg.norm(_forward(beta.frame, h, d).ravel() - p.values))
    return ChiMatrix(d, h, physical=False, asymmetry=asym, forward_residual=resid)


def apply_chi(chi: ChiMatrix, rho, mub_set: MubSet) -> np.ndarray:
    """E(rho) = sum_{a,b} chi[a,b] P_a rho P_b as the reshuffled J on vec(rho)."""
    d = mub_set.dim
    if chi.dim != d:
        raise ValidationError(f"dim mismatch: chi {chi.dim}, basis {d}")
    r = as_complex_matrix(rho)
    if r.shape != (d, d):
        raise ValidationError(f"state shape {r.shape} does not match dim {d}")
    return (_reshuffle(_choi(mub_set.frame, chi.matrix), d) @ r.ravel()).reshape(d, d)


def extract_kraus(chi: ChiMatrix, mub_set: MubSet) -> KrausChannel:
    """Canonical operators A_i = sqrt(l_i) u_i, reshaped row-major to
    D x D, from the eigenpairs of the Choi matrix J = W chi W^dag with
    l_i > 1e-10: pairwise orthogonal, at most D^2 of them, and blind to
    any null(W) component of chi. Eigenvalues of J in [-1e-8, 0) are
    clamped to zero; a lower one rejects the map as not completely
    positive (J >= 0 exactly when the minimum-norm chi >= 0).
    """
    d = mub_set.dim
    if chi.dim != d:
        raise ValidationError(f"dim mismatch: chi {chi.dim}, basis {d}")
    lam, u = np.linalg.eigh(_choi(mub_set.frame, chi.matrix))  # Hermitian, as chi is
    if lam[0] < -_KRAUS_FLOOR:
        raise NumericalError(
            f"Choi matrix has eigenvalue {lam[0]:.3e} < -{_KRAUS_FLOOR:.1e}; "
            "refine to a physical estimate first"
        )
    keep = lam > _KRAUS_KEEP
    ops = list((u[:, keep] * np.sqrt(lam[keep])).T.reshape(-1, d, d))
    if not ops:
        ops = [np.zeros((d, d), dtype=complex)]
    return KrausChannel(d, tuple(ops), "extracted", {})


def constraint_tensor(mub_set: MubSet) -> np.ndarray:
    """K[b, a, c] = Tr(P_a P_b P_c), so that the trace of E(P_b) under a
    process matrix X is sum_{a,c} X[a,c] K[b,a,c]."""
    v = mub_set.vectors()
    g = v.conj() @ v.T
    return np.einsum("ab,bc,ca->bac", g, g, g)


def refinement_objective(
    t: np.ndarray, chi_raw: np.ndarray, k: np.ndarray, weights: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Deviation function and its exact gradient over the parametrization
    chi_tilde = T^dag T, T lower triangular with real diagonal.

    f(T) = |T^dag T - chi_raw|_F^2
         + sum_b weights[b] * (sum_{a,c} (T^dag T)[a,c] K[b,a,c] - 1)^2

    Returns (f, df/dRe(T), df/dIm(T)); the real-part gradient covers the
    diagonal and strict lower triangle, the imaginary-part gradient the
    strict lower triangle only.
    """
    x = t.conj().T @ t
    delta = x - chi_raw
    c = np.einsum("ac,bac->b", x, k).real
    f = float(np.linalg.norm(delta) ** 2 + np.dot(weights, (c - 1.0) ** 2))
    s = np.einsum("b,bac->ac", weights * (c - 1.0), k)
    coeff = 4.0 * np.conj(t) @ (np.conj(delta) + s)
    n = t.shape[0]
    lower = np.tril(np.ones((n, n)))
    strict = np.tril(np.ones((n, n)), k=-1)
    return f, coeff.real * lower, -coeff.imag * strict


def _norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norms of a (k, m, m) stack, each frobenius_norm of its
    matrix bit for bit: the same real dot products of the real and
    imaginary parts that np.linalg.norm takes, one per matrix, as the
    row-by-column products of a stacked matmul."""
    rows = stack.reshape(len(stack), 1, -1)
    re, im = rows.real, rows.imag
    return np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[:, 0, 0]


def _project_cptp(x: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nearest CPTP map to each Choi matrix J of a (k, D^2, D^2)
    stack, by Anderson-accelerated ascent on the dual of the
    trace-preserving constraint Tr_out X = I. For a Hermitian D x D
    multiplier L the optimal positive X is [J - I (x) L]_+, the
    eigenvalue clip, and G = Tr_out X - I is the dual gradient. Each
    projection round is one eigendecomposition: it forms V = U sqrt(l_+)
    and G = Tr_out(V V^dag) - I without X, and a trial stops once
    |G| <= 1e-12 max(|J|, 1), where X = V V^dag is positive and optimal
    for L, so that test is the whole optimality residual. Otherwise L moves by
    type-II Anderson mixing (Walker & Ni 2011) of the plain ascent step
    L + G/D with the last _MEMORY steps. A stopped trial leaves the stack,
    so its bits do not depend on the rest of it. Returns the projected
    stack, the per-trial converged mask and the rounds each trial ran;
    a trial at the round cap returns the X of its last round, and one
    warning counts those trials."""
    k = len(x)
    out = np.empty_like(x)
    converged = np.zeros(k, dtype=bool)
    rounds = np.full(k, _MAX_ROUNDS)
    active = np.arange(k)
    # |J| >= 1 when Tr_out J = I; the floor keeps the test reachable at J = 0
    tol = 1e-12 * np.maximum(_norms(x), 1.0)
    diag = np.arange(d)
    eye = np.eye(d)
    mult = np.zeros((k, d, d), dtype=complex)  # the multiplier L
    # real forms of G/D and L + G/D of the last round, and of the last
    # _MEMORY differences of each (a ring)
    res_prev = step_prev = np.zeros((k, 2 * d * d))
    d_res = np.empty((k, _MEMORY, 2 * d * d))
    d_step = np.empty_like(d_res)
    for n in range(1, _MAX_ROUNDS + 1):
        z = x.copy()
        # subtract L from each diagonal block, a (D, k, D, D) view
        z.reshape(-1, d, d, d, d)[:, diag, :, diag, :] -= mult
        lam, u = np.linalg.eigh(z)
        v = u * np.sqrt(np.clip(lam, 0.0, None))[..., None, :]
        # Tr_out(V V^dag) as one (k, D, D^3) product: row j gathers V[(i, j), r]
        a = v.reshape(-1, d, d, d * d).swapaxes(1, 2).reshape(-1, d, d**3)
        grad = a @ a.conj().swapaxes(-1, -2) - eye
        ok = _norms(grad) <= tol
        done = ok | (n == _MAX_ROUNDS)
        if done.any():
            idx, vd = active[done], v[done]
            out[idx], converged[idx], rounds[idx] = vd @ vd.conj().swapaxes(-1, -2), ok[done], n
            left = ~done
            active, x, tol, mult, grad, res_prev, step_prev, d_res, d_step = (
                arr[left] for arr in (active, x, tol, mult, grad, res_prev, step_prev, d_res,
                                      d_step))
            if not active.size:
                break
        res = grad.view(float).reshape(len(active), -1) / d
        step = mult.view(float).reshape(len(active), -1) + res
        if n > 1:
            slot = (n - 2) % _MEMORY
            d_res[:, slot], d_step[:, slot] = res - res_prev, step - step_prev
            f, g = d_res[:, :n - 1], d_step[:, :n - 1]  # n - 1 > _MEMORY slices to _MEMORY
            gram = f @ f.swapaxes(-1, -2)
            # ridge the diagonal (a view), floored so that a history of equal
            # residuals, as on a stretch where X = 0, mixes to the plain step
            ridge = gram.reshape(len(f), -1)[:, ::f.shape[1] + 1]
            ridge += _RIDGE * ridge.sum(axis=1, keepdims=True) + _TINY
            coef = np.linalg.solve(gram, f @ res[..., None])
            mixed = step - (g.swapaxes(-1, -2) @ coef)[..., 0]
        else:
            mixed = step
        res_prev, step_prev = res, step
        mult = mixed.view(complex).reshape(-1, d, d)
    if not converged.all():
        logger.warning("refinement of %d of %d trials stopped at the %d-round cap",
                       np.count_nonzero(~converged), k, _MAX_ROUNDS)
    return out, converged, rounds


def _refine_stack(beta: BetaMatrix, chis: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The physical estimates of a (k, n, n) stack of Hermitian process
    matrices: J = W chi W^dag, projected onto the CPTP maps by
    _project_cptp, mapped back by W+ J W+^dag and made Hermitian. Returns
    them with the converged mask and rounds of the projection."""
    w, dual = beta.frame, beta.dual
    x, converged, rounds = _project_cptp(_choi(w, chis), beta.dim)
    m = dual.conj().T @ x @ dual
    return 0.5 * (m + m.conj().swapaxes(-1, -2)), converged, rounds


def refine_physical(
    chi_raw: ChiMatrix, p: ProbabilityTensor, beta: BetaMatrix, mub_set: MubSet
) -> ChiMatrix:
    """Nearest CPTP map to chi_raw in the Frobenius norm of the Choi matrix.

    The one-trial case of the stacked projection a refined sweep runs per
    noise level (_project_cptp): Anderson-accelerated ascent on the
    multiplier of the trace-preserving constraint Tr_out J = I, each
    round one eigendecomposition of J = W chi W^dag shifted by the
    multiplier and clipped to its positive part. It stops once
    |Tr_out J - I| <= 1e-12 max(|J|, 1), or at the round cap with
    converged=False; `rounds` records the rounds it ran. Mapped back by
    chi = W+ J W+^dag, the result is positive semidefinite and the
    minimum-norm process matrix of that map, as `solve_chi` gives. The
    worst |Tr E(P_b) - 1| and the residual |beta chi - p| against the
    measured table p are recorded, chi_raw's asymmetry is kept. W and W+
    come from beta; chi_raw, p and beta must all have the dimension of
    mub_set.
    """
    d = mub_set.dim
    if chi_raw.dim != d:
        raise ValidationError(f"dim mismatch: chi {chi_raw.dim}, basis {d}")
    if p.dim != d:
        raise ValidationError(f"dim mismatch: p {p.dim}, basis {d}")
    if beta.dim != d:
        raise ValidationError(f"dim mismatch: beta {beta.dim}, basis {d}")
    h, converged, rounds = _refine_stack(beta, chi_raw.matrix[None])
    h = h[0]
    table = _forward(beta.frame, h, d)  # row b sums Tr(P_s E(P_b)) over each basis
    resid = float(np.linalg.norm(table.ravel() - p.values))
    tp = float(np.abs(table[:, :d].sum(axis=1) - 1.0).max())
    return ChiMatrix(d, h, physical=True, asymmetry=chi_raw.asymmetry, forward_residual=resid,
                     tp_max_violation=tp, converged=bool(converged[0]), rounds=int(rounds[0]))


def _fidelities(ref: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Re Tr(ref X) / Re Tr(ref^2) for each X of a (k, n, n) stack, with
    one stacked product. The traces are real up to rounding, since ref
    and every X are Hermitian."""
    denom = complex(np.trace(ref @ ref))
    if abs(denom) < 1e-14:
        raise NumericalError("reference process matrix has vanishing norm")
    return np.trace(ref @ stack, axis1=-2, axis2=-1).real / denom.real


def process_fidelity(chi_ref: ChiMatrix, chi_test: ChiMatrix) -> float:
    """F = Tr(chi_ref chi_test) / Tr(chi_ref^2), real part.

    Linear in the second argument; values land in [0, 1] only for
    physical inputs.
    """
    if chi_ref.dim != chi_test.dim:
        raise ValidationError(
            f"dim mismatch: {chi_ref.dim} vs {chi_test.dim}"
        )
    return float(_fidelities(chi_ref.matrix, chi_test.matrix[None])[0])


def chi_to_json(chi: ChiMatrix) -> dict:
    """Process-matrix object: matrix-json plus dim and the declared
    index order."""
    obj = matrix_to_json(chi.matrix)
    obj.update({"dim": chi.dim, "index_order": "gamma-major", "physical": chi.physical})
    return obj


def save_chi(chi: ChiMatrix, path) -> None:
    """Write the process-matrix file."""
    write_json_object(path, chi_to_json(chi), "process-matrix")


def load_chi(path) -> ChiMatrix:
    """Read a process-matrix file; ChiMatrix checks and symmetrizes it."""
    obj = read_json_object(path, "process-matrix")
    if obj.get("index_order") != "gamma-major":
        raise ValidationError(f"process-matrix file {path} lacks index_order 'gamma-major'")
    try:
        dim = json_value(obj, "dim", int)
    except KeyError as exc:
        raise ValidationError(f"malformed process-matrix file {path}: {exc}") from exc
    physical = json_value(obj, "physical", bool) if "physical" in obj else False
    return ChiMatrix(dim, matrix_from_json(obj), physical=physical)


def save_probabilities(p: ProbabilityTensor, path) -> None:
    """Write {"dim": D, "values": [...]} with the flat ordering."""
    obj = {"dim": p.dim, "values": [float(x) for x in p.values]}
    write_json_object(path, obj, "probability")


def load_probabilities(path) -> ProbabilityTensor:
    obj = read_json_object(path, "probability")
    try:
        dim = json_value(obj, "dim", int)
        values = np.asarray(json_numbers(obj["values"], "probability values"), dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed probability file {path}: {exc}") from exc
    return ProbabilityTensor(dim, values)

"""Krylov-type processes that build the local basis U and reduced matrix F.

Four builders share one outcome type: the standard Arnoldi iteration
(orthonormal basis of the Krylov subspace), the symplectic Arnoldi and
isotropic Arnoldi processes (symplectic, orthonormal bases of the form
[V, J^(-1) V]), and the Hamiltonian Lanczos recursion (symplectic basis
with a short two-sided recursion and reduced matrix [[0, T], [D, 0]]).

Every builder writes its basis vectors as rows of preallocated blocks,
so the basis built so far is a contiguous prefix, puts the images A U
into one block at the end, and hands the rows of the finished basis's
left inverse to ``BasisMatrix`` (the paired bases are orthonormal, so
theirs are the basis rows).  The rows J v and J^(-1) v are written into
their block rows by ``core.apply_J`` and ``apply_J_inverse`` with
``out=``, norms are sqrt(v . v) (``core._norm``, numpy's bits) and
recurrences update their fresh remainder in place.  ``_project_out`` is
every removal of a basis's range, along its left inverse: classical
Gram-Schmidt with one reorthogonalization pass, two row products per
pass (the Arnoldi recurrences, the paired processes'
omega-orthogonalization, the Lanczos reorthogonalization, the basis
extension).  The Lanczos recursion is kept short on purpose, which is
where its cost advantage comes from, at the price of slow symplecticity
drift for larger pair counts.  ``CountingAction`` is the one matrix
action and the one matvec counter.

``extend_basis`` adjoins any vector to a built basis of either kind (one
column, or one pair) and returns the extended basis with its reduced
matrix; it alone decides whether the vector is already in range(U), knows
where new columns go and how the cached images A U are laid out, and it
copies the rows, the images and the rows of U^+ into new blocks with the
new rows in place.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    BasisMatrix,
    ORTHONORMAL,
    SYMPLECTIC,
    _norm,
    apply_J,
    apply_J_inverse,
    omega,
)
from .errors import DegeneratePairError

REACHED_K = "reached_k"
INVARIANT_SUBSPACE = "invariant_subspace"
BREAKDOWN = "breakdown"

# Remainder below DEFLATION_RTOL * (1-norm estimate of A) * (parent scale)
# is treated as an exactly invariant subspace.
DEFLATION_RTOL = 1e-12
# |tau| below BREAKDOWN_RTOL * ||u||^2 stops the Lanczos recursion.
BREAKDOWN_RTOL = 1e-12
# Residual below DEPENDENCE_RTOL * ||x|| means x is already representable.
DEPENDENCE_RTOL = 1e-12


class CountingAction:
    """Matrix-free access to a (typically Hamiltonian) matrix A = Df(x).

    ``apply`` maps v -> A v (the matrix is assumed large with cheap action)
    and counts its calls in ``count``; this count is the only matvec
    counter, reported per step by the integrators.
    """

    def __init__(self, dim, apply):
        self.dim = dim
        self._matvec = apply
        self.count = 0

    @classmethod
    def from_system(cls, system, x):
        """Jacobian action of a HamiltonianSystem at the linearization point x."""
        return cls(system.dim, system.linearize(x))

    def apply(self, v):
        self.count += 1
        return self._matvec(v)


@dataclass
class KrylovOutcome:
    """Result of a basis-building process.

    ``basis.n_columns`` counts output columns of U (pairs count double);
    ``terminated`` is one of "reached_k", "invariant_subspace", "breakdown";
    ``residual_norm`` is the norm of the last unorthogonalized remainder
    (the quantity whose smallness triggered an early stop, or the final
    subdiagonal/remainder norm on a clean finish).  ``action_images``
    caches A U, as the columns view of the builder's image rows;
    ``extend_basis`` reads it to form the reduced matrix of an extended
    basis with one action per new column.
    """

    basis: BasisMatrix
    terminated: str
    residual_norm: float
    action_images: Optional[np.ndarray] = field(default=None, repr=False)


def _validate_start(action, v, k, k_max, what):
    v = np.ascontiguousarray(v, dtype=float)
    if v.shape != (action.dim,):
        raise ValueError(f"start vector has length {v.shape}, expected ({action.dim},)")
    nv = _norm(v)
    if nv == 0.0:
        raise ValueError("start vector must be nonzero")
    if not (1 <= k <= k_max):
        raise ValueError(f"{what}: requested k={k} outside [1, {k_max}]")
    return v, nv


def _project_out(w, rows, left=None):
    """Remove range(U) from w along U's left inverse, by classical
    Gram-Schmidt in two passes of w <- w - (U^+ w)^T U^T.  ``rows`` is U^T
    and ``left`` the rows of U^+ (default ``rows``: an orthonormal U).
    Returns w and the coefficients of each pass (their sum is Arnoldi's H
    column).  The first pass writes a new array, so the caller's w is
    left alone, and the second subtracts in place.  An empty basis leaves
    w unchanged."""
    left = rows if left is None else left
    h = left @ w
    w = w - h @ rows
    h2 = left @ w
    w -= h2 @ rows
    return w, h, h2


def arnoldi(action, v, k):
    """Standard Arnoldi iteration: orthonormal U spanning K_k(A, v).

    F is upper Hessenberg with A U_j = U_j F_j + r e_j^T; an exactly
    invariant subspace stops the iteration early (never an error).
    """
    v, nv = _validate_start(action, v, k, action.dim, "arnoldi")
    U, images = np.empty((k, action.dim)), []
    H = np.zeros((k, k))
    U[0] = v / nv

    achieved = k
    terminated = REACHED_K
    resid = 0.0
    anorm = 0.0
    for j in range(k):
        w = action.apply(U[j])
        images.append(w)
        anorm = max(anorm, _norm(w))
        w, h, h2 = _project_out(w, U[: j + 1])
        np.add(h, h2, out=H[: j + 1, j])
        r = _norm(w)
        resid = r
        if j + 1 == k:
            break
        if r <= DEFLATION_RTOL * anorm:
            achieved = j + 1
            terminated = INVARIANT_SUBSPACE
            break
        H[j + 1, j] = r
        np.divide(w, r, out=U[j + 1])

    basis = BasisMatrix(U[:achieved].T, ORTHONORMAL, H[:achieved, :achieved])
    return KrylovOutcome(basis, terminated, float(resid), np.array(images).T)


def _assemble_paired(action, P, terminated, resid, known=()):
    """Form the symplectic U = [V, J^(-1) V], F = U^+ (A U) from the row
    block P = [v_1, J^(-1) v_1, v_2, ...] of an isotropic V; ``known`` holds
    images A v_j already computed for leading rows of V."""
    rows = np.concatenate((P[0::2], P[1::2]))
    images = np.empty_like(rows)
    for j, row in enumerate(rows):
        images[j] = known[j] if j < len(known) else action.apply(row)
    # U is orthonormal as well, so U^+ = J_k^(-1) U^T J = U^T: J J^(-1) v = v
    basis = BasisMatrix(rows.T, SYMPLECTIC, left=rows)
    basis.reduced = basis.left_apply(images.T)
    return KrylovOutcome(basis, terminated, float(resid), images.T)


def symplectic_arnoldi(action, v, k):
    """Symplectic Arnoldi: Arnoldi vectors reorthogonalized in <.,.> and omega.

    Runs the standard Arnoldi recurrence for q_1..q_k and removes from each
    new q the range of P = [v_1, J^(-1) v_1, v_2, ...] to grow an isotropic
    V; U = [V, J^(-1) V] is symplectic and orthonormal and its range
    contains K_k'(A, v) for the achieved pair count k'.  F = U^+ A U costs
    2k' extra actions at completion.
    """
    v, nv = _validate_start(action, v, k, action.dim // 2, "symplectic_arnoldi")
    Q, P = np.empty((k, action.dim)), np.empty((2 * k, action.dim))
    Q[0] = P[0] = v / nv
    apply_J_inverse(P[0], out=P[1])
    nq = 1

    terminated = REACHED_K
    resid = 0.0
    anorm = 0.0
    for j in range(1, k):
        w = action.apply(Q[j - 1])
        anorm = max(anorm, _norm(w))
        w = _project_out(w, Q[:j])[0]
        r = _norm(w)
        resid = r
        if r <= DEFLATION_RTOL * anorm:
            terminated = INVARIANT_SUBSPACE
            break
        np.divide(w, r, out=Q[j])
        s = _project_out(Q[j], P[: 2 * nq])[0]
        rs = _norm(s)
        if rs <= DEPENDENCE_RTOL:
            # The companion vector vanished although the Arnoldi remainder
            # did not: no new information about the paired subspace.
            terminated = BREAKDOWN
            resid = rs
            break
        np.divide(s, rs, out=P[2 * nq])
        apply_J_inverse(P[2 * nq], out=P[2 * nq + 1])
        nq += 1

    return _assemble_paired(action, P[: 2 * nq], terminated, resid)


def isotropic_arnoldi(action, v, k):
    """Isotropic Arnoldi: direct <.,.>- and omega-orthogonalization.

    Each new vector loses the range of P = [q_1, J^(-1) q_1, q_2, ...], so
    Q is orthonormal with Q^T J Q = 0 and U = [Q, J^(-1) Q] is symplectic
    and orthonormal.  Its range does not in general contain K_k(A, v), so a
    vanishing remainder is reported as a breakdown (no invariant-subspace
    information can be inferred).  The images A q_j of the loop are reused
    for F, so k pairs cost 2k actions.
    """
    v, nv = _validate_start(action, v, k, action.dim // 2, "isotropic_arnoldi")
    P = np.empty((2 * k, action.dim))
    P[0] = v / nv
    apply_J_inverse(P[0], out=P[1])
    nq = 1

    terminated = REACHED_K
    resid = 0.0
    anorm = 0.0
    images = []
    for j in range(1, k):
        w = action.apply(P[2 * (j - 1)])
        images.append(w)
        anorm = max(anorm, _norm(w))
        w = _project_out(w, P[: 2 * nq])[0]
        r = _norm(w)
        resid = r
        if r <= DEFLATION_RTOL * anorm:
            terminated = BREAKDOWN
            break
        np.divide(w, r, out=P[2 * nq])
        apply_J_inverse(P[2 * nq], out=P[2 * nq + 1])
        nq += 1

    return _assemble_paired(action, P[: 2 * nq], terminated, resid, images)


def hamiltonian_lanczos(action, v, k):
    """Hamiltonian Lanczos: short two-sided recursion for a symplectic basis.

    Produces U = [u_1..u_k', v_1..v_k'] with omega(u_i, v_j) = delta_ij and
    reduced matrix F = [[0, T], [D, 0]], T symmetric tridiagonal from the
    recursion coefficients and D = diag(+-1).  The range of U contains
    A^j v for j = 0..2k'-1.  A vanishing pairing tau stops the recursion
    (breakdown) with the partial basis returned; the caller decides the
    fallback.  Each new remainder is omega-reorthogonalized against the
    basis built so far, which arrests the symplecticity drift of the bare
    recursion while keeping the orthogonalization bill below Arnoldi's.

    The pairs are rows of one preallocated block R = [u_1, v_1, u_2, ...],
    with the rows of U^+ (J v_i, J^(-1) u_i) in a block L, so the basis so
    far is a prefix and ``_project_out`` removes it with (L[:2j] w) R[:2j].
    U and L take [u..., v...] order at the end, and L is handed to the
    basis as its left inverse.  The actions' outputs are kept as they
    come; the images A U are written once at the end, in that order, with
    A u_j = (A u_hat) / sigma_j as the loop would have divided it.
    """
    v, nv = _validate_start(action, v, k, action.dim // 2, "hamiltonian_lanczos")
    R, L = np.empty((2 * k, action.dim)), np.empty((2 * k, action.dim))
    alphas, sigmas, deltas = [], [], []
    w_hats, xs = [], []  # the actions' images of u_hat and of v_j

    u_hat = v.copy()
    scale_ref = nv
    terminated = REACHED_K
    resid = 0.0
    for j in range(k):
        nu = _norm(u_hat)
        resid = nu
        if nu <= DEFLATION_RTOL * scale_ref:
            terminated = INVARIANT_SUBSPACE
            break
        w_hat = action.apply(u_hat)
        apply_J_inverse(u_hat, out=L[2 * j + 1])
        tau = float(L[2 * j + 1] @ w_hat)  # omega(u_hat, w_hat)
        if abs(tau) <= BREAKDOWN_RTOL * nu * nu:
            terminated = BREAKDOWN
            break
        sigma = math.sqrt(abs(tau))
        delta = 1.0 if tau > 0 else -1.0
        u_j, v_j = R[2 * j], R[2 * j + 1]
        np.divide(u_hat, sigma, out=u_j)
        np.multiply(delta / sigma, w_hat, out=v_j)
        apply_J(v_j, out=L[2 * j])
        L[2 * j + 1] /= sigma  # J^(-1) u_j
        deltas.append(delta)
        sigmas.append(sigma)  # sigma_j = beta_{j-1} couples u_{j-1} and u_j in T
        w_hats.append(w_hat)

        x = action.apply(v_j)
        xs.append(x)
        alphas.append(float(L[2 * j] @ x))  # alpha_j = -omega(v_j, x)
        if j + 1 < k:
            u_hat = x - alphas[-1] * u_j
            if j:
                u_hat -= sigma * R[2 * j - 2]
            # omega-reorthogonalize the remainder against all current pairs;
            # the recursion coefficients are left untouched (the removed
            # components sit at drift level) but without this the basis
            # loses symplecticity rapidly.  Costs 4j inner products per
            # pair, still well below one Arnoldi orthogonalization sweep.
            u_hat = _project_out(u_hat, R[:2 * j + 2], L[:2 * j + 2])[0]
            scale_ref = _norm(x)

    kp = len(deltas)
    F = np.zeros((2 * kp, 2 * kp))
    T, D = F[:kp, kp:], F[kp:, :kp]  # F = [[0, T], [D, 0]]
    T.flat[::kp + 1] = alphas
    T.flat[1::kp + 1] = T.flat[kp::kp + 1] = sigmas[1:]
    D.flat[::kp + 1] = deltas
    images = np.empty((2 * kp, action.dim))  # A U in [u..., v...] order
    if kp:
        np.divide(w_hats, np.array(sigmas)[:, None], out=images[:kp])  # A u_j, as computed
        images[kp:] = xs

    def uv(block):  # rows [u_1, v_1, u_2, ...] in [u..., v...] order
        return np.concatenate((block[0:2 * kp:2], block[1:2 * kp:2]))
    basis = BasisMatrix(uv(R).T, SYMPLECTIC, F, left=uv(L))
    return KrylovOutcome(basis, terminated, float(resid), images.T)


def extend_basis(outcome, action, x):
    """Adjoin x to ``outcome.basis`` so that x lies in its range, and return
    the extended BasisMatrix with ``reduced`` = U^+ (A U) set.

    The range of U is removed from x along U's left inverse.  An
    orthonormal basis gets the normalized remainder v_new as its last
    column; a symplectic basis [V | W] gets v_new after V and, after W, the
    companion w_new: J v_new with the range removed and scaled so that
    omega(v_new, w_new) = 1 (DegeneratePairError if that pairing vanishes).
    The rows, the images A U (from ``outcome.action_images``, so each new
    column costs one action) and, for a symplectic basis, the rows of U^+
    are copied into new blocks with the new rows in place; U^+ gains the
    rows J w_new and J^(-1) v_new.  x may be any vector of the basis's
    length: one that is already representable, x = 0 included, returns
    ``outcome.basis`` unchanged, with no action.
    """
    basis = outcome.basis
    x = np.ascontiguousarray(x, dtype=float)
    if x.shape != (basis.dim,):
        raise ValueError(f"vector has length {x.shape}, expected ({basis.dim},)")
    x_hat = _project_out(x, basis.rows, basis.left)[0]
    nr = _norm(x_hat)
    if nr <= DEPENDENCE_RTOL * _norm(x):
        return basis

    new = [x_hat / nr]
    if basis.kind == SYMPLECTIC:
        y = _project_out(apply_J(x_hat), basis.rows, basis.left)[0]
        pairing = omega(new[0], y)
        if abs(pairing) <= DEPENDENCE_RTOL * max(_norm(y), 1e-300):
            raise DegeneratePairError("paired companion of the new vector degenerated")
        new.append(y / pairing)

    # each block of U (all of it, or V and W) is followed by its new row
    size = basis.n_columns // len(new)
    rows, images = (np.empty((basis.n_columns + len(new), basis.dim)) for _ in range(2))
    for i, row in enumerate(new):
        old, at = slice(i * size, (i + 1) * size), i * (size + 1)
        rows[at:at + size], rows[at + size] = basis.rows[old], row
        images[at:at + size] = outcome.action_images.T[old]
        images[at + size] = action.apply(row)
    left = None
    if len(new) == 2:
        # U^+ = [J W | J^(-1) V]^T gains J w_new after J W and J^(-1) v_new last
        left = np.empty_like(rows)
        left[:size], left[size + 1:-1] = basis.left[:size], basis.left[size:]
        apply_J(new[1], out=left[size])
        apply_J_inverse(new[0], out=left[-1])
    extended = BasisMatrix(rows.T, basis.kind, left=left)
    extended.reduced = extended.left_apply(images.T)
    return extended

"""Krylov-type processes that build the local basis U and reduced matrix F.

Four builders share one outcome type: the standard Arnoldi iteration
(orthonormal basis of the Krylov subspace), the symplectic Arnoldi and
isotropic Arnoldi processes (symplectic, orthonormal bases of the form
[V, J^(-1) V]), and the Hamiltonian Lanczos recursion (symplectic basis
with a short two-sided recursion and reduced matrix [[0, T], [D, 0]]).

Every builder writes its basis vectors, and their images, as rows of
preallocated blocks, so the basis built so far is a contiguous prefix,
and hands the rows of the finished basis's left inverse to ``BasisMatrix``
(the paired bases are orthonormal, so theirs are the basis rows).
``_project_out`` is every removal of a basis's range, along its left
inverse: classical Gram-Schmidt with one reorthogonalization pass, two
row products per pass (the Arnoldi recurrences, the paired processes'
omega-orthogonalization, the Lanczos reorthogonalization, the basis
extension).  The Lanczos recursion is kept short on purpose, which is
where its cost advantage comes from, at the price of slow symplecticity
drift for larger pair counts.  ``CountingAction`` is the one matrix
action and the one matvec counter.

``extend_basis`` adjoins one vector to a built basis of either kind (one
column, or one pair) and returns the extended basis with its reduced
matrix; it alone knows where new columns go and how the cached images
A U are laid out.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    BasisMatrix,
    ORTHONORMAL,
    SYMPLECTIC,
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
    def from_dense(cls, A):
        A = np.asarray(A, dtype=float)
        return cls(A.shape[0], lambda v: A @ v)

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
    caches A U, a view of the builder's image rows; ``extend_basis`` reads
    it to form the reduced matrix of an extended basis with one action per
    new column.
    """

    basis: BasisMatrix
    terminated: str
    residual_norm: float
    action_images: Optional[np.ndarray] = field(default=None, repr=False)


def _validate_start(action, v, k, k_max, what):
    v = np.asarray(v, dtype=float)
    if v.shape != (action.dim,):
        raise ValueError(f"start vector has length {v.shape}, expected ({action.dim},)")
    nv = np.linalg.norm(v)
    if nv == 0.0:
        raise ValueError("start vector must be nonzero")
    if not (1 <= k <= k_max):
        raise ValueError(f"{what}: requested k={k} outside [1, {k_max}]")
    return v, nv


def _project_out(w, rows, left=None):
    """Remove range(U) from w along U's left inverse, by classical
    Gram-Schmidt in two passes of w <- w - (U^+ w)^T U^T.  ``rows`` is U^T
    and ``left`` the rows of U^+ (default ``rows``: an orthonormal U).
    Returns w and the summed coefficients of both passes (Arnoldi's H
    column).  An empty basis leaves w unchanged."""
    left = rows if left is None else left
    h = left @ w
    w = w - h @ rows
    h2 = left @ w
    return w - h2 @ rows, h + h2


def arnoldi(action, v, k):
    """Standard Arnoldi iteration: orthonormal U spanning K_k(A, v).

    F is upper Hessenberg with A U_j = U_j F_j + r e_j^T; an exactly
    invariant subspace stops the iteration early (never an error).
    """
    v, nv = _validate_start(action, v, k, action.dim, "arnoldi")
    U, images = np.empty((k, action.dim)), np.empty((k, action.dim))
    H = np.zeros((k, k))
    U[0] = v / nv

    achieved = k
    terminated = REACHED_K
    resid = 0.0
    anorm = 0.0
    for j in range(k):
        w = action.apply(U[j])
        images[j] = w
        anorm = max(anorm, np.linalg.norm(w))
        w, H[: j + 1, j] = _project_out(w, U[: j + 1])
        r = np.linalg.norm(w)
        resid = r
        if j + 1 == k:
            break
        if r <= DEFLATION_RTOL * anorm:
            achieved = j + 1
            terminated = INVARIANT_SUBSPACE
            break
        H[j + 1, j] = r
        U[j + 1] = w / r

    basis = BasisMatrix(U[:achieved].T, ORTHONORMAL, H[:achieved, :achieved])
    return KrylovOutcome(basis, terminated, float(resid), images[:achieved].T)


def _assemble_paired(action, P, terminated, resid, known=()):
    """Form the symplectic U = [V, J^(-1) V], F = U^+ (A U) from the row
    block P = [v_1, J^(-1) v_1, v_2, ...] of an isotropic V; ``known`` holds
    images A v_j already computed for leading rows of V."""
    rows = P[np.r_[0:len(P):2, 1:len(P):2]]
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
    P[1] = apply_J_inverse(P[0])
    nq = 1

    terminated = REACHED_K
    resid = 0.0
    anorm = 0.0
    for j in range(1, k):
        w = action.apply(Q[j - 1])
        anorm = max(anorm, np.linalg.norm(w))
        w, _ = _project_out(w, Q[:j])
        r = np.linalg.norm(w)
        resid = r
        if r <= DEFLATION_RTOL * anorm:
            terminated = INVARIANT_SUBSPACE
            break
        Q[j] = w / r
        s, _ = _project_out(Q[j], P[: 2 * nq])
        rs = np.linalg.norm(s)
        if rs <= DEPENDENCE_RTOL:
            # The companion vector vanished although the Arnoldi remainder
            # did not: no new information about the paired subspace.
            terminated = BREAKDOWN
            resid = rs
            break
        P[2 * nq] = s / rs
        P[2 * nq + 1] = apply_J_inverse(P[2 * nq])
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
    P[1] = apply_J_inverse(P[0])
    nq = 1

    terminated = REACHED_K
    resid = 0.0
    anorm = 0.0
    images = []
    for j in range(1, k):
        w = action.apply(P[2 * (j - 1)])
        images.append(w)
        anorm = max(anorm, np.linalg.norm(w))
        w, _ = _project_out(w, P[: 2 * nq])
        r = np.linalg.norm(w)
        resid = r
        if r <= DEFLATION_RTOL * anorm:
            terminated = BREAKDOWN
            break
        P[2 * nq] = w / r
        P[2 * nq + 1] = apply_J_inverse(P[2 * nq])
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
    with the rows of U^+ (J v_i, J^(-1) u_i) in a block L and the images in
    a third, so the basis so far is a prefix and ``_project_out`` removes it
    with (L[:2j] w) R[:2j].  U, L and the images take [u..., v...] order at
    the end, and L is handed to the basis as its left inverse.
    """
    v, nv = _validate_start(action, v, k, action.dim // 2, "hamiltonian_lanczos")
    R, L, images = (np.empty((2 * k, action.dim)) for _ in range(3))
    alphas, betas, deltas = [], [], []

    u_hat = v.copy()
    scale_ref = nv
    terminated = REACHED_K
    resid = 0.0
    for j in range(k):
        nu = np.linalg.norm(u_hat)
        resid = nu
        if nu <= DEFLATION_RTOL * scale_ref:
            terminated = INVARIANT_SUBSPACE
            break
        w_hat = action.apply(u_hat)
        left_u = apply_J_inverse(u_hat)
        tau = float(left_u @ w_hat)  # omega(u_hat, w_hat)
        if abs(tau) <= BREAKDOWN_RTOL * nu * nu:
            terminated = BREAKDOWN
            break
        sigma = np.sqrt(abs(tau))
        delta = 1.0 if tau > 0 else -1.0
        u_j, v_j = R[2 * j], R[2 * j + 1]
        np.divide(u_hat, sigma, out=u_j)
        np.multiply(delta / sigma, w_hat, out=v_j)
        L[2 * j] = apply_J(v_j)
        np.divide(left_u, sigma, out=L[2 * j + 1])  # J^(-1) u_j
        deltas.append(delta)
        np.divide(w_hat, sigma, out=images[2 * j])  # A u_j, as computed
        if j:
            betas.append(sigma)  # beta_{j-1} couples u_{j-1} and u_j in T

        x = action.apply(v_j)
        images[2 * j + 1] = x
        alphas.append(float(L[2 * j] @ x))  # alpha_j = -omega(v_j, x)
        if j + 1 < k:
            u_hat = x - alphas[-1] * u_j
            if j:
                u_hat = u_hat - sigma * R[2 * j - 2]
            # omega-reorthogonalize the remainder against all current pairs;
            # the recursion coefficients are left untouched (the removed
            # components sit at drift level) but without this the basis
            # loses symplecticity rapidly.  Costs 4j inner products per
            # pair, still well below one Arnoldi orthogonalization sweep.
            u_hat, _ = _project_out(u_hat, R[:2 * j + 2], L[:2 * j + 2])
            scale_ref = np.linalg.norm(x)

    kp = len(deltas)
    i = np.arange(kp)
    F = np.zeros((2 * kp, 2 * kp))
    F[i, kp + i] = alphas  # T in the upper right block, D in the lower left
    F[i[:-1], kp + i[1:]] = F[i[1:], kp + i[:-1]] = betas
    F[kp + i, i] = deltas
    order = np.concatenate([2 * i, 2 * i + 1])
    basis = BasisMatrix(R[order].T, SYMPLECTIC, F, left=L[order])
    return KrylovOutcome(basis, terminated, float(resid), images[order].T)


def extend_basis(outcome, action, x):
    """Adjoin x to ``outcome.basis`` so that x lies in its range, and return
    the extended BasisMatrix with ``reduced`` = U^+ (A U) set.

    The range of U is removed from x along U's left inverse.  An
    orthonormal basis gets the normalized remainder v_new as its last
    column; a symplectic basis [V | W] gets v_new after V and, after W, the
    companion w_new: J v_new with the range removed and scaled so that
    omega(v_new, w_new) = 1 (DegeneratePairError if that pairing vanishes).
    The images A U come from ``outcome.action_images``, so each new column
    costs one action.  An x that is already representable returns
    ``outcome.basis`` unchanged.
    """
    basis = outcome.basis
    x = np.asarray(x, dtype=float)
    if x.shape != (basis.dim,):
        raise ValueError(f"vector has length {x.shape}, expected ({basis.dim},)")
    nx = np.linalg.norm(x)
    if nx == 0.0:
        raise ValueError("cannot extend with a zero vector")
    x_hat, _ = _project_out(x, basis.rows, basis.left)
    nr = np.linalg.norm(x_hat)
    if nr <= DEPENDENCE_RTOL * nx:
        return basis

    new = [x_hat / nr]
    if basis.kind == SYMPLECTIC:
        y, _ = _project_out(apply_J(x_hat), basis.rows, basis.left)
        pairing = omega(new[0], y)
        if abs(pairing) <= DEPENDENCE_RTOL * max(np.linalg.norm(y), 1e-300):
            raise DegeneratePairError("paired companion of the new vector degenerated")
        new.append(y / pairing)

    # each block of U (all of it, or V and W) is followed by its new row
    size = basis.n_columns // len(new)
    at = [size * (i + 1) for i in range(len(new))]
    rows = np.insert(basis.rows, at, new, axis=0)
    images = np.insert(outcome.action_images.T, at, [action.apply(u) for u in new], axis=0)
    extended = BasisMatrix(rows.T, basis.kind)
    extended.reduced = extended.left_apply(images.T)
    return extended

"""Krylov-type processes that build the local basis U and reduced matrix F.

Four builders share one outcome type: the standard Arnoldi iteration
(orthonormal basis of the Krylov subspace), the symplectic Arnoldi and
isotropic Arnoldi processes (symplectic, orthonormal bases of the form
[V, J^(-1) V]), and the Hamiltonian Lanczos recursion (symplectic basis
with a short two-sided recursion and reduced matrix [[0, T], [D, 0]]).

Every builder writes its basis vectors as rows of preallocated blocks
and hands ``BasisMatrix`` the rows of U^+ its recursion holds (the
paired bases are orthonormal, so theirs are the basis rows; Lanczos's
are J v_i and J^(-1) u_i) and the rows of A U, so every basis is
complete.  The Arnoldi-type builders keep the basis built so far as a
contiguous prefix and put the images A U into one block at the end;
Lanczos writes U, U^+ and A U as three planes of one block, each row in
its final [u..., v...] place.  The rows J v and J^(-1) v are written
into their block rows by ``core.apply_J`` and ``apply_J_inverse`` with
``out=``, norms are sqrt(v . v) (``core._norm``, numpy's bits) and
recurrences update their fresh remainder in place.  ``_project_out`` is
the removal of a basis's range along its left inverse for the Arnoldi
recurrences, the paired processes' omega-orthogonalization and the basis
extension: classical Gram-Schmidt with one reorthogonalization pass, two
row products per pass.  Lanczos removes the pairs built so far from each
remainder with one such pass of its own, since its three-term recurrence
has already done the first.  The Lanczos recursion is kept short on
purpose, which is where its cost advantage comes from, at the price of
slow symplecticity drift for larger pair counts.  ``CountingAction`` is
the one matrix action and the one matvec counter.

``extend_basis`` adjoins any vector to a basis of either kind (one
column, or one pair) and returns the extended basis, complete in turn, so
it can be extended again; it alone decides whether the vector is already
in range(U) and knows where new columns go, and it leaves the extended
basis's left inverse and reduced matrix to ``BasisMatrix``.
"""

import math
from dataclasses import dataclass

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

    ``apply(v, out=None)`` maps v -> A v (the matrix is assumed large with
    cheap action), into ``out`` as ``HamiltonianSystem.linearize``'s action
    does, and counts its calls in ``count``; this count is the only matvec
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

    def apply(self, v, out=None):
        self.count += 1
        return self._matvec(v, out)


@dataclass
class KrylovOutcome:
    """Result of a basis-building process.

    ``basis`` is complete: its rows, left inverse, images A U and reduced
    matrix; ``basis.n_columns`` counts output columns of U (pairs count
    double).  ``terminated`` is one of "reached_k", "invariant_subspace",
    "breakdown"; ``residual_norm`` is the norm of the last unorthogonalized
    remainder (the quantity whose smallness triggered an early stop, or the
    final subdiagonal/remainder norm on a clean finish).
    """

    basis: BasisMatrix
    terminated: str
    residual_norm: float


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
    w unchanged.  Its callers remove a whole new vector, so the second
    pass is what makes the removal hold to rounding; Hamiltonian Lanczos,
    whose recurrence is a first pass, runs only one of its own."""
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
    U, images = np.empty((k, action.dim)), np.empty((k, action.dim))
    H = np.zeros((k, k))
    U[0] = v / nv

    achieved = k
    terminated = REACHED_K
    resid = 0.0
    anorm = 0.0
    for j in range(k):
        w = action.apply(U[j], images[j])
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

    basis = BasisMatrix(U[:achieved].T, ORTHONORMAL, H[:achieved, :achieved],
                        images=images[:achieved])
    return KrylovOutcome(basis, terminated, float(resid))


def _assemble_paired(action, P, terminated, resid, images=None, known=0):
    """Form the symplectic U = [V, J^(-1) V] with its images A U from the
    row block P = [v_1, J^(-1) v_1, v_2, ...] of an isotropic V.  The images
    go into the rows of ``images`` (a new block if None), whose first
    ``known`` rows already hold A v_j for the leading rows of V."""
    rows = np.concatenate((P[0::2], P[1::2]))
    images = np.empty_like(rows) if images is None else images[:rows.shape[0]]
    for j in range(known, rows.shape[0]):
        action.apply(rows[j], images[j])
    # U is orthonormal as well, so U^+ = J_k^(-1) U^T J = U^T: J J^(-1) v = v
    basis = BasisMatrix(rows.T, SYMPLECTIC, left=rows, images=images)
    return KrylovOutcome(basis, terminated, float(resid))


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
    information can be inferred).  The images A q_j of the loop are written
    into the block of A U and reused for F, so k pairs cost 2k actions.
    """
    v, nv = _validate_start(action, v, k, action.dim // 2, "isotropic_arnoldi")
    P, images = np.empty((2, 2 * k, action.dim))
    P[0] = v / nv
    apply_J_inverse(P[0], out=P[1])
    nq = 1

    terminated = REACHED_K
    resid = 0.0
    anorm = 0.0
    for j in range(1, k):
        w = action.apply(P[2 * (j - 1)], images[j - 1])
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

    # the loop imaged v_1..v_nq when it stopped early, v_1..v_(k-1) when not
    return _assemble_paired(action, P[: 2 * nq], terminated, resid, images, min(nq, k - 1))


def hamiltonian_lanczos(action, v, k):
    """Hamiltonian Lanczos: short two-sided recursion for a symplectic basis.

    Produces U = [u_1..u_k', v_1..v_k'] with omega(u_i, v_j) = delta_ij and
    reduced matrix F = [[0, T], [D, 0]], T symmetric tridiagonal from the
    recursion coefficients and D = diag(+-1).  The range of U contains
    A^j v for j = 0..2k'-1.  A vanishing pairing tau stops the recursion
    (breakdown) with the partial basis returned; the caller decides the
    fallback.

    The three-term recurrence is the first orthogonalization of each new
    remainder; one classical Gram-Schmidt pass over the pairs built so far
    follows, with the coefficients of both halves taken from the same
    remainder (2j inner products for pair j).  Those are the two passes
    that are enough ("twice is enough", Parlett, The Symmetric Eigenvalue
    Problem, SIAM 1998, sec. 6-9): a third would remove only rounding,
    while without this one the basis loses symplecticity rapidly.  The
    recursion coefficients are left untouched: the removed components sit
    at drift level.

    One block of shape (3, 2k, 2n) holds the rows of U, the rows of U^+
    (J v_i, then J^(-1) u_i) and the images A U, each already in its final
    [u..., v...] place: u_j in row j and v_j in row k + j.  An early stop
    (k' < k) moves the v rows up once.  The three planes become the
    basis's rows, its left inverse and its images, with no copy.
    The action writes A u_hat into row j of A U, divided there by sigma_j
    to give A u_j, and A v_j into row k + j.
    """
    v, nv = _validate_start(action, v, k, action.dim // 2, "hamiltonian_lanczos")
    block = np.empty((3, 2 * k, action.dim))
    U, L, images = block  # rows of U, of U^+ and of A U
    alphas, sigmas, deltas = [], [], []

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
        w_hat = action.apply(u_hat, images[j])
        apply_J_inverse(u_hat, out=L[k + j])
        tau = float(L[k + j] @ w_hat)  # omega(u_hat, w_hat)
        if abs(tau) <= BREAKDOWN_RTOL * nu * nu:
            terminated = BREAKDOWN
            break
        sigma = math.sqrt(abs(tau))
        delta = 1.0 if tau > 0 else -1.0
        u_j, v_j = U[j], U[k + j]
        np.divide(u_hat, sigma, out=u_j)
        np.multiply(delta / sigma, w_hat, out=v_j)
        apply_J(v_j, out=L[j])
        L[k + j] /= sigma  # J^(-1) u_j
        w_hat /= sigma  # A u_j, in place
        deltas.append(delta)
        sigmas.append(sigma)  # sigma_j = beta_{j-1} couples u_{j-1} and u_j in T

        x = action.apply(v_j, images[k + j])
        alphas.append(float(L[j] @ x))  # alpha_j = -omega(v_j, x)
        if j + 1 < k:
            u_hat = x - alphas[-1] * u_j
            if j:
                u_hat -= sigma * U[j - 1]
            # one Gram-Schmidt pass over the pairs so far, both halves'
            # coefficients from this remainder
            h_u, h_v = L[:j + 1] @ u_hat, L[k:k + j + 1] @ u_hat
            u_hat -= h_u @ U[:j + 1]
            u_hat -= h_v @ U[k:k + j + 1]
            scale_ref = _norm(x)

    kp = len(deltas)
    if kp < k:
        block[:, kp:2 * kp] = block[:, k:k + kp]
    F = np.zeros((2 * kp, 2 * kp))
    T, D = F[:kp, kp:], F[kp:, :kp]  # F = [[0, T], [D, 0]]
    T.flat[::kp + 1] = alphas
    T.flat[1::kp + 1] = T.flat[kp::kp + 1] = sigmas[1:]
    D.flat[::kp + 1] = deltas
    basis = BasisMatrix(U[:2 * kp].T, SYMPLECTIC, F, left=L[:2 * kp], images=images[:2 * kp])
    return KrylovOutcome(basis, terminated, float(resid))


def extend_basis(basis, action, x):
    """Adjoin x to ``basis`` so that x lies in its range, and return the
    extended BasisMatrix with its images A U and reduced matrix.

    The range of U is removed from x along U's left inverse.  An
    orthonormal basis gets the normalized remainder v_new as its last
    column; a symplectic basis [V | W] gets v_new after V and, after W, the
    companion w_new: J v_new with the range removed and scaled so that
    omega(v_new, w_new) = 1 (DegeneratePairError if that pairing vanishes).
    The rows and the images A U are copied into new blocks with the new
    rows in place, so each new column costs one action.  x may be any
    vector of the basis's length: one that is already representable,
    x = 0 included, returns ``basis`` unchanged, with no action.
    """
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
        images[at:at + size] = basis.images[old]
        action.apply(row, images[at + size])
    return BasisMatrix(rows.T, basis.kind, images=images)

"""Dense kernels: the matrix exponential and the affine flow.

These run on the reduced m x m matrices produced by the basis processes
(m <= ~64) and on the dense reference of a linear system, the only places
matrix exponentials are evaluated.  phi(z) = (e^z - 1)/z is the first
exponential-integrator kernel; ``exp_affine`` is the one place it is
formed, so singular M is fine: phi(M) is ``exp_affine(M, I, 1)[1]``.

A matrix of the second-order form [[0, T], [delta I, 0]] (T symmetric,
delta = +-1), which Hamiltonian Lanczos returns, takes a closed form from
one ``eigh`` of delta T and the mode factors of ``mode_factors``, which
the dense oracle's second-order flow shares; every other matrix takes
``expm`` of an augmented matrix, one [13/13] Pade approximant with
scaling and squaring (Higham 2005).
"""

import numpy as np

# [13/13] Pade coefficients b_0..b_13 and theta_13 (Higham, SIAM J. Matrix Anal. Appl. 26 (2005) 1179)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _square(M):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("expected a square matrix")
    return M


def expm(M):
    """Matrix exponential: the [13/13] Pade approximant of M / 2^s squared
    s times, s the least with ||M / 2^s||_1 <= theta_13 (Higham 2005).  A
    zero 1-norm (the zero matrix, and 0 x 0) gives the identity exactly,
    which the solve with b_0 = 6.5e16 would round.  A non-finite entry, an
    overflowing 1-norm and an overflowing result are each a ValueError,
    with no numpy warning; the result is checked only when squared (s > 0),
    as the approximant at 1-norm <= theta_13 is bounded by about e^theta_13."""
    M = _square(M)
    if not np.isfinite(M).all():
        raise ValueError("matrix has non-finite entries")
    I = np.eye(M.shape[0])
    with np.errstate(over="ignore"):
        norm = np.abs(M).sum(axis=0).max(initial=0.0)  # the 1-norm, as np.linalg.norm(M, 1) forms it
    if norm == 0.0:
        return I
    if norm == np.inf:
        raise ValueError("matrix 1-norm overflowed")
    s = int(np.ceil(np.log2(norm / _THETA13))) if norm > _THETA13 else 0
    A = M / 2.0 ** s
    c = _PADE13
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A2 @ A4
    U = A @ (A6 @ (c[13] * A6 + c[11] * A4 + c[9] * A2)
             + c[7] * A6 + c[5] * A4 + c[3] * A2 + c[1] * I)
    V = (A6 @ (c[12] * A6 + c[10] * A4 + c[8] * A2)
         + c[6] * A6 + c[4] * A4 + c[2] * A2 + c[0] * I)
    F = np.linalg.solve(V - U, V + U)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            F = F @ F
    if s and not np.isfinite(F).all():
        raise ValueError("matrix exponential overflowed")
    return F


def mode_factors(lam, t):
    """Mode factors of the second-order flow a'' = lam a + beta at times t.

    With w = sqrt(-lam t^2), imaginary where lam > 0, returns the real
    arrays C = cos w, S = sin(w)/w and G = 2 sin^2(w/2)/w^2 = S(w/2)^2/2,
    broadcast over ``lam`` and ``t`` (modes x times for a column of times),
    so that a(t) = C a + t S a' + t^2 G beta and a'(t) = lam t S a + C a'
    + t S beta.  None of them cancels near w = 0 (``np.sinc`` holds the
    limit at w = 0).  A cosh that overflows gives inf: callers hold numpy's
    overflow and invalid-value signals off and check what they form.
    """
    w = np.sqrt((-lam * t * t).astype(complex))
    return np.cos(w).real, np.sinc(w / np.pi).real, 0.5 * np.sinc(w / (2 * np.pi)).real ** 2


def _second_order_sign(M):
    """delta when M is exactly [[0, T], [delta I, 0]] with T symmetric and
    delta = +-1, else 0.  The entry M[k, 0] decides most matrices at once;
    past it, M's nonzeros outside T must be the k entries of delta I."""
    m = M.shape[0]
    k = m // 2
    if m % 2 or not m or abs(M[k, 0]) != 1.0:
        return 0.0
    delta = float(M[k, 0])
    T = M[:k, k:]
    if (np.count_nonzero(M) != np.count_nonzero(T) + k
            or not (M.diagonal(-k) == delta).all() or not (T == T.T).all()):
        return 0.0
    return delta


def _exp_affine_second_order(M, B, t, delta):
    """``exp_affine`` for M = [[0, T], [delta I, 0]], from one ``eigh`` of
    delta T = V diag(lam) V^T.  Per mode, with C, S, G from
    ``mode_factors``, e^(tM) = [[C, delta t lam S], [delta t S, C]] and
    t phi(tM) = [[t S, delta t^2 lam G], [delta t^2 G, t S]]; the diagonal
    blocks of e^(tM) are formed as I + V diag(C - 1) V^T with
    C - 1 = lam t^2 G, so t = 0 gives (I, 0) exactly."""
    m = M.shape[0]
    k = m // 2
    T = M[:k, k:]
    if not (np.isfinite(t) and np.isfinite(T).all() and np.isfinite(B).all()):
        raise ValueError("matrix has non-finite entries")
    lam, V = np.linalg.eigh(delta * T)
    with np.errstate(over="ignore", invalid="ignore"):
        _, S, G = mode_factors(lam, t)
        tS = t * S
        tG = delta * t * t * G
        # the four blocks V diag(d) V^T in one product
        P, Q, R, Z = ((V * np.array([tS, lam * tG, tG, delta * lam * tS])[:, None, :])
                      .reshape(4 * k, k) @ V.T).reshape(4, k, k)
        E, Phi = np.empty((m, m)), np.empty((m, m))
        Phi[:k, :k] = Phi[k:, k:] = P
        Phi[:k, k:] = Q
        Phi[k:, :k] = R
        E[:k, :k] = E[k:, k:] = np.eye(k) + delta * Q
        E[:k, k:] = Z
        E[k:, :k] = delta * P
        Y = Phi @ B
        if not (np.isfinite(E).all() and np.isfinite(Y).all()):
            raise ValueError("matrix exponential overflowed")
    return E, Y


def exp_affine(M, B, t):
    """(e^(tM), t phi(tM) B): the flow x(t) = e^(tM) a + t phi(tM) b of
    x' = M x + b from x(0) = a.

    ``B`` is a vector or a block of columns; the second result has its
    shape.  M of the exact form [[0, T], [delta I, 0]], T symmetric and
    delta = +-1 (the reduced matrix of Hamiltonian Lanczos when its signs
    agree), takes the closed form of ``_exp_affine_second_order``.  Any
    other M takes one Pade exponential of [[tM, tB], [0, 0]], whose
    adjoined columns are scaled by a power of two 2^-e (e >= 0) so their
    1-norm is at most one, which keeps a large b from driving the
    scaling-and-squaring; the scaling is exact and ``np.ldexp`` undoes it.
    A non-finite entry of M or B, a non-finite t, and a result that
    overflows are each a ValueError, with no numpy warning: on the Pade
    path the augmented matrix is formed with numpy's overflow and
    invalid-value signals off, ``expm``'s one finiteness check refuses it
    and the undoing traps overflow; the closed form checks its inputs and
    its results.
    """
    M = _square(M)
    B = np.asarray(B, dtype=float)
    delta = _second_order_sign(M)
    if delta:
        return _exp_affine_second_order(M, B, t, delta)
    m = M.shape[0]
    cols = B[:, None] if B.ndim == 1 else B
    W = np.zeros((m + cols.shape[1],) * 2)
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(M, t, out=W[:m, :m])
        np.multiply(cols, t, out=W[:m, m:])
        # norm = mant 2^e with mant in [0.5, 1); an exact power of two keeps 1
        mant, e = np.frexp(np.abs(W[:m, m:]).sum(axis=0).max(initial=0.0))
    e = max(int(e) - (mant == 0.5), 0)
    np.ldexp(W[:m, m:], -e, out=W[:m, m:])
    E = expm(W)
    try:
        with np.errstate(over="raise"):
            Y = np.ldexp(E[:m, m:], e)
    except FloatingPointError as exc:
        raise ValueError("matrix exponential overflowed") from exc
    return E[:m, :m], Y.reshape(B.shape)

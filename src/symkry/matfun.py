"""Dense kernels: the matrix exponential and the one phi kernel.

They run on the reduced m x m matrices of the basis processes (m <= ~64)
and on the dense reference of a linear system.  phi(z) = (e^z - 1)/z is
formed only by ``phi_apply``, so singular M is fine: phi(M) is
``phi_apply(M, I, 1)``; no step needs e^(tM) = I + tM phi(tM).  A matrix
[[0, T], [delta I, 0]] (T symmetric, delta = +-1), which Hamiltonian
Lanczos returns and a second-order system's Jacobian is in (p, q) order,
takes a closed form from one ``eigh`` of delta T and ``mode_factors``
(``_phi_second_order``, which the dense oracle calls with a column of
times); every other matrix takes ``expm`` of an augmented matrix
(``pade_flow``), one [13/13] Pade approximant with scaling and squaring
(Higham 2005).
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
    arrays S = sin(w)/w and G = 2 sin^2(w/2)/w^2 = S(w/2)^2/2, broadcast
    over ``lam`` and ``t`` (times x modes for a column of times), so that
    with f = lam a + beta the flow is a(t) = a + t S a' + t^2 G f and
    a'(t) = a' + t S f + lam t^2 G a': x(t) = x + t phi(tM) f(x) in each
    mode, which ``_phi_second_order`` forms.  Neither cancels near w = 0
    (``np.sinc`` holds the limit at w = 0).  A sinh that overflows gives
    inf: callers hold numpy's overflow and invalid-value signals off and
    check what they form.
    """
    w = np.sqrt((-lam * t * t).astype(complex))
    return np.sinc(w / np.pi).real, 0.5 * np.sinc(w / (2 * np.pi)).real ** 2


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
            or np.count_nonzero(M.diagonal(-k) == delta) != k or np.count_nonzero(T != T.T)):
        return 0.0
    return delta


def _phi_second_order(M, B, t, delta):
    """``phi_apply`` for M = [[0, T], [delta I, 0]] from one ``eigh`` of
    delta T = V diag(lam) V^T: per mode, with S and G of ``mode_factors``,
    t phi(tM) = [[t S, lam g], [g, t S]], g = delta t^2 G, applied to each
    column of B in the modes, so neither phi(tM) nor e^(tM) is formed.  t
    is a number or a column of times, one per column of B (a vector B is
    one column and meets every time), so that one ``eigh`` serves a whole
    grid (the dense oracle's).  Returns one column per column or time;
    t = 0 gives zero exactly; B and t are checked if Y is not finite."""
    k = M.shape[0] // 2
    T = M[:k, k:]
    if not np.isfinite(T).all():
        raise ValueError("matrix has non-finite entries")
    lam, V = np.linalg.eigh(delta * T)
    with np.errstate(over="ignore", invalid="ignore"):
        S, G = mode_factors(lam, t)
        tS, g = t * S, delta * t * t * G
        # per column b, the rows c1 = V^T b1 and c2 = V^T b2, from one 2-D product
        C = (B.T.reshape(-1, k) @ V).reshape(-1, 2, k)
        Z = tS[..., None, :] * C
        Z[:, 0] += lam * g * C[:, 1]
        Z[:, 1] += g * C[:, 0]
        Y = (Z.reshape(-1, k) @ V.T).reshape(-1, 2 * k).T
        if not np.isfinite(Y).all():
            raise ValueError("matrix exponential overflowed"
                             if np.isfinite(B).all() and np.isfinite(t).all()
                             else "matrix has non-finite entries")
    return Y


def pade_flow(M, B, t):
    """(e^(tM), t phi(tM) B), the flow of x' = M x + b, from one ``expm`` of
    [[tM, tB], [0, 0]], for ``phi_apply`` and the dense oracle; the second
    result has B's shape.  The adjoined columns are scaled by the power of
    two 2^-e (e >= 0) that brings their 1-norm to at most one, so a large b
    does not drive the scaling-and-squaring; ``np.ldexp`` undoes it
    exactly.  A non-finite M, B or t and a result that overflows are each
    a ValueError, with no numpy warning: ``expm`` checks the augmented
    matrix, formed with numpy's overflow and invalid signals off, and the
    undoing traps overflow."""
    M = _square(M)
    B = np.asarray(B, dtype=float)
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


def phi_apply(M, B, t):
    """t phi(tM) B for a vector or a block B, in B's shape: the closed form
    of ``_phi_second_order`` for M exactly [[0, T], [delta I, 0]], T
    symmetric and delta = +-1 (Hamiltonian Lanczos's F when its signs
    agree; the dense oracle calls that form itself), else ``pade_flow``.
    A non-finite M, B or t and a result that overflows are each a
    ValueError, with no numpy warning."""
    M = _square(M)
    B = np.asarray(B, dtype=float)
    delta = _second_order_sign(M)
    if delta:
        return _phi_second_order(M, B, t, delta).reshape(B.shape)
    return pade_flow(M, B, t)[1]

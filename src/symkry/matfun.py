"""Dense kernels: the matrix exponential and the affine flow.

These run on the reduced m x m matrices produced by the basis processes
(m <= ~64) and on the dense reference of a linear system that is not
second order, the only places matrix exponentials are evaluated.
phi(z) = (e^z - 1)/z is the first exponential-integrator kernel;
``exp_affine`` is the one place it is formed, from a single augmented
exponential, so singular M is fine: phi(M) is ``exp_affine(M, I, 1)[1]``.
"""

import numpy as np

# Pade coefficient tables and switching thresholds for the standard
# scaling-and-squaring design with degrees 3, 5, 7, 9, 13.
_PADE_COEFFS = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
         960960.0, 16380.0, 182.0, 1.0),
}

_THETA = {
    3: 1.495585217958292e-2,
    5: 2.539398330063230e-1,
    7: 9.504178996162932e-1,
    9: 2.097847961257068,
    13: 5.371920351148152,
}


def _square(M):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("expected a square matrix")
    return M


def _pade_expm(A, degree):
    n = A.shape[0]
    c = _PADE_COEFFS[degree]
    I = np.eye(n)
    if degree == 13:
        A2 = A @ A
        A4 = A2 @ A2
        A6 = A2 @ A4
        U = A @ (A6 @ (c[13] * A6 + c[11] * A4 + c[9] * A2)
                 + c[7] * A6 + c[5] * A4 + c[3] * A2 + c[1] * I)
        V = (A6 @ (c[12] * A6 + c[10] * A4 + c[8] * A2)
             + c[6] * A6 + c[4] * A4 + c[2] * A2 + c[0] * I)
    else:
        powers = [I, A @ A]
        for _ in range(2, degree // 2 + 1):
            powers.append(powers[-1] @ powers[1])
        U = c[1] * I
        V = c[0] * I
        for j in range(3, degree + 1, 2):
            U = U + c[j] * powers[(j - 1) // 2]
        for j in range(2, degree + 1, 2):
            V = V + c[j] * powers[j // 2]
        U = A @ U
    return np.linalg.solve(V - U, V + U)


def expm(M):
    """Matrix exponential by Pade approximation with scaling and squaring;
    a non-finite entry, an overflowing 1-norm and an overflowing result are
    each a ValueError, with no numpy warning."""
    M = _square(M)
    if not np.isfinite(M).all():
        raise ValueError("matrix has non-finite entries")
    if M.shape[0] == 0:
        return M.copy()
    with np.errstate(over="ignore"):
        norm = np.abs(M).sum(axis=0).max()  # the 1-norm, as np.linalg.norm(M, 1) forms it
    for degree in (3, 5, 7, 9):
        if norm <= _THETA[degree]:
            return _pade_expm(M, degree)
    if norm == np.inf:
        raise ValueError("matrix 1-norm overflowed")
    s = 0
    if norm > _THETA[13]:
        s = int(np.ceil(np.log2(norm / _THETA[13])))
    F = _pade_expm(M / 2.0 ** s, 13)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            F = F @ F
    if not np.isfinite(F).all():
        raise ValueError("matrix exponential overflowed")
    return F


def exp_affine(M, B, t):
    """(e^(tM), t phi(tM) B) from one exponential of [[tM, tB], [0, 0]].

    ``B`` is a vector or a block of columns; the second result has its
    shape.  x(t) = e^(tM) a + t phi(tM) b is the flow of x' = M x + b from
    x(0) = a.  The adjoined columns are scaled by a power of two 2^-e
    (e >= 0) so their 1-norm is at most one, which keeps a large b from
    driving the scaling-and-squaring; the scaling is exact and undone on
    the result.  The augmented matrix is formed with numpy's overflow and
    invalid-value signals off, and ``expm``'s one finiteness check refuses
    it as a ValueError: a non-finite entry of M or B, a non-finite t, and a
    tM or tB that overflows all end there, with no numpy warning.
    """
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
    W[:m, m:] *= 2.0 ** -e
    E = expm(W)
    return E[:m, :m], (E[:m, m:] * 2.0 ** e).reshape(B.shape)

"""Canonical symplectic linear algebra and the Hamiltonian-system interface.

States live in R^(2n) as contiguous arrays with the configuration half q
stacked above the momentum half p.  The canonical structure matrix is

    J = [[0, I], [-I, 0]],

fixed here once; every other module imports these operations instead of
re-deriving block signs.  The bilinear form is omega(x, y) = x^T J y, so the
canonical pairs (e_i, e_{n+i}) satisfy omega(e_i, e_{n+i}) = +1.

A basis is orthonormal or symplectic and is kept as rows, next to the rows
of its kind's one left inverse (``BasisMatrix.left``); basis structure is
measured once, by the absolute Frobenius defects ``symplectic_defect`` and
``orthonormal_defect``.
"""

import math
from abc import ABC, abstractmethod

import numpy as np

# default bound on a Frobenius structural defect (double precision with
# O(n) accumulation)
STRUCTURE_TOL = 1e-10

ORTHONORMAL = "orthonormal"
SYMPLECTIC = "symplectic"

_KINDS = (ORTHONORMAL, SYMPLECTIC)


def _check_even(m, what="vector"):
    if m % 2 != 0:
        raise ValueError(f"{what} dimension must be even, got {m}")


def _norm(v):
    """2-norm of a contiguous 1-d float array: sqrt(v . v), the same bits as
    ``np.linalg.norm(v)`` (which takes the same dot product) with less
    dispatch.  A strided view may round differently, in its dot product."""
    return math.sqrt(v @ v)


def split_state(x):
    """Return the (q, p) halves of a phase-space vector as views."""
    x = np.asarray(x)
    _check_even(x.shape[0])
    n = x.shape[0] // 2
    return x[:n], x[n:]


def join_state(q, p):
    """Stack configuration and momentum halves into one phase-space vector."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    if q.shape != p.shape:
        raise ValueError(f"q and p must have equal length, got {q.shape} and {p.shape}")
    return np.concatenate([q, p])


def apply_J(v, out=None):
    """Apply J = [[0, I], [-I, 0]]: (q, p) -> (p, -q).

    Works on vectors and on matrices (acting on axis 0), so ``apply_J(U)``
    is J @ U without forming J.  The result is written, by two slice
    operations, into ``out`` (a view of a block row or column is fine) or
    into a new C-order array, and returned.  With ``apply_J_inverse`` this
    is the only code that writes J.
    """
    v = np.asarray(v)
    _check_even(v.shape[0])
    n = v.shape[0] // 2
    out = np.empty_like(v, order="C") if out is None else out
    out[:n] = v[n:]
    np.negative(v[:n], out=out[n:])
    return out


def apply_J_inverse(v, out=None):
    """Apply J^(-1) = -J: (q, p) -> (-p, q), into ``out`` as ``apply_J``."""
    v = np.asarray(v)
    _check_even(v.shape[0])
    n = v.shape[0] // 2
    out = np.empty_like(v, order="C") if out is None else out
    np.negative(v[n:], out=out[:n])
    out[n:] = v[:n]
    return out


def omega(x, y):
    """Canonical symplectic form omega(x, y) = x^T J y.

    Bilinear and skew: omega(x, y) = -omega(y, x).  Computed via apply_J, so
    omega(x, y) == dot(x, apply_J(y)) identically.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    return float(x @ apply_J(y))


def canonical_J(n):
    """Dense 2n x 2n matrix of J; diagnostic use at small sizes."""
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    return J


def symplectic_defect(U):
    """Frobenius defect ||U^T J U - J_k||_F of a 2n x 2k basis."""
    U = np.asarray(U)
    m = U.shape[1]
    _check_even(m, "basis column")
    return float(np.linalg.norm(U.T @ apply_J(U) - canonical_J(m // 2)))


def orthonormal_defect(U):
    """Frobenius defect ||U^T U - I||_F."""
    U = np.asarray(U)
    return float(np.linalg.norm(U.T @ U - np.eye(U.shape[1])))


class BasisMatrix:
    """Tall basis U in R^(2n x m), kept as rows, with kind and reduced matrix.

    kind is "orthonormal" (U^T U = I) or "symplectic" (U^T J U = J_k); a
    basis that is both, like the paired [V, J^(-1) V], is symplectic.
    ``rows`` is U^T in C order and read-only; ``columns`` is its view U.
    ``left`` holds the rows of the kind's one left inverse U^+: ``rows``
    itself, or J_k^(-1) U^T J = [J W | J^(-1) V]^T for U = [V | W] (a left
    inverse as far as U is numerically symplectic).  A builder that already
    holds those rows passes them as ``left``; otherwise they are formed
    once here.  ``reduced`` is the m x m projection F = U^+ A U of the
    current matrix action (None until it is set).
    """

    __slots__ = ("rows", "left", "kind", "reduced")

    def __init__(self, columns, kind, reduced=None, left=None):
        columns = np.asarray(columns, dtype=float)
        if columns.ndim != 2:
            raise ValueError("columns must be a 2-d array")
        _check_even(columns.shape[0])
        if kind not in _KINDS:
            raise ValueError(f"unknown basis kind {kind!r}")
        self.rows = self.left = rows = np.ascontiguousarray(columns.T)
        rows.flags.writeable = False
        if kind == SYMPLECTIC:
            _check_even(columns.shape[1], "symplectic basis column")
        if left is not None:
            self.left = np.asarray(left, dtype=float)
            if self.left.shape != rows.shape:
                raise ValueError(f"left has shape {self.left.shape}, expected {rows.shape}")
        elif kind == SYMPLECTIC:
            k = rows.shape[0] // 2  # the rows J w_i, then J^(-1) v_i
            self.left = left = np.empty_like(rows)
            apply_J(rows[k:].T, out=left[:k].T)
            apply_J_inverse(rows[:k].T, out=left[k:].T)
        self.kind = kind
        self.reduced = None if reduced is None else np.asarray(reduced, dtype=float)

    @property
    def columns(self):
        return self.rows.T

    @property
    def dim(self):
        return self.rows.shape[1]

    @property
    def n_columns(self):
        return self.rows.shape[0]

    def left_apply(self, v):
        """Apply the left inverse U^+ to a vector or a matrix of columns."""
        return self.left @ v


class HamiltonianSystem(ABC):
    """Black-box Hamiltonian system x' = f(x) with conserved energy.

    Implementations provide the phase-space dimension 2n, the vector field
    f, the energy H, and ``linearize``, the one way to the Jacobian action
    at a point (``linearize(x)(v)`` is Df(x) v); ``jacobian_dense`` is
    derived from it.  All methods must be pure (read-only after
    construction) so systems can be shared between concurrent runs.  A
    linear system (``is_linear``) gives its affine parts f(x) = A x + c
    through ``jacobian_dense`` (A, at any point) and ``f`` (c = f(0)).
    """

    is_linear = False

    def __init__(self, dim):
        _check_even(dim, "system")
        self.dim = dim

    @abstractmethod
    def f(self, x):
        """Vector field value at x."""

    @abstractmethod
    def energy(self, x):
        """Conserved energy H(x)."""

    @abstractmethod
    def linearize(self, x):
        """The action v -> Df(x) v, with the coefficients that depend on x
        computed once; later changes to x do not reach it."""

    def jacobian_dense(self, x):
        """Densify Df(x) column by column; diagnostic, small sizes only."""
        action = self.linearize(x)
        return np.column_stack([action(e) for e in np.eye(self.dim)])


class QuadraticHamiltonianSystem(HamiltonianSystem):
    """Linear system f(x) = J^(-1)(S x + d) with H(x) = x^T S x / 2 + d^T x.

    ``S`` may be a dense symmetric matrix or a symmetric matvec callable.
    """

    is_linear = True

    def __init__(self, S, d=None, dim=None):
        if callable(S):
            if dim is None:
                raise ValueError("dim is required when S is a callable")
            self._s_apply = S
        else:
            S = np.asarray(S, dtype=float)
            dim = S.shape[0]
            self._s_apply = lambda v: S @ v
        super().__init__(dim)
        self.d = np.zeros(self.dim) if d is None else np.asarray(d, dtype=float)
        if self.d.shape != (self.dim,):
            raise ValueError("constant term has wrong length")
        self._shift = apply_J_inverse(self.d)  # f(x) = A x + J^(-1) d

    def f(self, x):
        return self.linearize(x)(x) + self._shift

    def energy(self, x):
        return float(0.5 * x @ self._s_apply(x) + self.d @ x)

    def linearize(self, x):
        return lambda v: apply_J_inverse(self._s_apply(v))

import warnings

import numpy as np
import pytest

from symkry import expm, matfun, phi_apply
from symkry.core import canonical_J
from symkry.errors import NumericalError, StepFailureError
from symkry.integrators import _kernel
from symkry.matfun import _phi_second_order, _second_order_sign, pade_flow

from conftest import phi1, phi1_scaled_identities_check, random_hamiltonian_matrix


def expm_series_oracle(M, terms=60):
    """Truncated-series exponential with exact power-of-two scaling.

    Independent of the Pade route: scale M by 2^-s so the series converges
    fast, sum it, square s times.  Scaling by powers of two is exact in
    floating point.
    """
    M = np.asarray(M, dtype=float)
    norm = np.linalg.norm(M, 1)
    s = max(0, int(np.ceil(np.log2(max(norm, 1e-300) / 0.25))))
    A = M / 2.0 ** s
    out = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for j in range(1, terms + 1):
        term = term @ A / j
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def second_order(T, delta=1.0):
    """[[0, T], [delta I, 0]], the reduced matrix of Hamiltonian Lanczos
    when its signs agree."""
    T = np.atleast_2d(np.asarray(T, dtype=float))
    k = T.shape[0]
    F = np.zeros((2 * k, 2 * k))
    F[:k, k:] = T
    F[k:, :k] = delta * np.eye(k)
    return F


def pade_augmented(M, B, t):
    """(e^(tM), t phi(tM) B) from ``expm`` of the hand-built augmented
    matrix [[tM, tB], [0, 0]]: the Pade kernel, whatever form M has."""
    cols = B[:, None] if B.ndim == 1 else B
    m = M.shape[0]
    W = np.zeros((m + cols.shape[1],) * 2)
    W[:m, :m] = t * M
    W[:m, m:] = t * cols
    E = expm(W)
    return E[:m, :m], E[:m, m:].reshape(B.shape)


def phi1_series_oracle(M, terms=60):
    """phi(M) = sum_j M^j / (j+1)! summed directly (desk-scale M)."""
    M = np.asarray(M, dtype=float)
    out = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for j in range(1, terms + 1):
        term = term @ M / (j + 1)
        out = out + term
    return out


class TestExpm:
    def test_zero_matrix(self):
        assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))

    def test_nilpotent_series_terminates(self):
        N = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(expm(N), np.array([[1.0, 1.0], [0.0, 1.0]]), atol=1e-15)

    def test_against_series_oracle(self, rng):
        # one draw in each 1-norm band of Higham's (2005) degree selection,
        # split at theta_3, ..., theta_13; the one [13/13] approximant takes all
        bands = set()
        for scale in (0.1, 1.0, 8.0, 40.0, 0.004, 0.05, 0.6):
            M = rng.standard_normal((8, 8)) * scale / np.sqrt(8)
            bands.add(int(np.searchsorted([0.015, 0.25, 0.95, 2.1, 5.37], np.linalg.norm(M, 1))))
            E = expm(M)
            O = expm_series_oracle(M)
            assert np.linalg.norm(E - O) <= 1e-13 * np.linalg.norm(O)
        assert bands == set(range(6))

    def test_hamiltonian_exponential_is_symplectic(self, rng):
        # reduced matrices of symplectic bases are Hamiltonian, so their
        # exponentials must preserve the symplectic form
        F = random_hamiltonian_matrix(rng, 4)
        E = expm(0.3 * F)
        J = canonical_J(4)
        assert np.linalg.norm(E.T @ J @ E - J) <= 1e-10

    def test_inverse_relation(self, rng):
        M = rng.standard_normal((6, 6))
        assert np.linalg.norm(expm(M) @ expm(-M) - np.eye(6)) < 1e-12

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            expm(np.array([[np.inf, 0.0], [0.0, 0.0]]))

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            expm(np.ones((2, 3)))

    def test_overflow_is_a_value_error_without_warning(self):
        # e^800 overflows in the squaring loop; numpy must not warn first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflowed"):
                expm(np.diag([800.0, 0.0]))
            assert np.isfinite(expm(np.diag([700.0, 0.0]))).all()

    @pytest.mark.parametrize("M,match", [
        (np.array([[np.inf, 0.0], [0.0, 0.0]]), "non-finite"),
        (np.full((2, 2), 1e308), "1-norm overflowed"),
        (np.diag([800.0, 0.0]), "exponential overflowed"),
    ], ids=["non-finite", "norm", "squaring"])
    def test_refusal_is_a_numerical_error(self, M, match):
        with pytest.raises(NumericalError, match=match):
            expm(M)


class TestPhi1:
    def test_phi_at_zero_is_identity(self):
        assert np.allclose(phi1(np.zeros((4, 4))), np.eye(4))

    def test_nilpotent(self):
        N = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(phi1(N), np.array([[1.0, 0.5], [0.0, 1.0]]), atol=1e-15)

    def test_scalar_value(self):
        got = phi1(np.array([[1.0]]))[0, 0]
        want = phi1_series_oracle(np.array([[1.0]]))[0, 0]
        assert abs(got - want) < 1e-14
        assert abs(got - (np.e - 1.0)) < 1e-14

    def test_against_series_oracle(self, rng):
        M = rng.standard_normal((6, 6)) * 0.8
        assert np.linalg.norm(phi1(M) - phi1_series_oracle(M)) < 1e-13

    def test_singular_matrix_allowed(self, rng):
        M = np.diag([0.0, 0.0, 1.5, -2.0])
        P = phi1(M)
        assert np.allclose(np.diag(P), [1.0, 1.0, (np.e ** 1.5 - 1) / 1.5,
                                        (np.e ** -2.0 - 1) / -2.0])

    def test_defines_exponential_difference(self, rng):
        M = rng.standard_normal((8, 8)) * 0.5
        lhs = M @ phi1(M)
        rhs = expm(M) - np.eye(8)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(expm(M))

    def test_commutes_with_argument(self, rng):
        M = rng.standard_normal((7, 7))
        P = phi1(M)
        assert (np.linalg.norm(M @ P - P @ M)
                <= 1e-12 * np.linalg.norm(M) * np.linalg.norm(P))

    def test_integral_characterization(self, rng):
        # phi(M) v = integral of e^(tM) v over [0, 1]; 20-node Gauss-Legendre
        nodes, weights = np.polynomial.legendre.leggauss(20)
        t = 0.5 * (nodes + 1.0)
        w = 0.5 * weights
        for _ in range(3):
            M = rng.standard_normal((6, 6))
            v = rng.standard_normal(6)
            quad = sum(wi * (expm(ti * M) @ v) for ti, wi in zip(t, w))
            assert np.linalg.norm(phi1(M) @ v - quad) < 1e-9


class TestPhiApply:
    def test_vector_and_block_against_oracles(self, rng):
        M = rng.standard_normal((6, 6)) * 0.8
        t = 0.7
        want_phi = t * phi1_series_oracle(t * M)
        for B in (rng.standard_normal(6), rng.standard_normal((6, 3))):
            Y = phi_apply(M, B, t)
            assert Y.shape == B.shape
            want = want_phi @ B
            assert np.linalg.norm(Y - want) <= 1e-13 * np.linalg.norm(want)
            E, Y_flow = pade_flow(M, B, t)
            assert np.array_equal(Y_flow, Y)
            assert np.linalg.norm(E - expm(t * M)) <= 1e-13 * np.linalg.norm(E)

    def test_zero_columns(self, rng):
        M = rng.standard_normal((5, 5))
        assert np.array_equal(phi_apply(M, np.zeros(5), 0.3), np.zeros(5))

    def test_empty_matrix(self):
        assert phi_apply(np.zeros((0, 0)), np.zeros(0), 1.0).shape == (0,)
        assert phi_apply(np.zeros((0, 0)), np.zeros((0, 2)), 1.0).shape == (0, 2)

    def test_identity_block_is_phi_construction(self, rng):
        # exp of [[M, I], [0, 0]] built by hand: the same bits as phi_apply
        for m in (1, 5, 12, 22):
            M = rng.standard_normal((m, m)) * 2.0
            W = np.zeros((2 * m, 2 * m))
            W[:m, :m] = M
            W[:m, m:] = np.eye(m)
            want = expm(W)[:m, m:]
            assert np.array_equal(phi_apply(M, np.eye(m), 1.0), want)
            assert np.array_equal(phi1(M), want)

    def test_power_of_two_scaling_is_exact(self, rng):
        for scale in (0.1, 3.0):
            M = rng.standard_normal((6, 6)) * scale
            b = 4.0 * rng.standard_normal(6)
            y = phi_apply(M, b, 0.5)
            for k in range(1, 7):
                assert np.array_equal(phi_apply(M, 2.0 ** k * b, 0.5), 2.0 ** k * y)

    @pytest.mark.parametrize("M", [np.zeros((1, 1)), np.array([[2.0]])])
    def test_power_of_two_scaling_is_exact_up_to_overflow(self, M):
        # b = 2^k near the top of the range: y is 2^k times its value at
        # b = 1, bit for bit, until the exact result overflows, which is a
        # ValueError; no numpy warning on either side
        y = phi_apply(M, np.ones(1), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in range(1015, 1024):
                with np.errstate(over="ignore"):
                    want = np.ldexp(y, k)
                if np.isfinite(want).all():
                    assert np.array_equal(phi_apply(M, np.array([2.0 ** k]), 1.0), want)
                else:
                    with pytest.raises(ValueError, match="overflowed"):
                        phi_apply(M, np.array([2.0 ** k]), 1.0)
            # the column norm 1e308 scales by 2^-1024 and back; y = b to rounding
            y = phi_apply(np.zeros((1, 1)), [1e308], 1.0)
            assert np.isfinite(y).all() and abs(y[0] - 1e308) <= 1e-15 * 1e308

    def test_huge_column_keeps_relative_accuracy(self, rng):
        M = rng.standard_normal((6, 6))
        b = 1e8 * rng.standard_normal(6)
        y = phi_apply(M, b, 0.4)
        want = 0.4 * (phi1_series_oracle(0.4 * M) @ b)
        assert np.linalg.norm(y - want) <= 1e-13 * np.linalg.norm(want)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            phi_apply(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.ones(2), 1.0)
        with pytest.raises(ValueError):
            phi_apply(np.eye(2), np.array([np.inf, 0.0]), 1.0)
        # at t = 0 too, refused before the scaling by t, with no warning first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                phi_apply(np.array([[np.inf, 0.0], [0.0, 1.0]]), np.ones(2), 0.0)
            with pytest.raises(ValueError, match="non-finite"):
                phi_apply(np.eye(2), np.array([np.inf, 0.0]), 0.0)

    BAD_INPUTS = [
        (np.array([[np.inf, 0.0], [0.0, 1.0]]), np.ones(2), 0.0, "non-finite"),  # inf M at t = 0
        (np.eye(2), np.array([np.nan, 0.0]), 1.0, "non-finite"),  # NaN B
        (np.eye(2), np.ones(2), np.inf, "non-finite"),
        (np.eye(2), np.ones(2), -np.inf, "non-finite"),
        (np.full((2, 2), 1e300), np.ones(2), 1e10, "non-finite"),  # tM overflows
        (np.eye(2), np.ones(2), np.nan, "non-finite"),
        # the second-order closed form
        (second_order([[np.inf, 0.0], [0.0, 1.0]]), np.ones(4), 1.0, "non-finite"),  # inf in T
        (second_order([[np.inf, 0.0], [0.0, 1.0]], -1.0), np.ones(4), 0.0, "non-finite"),
        (second_order(np.eye(2)), np.array([np.nan, 0.0, 0.0, 0.0]), 1.0, "non-finite"),  # NaN B
        (second_order(np.eye(2)), np.ones(4), np.inf, "non-finite"),
        (second_order(np.eye(2), -1.0), np.ones(4), -np.inf, "non-finite"),
        (second_order(np.eye(2)), np.ones(4), np.nan, "non-finite"),
        # the Pade path: t phi(t M) b = 3.19 * 1e308 overflows when the
        # column scaling is undone
        (np.array([[2.0]]), np.array([1e308]), 1.0, "overflowed"),
        # delta T has eigenvalue 1e6: sinh(sqrt(1e6) t) = sinh(1000) overflows,
        # for a vector B and for a block B
        (second_order(np.diag([1e6, -1.0])), np.ones(4), 1.0, "overflowed"),
        (second_order(np.diag([-1e6, 1.0]), -1.0), np.eye(4), 1.0, "overflowed"),
        # the overflowing mode meets a zero coefficient of B, and its phi
        # factors a finite B that overflows with them
        (second_order(np.diag([1e6, -1.0])), np.array([0.0, 1.0, 0.0, 1.0]), 1.0,
         "overflowed"),
        (second_order(np.diag([1e3, -1.0])), np.full(4, 1e300), 1.0, "overflowed"),
    ]

    @pytest.mark.parametrize("M,B,t,match", BAD_INPUTS)
    def test_bad_input_is_one_value_error_without_warning(self, M, B, t, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                phi_apply(M, B, t)

    @pytest.mark.parametrize("M,B,t,match", BAD_INPUTS)
    def test_bad_input_fails_the_step(self, M, B, t, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepFailureError, match=match) as info:
                _kernel(phi_apply, M, B, t)
        assert isinstance(info.value.__cause__, ValueError)

    @pytest.mark.parametrize("M,B,t,match", BAD_INPUTS)
    def test_bad_input_is_a_numerical_error(self, M, B, t, match):
        with pytest.raises(NumericalError, match=match):
            phi_apply(M, B, t)

    @pytest.mark.parametrize("M,B", [
        (np.ones((2, 3)), np.ones(2)),  # not square: _square refuses it
        (np.eye(3), np.ones(4)),  # B's length is not M's: numpy cannot broadcast
    ], ids=["non-square", "wrong-length"])
    def test_shape_bug_is_a_plain_value_error_the_step_does_not_convert(self, M, B):
        for call in (lambda: phi_apply(M, B, 0.1), lambda: _kernel(phi_apply, M, B, 0.1)):
            with pytest.raises(ValueError) as info:
                call()
            assert type(info.value) is ValueError

    def test_one_finiteness_check_per_call(self, rng, monkeypatch):
        # M, B and t are covered by expm's one check of the augmented matrix
        checks, isfinite = [], np.isfinite
        monkeypatch.setattr(np, "isfinite", lambda a: checks.append(np.shape(a)) or isfinite(a))
        phi_apply(rng.standard_normal((5, 5)), rng.standard_normal((5, 2)), 0.3)
        assert checks == [(7, 7)]

    def test_overflowing_norm_is_a_value_error_without_warning(self):
        # every entry is finite, but the 1-norm that picks the scaling is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="1-norm overflowed"):
                phi_apply(np.full((2, 2), 1e308), np.ones(2), 1.0)


class TestSecondOrderClosedForm:
    """M = [[0, T], [delta I, 0]] takes phi_apply's closed form; it must
    agree with the Pade kernel, and every other M must keep its bits."""

    def test_matches_pade_on_drawn_matrices(self):
        rng = np.random.default_rng(23)
        seen = set()
        for draw in range(300):
            k = int(rng.integers(1, 12))
            delta = (1.0, -1.0)[draw % 2]
            # the spectrum of delta T: negative, zero and positive eigenvalues
            lam = rng.uniform(-1.0, 1.0, k) * (1.0, 10.0, 50.0)[draw % 3]
            lam[rng.random(k) < 0.3] = 0.0
            Q = np.linalg.qr(rng.standard_normal((k, k)))[0]
            T = delta * (Q * lam) @ Q.T
            F = second_order(0.5 * (T + T.T), delta)
            assert _second_order_sign(F) == delta
            seen.update((delta, int(np.sign(v))) for v in lam)
            # a vector B and a block B, each column applied in the modes
            B = (rng.standard_normal(2 * k) if draw % 4 < 2
                 else rng.standard_normal((2 * k, int(rng.integers(1, 4)))))
            t = rng.uniform(0.0, 1.0)
            Y = phi_apply(F, B, t)
            Y_ref = pade_augmented(F, B, t)[1]
            assert Y.shape == B.shape
            assert np.linalg.norm(Y - Y_ref) <= 1e-12 * np.linalg.norm(Y_ref)
            # one time per column, and a vector meets every time: each
            # column is the call at its time
            ts = rng.uniform(-1.0, 1.0, B.shape[1] if B.ndim == 2 else 3)
            Y = _phi_second_order(F, B, ts[:, None], delta)
            assert Y.shape == (2 * k, ts.size)
            for j, tj in enumerate(ts):
                want = phi_apply(F, B[:, j] if B.ndim == 2 else B, tj)
                assert np.linalg.norm(Y[:, j] - want) <= 1e-14 * np.linalg.norm(want)
        assert seen == {(d, s) for d in (1.0, -1.0) for s in (-1, 0, 1)}

    def test_nilpotent_and_scalar_forms(self):
        # T = 0: t phi(tF) = tI + t^2 F/2, exactly
        F = second_order(np.zeros((3, 3)), -1.0)
        assert np.array_equal(phi_apply(F, np.eye(6), 0.5), 0.5 * np.eye(6) + 0.125 * F)
        # 1 x 1 T = -4 with delta = 1: a harmonic oscillator of frequency 2
        F = second_order([[-4.0]])
        y = phi_apply(F, np.array([0.0, 1.0]), 0.3)
        c, s = np.cos(0.6), np.sin(0.6)
        assert np.allclose(expm(0.3 * F), [[c, -2.0 * s], [0.5 * s, c]], rtol=1e-15, atol=1e-16)
        assert np.allclose(y, [c - 1.0, s / 2.0], rtol=1e-14, atol=0.0)

    def test_t_zero_is_zero(self, rng):
        T = rng.standard_normal((5, 5))
        F = second_order(T + T.T, -1.0)
        assert np.array_equal(expm(0.0 * F), np.eye(10))
        for B in (rng.standard_normal(10), rng.standard_normal((10, 3))):
            assert np.array_equal(phi_apply(F, B, 0.0), np.zeros(B.shape))
        # with one time per column, the column at t = 0
        Y = _phi_second_order(F, rng.standard_normal((10, 3)), np.array([[0.5], [0.0], [-2.0]]),
                              -1.0)
        assert np.array_equal(Y[:, 1], np.zeros(10)) and Y[:, [0, 2]].all()

    def test_near_forms_keep_pade_bits(self, rng):
        k = 5
        T = rng.standard_normal((k, k))
        T = T + T.T
        mixed = second_order(T)
        mixed[k + 2, 2] = -1.0  # D = diag(1, 1, -1, 1, 1)
        diagonal_block = second_order(T)
        diagonal_block[0, 0] = 1e-3
        lower_block = second_order(T, -1.0)
        lower_block[-1, -1] = -2.0
        off_diagonal_d = second_order(T)
        off_diagonal_d[k + 1, 0] = 0.5
        nonsymmetric = second_order(T)
        nonsymmetric[0, k + 1] += 1e-12
        for M in (mixed, diagonal_block, lower_block, off_diagonal_d, nonsymmetric):
            assert _second_order_sign(M) == 0.0
            P = phi_apply(M, np.eye(2 * k), 1.0)
            assert np.array_equal(P, pade_augmented(M, np.eye(2 * k), 1.0)[1])

    def test_lanczos_matrix_takes_the_closed_form(self):
        from symkry import CountingAction, KleinGordonSystem, hamiltonian_lanczos

        sys = KleinGordonSystem(n=100)
        x = sys.initial_state
        F = hamiltonian_lanczos(CountingAction.from_system(sys, x), sys.f(x), 6).basis.reduced
        assert _second_order_sign(F) in (1.0, -1.0)


class TestGridOfTimes:
    """A vector B with a column of times: one column per time, each the
    call at that time, in any order of the times.  The times are within
    two steps of 0.025, the wave step at which such a basis serves."""

    TIMES = np.array([[0.02], [0.0], [0.05], [0.005], [0.035], [0.02]])

    def reduced(self, process):
        from symkry import CountingAction, LinearWaveSystem
        from symkry.integrators import BASIS_PROCESSES

        sys = LinearWaveSystem(n=100)
        x = sys.initial_state
        builder, mult = BASIS_PROCESSES[process]
        basis = builder(CountingAction.from_system(sys, x), sys.f(x), 12 // mult).basis
        return basis.reduced, basis.left_apply(sys.f(x))

    def test_closed_form_columns_are_the_scalar_calls_bit_for_bit(self):
        F, b = self.reduced("hamiltonian-lanczos")
        assert _second_order_sign(F) != 0.0
        Y = phi_apply(F, b, self.TIMES)
        assert Y.shape == (b.size, self.TIMES.size)
        for column, (t,) in zip(Y.T, self.TIMES):
            assert np.array_equal(column, phi_apply(F, b, float(t)))

    def test_pade_columns_are_the_scalar_calls(self, monkeypatch):
        # not sorted, not uniform, 0 and a repeat included: 0 is exactly
        # zero, and the intervals, 0, 0.005 and three of 0.015 to 12
        # significant digits, take three flows
        F, b = self.reduced("arnoldi")
        assert _second_order_sign(F) == 0.0
        calls, real = [], matfun.pade_flow
        monkeypatch.setattr(matfun, "pade_flow", lambda *a: calls.append(a[2]) or real(*a))
        Y = phi_apply(F, b, self.TIMES)
        assert len(calls) == 3
        assert Y.shape == (b.size, self.TIMES.size)
        for column, (t,) in zip(Y.T, self.TIMES):
            want = phi_apply(F, b, float(t))
            assert np.linalg.norm(column - want) <= 1e-13 * np.linalg.norm(want)
        assert not Y[:, 1].any()

    def test_pade_overflow_is_left_to_the_caller_without_warning(self):
        # each interval's flow is finite, and the propagated columns
        # overflow: inf or NaN, for the caller's check
        M = np.array([[700.0, 0.0], [0.0, -1.0]])
        times = np.arange(1.0, 4.0)[:, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Y = phi_apply(M, np.ones(2), times)
        assert np.isfinite(Y[:, 0]).all() and not np.isfinite(Y[0, 1:]).any()


class TestPhiIdentityProperties:
    """Seeded draws of structured and general F: phi_apply keeps the
    reflection identity e^(-hF) h phi(hF) = h phi(-hF) and the doubling
    identity h phi(hF) b = K (E b + b), with K = phi_apply(F, I, h/2) and
    E = e^(hF/2), on both of its paths; e^(tF) comes from ``expm``."""

    @staticmethod
    def draws(structured, count=150):
        rng = np.random.default_rng(31 if structured else 37)
        for _ in range(count):
            if structured:
                k = int(rng.integers(1, 12))
                T = rng.standard_normal((k, k))
                F = second_order(T + T.T, float(rng.choice([-1.0, 1.0])))
            else:
                F = rng.standard_normal((int(rng.integers(1, 23)),) * 2)
            h = rng.uniform(0.05, 8.0) / np.linalg.norm(F, 2)
            yield F, h, rng.standard_normal(F.shape[0])

    @pytest.mark.parametrize("structured", [True, False])
    def test_reflection(self, structured):
        for F, h, _ in self.draws(structured):
            assert (_second_order_sign(F) != 0.0) == structured
            I = np.eye(F.shape[0])
            K_minus = phi_apply(F, I, -h)  # -h phi(-hF)
            K = phi_apply(F, I, h)
            assert np.linalg.norm(expm(-h * F) @ K + K_minus) <= 1e-12 * np.linalg.norm(K_minus)

    @pytest.mark.parametrize("structured", [True, False])
    def test_doubling(self, structured):
        for F, h, b in self.draws(structured):
            E_half, E = expm(0.5 * h * F), expm(h * F)
            K = phi_apply(F, np.eye(F.shape[0]), 0.5 * h)
            y = phi_apply(F, b, h)
            assert np.linalg.norm(E_half @ E_half - E) <= 1e-12 * np.linalg.norm(E)
            assert np.linalg.norm(K @ (E_half @ b + b) - y) <= 1e-12 * np.linalg.norm(y)


class TestPhiIdentities:
    def test_zero_matrix_defects_vanish(self):
        rep = phi1_scaled_identities_check(np.zeros((5, 5)))
        assert rep.reflection == 0.0
        assert rep.doubling == 0.0

    def test_random_moderate_norm(self, rng):
        for _ in range(5):
            M = rng.standard_normal((8, 8))
            M *= 2.0 / np.linalg.norm(M, 2)
            rep = phi1_scaled_identities_check(M)
            assert rep.max_defect() <= 1e-12

    def test_reduced_wave_matrix(self, rng):
        # hF for a symplectic-basis reduction of the wave benchmark: the
        # reduced matrix is Hamiltonian, so its exponential is symplectic
        from symkry import CountingAction, LinearWaveSystem, symplectic_arnoldi

        sys = LinearWaveSystem(n=40)
        action = CountingAction.from_system(sys, sys.initial_state)
        v = rng.standard_normal(sys.dim)
        out = symplectic_arnoldi(action, v, 6)
        h = 50.0 / 2000.0
        hF = h * out.basis.reduced
        rep = phi1_scaled_identities_check(hF)
        assert rep.max_defect() <= 1e-11
        E = expm(hF)
        J = canonical_J(hF.shape[0] // 2)
        assert np.linalg.norm(E.T @ J @ E - J) <= 1e-10

    def test_reduced_nls_matrix_identities(self, rng):
        # hF for the Schroedinger benchmark's reduced matrix at the
        # benchmark step size
        from symkry import CountingAction, NonlinearSchroedingerSystem, hamiltonian_lanczos

        sys = NonlinearSchroedingerSystem(n=64)
        x = sys.initial_state
        action = CountingAction.from_system(sys, x)
        out = hamiltonian_lanczos(action, sys.f(x), 8)
        h = 40.0 * np.pi / 8000.0
        rep = phi1_scaled_identities_check(h * out.basis.reduced)
        assert rep.max_defect() <= 1e-11


class TestHalfStepDoubling:
    """On reduced matrices of the packaged problems, the half-step kernel
    K = phi_apply(F, I, h/2) with E = e^(hF/2) from ``expm`` gives the full
    step: e^(hF) = E^2 and h phi(hF) b = K (E b + b)."""

    @pytest.mark.parametrize("problem,h", [("klein-gordon", 0.02), ("nls", np.pi / 200.0)])
    @pytest.mark.parametrize("process", ["arnoldi", "hamiltonian-lanczos"])
    def test_matches_full_step_phi_apply(self, problem, h, process):
        from symkry import CountingAction, KleinGordonSystem, NonlinearSchroedingerSystem
        from symkry.integrators import BASIS_PROCESSES

        sys = KleinGordonSystem(n=400) if problem == "klein-gordon" else \
            NonlinearSchroedingerSystem(n=125)
        x = sys.initial_state
        builder, mult = BASIS_PROCESSES[process]
        basis = builder(CountingAction.from_system(sys, x), sys.f(x), 22 // mult).basis
        F, b = basis.reduced, basis.left_apply(sys.f(x))
        E_half, E = expm(0.5 * h * F), expm(h * F)
        K = phi_apply(F, np.eye(F.shape[0]), 0.5 * h)
        y = phi_apply(F, b, h)
        assert np.linalg.norm(E_half @ E_half - E) <= 1e-12 * np.linalg.norm(E)
        assert np.linalg.norm(K @ (E_half @ b + b) - y) <= 1e-12 * np.linalg.norm(y)

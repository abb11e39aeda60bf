import math

import mpmath
import numpy as np
import pytest

from jacobispec import _kernels, growth, spectrum, verify
from jacobispec.growth import (
    b_log_max_modulus,
    convergence_exponent_from_zeros,
    evaluate_entries_real,
    leading_coefficient_logs,
    log_majorant_product,
    majorant_bound_gap,
    nevanlinna_evaluate,
    order_type_from_coefficients,
    order_type_from_max_modulus,
    scan_b_zeros,
    upper_density,
)
from jacobispec.params import JacobiSequence, descriptor_from_json, materialize
from jacobispec.recurrence import solve_at_zero
from jacobispec.spectrum import _stacked_brackets, eigenvalues_in
from jacobispec.verify import _exceptional_zeros, _m1_routes, _seq, _sol


def _check_zeros(which):
    """The zeros of B_2000 that the acceptance checks read: c06's on m1 in
    [-1e4, 1e4], c12's on m3 and m4 in [-1e6, 1e6]."""
    if which == "m1":
        return _m1_routes()[0]
    return _exceptional_zeros()[["m3", "m4"].index(which)]


def _sturm_brackets(diag, offsq, a, b, tol):
    """The brackets of the eigenvalues in [a, b] of one tridiagonal."""
    lo, hi, _ = _stacked_brackets(diag, offsq, [diag.size], None, [a], [b], [tol])
    return lo, hi


def classical_partial_sums(seq, sol, z, N):
    """Independent oracle: A_N, B_N, C_N, D_N from the textbook partial sums
    with P_k(z), Q_k(z) computed by the recurrence at z."""
    Pz = np.zeros(N, dtype=complex)
    Qz = np.zeros(N, dtype=complex)
    Pz[0] = 1.0
    Pz[1] = (z - seq.q[0]) / seq.rho[0]
    Qz[1] = 1.0 / seq.rho[0]
    for k in range(1, N - 1):
        Pz[k + 1] = ((z - seq.q[k]) * Pz[k] - seq.rho[k - 1] * Pz[k - 1]) / seq.rho[k]
        Qz[k + 1] = ((z - seq.q[k]) * Qz[k] - seq.rho[k - 1] * Qz[k - 1]) / seq.rho[k]
    P0, Q0 = sol.P[:N], sol.Q[:N]
    return (
        z * np.sum(Q0 * Qz),
        -1.0 + z * np.sum(Q0 * Pz),
        1.0 + z * np.sum(P0 * Qz),
        z * np.sum(P0 * Pz),
    )


class TestNevanlinnaProduct:
    def test_identity_at_zero(self, m1_sol_2000):
        part = nevanlinna_evaluate(m1_sol_2000, 0.0)
        assert (part.A, part.B, part.C, part.D) == (0.0, -1.0, 1.0, 0.0)
        assert part.log_scale == 0.0

    def test_matches_classical_partial_sums(self, m1_seq_2000, m1_sol_2000):
        for z in (1.7 - 0.3j, -2.5 + 1j, 0.3 + 0.0j):
            for N in (10, 50, 120):
                part = nevanlinna_evaluate(m1_sol_2000, z, N)
                scale = math.exp(part.log_scale)
                A, B, C, D = classical_partial_sums(m1_seq_2000, m1_sol_2000, z, N)
                assert part.A * scale == pytest.approx(A, rel=1e-10, abs=1e-12)
                assert part.B * scale == pytest.approx(B, rel=1e-10, abs=1e-12)
                assert part.C * scale == pytest.approx(C, rel=1e-10, abs=1e-12)
                assert part.D * scale == pytest.approx(D, rel=1e-10, abs=1e-12)

    def test_determinant_identity_random_z(self, m1_sol_2000, rng):
        for _ in range(20):
            z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            if abs(z) > 10:
                z = 10 * z / abs(z)
            assert nevanlinna_evaluate(m1_sol_2000, z, 2000).determinant_residual() <= 1e-6

    def test_batched_points_match_single_calls(self, m1_seq_2000, m1_sol_2000, rng):
        # c05 and majorant_bound_gap evaluate their z samples in one call
        import jacobispec.growth as G

        zs = rng.uniform(-10, 10, 12) + 1j * rng.uniform(-10, 10, 12)
        parts = G._partials(m1_sol_2000, zs, 2000)
        assert parts == [nevanlinna_evaluate(m1_sol_2000, z, 2000) for z in zs]
        zs = 1j * np.geomspace(10.0, 1e4, 8)
        gaps = majorant_bound_gap(m1_sol_2000, m1_seq_2000, zs, 2000)
        singles = [
            nevanlinna_evaluate(m1_sol_2000, z, 2000).log_spectral_norm()
            - log_majorant_product(m1_seq_2000, abs(z))
            for z in zs
        ]
        assert gaps.tolist() == singles

    def test_one_step_unrolling(self, m1_sol_2000):
        z = 2.0 - 1.5j
        for N in (17, 400):
            a = nevanlinna_evaluate(m1_sol_2000, z, N)
            b = nevanlinna_evaluate(m1_sol_2000, z, N + 1)
            P, Q = m1_sol_2000.P[N], m1_sol_2000.Q[N]
            sa = math.exp(a.log_scale)
            sb = math.exp(b.log_scale)
            A2 = a.A + z * (Q * Q * a.C - P * Q * a.A)
            B2 = a.B + z * (Q * Q * a.D - P * Q * a.B)
            C2 = a.C + z * (P * Q * a.C - P * P * a.A)
            D2 = a.D + z * (P * Q * a.D - P * P * a.B)
            assert b.A * sb == pytest.approx(A2 * sa, rel=1e-12)
            assert b.B * sb == pytest.approx(B2 * sa, rel=1e-12)
            assert b.C * sb == pytest.approx(C2 * sa, rel=1e-12)
            assert b.D * sb == pytest.approx(D2 * sa, rel=1e-12)

    def test_batched_points_match_single_calls_at_large_radius(self, m3_sol):
        # the renormalization schedule follows the largest |z| of a call,
        # the canonical power-of-two form makes each point independent of it
        import jacobispec.growth as G

        zs = np.geomspace(1.0, 1e8, 9) * np.exp(1j * np.linspace(0.0, np.pi, 9))
        zs = np.concatenate([zs, [-1e8, 3e5, 0.0]])
        parts = G._partials(m3_sol, zs, 2000)
        assert max(p.log_scale for p in parts) > 700  # far beyond binary64
        assert parts == [nevanlinna_evaluate(m3_sol, z, 2000) for z in zs]

    def test_rescaling_engages_without_overflow(self, m3_sol):
        part = nevanlinna_evaluate(m3_sol, 1e6 + 0j, 2000)
        assert part.log_scale > 0
        assert np.isfinite([part.A, part.B, part.C, part.D]).all()
        assert part.log_spectral_norm() > 300  # true value far beyond 1e150
        # the entries' product is far beyond binary64: inf, not an exception
        assert part.determinant_residual() == math.inf
        assert nevanlinna_evaluate(m3_sol, 1e8j, 2000).determinant_residual() == math.inf


class TestZeroScan:
    def test_origin_never_a_zero(self, m1_b_zeros):
        assert np.min(np.abs(m1_b_zeros)) > 0.5

    def test_count_close_to_truncation_count(self, m1_seq_2000, m1_b_zeros):
        ev = eigenvalues_in(m1_seq_2000, 2000, (-1e4, 1e4), tol=1e-7)
        assert abs(len(m1_b_zeros) - len(ev)) <= 2

    def test_zeros_interlace_truncation_eigenvalues(self, m1_seq_2000, m1_b_zeros):
        # inner window where both objects converged: strict alternation
        ev = eigenvalues_in(m1_seq_2000, 2000, (-300.0, 300.0), tol=1e-9)
        zeros = m1_b_zeros[np.abs(m1_b_zeros) <= 300.0]
        merged = np.sort(np.concatenate([zeros, ev]))
        tags = np.concatenate([np.zeros(len(zeros)), np.ones(len(ev))])
        tagged = tags[np.argsort(np.concatenate([zeros, ev]))]
        assert np.all(tagged[1:] != tagged[:-1]), merged

    def test_grid_validation(self, m1_seq_2000, m1_sol_2000):
        with pytest.raises(ValueError):
            scan_b_zeros(m1_sol_2000, m1_seq_2000, 2000, -5.0)
        with pytest.raises(ValueError):
            scan_b_zeros(m1_sol_2000, m1_seq_2000, 2001, 100.0)

    @pytest.mark.parametrize("r", [math.nan, math.inf])
    def test_non_finite_radius_rejected(self, r):
        # NaN returned no zeros; inf made tol infinite and raised "no sign
        # change across 200 of 200" brackets
        seq, sol = _seq("m1", 200), _sol("m1", 200)
        with pytest.raises(ValueError, match="positive and finite"):
            scan_b_zeros(sol, seq, 200, r)

    @pytest.mark.parametrize(
        "which, r, expected", [("m1", 1e4, 116), ("m3", 1e6, 134), ("m4", 1e6, 133)]
    )
    def test_count_equals_modified_sturm_count(self, which, r, expected):
        seq, sol = _seq(which, 2000), _sol(which, 2000)
        diag = seq.q[:2000].copy()
        diag[-1] += seq.rho[1999] * sol.Q[2000] / sol.Q[1999]
        c, _ = _kernels.sturm_counts(
            diag, seq.rho[:1999] ** 2, np.array([np.nextafter(r, np.inf), -r])
        )
        zeros = _check_zeros(which)
        assert len(zeros) == int(c[0] - c[1]) == expected
        assert np.all(np.diff(zeros) > 0) and np.all(np.abs(zeros) <= r)

    def test_matches_dense_modified_truncation(self, m1_seq_2000, m1_sol_2000):
        N, r = 200, 1e4
        seq, sol = m1_seq_2000, m1_sol_2000
        off = np.diag(seq.rho[: N - 1], 1)
        J = np.diag(seq.q[:N]) + off + off.T
        J[-1, -1] += seq.rho[N - 1] * sol.Q[N] / sol.Q[N - 1]
        ev = np.linalg.eigvalsh(J)
        ev = ev[np.abs(ev) <= r]
        zeros = scan_b_zeros(sol, seq, N, r)
        assert len(zeros) == len(ev) > 32
        assert np.max(np.abs(zeros - ev)) <= 1e-9 * r

    def test_vanishing_q_gives_shorter_truncation(self, free_seq, free_sol):
        # free matrix: Q_n(0) = 0, 1, 0, -1, ... so Q_8(0) = 0 and B_9 is a
        # multiple of P_8, whose zeros are the eigenvalues 2 cos(k pi / 9) of J_8
        assert free_sol.Q[8] == 0.0
        zeros = scan_b_zeros(free_sol, free_seq, 9, 3.0)
        expected = np.sort(2.0 * np.cos(np.arange(1, 9) * np.pi / 9))
        assert zeros == pytest.approx(expected, abs=3e-9)

    def test_zero_at_exactly_minus_r(self, free_seq, free_sol):
        # Q_2(0) = 0, so the zeros of B_3 are the eigenvalues -1, 1 of J_2,
        # whose pivots at +-1 are exactly zero
        assert free_sol.Q[2] == 0.0
        assert scan_b_zeros(free_sol, free_seq, 3, 1.0) == pytest.approx(
            [-1.0, 1.0], abs=1e-9
        )

    def test_sign_change_confirmed_at_large_N(self):
        # beta = 7/4 at N = 2e4, r = 1e5.  Plain bisection of [-r, r] passes
        # through the window below and ends at [-77105.32303899527,
        # -77105.32294586301], where B_N's transfer product returns the same
        # sign at both ends; the centred bracket keeps both ends about
        # 0.45 tol from the zero.  Only that window is bracketed here.
        desc = descriptor_from_json({
            "beta1": "1.75", "beta2": "1.75", "x0": 1, "y0": -2,
            "x1": 2, "y1": 0, "x2": 0, "y2": 0, "order": "second",
        })
        N, r = 20000, 1e5
        seq = materialize(desc, N)
        sol = solve_at_zero(seq)
        diag = seq.q[:N].copy()
        diag[-1] += seq.rho[N - 1] * sol.Q[N] / sol.Q[N - 1]
        tol = 1e-9 * r
        window = (-77105.33142089844, -77105.14068603516)
        lo, hi = _sturm_brackets(diag, seq.rho[: N - 1] ** 2, *window, tol)
        assert lo.size == 1 and hi[0] - lo[0] <= tol
        B, _, _ = evaluate_entries_real(sol, np.concatenate([lo, hi]), N)
        assert np.sign(B[0]) * np.sign(B[1]) < 0

    def test_bracket_without_sign_change_raises(
        self, monkeypatch, m1_seq_2000, m1_sol_2000
    ):
        import jacobispec.growth as G

        def constant_sign(sol, xs, N=None):
            xs = np.asarray(xs, dtype=np.float64)
            return np.ones_like(xs), np.zeros_like(xs), np.zeros_like(xs)

        monkeypatch.setattr(G, "evaluate_entries_real", constant_sign)
        with pytest.raises(RuntimeError, match="no sign change"):
            G.scan_b_zeros(m1_sol_2000, m1_seq_2000, 2000, 100.0)

    def test_one_kernel_call_per_route(self, monkeypatch, m1_seq_2000, m1_sol_2000):
        # the zero check passes both ends of every bracket, and the
        # max-modulus evaluator every radius on every ray, to one call each
        calls = []

        def spy(kernel):
            def wrapped(P, Q, zs, N, u0, v0):
                calls.append((kernel.__name__, np.size(zs), (u0, v0)))
                return kernel(P, Q, zs, N, u0, v0)
            return wrapped

        for name in ("transfer_real", "transfer_complex"):
            monkeypatch.setattr(_kernels, name, spy(getattr(_kernels, name)))
        zeros = scan_b_zeros(m1_sol_2000, m1_seq_2000, 2000, 1e3)
        assert calls == [("transfer_real", 2 * zeros.size, (-1.0, 0.0))]
        calls.clear()
        evaluator = b_log_max_modulus(m1_sol_2000, 2000, rays=24)
        evaluator(np.geomspace(10.0, 1e4, 7))
        assert calls == [("transfer_complex", 24 * 7, (-1.0, 0.0))]


@pytest.fixture(scope="module")
def golden_zero_brackets():
    """The brackets whose signs the golden zero routes check, m1's (r = 1e4)
    then m3's and m4's (r = 1e6), as (sol, lo, hi, tol), from a fresh
    ``verify._golden_routes`` call."""
    seen = []
    confirmed = growth._confirmed

    def record(sol, N, lo, hi):
        seen.append((sol, lo.copy(), hi.copy()))
        return confirmed(sol, N, lo, hi)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(growth, "_confirmed", record)
        verify._golden_routes.cache_clear()
        verify._golden_routes()
    return {
        which: (sol, lo, hi, 1e-9 * r)
        for which, r, (sol, lo, hi) in zip(("m1", "m3", "m4"), (1e4, 1e6, 1e6), seen)
    }


def _mp_b(sol, N, x):
    """B_N(x) from the product of the float factors in 50-digit arithmetic:
    the (B, D) column starts at (-1, 0) and each factor moves it by
    s = x (Q_n v - P_n u), u += Q_n s, v += P_n s."""
    with mpmath.workdps(50):
        x, u, v = mpmath.mpf(float(x)), mpmath.mpf(-1), mpmath.mpf(0)
        for p, q in zip(sol.P[:N].tolist(), sol.Q[:N].tolist()):
            s = x * (q * v - p * u)
            u += q * s
            v += p * s
        return u


def _assert_signs_witnessed(sol, lo, hi):
    """B_2000 changes sign across every bracket, and its kernel sign at each
    end is the 50-digit product's."""
    B, _, _ = evaluate_entries_real(sol, np.concatenate([lo, hi]), 2000)
    exact = [mpmath.sign(_mp_b(sol, 2000, x)) for x in np.concatenate([lo, hi])]
    assert np.array_equal(np.sign(B), np.array(exact, dtype=float))
    assert np.all(np.sign(B[: lo.size]) * np.sign(B[lo.size :]) < 0)


class TestGoldenZeroBrackets:
    """The brackets of the shared golden call keep their zeros well inside,
    so that the transfer-product sign check at their ends is decisive."""

    @pytest.mark.parametrize("which", ["m1", "m3", "m4"])
    def test_zero_at_least_0_4_tol_from_both_ends(self, golden_zero_brackets, which):
        sol, lo, hi, tol = golden_zero_brackets[which]
        r = 1e4 if which == "m1" else 1e6
        problem = growth._b_zero_problem(sol, _seq(which, 2000), 2000, r)
        # the zeros bracketed alone to a ten-thousandth of tol
        (fine_lo, fine_hi), = spectrum._bracket_each([(*problem[:3], 1e-4 * tol, problem[4])])
        zero = 0.5 * (fine_lo + fine_hi)
        assert zero.size == lo.size > 32
        assert np.all(hi - lo <= tol)
        assert np.min(zero - lo) >= 0.4 * tol and np.min(hi - zero) >= 0.4 * tol

    def test_smallest_b_signs_match_mpmath(self, golden_zero_brackets):
        # the 8 brackets of m3 whose ends hold the smallest |B_2000|
        sol, lo, hi, _ = golden_zero_brackets["m3"]
        B, _, log_scale = evaluate_entries_real(sol, np.concatenate([lo, hi]), 2000)
        size = np.log(np.abs(B)) + log_scale
        i = np.argsort(np.minimum(size[: lo.size], size[lo.size :]))[:8]
        _assert_signs_witnessed(sol, lo[i], hi[i])

    @pytest.mark.slow
    @pytest.mark.parametrize("which", ["m1", "m3", "m4"])
    def test_every_b_sign_matches_mpmath(self, golden_zero_brackets, which):
        sol, lo, hi, _ = golden_zero_brackets[which]
        _assert_signs_witnessed(sol, lo, hi)


class TestMajorant:
    def test_zero_radius(self, m1_seq_2000):
        assert log_majorant_product(m1_seq_2000, 0.0) == 0.0

    def test_growth_exponent_half(self, m1_seq_2000):
        rs = np.geomspace(1e2, 1e6, 12)
        vals = np.array([log_majorant_product(m1_seq_2000, r) for r in rs])
        slope = np.polyfit(np.log(rs), np.log(vals), 1)[0]
        assert slope == pytest.approx(0.5, abs=0.05)
        # the infinite product for a/x0 = 1, beta1 = 2 tends to pi sqrt(r)
        assert vals[-1] == pytest.approx(np.pi * np.sqrt(rs[-1]), rel=0.02)

    def test_norm_bounded_by_majorant(self, m1_seq_2000, m1_sol_2000):
        zs = 1j * np.geomspace(10.0, 1e4, 8)
        gaps = majorant_bound_gap(m1_sol_2000, m1_seq_2000, zs, 2000)
        assert np.max(gaps) < 1.0  # a finite constant dominates the gap
        assert gaps[-1] <= gaps[0]  # and it does not drift upward

    def test_rejects_exceptional_model(self, m3_seq):
        with pytest.raises(ValueError):
            log_majorant_product(m3_seq, 10.0)

    def test_gap_classifies_once(self, m1_seq_2000, m1_sol_2000, monkeypatch):
        import jacobispec.growth as G

        calls = []
        classify = G.classify
        monkeypatch.setattr(G, "classify", lambda desc: calls.append(1) or classify(desc))
        majorant_bound_gap(m1_sol_2000, m1_seq_2000, 1j * np.geomspace(10.0, 1e4, 8), 2000)
        assert len(calls) == 1


class TestCoefficientSeries:
    def test_empty_product_head(self, m1_seq_2000):
        logc = leading_coefficient_logs(m1_seq_2000)
        assert logc[0] == 0.0 and logc[1] == 0.0

    def test_exact_squares_product(self):
        n = np.arange(256)
        rho = np.maximum(n, 1.0) ** 2  # rho_k = k^2 for k >= 1
        seq = JacobiSequence(rho=rho, q=np.zeros(256))
        logc = leading_coefficient_logs(seq)
        the_n = 100
        expected = -2.0 * math.lgamma(the_n)  # -2 log((n-1)!)
        assert logc[the_n] == pytest.approx(expected, rel=1e-12)

    def test_m1_matches_factorial_asymptotics(self, m1_seq):
        # rho_k = (k+1)^2 exactly, so log c_n + 2 log(n!) must stay bounded
        logc = leading_coefficient_logs(m1_seq)
        n = np.arange(2, 5000)
        resid = logc[2:] + 2.0 * np.array([math.lgamma(k + 1) for k in range(2, 5000)])
        assert np.max(np.abs(resid)) < 1e-7

    def test_order_type_exponential(self):
        n = np.arange(4000)
        logc = -np.array([math.lgamma(k + 1) for k in n])
        order, tau = order_type_from_coefficients(logc)
        assert order == pytest.approx(1.0, abs=0.01)
        assert tau == pytest.approx(1.0, abs=0.05)

    def test_order_type_squared_factorial(self):
        n = np.arange(4000)
        logc = -2.0 * np.array([math.lgamma(k + 1) for k in n])
        order, tau = order_type_from_coefficients(logc)
        assert order == pytest.approx(0.5, abs=0.005)
        assert tau == pytest.approx(2.0, abs=0.05)

    def test_m1_series(self, m1_seq):
        order, tau = order_type_from_coefficients(leading_coefficient_logs(m1_seq))
        assert order == pytest.approx(0.5, abs=0.02)
        assert tau == pytest.approx(2.0, abs=0.1)

    def test_rejects_growing_coefficients(self):
        with pytest.raises(ValueError):
            order_type_from_coefficients(np.arange(128, dtype=float))


class TestFitsWithoutLapack:
    """The four-term fit (modified Gram-Schmidt) and the max-modulus line
    fit (closed form) pinned against np.linalg.lstsq, called here only."""

    @pytest.fixture(scope="class")
    def c08_problem(self, m1_seq):
        # the basis and tail window order_type_from_coefficients fits for c08
        logc = leading_coefficient_logs(m1_seq)
        n = np.arange(logc.size // 2, logc.size, dtype=np.float64)
        basis = np.column_stack([n * np.log(n), n, np.log(n), np.ones_like(n)])
        return logc, basis, -logc[n.astype(int)]

    def test_c08_order_and_type_match_lstsq(self, c08_problem):
        logc, basis, y = c08_problem
        a = np.linalg.lstsq(basis, y, rcond=None)[0][0]
        n = basis[:, 1]
        order = 1.0 / a
        tau = np.max(n * np.exp(order * logc[n.astype(int)] / n)) / (math.e * order)
        got_order, got_tau = order_type_from_coefficients(logc)
        assert abs(got_order - order) <= 1e-10 * order
        assert abs(got_tau - tau) <= 1e-10 * tau

    def test_c08_coefficients_match_50_digit_least_squares(self, c08_problem):
        _, basis, y = c08_problem
        with mpmath.workdps(50):
            # normal equations: the scaled basis has condition ~3e4, so its
            # square costs 9 of the 50 digits
            B = mpmath.matrix(basis.tolist())
            exact = mpmath.lu_solve(B.T * B, B.T * mpmath.matrix(y.tolist()))
            exact = np.array([float(c) for c in exact])
        got = growth._mgs_lstsq(basis, y)
        assert np.all(np.abs(got - exact) <= 1e-9 * np.abs(exact))

    def test_m3_bench_grid_matches_lstsq(self):
        # the r grid of the m3_growth bench workload on golden m3 at N = 2000
        rs = np.geomspace(100.0, 1e6, 20)
        logM = b_log_max_modulus(_sol("m3", 2000), 2000)(rs)
        x, y = np.log(rs[10:]), np.log(logM[10:])
        slope = np.linalg.lstsq(np.vstack([x, np.ones_like(x)]).T, y, rcond=None)[0][0]
        tau = np.mean(logM[10:] / rs[10:] ** slope)
        fit = order_type_from_max_modulus(rs, logM)
        assert abs(fit.order - slope) <= 1e-10 * slope
        assert abs(fit.type_at_order - tau) <= 1e-10 * tau


class TestMaxModulus:
    def test_synthetic_exact(self):
        rs = np.geomspace(10, 1e5, 16)
        fit = order_type_from_max_modulus(rs, 2.0 * np.sqrt(rs))
        assert fit.order == pytest.approx(0.5, abs=1e-6)
        assert fit.type_at_order == pytest.approx(2.0, abs=1e-6)
        assert fit.stderr < 1e-9 and fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_fit_window_on_default_grid(self):
        # the CLI's default r grid: 20 radii from 10 to 1e4; the top half is fitted
        rs = np.geomspace(10.0, 1e4, 20)
        logM = 3.0 * rs**0.5 + np.log(rs)
        fit = order_type_from_max_modulus(rs, logM)
        assert fit.points == 10
        assert fit.window == (rs[10], 1e4)
        x, y = np.log(rs[10:]), np.log(logM[10:])
        design = np.vstack([x, np.ones_like(x)]).T
        coef, res = np.linalg.lstsq(design, y, rcond=None)[:2]
        stderr = np.sqrt(res[0] / 8 / np.sum((x - x.mean()) ** 2))
        assert fit.stderr == pytest.approx(stderr, rel=1e-6)
        assert fit.r_squared == pytest.approx(
            1 - res[0] / np.sum((y - y.mean()) ** 2), rel=1e-9
        )

    def test_m1_b_function(self, m1_sol_2000):
        rs = np.geomspace(10, 1e5, 24)
        fit = order_type_from_max_modulus(
            rs, b_log_max_modulus(m1_sol_2000, 2000)(rs)
        )
        assert fit.order == pytest.approx(0.5, abs=0.05)
        assert 1.8 <= fit.type_at_order <= 4.4  # theoretical type window [2, 4] with slack

    def test_rejects_non_monotone(self):
        rs = np.geomspace(10, 1e3, 8)
        with pytest.raises(ValueError, match="not increasing"):
            order_type_from_max_modulus(rs, np.sin(rs) + 2.0)

    def test_rejects_shape_mismatch(self):
        rs = np.geomspace(10, 1e3, 8)
        with pytest.raises(ValueError, match="one log M value per grid radius"):
            order_type_from_max_modulus(rs, 2.0 * np.sqrt(rs[:-1]))

    def test_rays_floor(self, m1_sol_2000):
        with pytest.raises(ValueError):
            b_log_max_modulus(m1_sol_2000, 2000, rays=8)

    def test_batched_radii_match_single_calls(self, m1_sol_2000):
        evaluator = b_log_max_modulus(m1_sol_2000, 2000)
        rs = np.geomspace(10, 1e4, 20)
        batched = evaluator(rs)
        single = [evaluator(np.array([r])) for r in rs]
        assert all(v.shape == (1,) for v in single)
        assert batched.tolist() == [float(v[0]) for v in single]


class TestZeroStatistics:
    def test_quadratic_zeros(self):
        zeros = (np.arange(1, 200, dtype=float)) ** 2
        fit = convergence_exponent_from_zeros(zeros)
        assert fit.slope == pytest.approx(0.5, abs=1e-9)
        assert fit.stderr < 1e-9

    def test_cubic_zeros(self):
        zeros = (np.arange(1, 200, dtype=float)) ** 3
        assert convergence_exponent_from_zeros(zeros).slope == pytest.approx(
            1 / 3, abs=1e-9
        )

    def test_m1_zero_fit(self, m1_b_zeros):
        fit = convergence_exponent_from_zeros(np.sort(np.abs(m1_b_zeros)))
        assert fit.slope == pytest.approx(0.5, abs=0.1)

    def test_density_quadratic(self):
        zeros = (np.arange(1, 200, dtype=float)) ** 2
        assert upper_density(zeros, 2.0) == pytest.approx(1.0, rel=1e-6)
        assert upper_density((2 * np.arange(1, 200.0)) ** 2, 2.0) == pytest.approx(
            0.5, rel=1e-6
        )

    def test_density_requires_beta_above_one(self):
        with pytest.raises(ValueError):
            upper_density(np.arange(1.0, 64.0), 1.0)

    def test_needs_32_zeros(self):
        with pytest.raises(ValueError):
            convergence_exponent_from_zeros(np.arange(1.0, 20.0))


class TestCrossMethodConsistency:
    def test_coefficient_and_max_modulus_orders_agree(self, m1_seq):
        # evaluate the coefficient series itself on the positive axis (its
        # coefficients are positive, so the max modulus sits at theta = 0)
        logc = leading_coefficient_logs(m1_seq)
        n = np.arange(len(logc), dtype=float)

        def log_series(r):
            terms = logc + n * math.log(r)
            top = terms.max()
            return top + math.log(np.sum(np.exp(terms - top)))

        rs = np.geomspace(1e2, 1e5, 16)
        order_m = order_type_from_max_modulus(
            rs, np.array([log_series(r) for r in rs])
        ).order
        order_c, _ = order_type_from_coefficients(logc)
        assert abs(order_m - order_c) <= 0.05


class TestExceptionalModels:
    def test_m3_exponent_third(self):
        zeros = np.sort(np.abs(_check_zeros("m3")))
        fit = convergence_exponent_from_zeros(zeros)
        assert fit.slope == pytest.approx(1 / 3, abs=0.1)

    def test_m4_exponent_third(self):
        zeros = np.sort(np.abs(_check_zeros("m4")))
        fit = convergence_exponent_from_zeros(zeros)
        assert fit.slope == pytest.approx(1 / 3, abs=0.1)

    @pytest.mark.parametrize("which", ["m3", "m4"])
    def test_counting_agreement(self, which):
        from jacobispec import spectrum
        from jacobispec.verify import _seq

        zeros = np.sort(np.abs(_check_zeros(which)))
        seq = _seq(which, 2000)
        rs = np.geomspace(1e2, 1e6, 20)
        table, _ = spectrum.stabilized_counting(seq, rs, (500, 1000, 2000))
        nb = np.searchsorted(zeros, rs, side="right")
        assert np.max(np.abs(nb - table[:, -1])) <= 2

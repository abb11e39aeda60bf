from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobispec.classify import Regime, classify
from jacobispec.params import (
    ExpansionOrder,
    JacobiSequence,
    PowerAsymptotics,
    materialize,
)
from jacobispec.recurrence import (
    ExponentFit,
    PolySolution,
    RecurrenceOverflowError,
    SummabilityTrend,
    norm_exponent,
    power_law_fit,
    solve_at_zero,
    solve_with_initial_data,
    square_summability_probe,
    transformed_recurrence,
    wronskian_residual,
)
from jacobispec.verify import _seq, _sol


def squares_seq(N, q_value=0.0):
    n = np.arange(N)
    return JacobiSequence(rho=(n + 1.0) ** 2, q=np.full(N, q_value))


class TestSolveAtZero:
    def test_initial_conventions(self, m1_seq, m1_sol):
        assert m1_sol.P[0] == 1.0
        assert m1_sol.P[1] == -m1_seq.q[0] / m1_seq.rho[0]
        assert m1_sol.Q[0] == 0.0
        assert m1_sol.Q[1] == 1.0 / m1_seq.rho[0]

    def test_hand_recurrence_step(self):
        sol = solve_at_zero(squares_seq(4))
        assert sol.P[1] == 0.0
        assert sol.P[2] == -0.25  # -rho0/rho1 = -1/4

    def test_wronskian_m1(self, m1_seq, m1_sol):
        assert wronskian_residual(m1_sol, m1_seq) <= 1e-8

    def test_wronskian_squares_with_unit_diagonal(self):
        seq = squares_seq(5000, 1.0)
        assert wronskian_residual(solve_at_zero(seq), seq) <= 1e-8

    def test_overflow_guard(self):
        # dominant diagonal: solutions grow factorially and must abort
        p = PowerAsymptotics(beta1=0, beta2=2, x0=1, y0=1)
        with pytest.raises(RecurrenceOverflowError) as err:
            solve_at_zero(materialize(p, 500))
        assert err.value.index > 2

    @given(a=st.floats(-3, 3), b=st.floats(-3, 3))
    @settings(max_examples=25, deadline=None)
    def test_superposition(self, a, b):
        seq = _seq("m1", 2000)
        sol = _sol("m1", 2000)
        u = solve_with_initial_data(
            seq, a * sol.P[0] + b * sol.Q[0], a * sol.P[1] + b * sol.Q[1]
        )
        combo = a * sol.P + b * sol.Q
        scale = np.maximum(np.abs(combo), 1e-300)
        assert np.all(np.abs(u - combo) <= 1e-12 * scale + 1e-15)


def exact_solutions_at_zero(desc, n):
    """P_k(0) and Q_k(0), k <= n, in exact rational arithmetic, for a
    descriptor with integer exponents, rational coefficients and no
    remainder; also the exact rho_k, k < n."""
    def coefficient(k, beta, c0, c1, c2):
        m = Fraction(max(k, 1))
        return m ** int(desc.frac(beta)) * (
            desc.frac(c0) + desc.frac(c1) / m + desc.frac(c2) / m**2
        )

    rho = [coefficient(k, "beta1", "x0", "x1", "x2") for k in range(n)]
    q = [coefficient(k, "beta2", "y0", "y1", "y2") for k in range(n)]

    def solve(u0, u1):
        u = [u0, u1]
        for k in range(n - 1):
            u.append(-(q[k + 1] * u[k + 1] + rho[k] * u[k]) / rho[k + 1])
        return u

    return solve(Fraction(1), -q[0] / rho[0]), solve(Fraction(0), 1 / rho[0]), rho


class TestExactOracle:
    """Golden m1 (rho_n = (n + 1)^2 from n = 1, rho_0 = 4, q = 1) has
    integer exponents and rational coefficients, so its solutions at zero
    are rational and computed exactly for n <= 200."""

    N = 200

    @pytest.fixture(scope="class")
    def exact(self):
        desc = _seq("m1", 2).descriptor
        assert desc.remainder.amplitude == 0
        return exact_solutions_at_zero(desc, self.N)

    def test_solve_at_zero_matches_exact_values(self, exact, m1_sol):
        P, Q, _ = exact
        for got, want in ((m1_sol.P, P), (m1_sol.Q, Q)):
            want = np.array([float(v) for v in want])
            assert np.all(np.abs(got[: self.N + 1] - want) <= 1e-12 * np.abs(want))

    def test_exact_wronskian_is_one(self, exact):
        P, Q, rho = exact
        assert all(
            rho[k] * (Q[k + 1] * P[k] - P[k + 1] * Q[k]) == 1 for k in range(self.N)
        )

    def test_wronskian_residual_read_by_c02(self, exact, m1_sol, m1_seq):
        # c02 reads wronskian_residual of this solution at N = 5000; on the
        # first 200 steps it is rounding only: a few ulps, as for the exact
        # values rounded to float
        P, Q, _ = exact
        head = PolySolution(P=m1_sol.P[: self.N + 1].copy(), Q=m1_sol.Q[: self.N + 1].copy())
        seq = JacobiSequence(rho=m1_seq.rho[: self.N], q=m1_seq.q[: self.N])
        rounded = PolySolution(
            P=np.array([float(v) for v in P]), Q=np.array([float(v) for v in Q])
        )
        assert wronskian_residual(head, seq) <= 8 * np.finfo(float).eps
        assert wronskian_residual(rounded, seq) <= 8 * np.finfo(float).eps
        assert wronskian_residual(m1_sol, m1_seq) <= 1e-8


class TestNormExponent:
    def test_m1_slope(self, m1_sol):
        fit = norm_exponent(m1_sol, (100, 5000))
        assert fit.slope == pytest.approx(-2.0, abs=0.05)
        assert 0 <= fit.r_squared <= 1

    def test_exceptional_slope(self, m3_sol):
        fit = norm_exponent(m3_sol, (100, 5000))
        assert fit.slope == pytest.approx(2 * (0.25 - 1.5), abs=0.1)

    def test_free_matrix_flat(self, free_sol):
        fit = norm_exponent(free_sol, (100, 5000))
        assert abs(fit.slope) <= 0.1

    def test_scaling_leaves_slope(self, m1_sol):
        scaled = PolySolution(P=123.5 * m1_sol.P, Q=123.5 * m1_sol.Q)
        a = norm_exponent(m1_sol, (100, 5000)).slope
        b = norm_exponent(scaled, (100, 5000)).slope
        assert abs(a - b) <= 1e-9

    def test_window_validation(self, m1_sol):
        with pytest.raises(ValueError):
            norm_exponent(m1_sol, (1, 5000))
        with pytest.raises(ValueError):
            norm_exponent(m1_sol, (100, 6000))
        with pytest.raises(ValueError):
            norm_exponent(m1_sol, (100, 110))

    def test_fit_window_at_least_16_points(self):
        with pytest.raises(ValueError, match="too short"):
            ExponentFit(slope=-2.0, intercept=0.0, r_squared=1.0, stderr=0.0,
                        window=(100, 114))

    def test_rejects_zero_values(self):
        # free matrix with q = 0 has P vanishing on every other index
        sol = solve_at_zero(JacobiSequence(rho=np.ones(64), q=np.zeros(64)))
        with pytest.raises(ValueError, match="vanishing"):
            # P^2 + Q^2 never vanishes, so force it with a degenerate pair
            norm_exponent(PolySolution(P=sol.P * 0, Q=sol.Q * 0), (2, 40))


def _lstsq_line(x, y):
    """Slope and intercept from np.linalg.lstsq on [log x, 1]: the
    reference the closed-form fit is pinned against."""
    lx, ly = np.log(x), np.log(y)
    return np.linalg.lstsq(np.vstack([lx, np.ones_like(lx)]).T, ly, rcond=None)[0]


class TestPowerLawFit:
    @pytest.mark.parametrize("which", ["m1", "m3"])
    def test_decay_windows_match_lstsq(self, which, m1_sol, m3_sol):
        # the windows of c03 (m1) and c10 (m3): n in [100, 5000]
        sol = {"m1": m1_sol, "m3": m3_sol}[which]
        n = np.arange(100, 5001)
        l = sol.norms_squared()[100:5001]
        fit = power_law_fit(n, l, (100, 5000))
        slope, intercept = _lstsq_line(n, l)
        assert abs(fit.slope - slope) <= 1e-10 * abs(slope)
        assert abs(fit.intercept - intercept) <= 1e-10 * abs(intercept)

    def test_equal_x_rejected(self):
        with pytest.raises(ValueError, match="all x values are equal"):
            power_law_fit(np.full(20, 3.0), np.arange(1.0, 21.0), (1, 20))

    def test_non_finite_rejected(self):
        y = np.arange(1.0, 21.0)
        y[4] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            power_law_fit(np.arange(1.0, 21.0), y, (1, 20))


def _mp_norms_squared(seq, n_max, dps=50):
    """P_n(0)^2 + Q_n(0)^2 for n <= n_max from the recurrence run at *dps*
    digits on the same float rho and q."""
    with mpmath.workdps(dps):
        rho = [mpmath.mpf(float(r)) for r in seq.rho[:n_max]]
        q = [mpmath.mpf(float(x)) for x in seq.q[:n_max]]

        def solve(u0, u1):
            out = [u0, u1]
            for k in range(n_max - 1):
                out.append(-(q[k + 1] * out[-1] + rho[k] * out[-2]) / rho[k + 1])
            return out

        P = solve(mpmath.mpf(1), -q[0] / rho[0])
        Q = solve(mpmath.mpf(0), 1 / rho[0])
        return np.array([float(p * p + r * r) for p, r in zip(P, Q)])


class TestDecayFitMpmath:
    """c03 fits n in [100, 5000], beyond the Fraction oracle's n <= 200."""

    @pytest.fixture(scope="class")
    def exact(self, m1_seq):
        return _mp_norms_squared(m1_seq, 5000)

    def test_norms_match_50_digit_recurrence(self, exact, m1_sol):
        # Each float step rounds 4 times; 5000 steps accumulating linearly,
        # doubled by the squares, give 4 * 5000 * 2**-53 * 2 = 4.4e-12.
        # Observed: 1.2e-14.
        got = m1_sol.norms_squared()
        assert np.max(np.abs(got[1:] - exact[1:]) / exact[1:]) <= 4.4e-12

    def test_c03_slope_matches_50_digit_inputs(self, exact, m1_sol):
        n = np.arange(100, 5001)
        reference = power_law_fit(n, exact[100:5001], (100, 5000))
        assert abs(norm_exponent(m1_sol, (100, 5000)).slope - reference.slope) <= 1e-9


class TestSummability:
    def test_golden_dichotomy(self, m1_sol, free_sol):
        _, t1 = square_summability_probe(m1_sol)
        assert t1 is SummabilityTrend.SUMMABLE
        _, t5 = square_summability_probe(free_sol)
        assert t5 is SummabilityTrend.DIVERGENT

    def test_slow_decay_diverges(self):
        p = PowerAsymptotics(beta1=0.5, beta2=0, x0=1, y0=1)
        _, t = square_summability_probe(solve_at_zero(materialize(p, 5000)))
        assert t is SummabilityTrend.DIVERGENT

    def test_block_sums_match_direct(self, m1_sol):
        sums, _ = square_summability_probe(m1_sol)
        l = m1_sol.norms_squared()
        assert sums[3] == pytest.approx(np.sum(l[8:16]))

    def test_needs_enough_data(self):
        sol = solve_at_zero(JacobiSequence(rho=np.ones(16), q=np.zeros(16)))
        with pytest.raises(ValueError):
            square_summability_probe(sol)


class TestIndicialRoots:
    """lcc of the z1 = 0 boundary family read from the indicial roots.

    The roots (1 +- sqrt(1 + 4d))/2 give lcc iff beta > 2 for a complex pair
    or double root (1 + 4d <= 0), and iff sqrt(1 + 4d) < beta - 2 for
    distinct real roots.
    """

    @pytest.mark.parametrize(
        "d,beta,expected",
        [
            (-1.0, 2.5, True),    # complex pair: lcc iff beta > 2
            (-1.0, 1.9, False),
            (-0.25, 2.1, True),   # double root branch
            (0.0, 3.5, True),     # sqrt(1) = 1 < 1.5
            (0.0, 2.5, False),    # sqrt(1) = 1 > 0.5
        ],
    )
    def test_double_root_lcc(self, d, beta, expected):
        # x0 = 1, y1 = y2 = 0 and x1 = beta/2 put beta on the boundary
        # 2 (x1/x0 - y1/y0); then z2 = 2 x2 and d = -z2 + beta (beta - 2)/4
        d, beta = Fraction(str(d)), Fraction(str(beta))
        x2 = (beta * (beta - 2) / 4 - d) / 2
        p = PowerAsymptotics(
            beta1=beta, beta2=beta, x0=1, y0=-2, x1=beta / 2, x2=x2,
            order=ExpansionOrder.SECOND,
        )
        cls = classify(p)
        assert cls.case_label == "T2(iii)"
        assert cls.z1 == 0
        assert cls.z2 == pytest.approx(float(2 * x2), abs=1e-12)
        assert (cls.regime is Regime.LCC) is expected


class TestTransformedRecurrence:
    def test_unit_substitution(self):
        n = np.arange(64)
        rho = (n + 1.0) ** 2
        seq = JacobiSequence(rho=rho, q=-2.0 * rho)
        r, C = transformed_recurrence(seq)
        assert np.all(r == 1.0)
        assert C == pytest.approx(1.0 - rho[:-1] / rho[1:])

    def test_exceptional_tail(self, m3_seq):
        _, C = transformed_recurrence(m3_seq)
        assert 10000 * C[10000] == pytest.approx(-1.0, abs=0.05)

    def test_z1_zero_tail_gives_d(self):
        seq = _seq("m4", 10002)
        _, C = transformed_recurrence(seq)
        # d = -z2/x0 + beta (beta - 2)/4 = -4 + 0.75
        assert 10000.0**2 * C[10000] == pytest.approx(-3.25, abs=0.05)

    def test_rejects_vanishing_q(self):
        with pytest.raises(ValueError, match="q\\[2\\]"):
            transformed_recurrence(
                JacobiSequence(rho=np.ones(5), q=np.array([1.0, 1, 0, 1, 1]))
            )

    def test_round_trip_reconstruction(self, m3_seq):
        # solve the transformed recurrence forward, map back, check the
        # original equation's residual
        seq = m3_seq
        sol = solve_at_zero(seq)
        r, C = transformed_recurrence(seq)
        N = 5000
        prods = np.ones(N)  # prod_{i=1}^{n-1} r_i at index n
        prods[2:] = np.cumprod(r[1 : N - 1])
        v = np.zeros(N)
        v[1] = sol.P[1]
        v[2] = sol.P[2] / prods[2]
        for n in range(1, N - 2):
            v[n + 2] = 2.0 * v[n + 1] - (1.0 - C[n]) * v[n]
        u = v * prods
        res = (
            seq.rho[2 : N - 1] * u[3:N]
            + seq.q[2 : N - 1] * u[2 : N - 1]
            + seq.rho[1 : N - 2] * u[1 : N - 2]
        )
        scale = np.abs(seq.rho[2 : N - 1] * u[3:N]) + np.abs(
            seq.rho[1 : N - 2] * u[1 : N - 2]
        )
        assert np.max(np.abs(res) / np.maximum(scale, 1e-280)) <= 1e-8
        # and the reconstruction matches the direct solution
        assert u[1:N] == pytest.approx(sol.P[1:N], rel=1e-8, abs=1e-300)

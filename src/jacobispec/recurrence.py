"""Solutions of the three-term difference equation at z = 0.

The two canonical solutions P_n(0), Q_n(0) (first/second kind) drive all
downstream growth estimates.  Their conserved quantity is the Wronskian
rho_n (Q_{n+1} P_n - P_{n+1} Q_n) = 1, which doubles as the main numerical
health check of the forward recursion.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .params import JacobiSequence

__all__ = [
    "RecurrenceOverflowError",
    "PolySolution",
    "ExponentFit",
    "SummabilityTrend",
    "solve_at_zero",
    "solve_with_initial_data",
    "power_law_fit",
    "norm_exponent",
    "square_summability_probe",
    "transformed_recurrence",
    "wronskian_residual",
]


class RecurrenceOverflowError(RuntimeError):
    """Forward recursion exceeded 1e300: limit-point-type blowup at this scale."""

    def __init__(self, which: str, index: int):
        self.which = which
        self.index = index
        super().__init__(
            f"|{which}[{index}]| exceeded 1e300 during forward recursion; "
            "the solution family grows too fast to follow in binary64 "
            "(typical of limit-point models)"
        )


@dataclass(frozen=True, eq=False)
class PolySolution:
    """Arrays P[0..N], Q[0..N] of the two canonical solutions at z = 0."""

    P: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        self.P.setflags(write=False)
        self.Q.setflags(write=False)

    @property
    def N(self) -> int:
        return self.P.shape[0] - 1

    def norms_squared(self) -> np.ndarray:
        return self.P**2 + self.Q**2


@dataclass(frozen=True)
class ExponentFit:
    slope: float
    intercept: float
    r_squared: float
    stderr: float
    window: tuple

    def __post_init__(self):
        if self.window[1] - self.window[0] + 1 < 16:
            raise ValueError("window too short")


class SummabilityTrend(enum.Enum):
    SUMMABLE = "summable"
    DIVERGENT = "divergent"
    UNCLEAR = "unclear"


def solve_with_initial_data(
    seq: JacobiSequence, u0: float, u1: float, label: str = "u"
) -> np.ndarray:
    """Run rho_{n+1} u_{n+2} + q_{n+1} u_{n+1} + rho_n u_n = 0 forward."""
    if len(seq) < 2:
        raise ValueError("need at least two coefficients")
    u, overflow = _kernels.solve_three_term(seq.rho, seq.q, float(u0), float(u1))
    if overflow >= 0:
        raise RecurrenceOverflowError(label, overflow)
    return u


def solve_at_zero(seq: JacobiSequence) -> PolySolution:
    """P with (1, -q0/rho0), Q with (0, 1/rho0); both satisfy the Wronskian."""
    P = solve_with_initial_data(seq, 1.0, -seq.q[0] / seq.rho[0], "P")
    Q = solve_with_initial_data(seq, 0.0, 1.0 / seq.rho[0], "Q")
    return PolySolution(P=P, Q=Q)


def wronskian_residual(sol: PolySolution, seq: JacobiSequence) -> float:
    """max_n |rho_n (Q_{n+1} P_n - P_{n+1} Q_n) - 1|."""
    P, Q = sol.P, sol.Q
    w = seq.rho * (Q[1:] * P[:-1] - P[1:] * Q[:-1])
    return float(np.max(np.abs(w - 1.0)))


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float, float, float]:
    """Least-squares line y ~ slope * x + intercept in closed form.

    slope = Sxy / Sxx and intercept = mean(y) - slope * mean(x), from the
    centred sums; returns (slope, intercept, residual sum of squares, Syy, Sxx).
    """
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("cannot fit a line through non-finite values")
    if x.min() == x.max():
        raise ValueError("all x values are equal: the slope is undefined")
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(np.sum(dx**2))
    slope = float(np.sum(dx * dy)) / sxx
    intercept = float(y.mean()) - slope * float(x.mean())
    ss_res = float(np.sum((dy - slope * dx) ** 2))
    return slope, intercept, ss_res, float(np.sum(dy**2)), sxx


def _fit_quality(ss_res: float, ss_tot: float, sxx: float, points: int) -> tuple[float, float]:
    """(R², slope stderr) of a ``_line_fit`` through *points* points."""
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return r2, float(np.sqrt(ss_res / max(points - 2, 1) / sxx))


def power_law_fit(x: np.ndarray, y: np.ndarray, window: tuple) -> ExponentFit:
    """Least-squares slope of log y against log x."""
    lx = np.log(np.asarray(x, dtype=np.float64))
    ly = np.log(np.asarray(y, dtype=np.float64))
    slope, intercept, ss_res, ss_tot, sxx = _line_fit(lx, ly)
    r2, stderr = _fit_quality(ss_res, ss_tot, sxx, len(lx))
    return ExponentFit(
        slope=slope,
        intercept=intercept,
        r_squared=r2,
        stderr=stderr,
        window=tuple(window),
    )


def norm_exponent(sol: PolySolution, window: tuple) -> ExponentFit:
    """Fit log(P_n^2 + Q_n^2) ~ slope * log n over n in [window[0], window[1]].

    For a decaying solution family |u_n| ~ n^(-beta1/2) the slope estimates
    -beta1.
    """
    lo, hi = int(window[0]), int(window[1])
    if not (2 <= lo < hi <= sol.N):
        raise ValueError(f"window must lie within [2, {sol.N}]")
    if hi - lo + 1 < 16:
        raise ValueError("window must contain at least 16 points")
    n = np.arange(lo, hi + 1)
    l = sol.norms_squared()[lo : hi + 1]
    if np.any(l <= 0.0):
        raise ValueError("window contains vanishing P^2 + Q^2; cannot take logs")
    return power_law_fit(n, l, (lo, hi))


def square_summability_probe(
    sol: PolySolution,
) -> tuple[np.ndarray, SummabilityTrend]:
    """Dyadic block sums S_k = sum_{2^k <= n < 2^(k+1)} (P_n^2 + Q_n^2).

    The last four ratios S_{k+1}/S_k all below 0.9 indicate a summable
    tail, all above 1.0 a divergent one.  The thresholds separate n^-2
    tails (ratio -> 1/2) from n^-1/2 tails (ratio -> sqrt 2) decisively.
    """
    if sol.N + 1 < 64:
        raise ValueError("need at least 64 solution values")
    l = sol.norms_squared()
    sums = []
    k = 0
    while 2 ** (k + 1) <= sol.N + 1:
        sums.append(float(np.sum(l[2**k : 2 ** (k + 1)])))
        k += 1
    sums = np.array(sums)
    ratios = sums[1:] / sums[:-1]
    tail = ratios[-4:]
    if np.all(tail < 0.9):
        trend = SummabilityTrend.SUMMABLE
    elif np.all(tail > 1.0):
        trend = SummabilityTrend.DIVERGENT
    else:
        trend = SummabilityTrend.UNCLEAR
    return sums, trend


def transformed_recurrence(seq: JacobiSequence) -> tuple[np.ndarray, np.ndarray]:
    """Substitution arrays r_i = -q_i/(2 rho_i) and C_n = 1 - rho_n/(rho_{n+1} r_n r_{n+1}).

    The substitution v_n = u_n / prod_{i<n} r_i turns the recurrence into
    v_{n+2} - 2 v_{n+1} + (1 - C_n) v_n = 0.  For exceptional descriptors
    n C_n converges to -z1/x0 and, when z1 = 0, n^2 C_n converges to d.
    C[0] is NaN when q_0 = 0 (r_0 undefined there; only i >= 1 is required).
    """
    if np.any(seq.q[1:] == 0.0):
        bad = 1 + int(np.argmax(seq.q[1:] == 0.0))
        raise ValueError(f"q[{bad}] = 0: the substitution needs q_i != 0 for i >= 1")
    r = -seq.q / (2.0 * seq.rho)
    with np.errstate(divide="ignore", invalid="ignore"):
        C = 1.0 - seq.rho[:-1] / (seq.rho[1:] * r[:-1] * r[1:])
    if seq.q[0] == 0.0:
        C[0] = np.nan
    return r, C

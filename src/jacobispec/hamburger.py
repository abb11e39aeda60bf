"""Canonical-system reformulation: lengths, angle increments, Delta exponents.

The lengths l_n = P_n(0)^2 + Q_n(0)^2 and the angle increments
|sin(phi_{n+1} - phi_n)| = 1/(rho_n sqrt(l_n l_{n+1})) encode the Jacobi
matrix as a Hamburger Hamiltonian.  Their power-law exponents Delta_l and
Delta_phi are estimated by regression rather than assumed, which turns
the closed forms Delta_l = -2 gamma, Delta_phi = beta + 2 gamma into
checkable statements (their sum estimates beta).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import JacobiSequence
from .recurrence import ExponentFit, PolySolution, power_law_fit

__all__ = [
    "HamburgerData",
    "DeltaExponents",
    "lengths_angles",
    "delta_exponents",
    "exceptional_order_bound",
    "exponent_upper_bounds",
]


@dataclass(frozen=True, eq=False)
class HamburgerData:
    """Lengths l[0..N] and angle increments dphi[0..N-1], dphi in (0, 1]."""

    l: np.ndarray
    dphi: np.ndarray

    def __post_init__(self):
        self.l.setflags(write=False)
        self.dphi.setflags(write=False)


@dataclass(frozen=True)
class DeltaExponents:
    """Delta_l and Delta_phi with their power-law fits; ``total`` estimates beta."""

    delta_l: float
    delta_phi: float
    fit_l: ExponentFit
    fit_phi: ExponentFit

    @property
    def total(self) -> float:
        return self.delta_l + self.delta_phi


def lengths_angles(sol: PolySolution, seq: JacobiSequence) -> HamburgerData:
    """Lengths and |sin| of angle increments of the Hamburger Hamiltonian.

    The Wronskian forces rho_n sqrt(l_n l_{n+1}) >= 1, so each dphi lies in
    (0, 1]; values beyond 1 + 1e-9 signal inconsistent inputs.
    """
    if sol.N != len(seq):
        raise ValueError("solution and sequence lengths are inconsistent")
    l = sol.norms_squared()
    if np.any(l <= 0.0):
        raise ValueError("P and Q vanish simultaneously: invalid solution pair")
    dphi = 1.0 / (seq.rho * np.sqrt(l[:-1] * l[1:]))
    if np.any(dphi > 1.0 + 1e-9):
        bad = int(np.argmax(dphi > 1.0 + 1e-9))
        raise ValueError(
            f"|sin| value {dphi[bad]} > 1 at index {bad}: inputs inconsistent"
        )
    return HamburgerData(l=l, dphi=dphi)


def delta_exponents(data: HamburgerData, window: tuple) -> DeltaExponents:
    """Estimate (Delta_l, Delta_phi) as negated log-log slopes over the window.

    Conventions are chosen so that delta_l + delta_phi estimates the
    common growth exponent beta of the Jacobi parameters.
    """
    lo, hi = int(window[0]), int(window[1])
    if hi - lo + 1 < 16:
        raise ValueError("window must contain at least 16 points")
    if not (1 <= lo < hi <= data.dphi.shape[0] - 1):
        raise ValueError(f"window must lie within [1, {data.dphi.shape[0] - 1}]")
    n = np.arange(lo, hi + 1)
    if np.any(data.l[lo : hi + 1] <= 0) or np.any(data.dphi[lo : hi + 1] <= 0):
        raise ValueError("window contains non-positive data")
    fit_l = power_law_fit(n, data.l[lo : hi + 1], (lo, hi))
    fit_phi = power_law_fit(n, data.dphi[lo : hi + 1], (lo, hi))
    return DeltaExponents(
        delta_l=-fit_l.slope,
        delta_phi=-fit_phi.slope,
        fit_l=fit_l,
        fit_phi=fit_phi,
    )


def exceptional_order_bound(beta: float) -> float:
    """Upper bound 1/(2(beta - 1)) for the convergence exponent on 3/2 < beta < 2."""
    if not 1.5 < beta < 2.0:
        raise ValueError("the bound applies for 3/2 < beta < 2 only")
    return 1.0 / (2.0 * (beta - 1.0))


def exponent_upper_bounds(beta: float) -> tuple[float, float]:
    """(naive, improved) upper bounds for the convergence exponent, beta > 3/2.

    The naive square-summability route gives 1/(beta - 1/2); the canonical-
    system route improves it to 1/(2(beta - 1)) on (3/2, 2) and pins the
    exact value 1/beta once beta >= 2.
    """
    if not beta > 1.5:
        raise ValueError("bounds apply for beta > 3/2 only")
    naive = 1.0 / (beta - 0.5)
    improved = exceptional_order_bound(beta) if beta < 2.0 else 1.0 / beta
    if not improved <= naive:
        raise ValueError("improved bound exceeds the naive bound")
    return naive, improved

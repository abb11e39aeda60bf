"""Nevanlinna-matrix evaluation and entire-function growth estimation.

The matrix is computed as the partial product of rank-one-perturbed
identity factors built from (Q_n(0), P_n(0)), seeded with [[0,-1],[1,0]]
so that the columns reproduce the classical partial sums (B_N(0) = -1,
C_N(0) = 1, det = 1).  Orders, types, convergence exponents and densities
are then read off three independent routes: power-series coefficients,
max-modulus sampling, and the real zeros of B_N, which are the eigenvalues
of a modified truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import _kernels
from .classify import Classification, Regime, classify
from .params import JacobiSequence
from .recurrence import ExponentFit, PolySolution, _fit_quality, _line_fit, power_law_fit
from .spectrum import _bracket_each

__all__ = [
    "NevanlinnaPartial",
    "nevanlinna_evaluate",
    "evaluate_entries",
    "evaluate_entries_real",
    "scan_b_zeros",
    "scan_b_zeros_each",
    "b_log_max_modulus",
    "log_majorant_product",
    "majorant_bound_gap",
    "leading_coefficient_logs",
    "order_type_from_coefficients",
    "MaxModulusFit",
    "order_type_from_max_modulus",
    "convergence_exponent_from_zeros",
    "upper_density",
]


@dataclass(frozen=True)
class NevanlinnaPartial:
    """Entries of the N-step partial product at one point z.

    True entry values are entry * exp(log_scale), log_scale a multiple of
    log 2: zero where every entry is below 2, else the largest real or
    imaginary part lies in [1, 2), so entries stay in range at any radius.
    """

    N: int
    z: complex
    A: complex
    B: complex
    C: complex
    D: complex
    log_scale: float

    def determinant_residual(self) -> float:
        """|A D - B C - 1| after undoing the rescaling; inf once that overflows."""
        # exp overflows past log(max float) = 709.78
        scale = math.exp(2.0 * self.log_scale) if self.log_scale < 354.89 else math.inf
        return abs((self.A * self.D - self.B * self.C) * scale - 1.0)

    def log_spectral_norm(self) -> float:
        a, b, c, d = self.A, self.B, self.C, self.D  # each below 2 sqrt(2)
        s = abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2
        disc = max(s * s - 4.0 * abs(a * d - b * c) ** 2, 0.0)
        return 0.5 * math.log(0.5 * (s + math.sqrt(disc))) + self.log_scale


def _check_N(sol: PolySolution, N: Optional[int]) -> int:
    if N is None:
        N = sol.N + 1
    if not 1 <= N <= sol.N + 1:
        raise ValueError(f"need 1 <= N <= {sol.N + 1}")
    return N


def evaluate_entries(sol: PolySolution, zs: np.ndarray, N: Optional[int] = None):
    """(A, B, C, D, log_scale) arrays of the N-step product at complex zs:
    both columns from one call over zs stacked twice, on their larger scale."""
    N = _check_N(sol, N)
    zs = np.asarray(zs, dtype=np.complex128)
    start = np.reshape([0.0, -1.0, 1.0, 0.0], (4,) + (1,) * zs.ndim)
    u, v, e = _kernels.transfer_complex(
        sol.P, sol.Q, np.stack([zs, zs]), N, start[:2], start[2:]
    )
    top = e.max(axis=0)
    (A, B), (C, D) = u * np.ldexp(1.0, e - top), v * np.ldexp(1.0, e - top)
    return A, B, C, D, top * math.log(2.0)


def evaluate_entries_real(sol: PolySolution, xs: np.ndarray, N: Optional[int] = None):
    """(B, D, log_scale) of the N-step product at real xs, where both are
    real; the (A, C) column is never computed."""
    N = _check_N(sol, N)
    xs = np.asarray(xs, dtype=np.float64)
    B, D, e = _kernels.transfer_real(sol.P, sol.Q, xs, N, -1.0, 0.0)
    return B, D, e * math.log(2.0)


def nevanlinna_evaluate(
    sol: PolySolution, z: complex, N: Optional[int] = None
) -> NevanlinnaPartial:
    """The partial product M_N(z) = prod_{n<N} (I + z R_n) * [[0,-1],[1,0]]."""
    return _partials(sol, [z], N)[0]


def _partials(
    sol: PolySolution, zs, N: Optional[int] = None
) -> list[NevanlinnaPartial]:
    """One partial product per point of zs, from one transfer-product call."""
    N = _check_N(sol, N)
    zs = np.asarray(zs, dtype=np.complex128).reshape(-1)
    A, B, C, D, ls = evaluate_entries(sol, zs, N)
    return [
        NevanlinnaPartial(
            N=N, z=complex(z), A=complex(a), B=complex(b), C=complex(c),
            D=complex(d), log_scale=float(s),
        )
        for z, a, b, c, d, s in zip(zs, A, B, C, D, ls)
    ]


# ---------------------------------------------------------------------------
# zeros of B on the real axis
# ---------------------------------------------------------------------------

def _b_zero_problem(sol: PolySolution, seq: JacobiSequence, N: int, r: float):
    """The bracket problem ``(seq, n, interval, tol, last)`` whose
    eigenvalues are the zeros of B_N in [-r, r]; None when B_N is constant."""
    if not 0 < r < math.inf:
        raise ValueError("r must be positive and finite")
    if not 1 <= N <= min(sol.N, len(seq)):
        raise ValueError(f"need 1 <= N <= {min(sol.N, len(seq))}")
    r = float(r)
    tol = 1e-9 * max(1.0, r)
    # B_N is proportional to P_{N-1} when Q_{N-1}(0) = 0
    if sol.Q[N - 1] == 0.0:
        return (seq, N - 1, (-r, r), tol, None) if N > 1 else None
    return (seq, N, (-r, r), tol, seq.q[N - 1] + seq.rho[N - 1] * sol.Q[N] / sol.Q[N - 1])


def _confirmed(sol: PolySolution, N: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The midpoints of the brackets, once B_N is seen to change sign
    across every one of them."""
    if lo.size:
        B, _, _ = evaluate_entries_real(sol, np.concatenate([lo, hi]), N)
        flat = np.nonzero(np.sign(B[: lo.size]) * np.sign(B[lo.size :]) >= 0)[0]
        if flat.size:
            raise RuntimeError(
                f"B_{N} has no sign change across {flat.size} of {lo.size} "
                f"eigenvalue brackets of the modified truncation (first at "
                f"[{float(lo[flat[0]])!r}, {float(hi[flat[0]])!r}])"
            )
    return 0.5 * (lo + hi)


def scan_b_zeros_each(scans, spectra=()) -> tuple[list, list]:
    """``scan_b_zeros`` for each ``(sol, seq, N, r)`` of *scans*, and the
    truncation eigenvalues of each ``(seq, N, interval, tol | None)`` of
    *spectra* as ``spectrum.eigenvalues_in_each`` gives them, all
    bracketed in one Sturm call: (zeros, eigenvalues), one array each."""
    scans, spectra = list(scans), list(spectra)
    zero_problems = [_b_zero_problem(*scan) for scan in scans]
    brackets = _bracket_each(
        [p for p in zero_problems if p is not None] + [(*p, None) for p in spectra]
    )
    found = iter(brackets)
    zeros = [
        np.empty(0) if problem is None else _confirmed(sol, N, *next(found))
        for (sol, _, N, _), problem in zip(scans, zero_problems)
    ]
    return zeros, [0.5 * (lo + hi) for lo, hi in found]


def scan_b_zeros(
    sol: PolySolution, seq: JacobiSequence, N: int, r: float
) -> np.ndarray:
    """Real zeros of B_N in [-r, r] as eigenvalues of a modified truncation.

    The mixed Christoffel-Darboux identity gives
    B_N(z) = rho_{N-1} [P_N(z) Q_{N-1}(0) - P_{N-1}(z) Q_N(0)], so the zeros
    of B_N are the eigenvalues of J_N with q_{N-1} replaced by
    q_{N-1} + rho_{N-1} Q_N(0) / Q_{N-1}(0) (of J_{N-1} when Q_{N-1}(0) = 0).
    They are bracketed from Sturm counts to width tol = 1e-9 max(1, r),
    each bracket centred on its zero where the secant finish converges; B_N
    is then evaluated through the transfer product at both ends of every
    bracket, so the zero route stays independent of the truncation
    eigenvalues it is compared against, and a bracket without a sign change
    of B_N raises RuntimeError.
    """
    return scan_b_zeros_each([(sol, seq, N, r)])[0][0]


def b_log_max_modulus(
    sol: PolySolution, N: int, rays: int = 16
) -> Callable[[np.ndarray], np.ndarray]:
    """Evaluator rs -> log max_theta |B_N(r e^{i theta})| over a ray grid.

    The evaluator takes an array of radii and evaluates every radius on
    every ray in one transfer-product call.
    """
    if rays < 16:
        raise ValueError("need at least 16 directions")
    N = _check_N(sol, N)
    theta = np.arange(rays) * 2.0 * np.pi / rays

    def evaluator(rs):
        zs = np.asarray(rs, dtype=np.float64)[..., None] * np.exp(1j * theta)
        B, _, e = _kernels.transfer_complex(sol.P, sol.Q, zs.ravel(), N, -1.0, 0.0)
        # the real rays can hit a zero of B exactly; other rays dominate
        logm = np.log(np.abs(B) + 5e-324) + e * math.log(2.0)
        return np.max(logm.reshape(zs.shape), axis=-1)

    return evaluator


# ---------------------------------------------------------------------------
# majorant product
# ---------------------------------------------------------------------------

def _case2_constants(seq: JacobiSequence) -> tuple[float, float, Classification]:
    desc = seq.descriptor
    if desc is None:
        raise ValueError("the majorant needs a descriptor-backed sequence")
    cls = classify(desc)
    if cls.case_label != "T1(ii)" or cls.regime is not Regime.LCC:
        raise ValueError(
            "majorant is defined for dominant off-diagonal lcc families only"
        )
    return float(desc.beta1), float(cls.a_constant / desc.x0), cls


def log_majorant_product(seq: JacobiSequence, r: float) -> float:
    """log F(r) = sum_n log(1 + r * (a/x0) n^{-beta1}).

    The factor weights use only the limiting constant a/x0 of the
    normalized solutions; the sum length is chosen so the dropped tail is
    negligible against log F itself.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    beta1, g, _ = _case2_constants(seq)
    if r == 0.0:
        return 0.0
    terms = min(max(8192, int(50.0 * (r * g) ** (1.0 / beta1))), 5_000_000)
    n = np.arange(1, terms + 1, dtype=np.float64)
    return float(np.sum(np.log1p(r * g * n ** (-beta1))))


def majorant_bound_gap(
    sol: PolySolution, seq: JacobiSequence, zs: np.ndarray, N: Optional[int] = None
) -> np.ndarray:
    """log ||M_N(z)|| - log F(|z|) over the sample; bounded above when the
    majorant dominates up to a constant."""
    zs = np.asarray(zs, dtype=np.complex128)
    parts = _partials(sol, zs, N)
    return np.array(
        [
            part.log_spectral_norm() - log_majorant_product(seq, abs(z))
            for part, z in zip(parts, zs)
        ]
    )


# ---------------------------------------------------------------------------
# power-series coefficients of the diagonal minor series
# ---------------------------------------------------------------------------

def leading_coefficient_logs(seq: JacobiSequence, N: Optional[int] = None) -> np.ndarray:
    """log of the leading polynomial coefficients, log c_n = -sum_{k=1}^{n-1} log rho_k.

    Computed in log space, so no underflow at any scale; c_0 = c_1 = 1.
    """
    if N is None:
        N = len(seq)
    if not 2 <= N <= len(seq):
        raise ValueError(f"need 2 <= N <= {len(seq)}")
    out = np.zeros(N)
    out[2:] = -np.cumsum(np.log(seq.rho[1 : N - 1]))
    return out


def _mgs_lstsq(A: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares solution of A c ~ y by modified Gram-Schmidt on the
    augmented matrix [A | y], the columns of A scaled to unit norm.

    MGS on [A | y] solves the problem backward stably (Bjorck 1967); the
    triangular system R c = Q^T y is then solved by back substitution.
    """
    scale = np.sqrt(np.sum(A * A, axis=0))
    W = np.column_stack([A / scale, y])
    k = A.shape[1]
    R = np.zeros((k, k + 1))
    for i in range(k):
        R[i, i] = np.sqrt(np.sum(W[:, i] ** 2))
        W[:, i] /= R[i, i]
        R[i, i + 1 :] = np.sum(W[:, i, None] * W[:, i + 1 :], axis=0)
        W[:, i + 1 :] -= W[:, i, None] * R[i, i + 1 :]
    c = np.zeros(k)
    for i in reversed(range(k)):
        c[i] = (R[i, k] - np.sum(R[i, i + 1 : k] * c[i + 1 :])) / R[i, i]
    return c / scale


def order_type_from_coefficients(log_coeffs: np.ndarray) -> tuple[float, float]:
    """Order and type of sum c_n z^n from the decay of log |c_n|.

    The order comes from fitting -log|c_n| to a n log n + b n + c log n + d
    over the last dyadic block (order = 1/a); the raw limsup formula
    n log n / -log|c_n| converges too slowly to be usable at desk scale.
    The type then uses the rearranged limsup
    tau = 1/(e rho) * limsup n |c_n|^(rho/n) on the same block.
    """
    logc = np.asarray(log_coeffs, dtype=np.float64)
    M = logc.shape[0]
    if M < 64:
        raise ValueError("need at least 64 coefficients")
    w = np.arange(M // 2, M)
    y = -logc[w]
    if not (np.all(np.isfinite(y)) and y[-1] > y[0] and np.all(y > 0)):
        raise ValueError("coefficients do not decay over the tail window")
    n = w.astype(np.float64)
    basis = np.column_stack([n * np.log(n), n, np.log(n), np.ones_like(n)])
    coef = _mgs_lstsq(basis, y)
    if coef[0] <= 0:
        raise ValueError("coefficient decay is slower than any positive order")
    order = 1.0 / float(coef[0])
    tau = float(np.max(n * np.exp(order * logc[w] / n)) / (math.e * order))
    return order, tau


# ---------------------------------------------------------------------------
# max-modulus and zero-based estimates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaxModulusFit:
    """Order and type read off log M(r), with the diagnostics of the line
    fit of log log M against log r: the slope's stderr, R², the radius
    window [r_min, r_max] and the number of radii fitted."""

    order: float
    type_at_order: float
    stderr: float
    r_squared: float
    window: tuple
    points: int


def order_type_from_max_modulus(r_grid: np.ndarray, logM: np.ndarray) -> MaxModulusFit:
    """Order from the top-half slope of log log M(r) vs log r; type from
    the mean of log M(r) / r^order there.  ``logM`` holds log M(r) at
    each radius of ``r_grid``."""
    r_grid = np.asarray(r_grid, dtype=np.float64)
    logM = np.asarray(logM, dtype=np.float64)
    if logM.shape != r_grid.shape:
        raise ValueError("need one log M value per grid radius")
    if r_grid.size < 8 or np.any(np.diff(r_grid) <= 0):
        raise ValueError("need a geometric r grid with at least 8 increasing points")
    if np.any(np.diff(logM) <= 0) or np.any(logM <= 0):
        raise ValueError(
            "max-modulus values are not increasing: evaluation breakdown"
        )
    half = r_grid.size // 2
    x = np.log(r_grid[half:])
    y = np.log(logM[half:])
    order, _, ss_res, ss_tot, sxx = _line_fit(x, y)
    r2, stderr = _fit_quality(ss_res, ss_tot, sxx, x.size)
    return MaxModulusFit(
        order=order,
        type_at_order=float(np.mean(logM[half:] / r_grid[half:] ** order)),
        stderr=stderr,
        r_squared=r2,
        window=(float(r_grid[half]), float(r_grid[-1])),
        points=int(x.size),
    )


def convergence_exponent_from_zeros(zeros: np.ndarray) -> ExponentFit:
    """Slope of log n against log |zero_n| over the top half of the moduli.

    For an increasing zero sequence this estimates the convergence
    exponent (the infimum of alpha with sum |zero_n|^-alpha finite).
    """
    mods = np.asarray(zeros, dtype=np.float64)
    if mods.size < 32:
        raise ValueError("need at least 32 zeros")
    if np.any(mods <= 0) or np.any(np.diff(mods) < 0):
        raise ValueError("zeros must be positive moduli sorted increasingly")
    k = np.arange(1, mods.size + 1, dtype=np.float64)
    half = mods.size // 2
    return power_law_fit(mods[half:], k[half:], (half + 1, mods.size))


def upper_density(zeros: np.ndarray, beta: float) -> float:
    """Finite-sample proxy of limsup n(r)/r^{1/beta}: max of k/|zero_k|^{1/beta}
    over the top half of the moduli."""
    if beta <= 1:
        raise ValueError("beta must exceed 1")
    mods = np.asarray(zeros, dtype=np.float64)
    if np.any(mods <= 0) or np.any(np.diff(mods) < 0):
        raise ValueError("zeros must be positive moduli sorted increasingly")
    k = np.arange(1, mods.size + 1, dtype=np.float64)
    half = mods.size // 2
    return float(np.max(k[half:] / mods[half:] ** (1.0 / beta)))

"""Eigenvalues of finite truncations via Sturm-sequence bisection.

Only counts and brackets are ever needed downstream, so everything is
built on the Sturm count (LD-factorization sign count with floored
pivots) rather than on a factorization eigensolver.  A brute-force
characteristic-polynomial root isolator serves as the independent
cross-check for tiny matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernels
from .params import JacobiSequence

__all__ = [
    "TruncatedSpectrum",
    "sturm_count",
    "eigenvalues_in",
    "full_spectrum",
    "gershgorin_interval",
    "stabilized_counting",
    "charpoly_values",
    "charpoly_eigenvalues",
]


@dataclass(frozen=True, eq=False)
class TruncatedSpectrum:
    eigenvalues: np.ndarray

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=np.float64)
        if np.any(np.diff(ev) <= 0):
            raise ValueError(
                "truncation spectrum must be strictly increasing; "
                "decrease tol if close eigenvalues collided"
            )
        ev.setflags(write=False)
        object.__setattr__(self, "eigenvalues", ev)

    def to_csv(self, path) -> None:
        import csv

        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["index", "lambda"])
            for i, lam in enumerate(self.eigenvalues):
                w.writerow([i, repr(float(lam))])


def _submatrix(seq: JacobiSequence, N: int) -> tuple[np.ndarray, np.ndarray]:
    if not 1 <= N <= len(seq):
        raise ValueError(f"need 1 <= N <= {len(seq)}")
    return seq.q[:N], seq.rho[: N - 1] ** 2


def sturm_count(seq: JacobiSequence, N: int, x: float) -> int:
    """Number of eigenvalues of the N x N truncation strictly below x."""
    diag, offsq = _submatrix(seq, N)
    return int(_kernels.sturm_counts(diag, offsq, np.array([float(x)]))[0])


def gershgorin_interval(seq: JacobiSequence, N: int) -> tuple[float, float]:
    """Interval certain to contain the whole truncation spectrum."""
    diag, _ = _submatrix(seq, N)
    spread = 2.0 * float(np.max(seq.rho[:N]))
    return float(np.min(diag)) - spread, float(np.max(diag)) + spread


def _sturm_brackets(
    diag: np.ndarray, offsq: np.ndarray, a: float, b: float, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Brackets (lo_k, hi_k) of width <= tol, one around each eigenvalue in
    [a, b] of the tridiagonal with diagonal ``diag`` and squared off-diagonal
    ``offsq``.

    Bisection runs on the Sturm count; the brackets for the different
    eigenvalue indices are narrowed simultaneously (one batched count
    evaluation per sweep).
    """

    def counts(xs):
        return _kernels.sturm_counts(diag, offsq, np.asarray(xs, dtype=np.float64))

    ca = int(counts([a])[0])
    cb = int(counts([np.nextafter(b, np.inf)])[0])
    ks = np.arange(ca + 1, cb + 1, dtype=np.int64)
    lo = np.full(ks.size, a)
    hi = np.full(ks.size, b)
    if ks.size == 0:
        return lo, hi
    for _ in range(256):
        if np.max(hi - lo) <= tol:
            break
        mid = 0.5 * (lo + hi)
        c = counts(mid)
        above = c >= ks
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return lo, hi


def eigenvalues_in(
    seq: JacobiSequence,
    N: int,
    interval: tuple,
    tol: float | None = None,
) -> np.ndarray:
    """All truncation eigenvalues in [a, b], each bracketed to width <= tol."""
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise ValueError("need a < b")
    if tol is None:
        tol = 1e-10 * max(1.0, abs(a), abs(b))
    if tol <= 0:
        raise ValueError("tol must be positive")
    diag, offsq = _submatrix(seq, N)
    lo, hi = _sturm_brackets(diag, offsq, a, b, tol)
    return 0.5 * (lo + hi)


def full_spectrum(
    seq: JacobiSequence, N: int, tol: float | None = None
) -> TruncatedSpectrum:
    ev = eigenvalues_in(seq, N, gershgorin_interval(seq, N), tol)
    if ev.size != N:
        raise RuntimeError(
            f"expected {N} eigenvalues in the containment interval, found {ev.size}"
        )
    return TruncatedSpectrum(eigenvalues=ev)


def stabilized_counting(
    seq: JacobiSequence, rs: np.ndarray, Ns: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Counting functions n_N(r) = #{|lambda| <= r} of growing truncations.

    Every radius is counted exactly, in one Sturm call per N, and the
    result is a ``(len(rs), len(Ns))`` count table.  In the limit circle
    case the low-lying truncation eigenvalues settle as N grows, so the
    counts stabilize; the flag array reports, per radius, whether the last
    two agree.
    """
    Ns = list(Ns)
    if len(Ns) < 3 or any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise ValueError("need at least three strictly increasing dimensions")
    rs = np.asarray(rs, dtype=np.float64)
    if rs.ndim != 1:
        raise ValueError("rs must be a 1-d array of radii")
    if np.any(rs < 0):
        raise ValueError("r must be nonnegative")
    # a zero pivot is floored to a negative one, so an eigenvalue exactly at
    # a shift may count as below it; shifting one ulp outward on both sides
    # keeps eigenvalues at exactly +-r inside the count
    shifts = np.concatenate([np.nextafter(rs, np.inf), np.nextafter(-rs, -np.inf)])
    table = np.empty((rs.size, len(Ns)), dtype=np.int64)
    for j, N in enumerate(Ns):
        diag, offsq = _submatrix(seq, N)
        c = _kernels.sturm_counts(diag, offsq, shifts)
        table[:, j] = c[: rs.size] - c[rs.size :]
    return table, table[:, -1] == table[:, -2]


# ---------------------------------------------------------------------------
# brute-force characteristic-polynomial oracle (tiny N only)
# ---------------------------------------------------------------------------

def charpoly_values(seq: JacobiSequence, N: int, xs: np.ndarray) -> np.ndarray:
    """det(J_N - x I) via the determinant recurrence, vectorized over x."""
    diag, offsq = _submatrix(seq, N)
    xs = np.asarray(xs, dtype=np.float64)
    pm1 = np.ones_like(xs)
    p = diag[0] - xs
    for k in range(1, N):
        p, pm1 = (diag[k] - xs) * p - offsq[k - 1] * pm1, p
    return p


def charpoly_eigenvalues(
    seq: JacobiSequence, N: int, tol: float = 1e-11
) -> np.ndarray:
    """All truncation eigenvalues by sign scan + bisection on det(J_N - x I).

    Exhaustive grid refinement until all N sign changes of the
    characteristic polynomial are isolated; intended as the independent
    oracle for dimensions <= ~12.  Uses only ``charpoly_values``, never
    the Sturm count.
    """
    a, b = gershgorin_interval(seq, N)
    pts = 64 * N
    for _ in range(16):
        xs = np.linspace(a, b, pts)
        vals = charpoly_values(seq, N, xs)
        sign = np.sign(vals)
        # treat exact zeros as negative so each root yields one sign change
        sign[sign == 0] = -1.0
        idx = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
        if idx.size == N:
            break
        pts *= 4
    else:
        raise RuntimeError("failed to isolate all characteristic-polynomial roots")
    # bisect all brackets at once; each stops at its own width, so every
    # root takes the steps a bracket-by-bracket bisection would take
    lo, hi = xs[idx], xs[idx + 1]
    lo_neg = charpoly_values(seq, N, lo) < 0
    active = np.nonzero(hi - lo > tol)[0]
    while active.size:
        mid = 0.5 * (lo[active] + hi[active])
        same = (charpoly_values(seq, N, mid) < 0) == lo_neg[active]
        lo[active[same]] = mid[same]
        hi[active[~same]] = mid[~same]
        active = active[hi[active] - lo[active] > tol]
    return 0.5 * (lo + hi)

"""Hot numeric kernels with a numba backend and a pure-numpy fallback.

The three inner loops that dominate runtime live here:

* ``solve_three_term`` -- forward solution of the three-term recurrence,
* ``sturm_counts``     -- Sturm-sequence eigenvalue counts for tridiagonals,
* ``transfer_real`` / ``transfer_complex`` -- partial products of the
  rank-one-perturbed identity factors that build the Nevanlinna matrix.

The numpy ``sturm_counts`` works on all shifts at once and on blocks of
``_BLOCK`` rows: it writes the block's pivots with no floor check, in the
same operation order as the floored step, so every pivot at or above the
floor ``_PIVMIN`` is bit-identical to it.  At the end of the block the
smallest pivot magnitude decides: if it is at or above the floor (a NaN
fails this test) the block's negative pivots are counted, otherwise the
block is replayed row by row with floored pivots from the pivot that
entered it.  The counts therefore equal those of the per-row floored
loop exactly; the blocking only removes per-row call overhead (cf.
LAPACK's ``dlaneg``).

Set ``JACOBISPEC_NO_NUMBA=1`` to force the numpy fallback (useful for
debugging).  Both backends are exported with ``_numba`` / ``_numpy``
suffixes so they can be compared directly; the unsuffixed names are the
active selection.
"""

import os

import numpy as np

_PIVMIN = 1e-300       # Sturm pivot floor
_OVERFLOW = 1e300      # recurrence blowup guard
_RESCALE = 1e150       # transfer-product rescaling threshold

_env = os.environ.get("JACOBISPEC_NO_NUMBA", "").strip().lower()
_DISABLED = _env not in ("", "0", "false", "no")

try:
    import numba

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - exercised only without numba
    numba = None
    NUMBA_AVAILABLE = False

NUMBA_ENABLED = NUMBA_AVAILABLE and not _DISABLED
BACKEND = "numba" if NUMBA_ENABLED else "numpy"


# ---------------------------------------------------------------------------
# three-term recurrence:  rho[k+1] u[k+2] + q[k+1] u[k+1] + rho[k] u[k] = 0
# ---------------------------------------------------------------------------

def _solve_three_term_loop(rho, q, u0, u1):
    n = rho.shape[0]
    u = np.empty(n + 1, dtype=np.float64)
    u[0] = u0
    u[1] = u1
    for k in range(n - 1):
        v = -(q[k + 1] * u[k + 1] + rho[k] * u[k]) / rho[k + 1]
        u[k + 2] = v
        if abs(v) > _OVERFLOW:
            return u, k + 2
    return u, -1


def solve_three_term_numpy(rho, q, u0, u1):
    """Return (u, overflow_index); overflow_index is -1 when none occurred."""
    return _solve_three_term_loop(rho, q, float(u0), float(u1))


# ---------------------------------------------------------------------------
# Sturm counts: eigenvalues of the leading principal tridiagonal submatrix
# strictly below each shift x (LD factorization sign count, pivots floored)
# ---------------------------------------------------------------------------

_BLOCK = 16  # rows per block; each pool thread holds a (_BLOCK, S) buffer, so
            # larger blocks raise peak RSS


def _floor_pivots(d):
    return np.where(np.abs(d) < _PIVMIN, np.where(d > 0, _PIVMIN, -_PIVMIN), d)


def sturm_counts_numpy(diag, offsq, xs):
    xs = np.asarray(xs, dtype=np.float64)
    n = diag.shape[0]
    col = diag[:, None]
    offsq = offsq.tolist()
    d = _floor_pivots(diag[0] - xs)
    count = (d < 0).astype(np.int64)
    buf = np.empty((_BLOCK,) + xs.shape)
    t = np.empty(xs.shape)
    for k0 in range(1, n, _BLOCK):
        block = buf[: n - k0]
        prev = d
        # unfloored pass; a block holding a pivot below the floor (or a NaN)
        # is replayed with floored pivots, so its warnings are not wanted
        with np.errstate(all="ignore"):
            np.subtract(col[k0 : k0 + _BLOCK], xs, out=block)
            for w, row in zip(offsq[k0 - 1 : k0 - 1 + _BLOCK], block):
                np.divide(w, prev, out=t)
                np.subtract(row, t, out=row)
                prev = row
        if np.abs(block).min() >= _PIVMIN:
            count += np.count_nonzero(block < 0, axis=0)
            d = prev.copy()
        else:
            for k in range(k0, k0 + block.shape[0]):
                d = _floor_pivots((diag[k] - xs) - offsq[k - 1] / d)
                count += d < 0
    return count


# ---------------------------------------------------------------------------
# transfer products: M_N(z) = prod_{n<N} (I + z R_n) * [[0,-1],[1,0]]
# with R_n = [[-P_n Q_n, Q_n^2], [-P_n^2, P_n Q_n]].  Entries are rescaled
# whenever they exceed _RESCALE; the true entry is entry * exp(log_scale).
# ---------------------------------------------------------------------------

def transfer_real_numpy(P, Q, xs, N):
    xs = np.asarray(xs, dtype=np.float64)
    A = np.zeros_like(xs)
    B = np.full_like(xs, -1.0)
    C = np.ones_like(xs)
    D = np.zeros_like(xs)
    logscale = np.zeros_like(xs)
    for k in range(N):
        pq = P[k] * Q[k]
        qq = Q[k] * Q[k]
        pp = P[k] * P[k]
        A, C = A + xs * (qq * C - pq * A), C + xs * (pq * C - pp * A)
        B, D = B + xs * (qq * D - pq * B), D + xs * (pq * D - pp * B)
        m = np.maximum(np.maximum(np.abs(A), np.abs(B)),
                       np.maximum(np.abs(C), np.abs(D)))
        big = m > _RESCALE
        if big.any():
            s = np.where(big, m, 1.0)
            A = A / s
            B = B / s
            C = C / s
            D = D / s
            logscale = logscale + np.where(big, np.log(s), 0.0)
    return A, B, C, D, logscale


def transfer_complex_numpy(P, Q, zs, N):
    zs = np.asarray(zs, dtype=np.complex128)
    A = np.zeros_like(zs)
    B = np.full_like(zs, -1.0)
    C = np.ones_like(zs)
    D = np.zeros_like(zs)
    logscale = np.zeros(zs.shape, dtype=np.float64)
    for k in range(N):
        pq = P[k] * Q[k]
        qq = Q[k] * Q[k]
        pp = P[k] * P[k]
        A, C = A + zs * (qq * C - pq * A), C + zs * (pq * C - pp * A)
        B, D = B + zs * (qq * D - pq * B), D + zs * (pq * D - pp * B)
        m = np.maximum(np.maximum(np.abs(A), np.abs(B)),
                       np.maximum(np.abs(C), np.abs(D)))
        big = m > _RESCALE
        if big.any():
            s = np.where(big, m, 1.0)
            A = A / s
            B = B / s
            C = C / s
            D = D / s
            logscale = logscale + np.where(big, np.log(s), 0.0)
    return A, B, C, D, logscale


if NUMBA_AVAILABLE:
    solve_three_term_numba = numba.njit(cache=True, nogil=True)(_solve_three_term_loop)

    @numba.njit(cache=True, nogil=True)
    def sturm_counts_numba(diag, offsq, xs):
        n = diag.shape[0]
        out = np.empty(xs.shape[0], dtype=np.int64)
        for j in range(xs.shape[0]):
            x = xs[j]
            count = 0
            d = diag[0] - x
            if -_PIVMIN < d < _PIVMIN:
                d = _PIVMIN if d > 0 else -_PIVMIN
            if d < 0:
                count += 1
            for k in range(1, n):
                d = (diag[k] - x) - offsq[k - 1] / d
                if -_PIVMIN < d < _PIVMIN:
                    d = _PIVMIN if d > 0 else -_PIVMIN
                if d < 0:
                    count += 1
            out[j] = count
        return out

    @numba.njit(cache=True, nogil=True)
    def transfer_real_numba(P, Q, xs, N):
        m = xs.shape[0]
        A = np.empty(m)
        B = np.empty(m)
        C = np.empty(m)
        D = np.empty(m)
        logscale = np.zeros(m)
        for j in range(m):
            x = xs[j]
            a = 0.0
            b = -1.0
            c = 1.0
            d = 0.0
            s = 0.0
            for k in range(N):
                pq = P[k] * Q[k]
                qq = Q[k] * Q[k]
                pp = P[k] * P[k]
                a2 = a + x * (qq * c - pq * a)
                c2 = c + x * (pq * c - pp * a)
                b2 = b + x * (qq * d - pq * b)
                d2 = d + x * (pq * d - pp * b)
                a, b, c, d = a2, b2, c2, d2
                mx = max(max(abs(a), abs(b)), max(abs(c), abs(d)))
                if mx > _RESCALE:
                    a /= mx
                    b /= mx
                    c /= mx
                    d /= mx
                    s += np.log(mx)
            A[j] = a
            B[j] = b
            C[j] = c
            D[j] = d
            logscale[j] = s
        return A, B, C, D, logscale

    @numba.njit(cache=True, nogil=True)
    def transfer_complex_numba(P, Q, zs, N):
        m = zs.shape[0]
        A = np.empty(m, dtype=np.complex128)
        B = np.empty(m, dtype=np.complex128)
        C = np.empty(m, dtype=np.complex128)
        D = np.empty(m, dtype=np.complex128)
        logscale = np.zeros(m)
        for j in range(m):
            z = zs[j]
            a = 0.0 + 0.0j
            b = -1.0 + 0.0j
            c = 1.0 + 0.0j
            d = 0.0 + 0.0j
            s = 0.0
            for k in range(N):
                pq = P[k] * Q[k]
                qq = Q[k] * Q[k]
                pp = P[k] * P[k]
                a2 = a + z * (qq * c - pq * a)
                c2 = c + z * (pq * c - pp * a)
                b2 = b + z * (qq * d - pq * b)
                d2 = d + z * (pq * d - pp * b)
                a, b, c, d = a2, b2, c2, d2
                mx = max(max(abs(a), abs(b)), max(abs(c), abs(d)))
                if mx > _RESCALE:
                    a /= mx
                    b /= mx
                    c /= mx
                    d /= mx
                    s += np.log(mx)
            A[j] = a
            B[j] = b
            C[j] = c
            D[j] = d
            logscale[j] = s
        return A, B, C, D, logscale


if NUMBA_ENABLED:
    solve_three_term = solve_three_term_numba
    sturm_counts = sturm_counts_numba
    transfer_real = transfer_real_numba
    transfer_complex = transfer_complex_numba
else:
    solve_three_term = solve_three_term_numpy
    sturm_counts = sturm_counts_numpy
    transfer_real = transfer_real_numpy
    transfer_complex = transfer_complex_numpy

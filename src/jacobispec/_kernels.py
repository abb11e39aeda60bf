"""Hot numeric kernels, one numpy loop per mathematical object.

The three inner loops that dominate runtime live here:

* ``solve_three_term`` -- forward solution of the three-term recurrence,
* ``sturm_counts``     -- Sturm-sequence eigenvalue counts for tridiagonals,
* ``transfer_real`` / ``transfer_complex`` -- one column of the partial
  product of rank-one-perturbed identity factors that builds the
  Nevanlinna matrix; both are dtype entry points to the same loop.

``sturm_counts`` works on all S shifts still advanced at once and on
blocks of ``min(255, max(16, _BUDGET // S))`` rows, so that its ``(rows,
S)`` work buffer never holds more than ``max(16 S, _BUDGET)`` pivots, a
call with few shifts runs in few blocks, and a block's negative pivots
per shift fit a uint8 sum.  It writes the block's pivots with no floor
check, in the same operation order as the floored step, so every pivot
at or above the floor ``_PIVMIN`` is bit-identical to it.  At the end of
the block its negative pivots are summed per shift, its last row is
saved, and the smallest pivot magnitude decides: if it is at or above
the floor (a NaN fails this test) the sums are kept, otherwise the block
is run again with floored pivots from the pivot that entered it, by the
same loop with the floor applied to each row.  The counts and the last
pivot therefore equal those of the per-row floored loop exactly,
whatever the block height; the blocking only removes per-row call
overhead (cf. LAPACK's ``dlaneg``).
The last pivot d_N(x) comes back with the counts: it is negative exactly
when x lies above one more eigenvalue of J_N than of J_{N-1}, and between
two eigenvalues of J_{N-1} it is continuous and decreasing in x.

Each shift has a stop row, the last row by default, and counts the
leading block J_stop of its tridiagonal, so one call counts all
truncations of one sequence, each as a prefix of its rows; the stop row
may carry a diagonal entry of the shift's own in place of J_stop's (the
zeros of B_N are the eigenvalues of J_N so modified).  The shifts are
sorted by stop, largest first, so that those still advanced at row k are
a prefix, and a block ends at its height or at the smallest stop of its
shifts.  So each shift runs every row of its blocks, and the block that
ends at its stop writes its own entry there before each pass's row loop.
One tridiagonal is read a row at a time as scalars broadcast over the
shifts; a stack of independent tridiagonals, one per column, is gathered
per block, each shift reading its own column.  Either way each shift gets
the count and last pivot of the per-row floored loop on its own matrix,
bit for bit.

Every pass over the N steps or rows holds one block of them at a time,
never a copy of the whole sequence: ``solve_three_term`` and the transfer
loop convert their coefficients ``_STEPS`` steps at a time, and the one-
tridiagonal ``sturm_counts`` converts each row block's couplings.  Each
binary64 operation is the one the whole-sequence loop makes, in the same
order, so the block size sets the transient memory, never a value.
"""

import numpy as np

__all__ = ["BACKEND"]

BACKEND = "numpy"

_PIVMIN = 1e-300       # Sturm pivot floor
_OVERFLOW = 1e300      # recurrence blowup guard
_STEPS = 1024          # recurrence and transfer steps converted at a time


# ---------------------------------------------------------------------------
# three-term recurrence:  rho[k+1] u[k+2] + q[k+1] u[k+1] + rho[k] u[k] = 0
# ---------------------------------------------------------------------------

def solve_three_term(rho, q, u0, u1):
    """Return (u, overflow_index); overflow_index is -1 when none occurred.

    The steps run on Python floats, whose operations are the IEEE binary64
    ones of numpy scalars, at a fraction of their per-operation cost; the
    coefficients are converted and the values written ``_STEPS`` steps at
    a time."""
    n = rho.shape[0]
    u = np.empty(n + 1, dtype=np.float64)
    a, b = float(u0), float(u1)
    u[:2] = a, b
    for k0 in range(0, n - 1, _STEPS):
        k1 = min(k0 + _STEPS, n - 1)
        # step k reads rho[k], rho[k + 1] and q[k + 1], and writes u[k + 2]
        r, qs = rho[k0 : k1 + 1].tolist(), q[k0 + 1 : k1 + 1].tolist()
        out = []
        for j in range(k1 - k0):
            a, b = b, -(qs[j] * b + r[j] * a) / r[j + 1]
            out.append(b)
            if abs(b) > _OVERFLOW:
                u[k0 + 2 : k0 + j + 3] = out
                return u, k0 + j + 2
        u[k0 + 2 : k1 + 2] = out
    return u, -1


# ---------------------------------------------------------------------------
# Sturm counts: eigenvalues of the leading principal tridiagonal submatrix
# below each shift x (LD factorization sign count, pivots floored; a zero
# pivot is floored to a negative one, so an eigenvalue at exactly x counts)
# ---------------------------------------------------------------------------

_BUDGET = 32768  # float64 pivots per work buffer (256 KiB): the block height
                 # times the shift count, for at least 16 rows
_ROWS = np.iinfo(np.uint8).max  # rows per block at most, so that a block's
                                # negative pivots per shift fit a uint8


def _floor_pivots(d):
    return np.where(np.abs(d) < _PIVMIN, np.where(d > 0, _PIVMIN, -_PIVMIN), d)


def sturm_counts(diag, offsq, xs, stop=None, mat=None, last=None):
    """Return (counts, last pivots) of the floored LD factorization of
    J - x at every shift x of xs, J the leading ``stop[s]`` x ``stop[s]``
    block (1 <= stop[s] <= n, all n rows by default) for shift s, with its
    last diagonal entry replaced by ``last[s]`` where *last* is given.

    ``diag`` (n,) and ``offsq`` (n - 1,) hold one tridiagonal; with ``mat``
    they are (n, M) and (n - 1, M), one tridiagonal per column, and shift s
    is counted on column ``mat[s]``."""
    xs = np.asarray(xs, dtype=np.float64)
    stop = np.full(xs.size, diag.shape[0]) if stop is None else np.asarray(stop, dtype=np.int64)
    order = np.argsort(-stop, kind="stable")
    xs, stop = xs[order], stop[order]
    if mat is None:
        col = diag[:, None]
        d = diag[0]
    else:
        mat = np.asarray(mat)[order]
        d = diag[0, mat]
    if last is not None:
        last = np.asarray(last, dtype=np.float64)[order]
        d = np.where(stop == 1, last, d)
    d = _floor_pivots(d - xs)
    count = (d < 0).astype(np.int64)
    S = xs.size
    # rows 1 .. top - 1 are advanced, the shifts whose stop lies beyond a
    # row forming a prefix of the sorted shifts
    top = int(stop[0]) if S else 1
    size = min(max(16 * S, _BUDGET), _ROWS * S, (top - 1) * S)
    buf, neg = np.empty(size), np.empty(size, dtype=bool)
    # a stack's couplings are gathered into a buffer of their own: a fresh
    # array of a block's size would be mapped and unmapped at every block
    wbuf = None if mat is None else np.empty(size)
    t = np.empty(S)
    div, sub = np.divide, np.subtract
    k0 = 1
    while k0 < top:
        act = int(np.count_nonzero(stop > k0))
        # the block ends at its height or at its shifts' smallest stop, so each
        # runs all its rows; the shifts from `end` on stop at its last row
        k1 = min(int(stop[act - 1]), k0 + min(_ROWS, max(16, _BUDGET // act)))
        end = act if last is None else int(np.count_nonzero(stop > k1))
        x, ta = xs[:act], t[:act]
        block = buf[: (k1 - k0) * act].reshape(k1 - k0, act)
        sign = neg[: block.size].reshape(block.shape)
        if mat is None:
            ws = offsq[k0 - 1 : k1 - 1].tolist()
        else:
            m = mat[:act]
            ws = wbuf[: block.size].reshape(block.shape)
            np.take(offsq[k0 - 1 : k1 - 1], m, axis=1, out=ws, mode="clip")
        # unfloored first; a block holding a pivot below the floor (or a
        # NaN) runs again with floored pivots, so its warnings are not wanted
        for floored in (False, True):
            prev = d[:act]
            with np.errstate(all="ignore"):
                if mat is None:
                    sub(col[k0:k1], x, block)
                else:
                    np.take(diag[k0:k1], m, axis=1, out=block, mode="clip")
                    sub(block, x, block)
                if end < act:
                    sub(last[end:act], x[end:], block[-1, end:])
                for wk, row in zip(ws, block):
                    div(wk, prev, ta)
                    sub(row, ta, row)
                    if floored:
                        row[:] = _floor_pivots(row)
                    prev = row
            # at most _ROWS negative pivots per column: a uint8 sum
            np.less(block, 0.0, sign)
            ta[:] = prev
            below = np.add.reduce(sign.view(np.uint8), axis=0, dtype=np.uint8)
            if floored:
                break
            np.abs(block, out=block)
            if block.min() >= _PIVMIN:
                break
        count[:act] += below
        d[:act] = ta
        k0 = k1
    out_count, out_d = np.empty_like(count), np.empty_like(d)
    out_count[order], out_d[order] = count, d
    return out_count, out_d


# ---------------------------------------------------------------------------
# transfer products: M_N(z) = prod_{n<N} (I + z R_n) * [[0,-1],[1,0]] with
# the rank-one R_n = (Q_n, P_n)^T (-P_n, Q_n), so a column (u, v) moves as
# s = z (Q_n v - P_n u), u += Q_n s, v += P_n s; (A, C) starts at (0, 1),
# (B, D) at (-1, 0).  As R_n^2 = 0, a factor changes a column's norm by at
# most g_n = 1 + |z| (P_n^2 + Q_n^2) either way, so the column is scaled by
# a power of two only where sum log g_n since the last scaling would pass
# _LOG_BUDGET.  That is exact and commutes with the steps, so the result is
# canonical and each point's is bit-identical whatever its batch: the true
# column is (u, v) * 2**e, with e = 0 where every real and imaginary part
# is below 2 in magnitude, else the largest in [1, 2).
# ---------------------------------------------------------------------------

_LOG_BUDGET = 600.0  # log growth allowed between scalings (1e308 ~ e^709)


def _transfer(P, Q, zs, N, u0, v0):
    shape, zs = zs.shape, zs.reshape(-1)
    col = np.array([np.broadcast_to(c, shape).reshape(-1) for c in (u0, v0)], zs.dtype)
    e = np.zeros(zs.size, dtype=np.int64)
    s = np.empty_like(zs)
    # the real factors act on the float views, z on the values themselves;
    # (-p, q) and (q, p) are columns that multiply the rows u and v
    colf, sf = col.view(np.float64), s.view(np.float64)
    tmp = np.empty_like(colf)
    tu, tv = tmp
    zmax = np.max(np.abs(zs), initial=0.0)
    grown = 0.0
    mul, add = np.multiply, np.add
    for k0 in range(0, N, _STEPS):
        k1 = min(k0 + _STEPS, N)
        p, q = P[k0:k1], Q[k0:k1]
        npq = np.stack([-p, q], axis=1)[:, :, None]
        qp = np.stack([q, p], axis=1)[:, :, None]
        logg = np.log1p(zmax * (p**2 + q**2))
        for a, b, g in zip(npq, qp, logg.tolist()):
            if grown + g > _LOG_BUDGET:
                # the largest real or imaginary part to [1/2, 1)
                m = np.frexp(np.maximum(abs(col.real), abs(col.imag)).max(axis=0))[1]
                col *= np.ldexp(1.0, -m)
                e, grown = e + m, 0.0
            grown += g
            # s = z (q v - p u), as q v + (-p u); u += q s, v += p s
            mul(colf, a, tmp)
            add(tv, tu, sf)
            mul(s, zs, s)
            mul(b, sf, tmp)
            add(colf, tmp, colf)
    m = np.frexp(np.maximum(abs(col.real), abs(col.imag)).max(axis=0))[1]
    m = np.maximum(m - 1, -e)  # to the canonical form
    col *= np.ldexp(1.0, -m)
    return col[0].reshape(shape), col[1].reshape(shape), (e + m).reshape(shape)


def transfer_real(P, Q, xs, N, u0, v0):
    return _transfer(P, Q, np.asarray(xs, dtype=np.float64), N, u0, v0)


def transfer_complex(P, Q, zs, N, u0, v0):
    return _transfer(P, Q, np.asarray(zs, dtype=np.complex128), N, u0, v0)

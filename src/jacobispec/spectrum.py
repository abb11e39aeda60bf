"""Eigenvalues of finite truncations from Sturm counts.

Only counts and brackets are ever needed downstream, so everything is
built on the Sturm count (LD-factorization sign count with floored
pivots) rather than on a factorization eigensolver.  Eigenvalues are
bracketed in two phases that share batched Sturm sweeps: isolation of
each eigenvalue by cutting distinct intervals, each into at least as
many equal parts as it holds eigenvalues of J_N and J_{N-1} (after the
bisection of Barth, Martin and Wilkinson, Numer. Math. 9, 1967), and a
safeguarded regula falsi on the last LD pivot, whose sign changes are
decided by the count (after Li and Zeng, SIAM J. Matrix Anal. Appl. 15,
1994).  Isolation is the one rule that cuts.  A bracket on which the
regula falsi converges to a point x goes back to it, to be cut at
x -+ 0.45 tol: the part that holds the eigenvalue is then either the
bracket centred on x or, where the regula falsi stopped short of the
eigenvalue, a side part that isolation narrows to the tolerance.  A
bracket that the regula falsi cannot finish goes back to isolation as
it stands.  A brute-force characteristic-polynomial
root isolator serves as the independent cross-check for tiny matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernels
from .params import JacobiSequence

__all__ = [
    "TruncatedSpectrum",
    "sturm_count",
    "eigenvalues_in",
    "eigenvalues_in_each",
    "full_spectrum",
    "full_spectra",
    "gershgorin_interval",
    "stabilized_counting",
    "charpoly_eigenvalues",
    "charpoly_eigenvalues_each",
]


@dataclass(frozen=True, eq=False)
class TruncatedSpectrum:
    """The eigenvalues of one truncation, strictly increasing and read-only."""

    eigenvalues: np.ndarray

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=np.float64)
        step = np.diff(ev)
        if np.any(step < 0):
            raise ValueError("truncation spectrum must be strictly increasing")
        if np.any(step == 0):
            # only eigenvalues equal at float resolution share a bracket
            value = ev[np.argmax(step == 0)]
            raise ValueError(
                f"truncation eigenvalue {float(value)!r} has multiplicity "
                f"{np.count_nonzero(ev == value)} at float resolution; "
                "no tol separates equal eigenvalues"
            )
        ev.setflags(write=False)
        object.__setattr__(self, "eigenvalues", ev)


def _submatrix(seq: JacobiSequence, N: int) -> tuple[np.ndarray, np.ndarray]:
    if not 1 <= N <= len(seq):
        raise ValueError(f"need 1 <= N <= {len(seq)}")
    return seq.q[:N], seq.rho[: N - 1] ** 2


def sturm_count(seq: JacobiSequence, N: int, x: float) -> int:
    """Number of eigenvalues of the N x N truncation below x; an eigenvalue
    at exactly x may count as below it (its zero pivot is floored to a
    negative one)."""
    diag, offsq = _submatrix(seq, N)
    return int(_kernels.sturm_counts(diag, offsq, np.array([float(x)]))[0][0])


def gershgorin_interval(seq: JacobiSequence, N: int) -> tuple[float, float]:
    """Interval certain to contain the whole truncation spectrum."""
    diag, _ = _submatrix(seq, N)
    spread = 2.0 * float(np.max(seq.rho[:N]))
    return float(np.min(diag)) - spread, float(np.max(diag)) + spread


#: a finish cuts its bracket at x - _HALF * tol and x + _HALF * tol around
#: the converged secant point x, so that the part between them, where it
#: holds the eigenvalue, keeps a margin of about 0.45 tol from it at both
#: ends for the sign checks made there
_HALF = 0.45
#: the secant iteration stops once its next step is below _STEP * tol
_STEP = 0.1
#: sweeps after which every unfinished secant iteration goes back to
#: isolation and no interval is promoted to the secant any more
_SECANT_SWEEPS = 100
#: shifts per isolation sweep: while fewer than _SPLIT // 2 intervals are
#: being isolated, each is cut into at least _SPLIT // count parts instead
#: of two, and into more where it holds more eigenvalues; the per-row
#: overhead of a sweep makes one over a few shifts cost about half as much
#: as one over _SPLIT (2.2 against 4.1 ms for 4 and 256 shifts at
#: N = 2000, fastest of 30 runs, 2-core Xeon)
_SPLIT = 256

# columns of the secant table of isolated eigenvalues in _stacked_brackets
_LO, _HI, _FLO, _FHI, _K, _P, _LAST, _X, _PROB = range(9)


def _cut(lo, hi, t):
    """The point lo + t (hi - lo), 0 <= t <= 1, inside [lo, hi] and free
    of overflow for finite ends."""
    return np.minimum(np.maximum(lo * (1.0 - t) + hi * t, lo), hi)


def _mid(lo, hi):
    """The midpoint, inside [lo, hi] and free of overflow for finite ends."""
    return 0.5 * lo + 0.5 * hi


def _unsplittable(lo, hi, tol):
    """Brackets at most tol wide, or with no float strictly between their
    ends (also true where an end is NaN)."""
    half = _mid(lo, hi)
    return (hi - lo <= tol) | ~((lo < half) & (half < hi))


def _secant_point(one: np.ndarray) -> np.ndarray:
    """Regula falsi point of d_N on each bracket, kept inside it; the
    midpoint where the pivots overflowed."""
    lo, hi, flo = one[:, _LO], one[:, _HI], one[:, _FLO]
    with np.errstate(all="ignore"):
        x = lo + (hi - lo) * (flo / (flo - one[:, _FHI]))
    x = np.minimum(np.maximum(x, lo), hi)
    return np.where(np.isnan(x), _mid(lo, hi), x)


def _isolation_cuts(iso):
    """The cut points of every interval being isolated, as (cuts, ncut):
    interval i is cut into ncut[i] + 1 equal parts, with ncut[i] =
    max(e, max(2, _SPLIT // len(iso)) - 1) for the number e of eigenvalues
    of J_N and of J_{N-1} in it, which is 0 before the first sweep has
    counted the window ends."""
    e = (iso[:, 3] - iso[:, 2] + iso[:, 5] - iso[:, 4]).astype(np.int64)
    ncut = np.maximum(e, max(2, _SPLIT // max(len(iso), 1)) - 1)
    first = np.repeat(np.cumsum(ncut) - ncut, ncut)
    i = np.repeat(np.arange(len(iso)), ncut)
    t = (np.arange(first.size) - first + 1) / (ncut[i] + 1)
    return _cut(iso[i, 0], iso[i, 1], t), ncut


def _finish_cuts(fin, tol):
    """The cut points of every finishing interval, as (cuts, ncut): those of
    x - _HALF * tol and x + _HALF * tol, for its converged secant point x,
    that lie strictly inside it, ncut[i] of them in interval i."""
    half = _HALF * tol[fin[:, 8].astype(np.int64)]
    ends = np.column_stack([fin[:, 10] - half, fin[:, 10] + half])
    inside = (fin[:, :1] < ends) & (ends < fin[:, 1:2])
    return ends[inside], inside.sum(axis=1)


def _split(iso, ncut, cuts, c, p, f):
    """The parts of every interval between its cut points, ncut[i] of them
    in interval i, each with the counts and pivots at both of its ends, its
    problem and its flag; empty parts are dropped."""
    i = np.repeat(np.arange(len(iso)), ncut)
    # a count is kept monotone across the cuts of its interval; offset by
    # interval, a running maximum never reaches into the next one
    offset = i * (iso[:, 3].max(initial=0.0) + 1.0)
    c = np.maximum.accumulate(np.clip(c, iso[i, 2], iso[i, 3]) + offset) - offset
    # each interval's points, its ends included, in rows: x, the counts of
    # J_N and of J_{N-1}, and d_N
    lo = np.cumsum(ncut + 2) - ncut - 2
    hi = lo + ncut + 1
    points = np.empty((4, cuts.size + 2 * len(iso)))
    inner = np.ones(points.shape[1], dtype=bool)
    inner[lo] = inner[hi] = False
    points[:, lo], points[:, hi] = iso[:, 0:8:2].T, iso[:, 1:8:2].T
    points[:, inner] = cuts, c, p, f
    inner[lo] = True  # the lower end of every part
    parts = np.empty((cuts.size + len(iso), 10))
    parts[:, 0:8:2], parts[:, 1:8:2] = points[:, inner].T, points[:, np.roll(inner, 1)].T
    parts[:, 8:] = np.repeat(iso[:, 8:], ncut + 1, axis=0)
    return parts[parts[:, 3] > parts[:, 2]]


def _store(out_lo, out_hi, brackets, shift):
    """Write each bracket (lo, hi, count(lo), count(hi)) as the bracket of
    every eigenvalue index count(lo) + 1 .. count(hi), at the output index
    count(lo) + shift."""
    n_each = (brackets[:, 3] - brackets[:, 2]).astype(np.int64)
    first = np.repeat(np.cumsum(n_each) - n_each, n_each)
    idx = np.repeat(brackets[:, 2].astype(np.int64) + shift, n_each) + (
        np.arange(first.size) - first
    )
    out_lo[idx] = np.repeat(brackets[:, 0], n_each)
    out_hi[idx] = np.repeat(brackets[:, 1], n_each)


def _stacked_brackets(diag, offsq, n, last, a, b, tol, col=None):
    """Brackets (lo_k, hi_k) of width <= tol[m] with count(lo_k) < k <=
    count(hi_k), one for each eigenvalue in [a[m], b[m]] of each problem m;
    those of problem m are at offsets[m] .. offsets[m + 1] - 1 of the
    returned (lo, hi, offsets).

    Problem m is the tridiagonal J of the leading n[m] rows of ``diag`` and
    the squared off-diagonal ``offsq``, or of their column col[m] where
    they are 2-D, with last[m] as its last diagonal entry unless *last* is
    None.  Problems on one column are prefixes of it: the kernel stops each
    shift at its own row, which carries its problem's last entry.

    Every sweep is one batched Sturm count, whose last pivot d_N(x) also
    gives the count of J_{N-1} at x.  The first counts the window ends
    together with the first cuts.  Each bracket passes through up to two
    phases, and brackets in different phases, or of different problems,
    share sweeps:

    1. Isolation.  Distinct intervals, each with its counts at both ends,
       are cut while they hold more than one eigenvalue of J_N or an
       eigenvalue of J_{N-1} (LAPACK's ``dstebz`` keeps its intervals so):
       into equal parts, as many as the eigenvalues of J_N and of J_{N-1}
       the interval holds plus one, and, while there are few intervals,
       at least _SPLIT // count of them; the first sweep, before the
       window ends are counted, uses the second rule alone.
    2. Secant.  On an interval with one eigenvalue of J_N and none of
       J_{N-1}, d_N is continuous and decreasing, positive at the lower
       end and negative at the upper one.  A regula falsi on d_N with the
       Anderson-Bjorck weight (a refinement of the Illinois and Pegasus
       rules) proposes each next point; the Sturm count there, never the
       sign of d_N, decides which end the point replaces.  The weight
       applies from the first step on: the isolation end that the first
       step keeps counts as kept once already.

    Once the next step is below ``_STEP * tol``, or the bracket (lo, hi)
    is at most tol wide, the bracket finishes: with h = _HALF * tol around
    the proposed point x, it goes back to isolation as the interval
    [min(lo, x - h), max(hi, x + h)], which the next sweep cuts at those of
    x - h and x + h that lie strictly inside it.  An end at or beyond the
    bracket's end on its side is on that side of eigenvalue k already, as
    the count is monotone in the shift.  The part that holds eigenvalue k
    is then [x - h, x + h], which stops as at most tol wide, or a side part
    where the secant stopped short of the eigenvalue, which is isolated on.
    A finish with neither point strictly inside is [x - h, x + h] itself
    and stops in the sweep that proposes it, with no count.

    A bracket whose pivots disagree with its counts, and from sweep
    ``_SECANT_SWEEPS`` on every secant bracket that does not finish, goes
    back to isolation as it stands.  Every bracket that leaves the secant
    is an interval that holds eigenvalue k of J_N and none of J_{N-1},
    flagged never to return to the secant; from that sweep on no interval
    is promoted at all.  Isolation is the one rule that cuts and the one
    that stores.  An interval stops once it is at most tol wide, and its
    eigenvalues get the interval itself as their bracket; one that holds
    more than one eigenvalue of J_N, a cluster narrower than tol, is cut on
    until no float is left strictly between its ends, so that only
    eigenvalues equal at float resolution share a bracket.

    Every decision is taken per bracket, except the number of parts an
    interval is cut into: about ``_SPLIT`` cut points per sweep are shared
    by all intervals of all problems (more where they hold many
    eigenvalues).  So a problem among others may get other brackets than
    alone, each still of width <= tol around its eigenvalue.
    """

    n = np.asarray(n)
    a, b, tol = (np.asarray(v, dtype=np.float64) for v in (a, b, tol))
    n_prob = a.size
    # the lower end is counted one ulp below a: an eigenvalue at exactly a
    # has a zero pivot there, which the floor counts as negative
    top = np.finfo(np.float64).max
    ends = np.clip([np.nextafter(a, -top), np.nextafter(b, top)], -top, top)
    # intervals being isolated: lo, hi, the J_N counts, the J_{N-1} counts
    # and d_N, each at both ends, the problem and a flag set on a bracket
    # that left the secant, which never returns to it; the counts at the
    # window ends come with the first sweep
    iso = np.zeros((n_prob, 10))
    iso[:, 0], iso[:, 1], iso[:, 8] = ends[0], ends[1], np.arange(n_prob)
    # finishing intervals, to be cut in the next sweep: iso's columns and
    # the converged secant point x
    fin = np.empty((0, 11))
    # isolated eigenvalues, in the columns named above: lo, hi, d_N at both
    # (weighted), the index k, the J_{N-1} count, the end replaced last (-1
    # lo, +1 hi, 0 none), the next point to count and the problem
    one = np.empty((0, 9))
    shift = None  # output index minus count(lo), per problem
    sweeps = 0
    while shift is None or iso.size or fin.size or one.size:
        sweeps += 1
        cuts, ncut = _isolation_cuts(iso)
        fin_cuts, fin_ncut = _finish_cuts(fin, tol)
        # the finishing intervals are split with the others
        iso = np.concatenate([iso, fin[:, :10]])
        cuts, ncut = np.concatenate([cuts, fin_cuts]), np.concatenate([ncut, fin_ncut])
        one_prob = one[:, _PROB].astype(np.int64)
        xs = [cuts, one[:, _X]]
        prob = [np.repeat(iso[:, 8].astype(np.int64), ncut), one_prob]
        if shift is None:
            xs += [ends.ravel()]
            prob += [np.tile(np.arange(n_prob), 2)]
        # the counts of J_N and of J_{N-1} and the last pivot d_N at each shift
        prob = np.concatenate(prob)
        c, f = _kernels.sturm_counts(
            diag, offsq, np.concatenate(xs), n[prob], None if col is None else col[prob],
            None if last is None else last[prob],
        )
        p = c - (f < 0)
        m0 = cuts.size
        m1 = m0 + len(one)
        if shift is None:
            iso[:, 2:8] = np.column_stack([e[m1:].reshape(2, n_prob).T for e in (c, p, f)])
            offsets = np.concatenate([[0], np.cumsum(iso[:, 3] - iso[:, 2])]).astype(np.int64)
            shift = offsets[:-1] - iso[:, 2].astype(np.int64)
            out_lo = np.empty(offsets[-1])
            out_hi = np.empty(offsets[-1])

        fell, fin = np.empty((0, 10)), np.empty((0, 11))
        if one.size:
            # whether each point lies above eigenvalue k, with its pivots;
            # every point narrows its bracket, as the count says
            k, tk, x = one[:, _K], tol[one_prob], one[:, _X]
            up, pc, fc = c[m0:m1] >= k, p[m0:m1], f[m0:m1]
            lo = np.where(up, one[:, _LO], np.maximum(one[:, _LO], x))
            hi = np.where(up, np.minimum(one[:, _HI], x), one[:, _HI])
            one[:, _LO], one[:, _HI] = lo, hi
            # where the same end is replaced twice running, or at the first
            # step (the other end counts as kept once already), the pivot
            # kept at the other end is weighted by 1 - f_new / f_old, or by
            # 1/2 where that is not positive
            rows = np.arange(k.size)
            side = np.where(up, 1.0, -1.0)
            new_end = np.where(up, _FHI, _FLO)
            again = one[:, _LAST] != -side
            with np.errstate(all="ignore"):
                w = 1.0 - fc / one[rows, new_end]
            w = np.where(w > 0, w, 0.5)
            one[rows[again], (_FLO + _FHI - new_end)[again]] *= w[again]
            one[rows, new_end] = fc
            one[:, _LAST] = side
            nxt = _secant_point(one)
            bad = (up != (fc < 0)) | (pc != one[:, _P])
            near = ~bad & ((np.abs(nxt - x) <= _STEP * tk) | (hi - lo <= tk))
            one[:, _X] = nxt
            # a bracket leaves the secant as an interval to isolate, which
            # holds eigenvalue k of J_N and none of J_{N-1}
            leave = bad | near | (sweeps >= _SECANT_SWEEPS)
            out = one[:, [_LO, _HI, _K, _K, _P, _P, _FLO, _FHI, _PROB, _PROB, _X]]
            out[:, 2] -= 1.0
            out[:, 9] = 1.0
            # a finish is widened to hold its cut points x -+ _HALF tol, to
            # be cut at them in the next sweep; with neither strictly inside
            # it is the interval between them, which stops in this one
            out[near, 0] = np.minimum(lo, nxt - _HALF * tk)[near]
            out[near, 1] = np.maximum(hi, nxt + _HALF * tk)[near]
            centred = near & (_finish_cuts(out, tol)[1] == 0)
            fin = out[near & ~centred]
            fell = out[(leave & ~near) | centred, :10]
            one = one[~leave]

        iso = np.concatenate([_split(iso, ncut, cuts, c[:m0], p[:m0], f[:m0]), fell])
        iso_prob = iso[:, 8].astype(np.int64)
        # an interval stops at width <= tol, or, while it holds more than one
        # eigenvalue of J_N, once no float is left strictly between its ends
        crowded = iso[:, 3] - iso[:, 2] > 1.0
        stop = _unsplittable(iso[:, 0], iso[:, 1], np.where(crowded, 0.0, tol[iso_prob]))
        if stop.any():
            _store(out_lo, out_hi, iso[stop], shift[iso_prob[stop]])
            iso = iso[~stop]
        ready = (iso[:, 3] - iso[:, 2] == 1.0) & (iso[:, 4] == iso[:, 5]) & (iso[:, 9] == 0.0)
        if sweeps < _SECANT_SWEEPS and ready.any():
            add = np.zeros((np.count_nonzero(ready), 9))
            add[:, [_LO, _HI, _FLO, _FHI, _K, _P, _PROB]] = (
                iso[ready][:, [0, 1, 6, 7, 3, 4, 8]]
            )
            add[:, _X] = _secant_point(add)
            one = np.concatenate([one, add])
            iso = iso[~ready]
    return out_lo, out_hi, offsets


def _stack(mats):
    """The (diag, offsq) pairs *mats* of independent matrices as the columns
    of zero-padded arrays, with their dimensions."""
    sizes = np.array([diag.size for diag, _ in mats], dtype=np.int64)
    n = int(sizes.max())
    diag = np.zeros((n, sizes.size))
    offsq = np.zeros((n - 1, sizes.size))
    for m, (d, w) in enumerate(mats):
        diag[: d.size, m], offsq[: w.size, m] = d, w
    return diag, offsq, sizes


def _window(interval, tol) -> tuple[float, float, float]:
    a, b = float(interval[0]), float(interval[1])
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("interval ends must be finite")
    if not a < b:
        raise ValueError("need a < b")
    if tol is None:
        tol = 1e-10 * max(1.0, abs(a), abs(b))
    if not tol > 0:
        raise ValueError("tol must be positive")
    return a, b, float(tol)


def _bracket_each(problems) -> list:
    """Brackets (lo, hi) of width <= tol, one for each eigenvalue in the
    window, for each ``(seq, N, interval, tol | None, last | None)`` of
    *problems*: J_N of seq, with its last diagonal entry replaced by *last*
    unless that is None, all from one ``_stacked_brackets`` call.  The
    problems on one sequence are prefixes of its rows; distinct sequences
    are the columns of a stack."""
    problems = list(problems)
    if not problems:
        return []
    windows = np.array([_window(interval, tol) for _, _, interval, tol, _ in problems])
    seqs, size = {}, {}
    for seq, N, *_ in problems:
        if not 1 <= N <= len(seq):
            raise ValueError(f"need 1 <= N <= {len(seq)}")
        seqs[id(seq)] = seq
        size[id(seq)] = max(size.get(id(seq), 0), N)
    mats = [_submatrix(seq, size[key]) for key, seq in seqs.items()]
    if len(mats) == 1:
        (diag, offsq), col = mats[0], None
    else:
        diag, offsq, _ = _stack(mats)
        column = {key: m for m, key in enumerate(seqs)}
        col = np.array([column[id(seq)] for seq, *_ in problems])
    n = [N for _, N, *_ in problems]
    # a problem without a replaced entry passes its own, if any replaces one
    last = None
    if any(problem[4] is not None for problem in problems):
        last = np.array([seq.q[N - 1] if v is None else v for seq, N, *_, v in problems])
    lo, hi, offsets = _stacked_brackets(diag, offsq, n, last, *windows.T, col)
    return list(zip(np.split(lo, offsets[1:-1]), np.split(hi, offsets[1:-1])))


def eigenvalues_in_each(problems) -> list:
    """``eigenvalues_in`` for each ``(seq, N, interval, tol | None)`` of
    *problems*, all bracketed in one Sturm call: one array per problem,
    each within its tol of its own ``eigenvalues_in``."""
    brackets = _bracket_each((*problem, None) for problem in problems)
    return [0.5 * (lo + hi) for lo, hi in brackets]


def eigenvalues_in(
    seq: JacobiSequence,
    N: int,
    interval: tuple,
    tol: float | None = None,
) -> np.ndarray:
    """All truncation eigenvalues in [a, b], each bracketed to width <= tol."""
    return eigenvalues_in_each([(seq, N, interval, tol)])[0]


def full_spectra(
    seq: JacobiSequence, Ns: Sequence[int], tol: float | None = None
) -> list:
    """The whole spectrum of each truncation J_N, N in *Ns*, in one call."""
    Ns = list(Ns)
    evs = eigenvalues_in_each((seq, N, gershgorin_interval(seq, N), tol) for N in Ns)
    for N, ev in zip(Ns, evs):
        if ev.size != N:
            raise RuntimeError(
                f"expected {N} eigenvalues in the containment interval, found {ev.size}"
            )
    return [TruncatedSpectrum(eigenvalues=ev) for ev in evs]


def full_spectrum(
    seq: JacobiSequence, N: int, tol: float | None = None
) -> TruncatedSpectrum:
    return full_spectra(seq, [N], tol)[0]


def stabilized_counting(
    seq: JacobiSequence, rs: np.ndarray, Ns: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Counting functions n_N(r) = #{|lambda| <= r} of growing truncations.

    Every radius is counted exactly, in one Sturm call for all N, and the
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
    if not np.all(rs >= 0):
        raise ValueError("r must be nonnegative, not NaN")
    # a zero pivot is floored to a negative one, so an eigenvalue exactly at
    # a shift may count as below it; shifting one ulp outward on both sides
    # keeps eigenvalues at exactly +-r inside the count
    shifts = np.concatenate([np.nextafter(rs, np.inf), np.nextafter(-rs, -np.inf)])
    if Ns[0] < 1:
        raise ValueError(f"need 1 <= N <= {len(seq)}")
    diag, offsq = _submatrix(seq, Ns[-1])
    # every J_N is a prefix of J_{N_max}: one call, each shift stopping at its N
    c, _ = _kernels.sturm_counts(
        diag, offsq, np.tile(shifts, len(Ns)), np.repeat(Ns, shifts.size)
    )
    c = c.reshape(len(Ns), 2, rs.size)
    table = (c[:, 0] - c[:, 1]).T
    return table, table[:, -1] == table[:, -2]


# ---------------------------------------------------------------------------
# brute-force characteristic-polynomial oracle (tiny N only)
# ---------------------------------------------------------------------------

def _charpoly_values(diag, offsq, sizes, xs, mat):
    """det(J - x I) of matrix ``mat[i]`` of a padded stack at each x = xs[i]
    by the determinant recurrence.  The points are taken largest matrix
    first, so that those still advanced at row k are a prefix."""
    order = np.argsort(-sizes[mat], kind="stable")
    xs, mat = xs[order], mat[order]
    n_of = sizes[mat]
    pm1 = np.ones_like(xs)
    p = diag[0, mat] - xs
    for k in range(1, int(n_of.max(initial=1))):
        a = int(np.count_nonzero(n_of > k))
        m = mat[:a]
        p_k = (diag[k, m] - xs[:a]) * p[:a] - offsq[k - 1, m] * pm1[:a]
        pm1[:a] = p[:a]
        p[:a] = p_k
    out = np.empty_like(p)
    out[order] = p
    return out


def _charpoly_grid_brackets(diag, offsq, sizes, windows):
    """Grid cells holding the sign changes of each matrix m's characteristic
    polynomial on windows[m], its grid refined until there are as many as
    its dimension.  Each round evaluates the grids of the matrices still
    short of sign changes together, each point on its own matrix, in calls
    of about ``_kernels._BUDGET // 8`` points, so that the recurrence's
    arrays stay as small as the Sturm kernel's work buffer."""
    cells = [None] * sizes.size
    pts = 64 * sizes
    todo = np.arange(sizes.size)
    for _ in range(16):
        short = []
        first = (np.cumsum(pts[todo]) - pts[todo]) // (_kernels._BUDGET // 8)
        for group in np.split(todo, np.flatnonzero(np.diff(first)) + 1):
            grids = [np.linspace(*windows[m], pts[m]) for m in group]
            xs, mat = np.concatenate(grids), np.repeat(group, pts[group])
            sign = np.sign(_charpoly_values(diag, offsq, sizes, xs, mat))
            # treat exact zeros as negative so each root yields one sign change
            sign[sign == 0] = -1.0
            flips = np.split(sign[:-1] * sign[1:] < 0, np.cumsum(pts[group])[:-1])
            for m, xs, flip in zip(group, grids, flips):
                idx = np.nonzero(flip[: xs.size - 1])[0]
                if idx.size == sizes[m]:
                    cells[m] = xs[idx], xs[idx + 1]
                else:
                    short.append(m)
        if not short:
            return cells
        todo = np.array(short)
        pts[todo] *= 4
    raise RuntimeError("failed to isolate all characteristic-polynomial roots")


def charpoly_eigenvalues_each(problems, tol: float = 1e-11) -> list:
    """``charpoly_eigenvalues`` for each ``(seq, N)`` of *problems*: each
    matrix's roots are isolated on its own grid, every refinement round and
    every bisection step evaluating the determinants of the whole stack at
    once.

    Each root takes the steps it would take alone, and the recurrence keeps
    its per-element operation order, so every root is bit-identical to its
    own call's.
    """
    problems = list(problems)
    if not problems:
        return []
    diag, offsq, sizes = _stack([_submatrix(seq, N) for seq, N in problems])
    cells = _charpoly_grid_brackets(
        diag, offsq, sizes, [gershgorin_interval(seq, N) for seq, N in problems]
    )
    lo = np.concatenate([c[0] for c in cells])
    hi = np.concatenate([c[1] for c in cells])
    mat = np.repeat(np.arange(sizes.size), sizes)
    # every bracket stops at its own width, so every root takes the steps a
    # bracket-by-bracket bisection would take
    lo_neg = _charpoly_values(diag, offsq, sizes, lo, mat) < 0
    active = np.nonzero(hi - lo > tol)[0]
    while active.size:
        mid = 0.5 * (lo[active] + hi[active])
        same = (_charpoly_values(diag, offsq, sizes, mid, mat[active]) < 0) == lo_neg[active]
        lo[active[same]] = mid[same]
        hi[active[~same]] = mid[~same]
        active = active[hi[active] - lo[active] > tol]
    return np.split(0.5 * (lo + hi), np.cumsum(sizes)[:-1])


def charpoly_eigenvalues(
    seq: JacobiSequence, N: int, tol: float = 1e-11
) -> np.ndarray:
    """All truncation eigenvalues by sign scan + bisection on det(J_N - x I).

    Exhaustive grid refinement until all N sign changes of the
    characteristic polynomial are isolated; intended as the independent
    oracle for dimensions <= ~12.  Uses only the determinant recurrence,
    never the Sturm count.
    """
    return charpoly_eigenvalues_each([(seq, N)], tol)[0]

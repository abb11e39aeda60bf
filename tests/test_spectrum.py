import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobispec import _kernels, growth, spectrum, verify
from jacobispec.params import JacobiSequence, descriptor_from_json, materialize
from jacobispec.spectrum import (
    TruncatedSpectrum,
    charpoly_eigenvalues,
    charpoly_eigenvalues_each,
    eigenvalues_in,
    eigenvalues_in_each,
    full_spectra,
    full_spectrum,
    gershgorin_interval,
    stabilized_counting,
    sturm_count,
)
from jacobispec.verify import _seq, golden_m5_sequence


def tiny(rho, q):
    return JacobiSequence(rho=np.asarray(rho, float), q=np.asarray(q, float))


def _sturm_brackets(diag, offsq, a, b, tol):
    """The brackets of the eigenvalues in [a, b] of one tridiagonal."""
    lo, hi, _ = spectrum._stacked_brackets(diag, offsq, [diag.size], None, [a], [b], [tol])
    return lo, hi


class TestSturmCount:
    def test_one_by_one(self):
        seq = tiny([1.0, 1.0], [5.0, 0.0])
        assert sturm_count(seq, 1, 0.0) == 0
        assert sturm_count(seq, 1, 6.0) == 1

    def test_two_by_two_symmetric(self):
        seq = tiny([1.0, 1.0], [0.0, 0.0])
        assert sturm_count(seq, 2, 0.0) == 1  # eigenvalues are -1, +1

    def test_counts_match_charpoly_roots(self, rng):
        # independent oracle: count roots of det(J - x) below each shift
        rho = rng.uniform(0.3, 2.0, 5)
        q = rng.uniform(-4.0, 4.0, 5)
        seq = tiny(rho, q)
        roots = charpoly_eigenvalues(seq, 5)
        for x in rng.uniform(-8.0, 8.0, 20):
            assert sturm_count(seq, 5, x) == int(np.sum(roots < x))

    @given(
        x=st.floats(-50, 50),
        y=st.floats(-50, 50),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_shift(self, x, y, seed):
        r = np.random.default_rng(seed)
        seq = tiny(r.uniform(0.2, 3.0, 6), r.uniform(-5.0, 5.0, 6))
        lo, hi = min(x, y), max(x, y)
        assert sturm_count(seq, 6, lo) <= sturm_count(seq, 6, hi)

    def test_extremes(self):
        seq = tiny(np.ones(6), np.zeros(6))
        a, b = gershgorin_interval(seq, 6)
        assert sturm_count(seq, 6, a) == 0
        assert sturm_count(seq, 6, np.nextafter(b, np.inf)) == 6


def _sturm_counts_per_row(diag, offsq, xs):
    """The per-row floored Sturm loop that the blocked kernel must match:
    the counts and the last pivot."""
    piv = _kernels._PIVMIN
    xs = np.asarray(xs, dtype=np.float64)
    d = diag[0] - xs
    d = np.where(np.abs(d) < piv, np.where(d > 0, piv, -piv), d)
    count = (d < 0).astype(np.int64)
    for k in range(1, diag.shape[0]):
        d = (diag[k] - xs) - offsq[k - 1] / d
        d = np.where(np.abs(d) < piv, np.where(d > 0, piv, -piv), d)
        count += d < 0
    return count, d


_EDGE_SHIFTS = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300])


class TestBlockedSturmKernel:
    """The numpy kernel runs row blocks without the pivot floor and replays
    a block that breaks down; its counts and last pivots must equal the
    per-row loop's."""

    @staticmethod
    def assert_parity(diag, offsq, xs):
        count, last = _kernels.sturm_counts(diag, offsq, xs)
        ref_count, ref_last = _sturm_counts_per_row(diag, offsq, xs)
        assert np.array_equal(count, ref_count)
        assert np.array_equal(last, ref_last)

    @pytest.fixture
    def floored_rows(self, monkeypatch):
        """Calls of the floored step: one per kernel call for row 0, plus one
        per row of every replayed block."""
        calls = []
        floor = _kernels._floor_pivots
        monkeypatch.setattr(
            _kernels, "_floor_pivots", lambda d: calls.append(1) or floor(d)
        )
        return calls

    # 600 rows: three blocks of at most _ROWS rows, each converting its own
    # couplings
    @pytest.mark.parametrize("N", [1, 15, 16, 17, 33, 600])
    def test_random_matrices(self, rng, N):
        for _ in range(20):
            diag = rng.uniform(-3.0, 3.0, N)
            offsq = rng.uniform(0.05, 4.0, N - 1)
            xs = np.concatenate([rng.uniform(-8.0, 8.0, 24), _EDGE_SHIFTS])
            self.assert_parity(diag, offsq, xs)

    @pytest.mark.parametrize("N", [15, 16, 17, 33])
    def test_integer_matrices_with_zero_pivots(self, rng, floored_rows, N):
        for _ in range(20):
            diag = rng.integers(-2, 3, N).astype(float)
            offsq = rng.integers(0, 3, N - 1).astype(float)
            xs = np.concatenate([rng.integers(-4, 5, 24).astype(float), _EDGE_SHIFTS])
            self.assert_parity(diag, offsq, xs)
        assert len(floored_rows) > 20  # exact zero pivots made blocks replay

    @pytest.mark.parametrize("row", [15, 16, 17])
    @pytest.mark.parametrize("pivot", [0.0, -0.0, 1e-310, -1e-310, 5e-324, -1e-301])
    def test_sub_floor_pivot_at_block_edges(self, rng, floored_rows, row, pivot):
        N = 33
        diag = rng.uniform(1.0, 3.0, N)
        offsq = rng.uniform(0.05, 1.0, N - 1)
        # a zero coupling makes the pivot at x = 0 exactly diag[row]
        offsq[row - 1] = 0.0
        diag[row] = pivot
        # 2048 shifts or more take the 16-row floor of the block height, so
        # rows 15 and 16 end the first block and row 17 starts the second
        xs = np.concatenate([[0.0], rng.uniform(-1.0, 1.0, 2048), _EDGE_SHIFTS])
        self.assert_parity(diag, offsq, xs)
        assert len(floored_rows) > 1  # the block holding `row` was replayed

    @pytest.mark.parametrize("S", [1, 100, 2048, 5000])
    @pytest.mark.parametrize("offset, pivot", [(-1, 0.0), (0, -1e-310), (1, 5e-324)])
    def test_sub_floor_pivot_at_computed_block_edges(
        self, rng, floored_rows, S, offset, pivot
    ):
        # the blocks hold rows 1 .. rows, rows + 1 .. 2 rows, ..., so rows - 1
        # and rows are the last two rows of the first block and rows + 1 is
        # the first of the second
        rows = min(_kernels._ROWS, max(16, _kernels._BUDGET // S))
        row = rows + offset
        N = rows + 8
        diag = rng.uniform(1.0, 3.0, N)
        offsq = rng.uniform(0.05, 1.0, N - 1)
        # a zero coupling makes the pivot at x = 0 exactly diag[row]
        offsq[row - 1] = 0.0
        diag[row] = pivot
        xs = np.concatenate([[0.0], rng.uniform(-1.0, 1.0, S - 1)])
        self.assert_parity(diag, offsq, xs)
        assert len(floored_rows) > 1  # the block holding `row` was replayed

    def test_tiny_scale_matrices(self, rng):
        for N in (16, 17, 33):
            diag = rng.uniform(-1.0, 1.0, N) * 1e-200
            offsq = rng.uniform(0.0, 1.0, N - 1) * 1e-290
            xs = np.concatenate([rng.uniform(-1e-200, 1e-200, 12), _EDGE_SHIFTS])
            self.assert_parity(diag, offsq, xs)

    def test_golden_truncation(self):
        seq = _seq("m1", 2000)
        diag, offsq = seq.q[:2000], seq.rho[:1999] ** 2
        rs = np.geomspace(1.0, 1e4, 40)
        self.assert_parity(diag, offsq, np.concatenate([-rs, rs]))


def _stack_columns(mats):
    """(diag, offsq) pairs as the zero-padded columns of a stack."""
    sizes = np.array([d.size for d, _ in mats])
    diag = np.zeros((sizes.max(), sizes.size))
    offsq = np.zeros((sizes.max() - 1, sizes.size))
    for m, (d, w) in enumerate(mats):
        diag[: d.size, m], offsq[: w.size, m] = d, w
    return diag, offsq, sizes


class TestStackedSturmKernel:
    """A stack of tridiagonals, each shift on its own matrix, gives every
    shift the counts and last pivot of a call on its matrix alone."""

    @staticmethod
    def assert_parity(mats, xs, mat):
        diag, offsq, sizes = _stack_columns(mats)
        count, last = _kernels.sturm_counts(diag, offsq, xs, sizes[mat], mat)
        for m, (diag, offsq) in enumerate(mats):
            on = mat == m
            if on.any():
                ref_count, ref_last = _kernels.sturm_counts(diag, offsq, xs[on])
                assert np.array_equal(count[on], ref_count)
                assert np.array_equal(last[on], ref_last)

    def test_random_stacks(self, rng):
        for _ in range(30):
            sizes = rng.integers(1, 9, rng.integers(1, 12))
            mats = [(rng.uniform(-3.0, 3.0, n), rng.uniform(0.05, 4.0, n - 1)) for n in sizes]
            xs = np.concatenate([rng.uniform(-8.0, 8.0, 300), _EDGE_SHIFTS])
            self.assert_parity(mats, xs, rng.integers(0, sizes.size, xs.size))

    def test_integer_stacks_with_zero_pivots(self, rng):
        for _ in range(30):
            sizes = rng.integers(1, 9, rng.integers(1, 12))
            mats = [
                (rng.integers(-2, 3, n).astype(float), rng.integers(0, 3, n - 1).astype(float))
                for n in sizes
            ]
            xs = rng.integers(-4, 5, 300).astype(float)
            self.assert_parity(mats, xs, rng.integers(0, sizes.size, xs.size))

    @pytest.mark.parametrize("row", [15, 16, 17])
    def test_stack_holding_a_replayed_block(self, rng, row, monkeypatch):
        # the input of test_sub_floor_pivot_at_block_edges, stacked with
        # smaller and larger random matrices: its block is replayed
        calls = []
        floor = _kernels._floor_pivots
        monkeypatch.setattr(
            _kernels, "_floor_pivots", lambda d: calls.append(1) or floor(d)
        )
        diag = rng.uniform(1.0, 3.0, 33)
        offsq = rng.uniform(0.05, 1.0, 32)
        offsq[row - 1] = 0.0
        diag[row] = 0.0
        mats = [(rng.uniform(-3.0, 3.0, n), rng.uniform(0.05, 4.0, n - 1)) for n in (5, 40, 17)]
        mats.insert(1, (diag, offsq))
        xs = np.concatenate([[0.0], rng.uniform(-1.0, 1.0, 2048), _EDGE_SHIFTS])
        mat = np.concatenate([[1], rng.integers(0, 4, xs.size - 1)])
        diag, offsq, sizes = _stack_columns(mats)
        _kernels.sturm_counts(diag, offsq, xs, sizes[mat], mat)
        # one floored step for row 0, then one per row of the replayed block
        assert len(calls) > 1
        self.assert_parity(mats, xs, mat)


class TestStopRowSturmKernel:
    """Shifts that stop at rows of their own on one tridiagonal get the
    counts and last pivot of the per-row loop, and of the plain kernel
    call, on their own prefix alone."""

    @staticmethod
    def assert_parity(diag, offsq, xs, stop):
        count, last = _kernels.sturm_counts(diag, offsq, xs, stop)
        for s in np.unique(stop):
            on = stop == s
            for ref_count, ref_last in (
                _sturm_counts_per_row(diag[:s], offsq[: s - 1], xs[on]),
                _kernels.sturm_counts(diag[:s], offsq[: s - 1], xs[on]),
            ):
                assert np.array_equal(count[on], ref_count)
                assert np.array_equal(last[on], ref_last)

    def test_random_prefixes(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 40))
            diag = rng.uniform(-3.0, 3.0, n)
            offsq = rng.uniform(0.05, 4.0, n - 1)
            xs = np.concatenate([rng.uniform(-8.0, 8.0, 300), _EDGE_SHIFTS])
            self.assert_parity(diag, offsq, xs, rng.integers(1, n + 1, xs.size))

    def test_integer_prefixes_with_zero_pivots(self, rng, monkeypatch):
        calls = []
        floor = _kernels._floor_pivots
        monkeypatch.setattr(
            _kernels, "_floor_pivots", lambda d: calls.append(1) or floor(d)
        )
        replayed = 0
        for _ in range(30):
            n = int(rng.integers(2, 40))
            diag = rng.integers(-2, 3, n).astype(float)
            offsq = rng.integers(0, 3, n - 1).astype(float)
            xs = np.concatenate([rng.integers(-4, 5, 300).astype(float), _EDGE_SHIFTS])
            stop = rng.integers(1, n + 1, xs.size)
            calls.clear()
            _kernels.sturm_counts(diag, offsq, xs, stop)
            # a floored step beyond row 0: exact zero pivots replayed a block
            replayed += len(calls) > 1
            self.assert_parity(diag, offsq, xs, stop)
        assert replayed > 20

    @pytest.mark.parametrize("row", [15, 16, 17])
    def test_prefixes_around_a_replayed_block(self, rng, row, monkeypatch):
        # the input of test_sub_floor_pivot_at_block_edges, with shifts that
        # stop just before, at and after the sub-floor pivot's row
        calls = []
        floor = _kernels._floor_pivots
        monkeypatch.setattr(
            _kernels, "_floor_pivots", lambda d: calls.append(1) or floor(d)
        )
        diag = rng.uniform(1.0, 3.0, 33)
        offsq = rng.uniform(0.05, 1.0, 32)
        offsq[row - 1] = 0.0
        diag[row] = 0.0
        xs = np.concatenate([[0.0, 0.0], rng.uniform(-1.0, 1.0, 2048), _EDGE_SHIFTS])
        stop = rng.choice([row, row + 1, row + 2, 33], xs.size)
        stop[:2] = 33, row + 1
        _kernels.sturm_counts(diag, offsq, xs, stop)
        assert len(calls) > 1  # the block holding `row` was replayed
        self.assert_parity(diag, offsq, xs, stop)

    def test_golden_ladder(self):
        # the shifts of stabilized_counting on m1: three prefixes of J_2000
        seq = _seq("m1", 2000)
        rs = np.geomspace(1.0, 1e4, 40)
        xs = np.tile(np.concatenate([-rs, rs]), 3)
        stop = np.repeat([500, 1000, 2000], 80)
        self.assert_parity(seq.q[:2000], seq.rho[:1999] ** 2, xs, stop)

    def test_empty_shifts(self):
        # a 1-D call on two rows or more used to raise in its first block
        diag, offsq = np.array([1.0, 2.0, 3.0]), np.array([1.0, 1.0])
        empty = np.empty(0)
        for args in (
            (diag, offsq, empty),
            (diag, offsq, empty, np.empty(0, dtype=np.int64)),
            (diag[:, None], offsq[:, None], empty, np.empty(0, dtype=np.int64),
             np.empty(0, dtype=np.int64)),
        ):
            count, last = _kernels.sturm_counts(*args)
            assert count.shape == last.shape == (0,)
            assert count.dtype == np.int64 and last.dtype == np.float64


class TestSpanningBlocks:
    """A block ends at the smallest stop of its shifts, so no shift stops
    inside one: the rows past a shift's stop enter neither its count nor
    the floor test."""

    @pytest.fixture
    def floored_rows(self, monkeypatch):
        calls = []
        floor = _kernels._floor_pivots
        monkeypatch.setattr(
            _kernels, "_floor_pivots", lambda d: calls.append(1) or floor(d)
        )
        return calls

    @staticmethod
    def assert_stack_parity(mats, xs, stop, mat):
        """Each shift against a plain call on its column's own prefix."""
        diag, offsq, _ = _stack_columns(mats)
        count, last = _kernels.sturm_counts(diag, offsq, xs, stop, mat)
        for m, (d, w) in enumerate(mats):
            for s in np.unique(stop[mat == m]):
                on = (mat == m) & (stop == s)
                ref_count, ref_last = _kernels.sturm_counts(d[:s], w[: s - 1], xs[on])
                assert np.array_equal(count[on], ref_count)
                assert np.array_equal(last[on], ref_last)

    def test_many_stops_inside_one_block(self, rng):
        # 306 shifts would take blocks of 107 rows; the stops 1 .. 60 cut
        # the first 60 rows into blocks of one row
        n = 60
        diag, offsq = rng.uniform(-3.0, 3.0, n), rng.uniform(0.05, 4.0, n - 1)
        xs = np.concatenate([rng.uniform(-8.0, 8.0, 300), _EDGE_SHIFTS])
        assert _kernels._BUDGET // xs.size > n
        stop = 1 + np.arange(xs.size) % n
        TestStopRowSturmKernel.assert_parity(diag, offsq, xs, stop)
        mats = [(rng.uniform(-3.0, 3.0, k), rng.uniform(0.05, 4.0, k - 1)) for k in (60, 45, 20)]
        mat = rng.integers(0, 3, xs.size)
        sizes = np.array([60, 45, 20])
        self.assert_stack_parity(mats, xs, 1 + np.arange(xs.size) % sizes[mat], mat)

    def test_stops_on_block_edges(self, rng):
        # 2048 shifts or more take 16-row blocks: rows 1 - 16, 17 - 32, ...
        n = 70
        diag, offsq = rng.uniform(-3.0, 3.0, n), rng.uniform(0.05, 4.0, n - 1)
        xs = rng.uniform(-8.0, 8.0, 2100)
        edges = [1, 2, 15, 16, 17, 18, 32, 33, 34, 48, 49, 50, n]
        stop = rng.choice(edges, xs.size)
        TestStopRowSturmKernel.assert_parity(diag, offsq, xs, stop)
        mats = [(rng.uniform(-3.0, 3.0, n), rng.uniform(0.05, 4.0, n - 1)) for _ in range(2)]
        self.assert_stack_parity(mats, xs, stop, rng.integers(0, 2, xs.size))

    @pytest.mark.parametrize("stops, replayed", [((30,), False), ((50,), True), ((30, 50), True)])
    def test_sub_floor_pivot_before_and_after_a_stop(self, rng, floored_rows, stops, replayed):
        # a zero coupling makes the pivot at x = 0 exactly zero at row 40; a
        # shift at x = 0 that stops at row 30 never reaches it, one that
        # stops at 50 does
        n, row = 60, 40
        diag, offsq = rng.uniform(1.0, 3.0, n), rng.uniform(0.05, 1.0, n - 1)
        offsq[row - 1], diag[row] = 0.0, 0.0
        xs = np.concatenate([np.zeros(len(stops)), rng.uniform(-1.0, 1.0, 300)])
        stop = np.concatenate([stops, rng.integers(2, n + 1, 300)])
        _kernels.sturm_counts(diag, offsq, xs, stop)
        assert (len(floored_rows) > 1) == replayed
        TestStopRowSturmKernel.assert_parity(diag, offsq, xs, stop)

    def test_padding_rows_trigger_no_replay(self, rng, floored_rows):
        # x = 0 on a 3-row column stacked with a 40-row one: its padding rows
        # would give a zero pivot, then 0/0, but its blocks end at its stop
        mats = [
            (rng.uniform(1.0, 3.0, 3), rng.uniform(0.05, 1.0, 2)),
            (rng.uniform(-3.0, 3.0, 40), rng.uniform(0.05, 4.0, 39)),
        ]
        xs = np.concatenate([[0.0], rng.uniform(-8.0, 8.0, 200)])
        mat = np.concatenate([[0], rng.integers(0, 2, 200)])
        stop = np.array([3, 40])[mat]
        diag, offsq, _ = _stack_columns(mats)
        _kernels.sturm_counts(diag, offsq, xs, stop, mat)
        assert len(floored_rows) == 1  # row 0 only: no block was replayed
        self.assert_stack_parity(mats, xs, stop, mat)


class TestReplacedStopRow:
    """A shift's stop row may carry a diagonal entry of its own: each shift
    gets the count and last pivot of the per-row floored loop on its own
    matrix, its leading stop x stop block with that entry in the last row,
    bit for bit, whichever shifts share its column and its blocks."""

    @staticmethod
    def assert_parity(diag, offsq, xs, stop, last, mat=None):
        count, piv = _kernels.sturm_counts(diag, offsq, xs, stop, mat, last)
        if mat is None:
            diag, offsq, mat = diag[:, None], offsq[:, None], np.zeros(xs.size, np.int64)
        for m, s, e in np.unique(np.column_stack([mat, stop, last]), axis=0):
            m, s = int(m), int(s)
            on = (mat == m) & (stop == s) & (last == e)
            own = diag[:s, m].copy()
            own[-1] = e
            ref_count, ref_last = _sturm_counts_per_row(own, offsq[: s - 1, m], xs[on])
            assert np.array_equal(count[on], ref_count)
            assert np.array_equal(piv[on], ref_last)
        return count

    @staticmethod
    def entries(rng, diag, stop, replaced):
        """The stop row's own diagonal entry, or a random one where
        *replaced*."""
        return np.where(replaced, rng.uniform(-3.0, 3.0, stop.size), diag[stop - 1])

    def test_replaced_row_among_shifts_that_run_past_it(self, rng):
        n = 40
        for _ in range(10):
            diag, offsq = rng.uniform(-3.0, 3.0, n), rng.uniform(0.05, 4.0, n - 1)
            xs = np.concatenate([rng.uniform(-8.0, 8.0, 300), _EDGE_SHIFTS])
            # half the shifts run all n rows on the plain matrix, the others
            # stop at a row of their own with a replaced entry there
            plain = rng.random(xs.size) < 0.5
            stop = np.where(plain, n, rng.integers(2, n + 1, xs.size))
            last = self.entries(rng, diag, stop, ~plain)
            self.assert_parity(diag, offsq, xs, stop, last)
        # a stack: columns of 40, 25 and 12 rows, shifts on each
        mats = [(rng.uniform(-3.0, 3.0, k), rng.uniform(0.05, 4.0, k - 1)) for k in (40, 25, 12)]
        sdiag, soffsq, sizes = _stack_columns(mats)
        xs = rng.uniform(-8.0, 8.0, 600)
        mat = rng.integers(0, 3, xs.size)
        plain = rng.random(xs.size) < 0.5
        stop = np.where(plain, sizes[mat], 2 + rng.integers(0, 100, xs.size) % (sizes[mat] - 1))
        last = np.where(plain, sdiag[stop - 1, mat], rng.uniform(-3.0, 3.0, xs.size))
        self.assert_parity(sdiag, soffsq, xs, stop, last, mat)

    @pytest.mark.parametrize("S", [100, 2100])
    def test_stops_on_block_boundaries(self, rng, S):
        # 100 shifts take 255-row blocks, 2100 take 16-row ones: stops at
        # the last row of a block, one before it and one after it; shifts
        # above the spectrum count a negative pivot in every row
        rows = min(_kernels._ROWS, max(16, _kernels._BUDGET // S))
        assert rows == (255 if S == 100 else 16)
        n = 2 * rows + 8
        diag, offsq = rng.uniform(-3.0, 3.0, n), rng.uniform(0.05, 4.0, n - 1)
        xs = np.concatenate([rng.uniform(-8.0, 8.0, S - S // 4), rng.uniform(10.0, 20.0, S // 4)])
        stop = rng.choice([rows, rows + 1, rows + 2, 2 * rows + 1, n], S)
        last = self.entries(rng, diag, stop, rng.random(S) < 0.5)
        count = self.assert_parity(diag, offsq, xs, stop, last)
        above = xs > 10.0
        assert np.array_equal(count[above], stop[above])

    def test_every_row_a_stop(self, rng):
        # every row from the first on ends a block of one row
        n = 50
        diag, offsq = rng.uniform(-3.0, 3.0, n), rng.uniform(0.05, 4.0, n - 1)
        xs = np.concatenate([rng.uniform(-8.0, 8.0, 300), _EDGE_SHIFTS])
        stop = 1 + np.arange(xs.size) % n
        last = self.entries(rng, diag, stop, rng.random(xs.size) < 0.5)
        self.assert_parity(diag, offsq, xs, stop, last)
        mats = [(rng.uniform(-3.0, 3.0, k), rng.uniform(0.05, 4.0, k - 1)) for k in (50, 31, 7)]
        sdiag, soffsq, sizes = _stack_columns(mats)
        mat = rng.integers(0, 3, xs.size)
        stop = 1 + np.arange(xs.size) % sizes[mat]
        replaced = rng.random(xs.size) < 0.5
        last = np.where(replaced, sdiag[stop - 1, mat], rng.uniform(-3.0, 3.0, xs.size))
        self.assert_parity(sdiag, soffsq, xs, stop, last, mat)

    @pytest.mark.parametrize("row", [16, 17, 30])
    @pytest.mark.parametrize("entry, replayed", [(0.0, True), (1e-310, True), (0.5, False)])
    def test_zero_pivot_in_the_replaced_row(self, rng, row, entry, replayed, monkeypatch):
        # a zero coupling into the stop row makes the pivot at x = 0 exactly
        # the replaced entry there; the shifts that run past that row keep
        # its own entry, so only a sub-floor replaced entry replays a block
        calls = []
        floor = _kernels._floor_pivots
        monkeypatch.setattr(
            _kernels, "_floor_pivots", lambda d: calls.append(1) or floor(d)
        )
        n = 40
        diag, offsq = rng.uniform(1.0, 3.0, n), rng.uniform(0.05, 1.0, n - 1)
        offsq[row - 2] = 0.0
        xs = np.concatenate([[0.0, 0.0], rng.uniform(-1.0, 1.0, 2100)])
        stop = rng.choice([row, n], xs.size)
        stop[:2] = row, n
        last = diag[stop - 1]
        last[0] = entry
        _kernels.sturm_counts(diag, offsq, xs, stop, None, last)
        assert (len(calls) > 1) == replayed
        self.assert_parity(diag, offsq, xs, stop, last)


class TestUint8BlockCount:
    """A block sums its negative pivots per shift in a uint8, so it holds at
    most 255 rows: with every shift above the spectrum every pivot is
    negative, and each count is exactly its row count."""

    @staticmethod
    def matrix(rng, N):
        # Gershgorin: the spectrum lies in [-3 - 4, 3 + 4]
        return rng.uniform(-3.0, 3.0, N), rng.uniform(0.05, 4.0, N - 1)

    @pytest.mark.parametrize("N", [255, 256, 257, 511, 2000])
    @pytest.mark.parametrize("S", [1, 2, 300])
    def test_every_pivot_negative(self, rng, N, S):
        diag, offsq = self.matrix(rng, N)
        xs = rng.uniform(10.0, 20.0, S)
        ref_count, ref_last = _sturm_counts_per_row(diag, offsq, xs)
        assert np.all(ref_count == N)
        # one tridiagonal
        count, last = _kernels.sturm_counts(diag, offsq, xs)
        assert np.array_equal(count, ref_count) and np.array_equal(last, ref_last)
        # stop rows around the block height; the first shift runs all N rows
        stop = rng.choice([v for v in (1, 255, 256, 257, N - 1, N) if v <= N], S)
        stop[0] = N
        count, last = _kernels.sturm_counts(diag, offsq, xs, stop)
        assert np.array_equal(count, stop)
        TestStopRowSturmKernel.assert_parity(diag, offsq, xs, stop)
        # a stack of two columns, each shift on either
        other = self.matrix(rng, N)
        mat = rng.integers(0, 2, S)
        mat[0] = 0
        stacked = np.column_stack([diag, other[0]]), np.column_stack([offsq, other[1]])
        count, last = _kernels.sturm_counts(*stacked, xs, np.full(S, N), mat)
        assert np.all(count == N)
        on = mat == 0
        assert np.array_equal(count[on], ref_count[on])
        assert np.array_equal(last[on], ref_last[on])

    @pytest.mark.parametrize("S", [1, 2])
    def test_replayed_full_height_block(self, rng, S, monkeypatch):
        # a pivot of exactly zero at row 100 of a 255-row block: x = 15 is
        # an eigenvalue of the decoupled 1 x 1 block there, and its zero
        # pivot is floored to a negative one, so every count is still N
        calls = []
        floor = _kernels._floor_pivots
        monkeypatch.setattr(
            _kernels, "_floor_pivots", lambda d: calls.append(1) or floor(d)
        )
        N = 600
        diag, offsq = self.matrix(rng, N)
        offsq[99] = offsq[100] = 0.0
        diag[100] = 15.0
        xs = np.array([15.0, 17.0][:S])
        for args in ((), (np.full(S, N),)):
            calls.clear()
            count, last = _kernels.sturm_counts(diag, offsq, xs, *args)
            assert len(calls) > 1  # the block holding row 100 was replayed
            ref_count, ref_last = _sturm_counts_per_row(diag, offsq, xs)
            assert np.all(count == N) and np.array_equal(count, ref_count)
            assert np.array_equal(last, ref_last)


class TestModifiedLastRow:
    """J~ is J_N with its last diagonal entry replaced; the zero route passes
    the replaced entry to the kernel, which counts J~ itself."""

    @pytest.mark.parametrize("kind", ["random", "integer"])
    def test_finish_matches_the_modified_diagonal_call(self, rng, kind):
        for _ in range(40):
            n = int(rng.integers(2, 40))
            if kind == "random":
                diag = rng.uniform(-3.0, 3.0, n)
                offsq = rng.uniform(0.05, 4.0, n - 1)
                xs = np.concatenate([rng.uniform(-8.0, 8.0, 200), _EDGE_SHIFTS])
                last = rng.uniform(-3.0, 3.0)
            else:
                diag = rng.integers(-2, 3, n).astype(float)
                offsq = rng.integers(0, 3, n - 1).astype(float)
                xs = np.concatenate([rng.integers(-4, 5, 200).astype(float), _EDGE_SHIFTS])
                last = float(rng.integers(-2, 3))
            modified = diag.copy()
            modified[-1] = last
            ref_count, ref_last = _kernels.sturm_counts(modified, offsq, xs)
            c, d = _kernels.sturm_counts(
                diag, offsq, xs, np.full(xs.size, n), None, np.full(xs.size, last)
            )
            assert np.array_equal(c, ref_count)
            assert np.array_equal(d, ref_last)

    @pytest.mark.parametrize("which, r", [("m1", 1e4), ("m3", 1e6)])
    def test_zero_brackets_match_the_modified_truncation(self, which, r):
        # the zero route's brackets, alone and sharing a call with the
        # eigenvalues of J_N, against the modified diagonal's own call
        seq, sol = _seq(which, 2000), verify._sol(which, 2000)
        problem = growth._b_zero_problem(sol, seq, 2000, r)
        diag = seq.q[:2000].copy()
        diag[-1] += seq.rho[1999] * sol.Q[2000] / sol.Q[1999]
        lo, hi = _sturm_brackets(diag, seq.rho[:1999] ** 2, -r, r, 1e-9 * r)
        (alone_lo, alone_hi), = spectrum._bracket_each([problem])
        assert np.array_equal(alone_lo, lo) and np.array_equal(alone_hi, hi)
        (shared_lo, shared_hi), _ = spectrum._bracket_each(
            [problem, (seq, 2000, (-r, r), 1e-7 * r, None)]
        )
        assert shared_lo.size == lo.size
        assert np.all(shared_hi - shared_lo <= 1e-9 * r)
        assert np.all(np.abs(0.5 * (shared_lo + shared_hi) - 0.5 * (lo + hi)) <= 1e-9 * r)


class TestSharedBracketCalls:
    @pytest.fixture
    def bracket_calls(self, monkeypatch):
        calls = []
        brackets = spectrum._stacked_brackets
        monkeypatch.setattr(
            spectrum, "_stacked_brackets",
            lambda *args: calls.append(len(args[2])) or brackets(*args),
        )
        return calls

    def test_c06_brackets_both_routes_in_one_call(self, bracket_calls):
        # m1's zeros and eigenvalues go into the one call with m3's and m4's
        # zeros
        verify._golden_routes.cache_clear()
        assert verify.run_check("c06_convergence_exponent").passed
        assert bracket_calls == [4]

    def test_c12_brackets_both_models_in_one_call(self, bracket_calls):
        # m3's and m4's zeros go into the one call with m1's two routes
        verify._golden_routes.cache_clear()
        assert verify.run_check("c12_exceptional_exponent").passed
        assert bracket_calls == [4]

    def test_golden_routes_share_one_bracket_call(self, bracket_calls):
        # m1's zeros and eigenvalues and m3's and m4's zeros: 4 problems
        verify._golden_routes.cache_clear()
        for name in ("c06_convergence_exponent", "c07_upper_density",
                     "c09_counting_agreement", "c12_exceptional_exponent"):
            assert verify.run_check(name).passed
        assert bracket_calls == [4]

    def test_stabilized_counting_makes_one_kernel_call(self, monkeypatch):
        calls = []
        kernel = _kernels.sturm_counts
        monkeypatch.setattr(
            _kernels, "sturm_counts", lambda *args: calls.append(args) or kernel(*args)
        )
        rs = np.geomspace(10.0, 1e4, 20)
        table, _ = stabilized_counting(_seq("m1", 2000), rs, (500, 1000, 2000))
        assert len(calls) == 1
        for j, N in enumerate((500, 1000, 2000)):
            seq = _seq("m1", 2000)
            c, _ = kernel(seq.q[:N], seq.rho[: N - 1] ** 2, np.concatenate([
                np.nextafter(rs, np.inf), np.nextafter(-rs, -np.inf)
            ]))
            assert table[:, j].tolist() == (c[:20] - c[20:]).tolist()

    def test_bisected_brackets_are_cut_into_parts(self, monkeypatch):
        # J_1 .. J_50 of m1 in one call: 7 brackets that fail their centred
        # finish took the last 19 of 36 sweeps to bisect from 0.3 - 1.0 wide
        # down to ~1e-7, one midpoint a sweep
        calls = []
        kernel = _kernels.sturm_counts
        monkeypatch.setattr(
            _kernels, "sturm_counts", lambda *args: calls.append(1) or kernel(*args)
        )
        seq = _seq("m1", 51)
        problems = [(seq, N, gershgorin_interval(seq, N), None, None) for N in range(1, 51)]
        brackets = spectrum._bracket_each(problems)
        assert len(calls) <= 22
        for (_, N, (a, b), _, _), (lo, hi) in zip(problems, brackets):
            scale = max(1.0, abs(a), abs(b))
            off = np.diag(seq.rho[: N - 1], 1)
            dense = np.linalg.eigvalsh(np.diag(seq.q[:N]) + off + off.T)
            assert lo.size == N and np.all(hi - lo <= 1e-10 * scale)
            assert np.all(np.abs(0.5 * (lo + hi) - dense) <= 1.01e-10 * scale)


class TestSecantSweepCap:
    """From sweep _SECANT_SWEEPS on, every secant bracket goes back to
    isolation and no interval is promoted to the secant."""

    @pytest.mark.parametrize("cap", [1, 2, 5])
    def test_brackets_hold_their_eigenvalues(self, monkeypatch, cap):
        secant_calls = []
        secant = spectrum._secant_point
        monkeypatch.setattr(spectrum, "_SECANT_SWEEPS", cap)
        monkeypatch.setattr(
            spectrum, "_secant_point", lambda one: secant_calls.append(1) or secant(one)
        )
        m2, _, _ = _golden_m2_2000()
        for seq, Ns in ((_seq("m1", 51), range(1, 51)), (m2, range(1, 296, 7))):
            problems = [(seq, N, gershgorin_interval(seq, N), None, None) for N in Ns]
            for (_, N, (a, b), _, _), (lo, hi) in zip(problems, spectrum._bracket_each(problems)):
                scale = max(1.0, abs(a), abs(b))
                off = np.diag(seq.rho[: N - 1], 1)
                dense = np.linalg.eigvalsh(np.diag(seq.q[:N]) + off + off.T)
                # eigvalsh's own error is a few ulps of the matrix norm
                slack = 64 * np.finfo(float).eps * scale
                assert lo.size == N and np.all(hi - lo <= 1e-10 * scale)
                assert np.all((lo - slack <= dense) & (dense <= hi + slack))
        assert (not secant_calls) == (cap == 1)


class TestIsolationSweeps:
    """After the first sweep, each interval being isolated is cut into at
    least as many parts as it holds eigenvalues of J_N and J_{N-1}."""

    @staticmethod
    def sweeps(monkeypatch, problems):
        calls = []
        kernel = _kernels.sturm_counts
        monkeypatch.setattr(
            _kernels, "sturm_counts", lambda *args: calls.append(1) or kernel(*args)
        )
        spectrum._bracket_each(problems)
        return len(calls)

    def test_cuts_at_least_the_eigenvalues_of_each_interval(self, monkeypatch):
        seen = []
        cuts = spectrum._isolation_cuts
        monkeypatch.setattr(
            spectrum, "_isolation_cuts", lambda iso: seen.append(iso.copy()) or cuts(iso)
        )
        seq, _, _ = _golden_m2_2000()
        eigenvalues_in_each([(seq, N, (-1e4, 1e4), None) for N in (500, 1000, 2000)])
        assert len(seen) > 2
        crowded = 0
        for iso in seen:
            points, ncut = cuts(iso)
            e = iso[:, 3] - iso[:, 2] + iso[:, 5] - iso[:, 4]
            assert np.all(ncut >= e) and points.size == ncut.sum()
            crowded += np.count_nonzero(e > max(2, spectrum._SPLIT // max(len(iso), 1)) - 1)
        assert crowded > 0  # some interval got more cuts than the shared rule's

    def test_prefix_stack_sweeps(self, monkeypatch):
        # J_1 .. J_50 of m1 in one call: 17 sweeps with one number of parts
        # shared by all intervals
        seq = _seq("m1", 51)
        problems = [(seq, N, gershgorin_interval(seq, N), None, None) for N in range(1, 51)]
        assert self.sweeps(monkeypatch, problems) <= 14

    def test_nested_m2_sweeps(self, monkeypatch):
        # the three truncations of the m2_spectrum bench config: 17 sweeps
        # with one number of parts shared by all intervals
        seq, _, _ = _golden_m2_2000()
        problems = [(seq, N, (-1e4, 1e4), None, None) for N in (500, 1000, 2000)]
        assert self.sweeps(monkeypatch, problems) <= 12


class TestEigenvaluesIn:
    def test_two_by_two(self):
        seq = tiny([1.0, 1.0], [0.0, 0.0])
        ev = eigenvalues_in(seq, 2, (-2.0, 2.0), tol=1e-10)
        assert ev == pytest.approx([-1.0, 1.0], abs=1e-9)

    def test_free_three_by_three(self):
        seq = tiny(np.ones(3), np.zeros(3))
        ev = eigenvalues_in(seq, 3, (-3.0, 3.0), tol=1e-10)
        assert ev == pytest.approx([-np.sqrt(2), 0.0, np.sqrt(2)], abs=1e-9)

    def test_count_consistency_with_sturm(self):
        seq = _seq("m1", 2000)
        ev = eigenvalues_in(seq, 2000, (0.0, 100.0), tol=1e-8)
        expected = sturm_count(seq, 2000, np.nextafter(100.0, np.inf)) - sturm_count(
            seq, 2000, 0.0
        )
        assert len(ev) == expected

    def test_matches_charpoly_oracle_small(self, rng):
        for n in range(1, 9):
            rho = rng.uniform(0.3, 2.5, max(n, 2))
            q = rng.uniform(-4.0, 4.0, max(n, 2))
            seq = tiny(rho, q)
            a, b = gershgorin_interval(seq, n)
            ours = eigenvalues_in(seq, n, (a, b), tol=1e-13 * max(1, abs(a), abs(b)))
            oracle = charpoly_eigenvalues(seq, n)
            assert np.max(np.abs(ours - oracle)) <= 1e-9

    def test_empty_interval(self):
        seq = tiny([1.0, 1.0], [0.0, 0.0])
        assert eigenvalues_in(seq, 2, (5.0, 6.0)).size == 0

    def test_eigenvalues_at_both_ends(self):
        # the pivot at x = -1 is exactly zero, which the floor counts as
        # negative: the count below the interval is taken one ulp lower
        seq = tiny([1.0, 1.0], [0.0, 0.0])
        assert sturm_count(seq, 2, -1.0) == 1
        ev = eigenvalues_in(seq, 2, (-1.0, 1.0))
        assert ev == pytest.approx([-1.0, 1.0], abs=1e-9)

    def test_bad_interval(self):
        seq = tiny([1.0, 1.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            eigenvalues_in(seq, 2, (2.0, -2.0))

    @pytest.mark.parametrize(
        "interval, tol, message",
        [
            ((-np.inf, 1.0), None, "finite"),
            ((-1e3, np.inf), None, "finite"),
            ((np.nan, 1.0), None, "finite"),
            ((-1e3, 1e3), np.nan, "tol must be positive"),
            ((-1e3, 1e3), 0.0, "tol must be positive"),
        ],
    )
    def test_non_finite_inputs_rejected(self, interval, tol, message):
        # an infinite end made the default tol infinite, and the brackets
        # came back as 100 "eigenvalues" at -3.5e305; a NaN tol passed the
        # tol <= 0 test
        seq = _seq("m1", 200)
        with pytest.raises(ValueError, match=message):
            eigenvalues_in(seq, 200, interval, tol)
        with pytest.raises(ValueError, match=message):
            eigenvalues_in_each([(seq, 100, (-1.0, 1.0), None), (seq, 200, interval, tol)])

    def test_infinite_tol_accepts_any_width(self):
        seq = _seq("m1", 200)
        ev = eigenvalues_in(seq, 200, (-1e3, 1e3), tol=np.inf)
        assert ev.size == eigenvalues_in(seq, 200, (-1e3, 1e3)).size > 0
        assert np.all((-1e3 <= ev) & (ev <= 1e3))

    def test_first_sweep_counts_the_ends_with_the_cuts(self, monkeypatch):
        shifts = []
        kernel = _kernels.sturm_counts

        def counted(diag, offsq, xs, *rest):
            shifts.append(np.size(xs))
            return kernel(diag, offsq, xs, *rest)

        monkeypatch.setattr(_kernels, "sturm_counts", counted)
        eigenvalues_in(_seq("m1", 2000), 2000, (-1e4, 1e4), tol=1e-7)
        assert shifts[0] == 257
        shifts.clear()
        assert eigenvalues_in(tiny([1.0, 1.0], [0.0, 0.0]), 2, (5.0, 6.0)).size == 0
        assert shifts == [257]


def _c14_problems():
    """The random sample of acceptance check c14: (seq, n, window, tol)."""
    rng = np.random.default_rng(987654321)
    problems = []
    for _ in range(100):
        n = int(rng.integers(1, 9))
        rho = rng.uniform(0.2, 3.0, max(n, 2))
        seq = tiny(rho, rng.uniform(-5.0, 5.0, max(n, 2)))
        a, b = gershgorin_interval(seq, n)
        problems.append((seq, n, (a, b), 1e-12 * max(1, abs(a), abs(b))))
    return problems


class TestEigenvaluesInEach:
    @staticmethod
    def assert_each(problems, got):
        """Every result holds the eigenvalues in its window, each within its
        tol of the dense solver's and of its own eigenvalues_in."""
        assert len(got) == len(problems)
        for (seq, N, window, tol), ev in zip(problems, got):
            a, b = window
            tol = 1e-10 * max(1.0, abs(a), abs(b)) if tol is None else tol
            off = np.diag(seq.rho[: N - 1], 1)
            dense = np.linalg.eigvalsh(np.diag(seq.q[:N]) + off + off.T)
            dense = dense[(dense >= a) & (dense <= b)]
            single = eigenvalues_in(seq, N, window, tol)
            assert ev.size == single.size == dense.size
            assert np.all(np.abs(ev - single) <= tol)
            assert np.all(np.abs(ev - dense) <= tol + 1e-12 * max(1.0, abs(a), abs(b)))

    def test_c14_stack_matches_single_calls_and_oracle(self):
        problems = _c14_problems()
        got = eigenvalues_in_each(problems)
        self.assert_each(problems, got)
        for (seq, n, _, _), ev in zip(problems, got):
            assert np.max(np.abs(ev - charpoly_eigenvalues(seq, n))) <= 1e-9

    def test_windows_tols_and_sizes_of_their_own(self, rng):
        m1 = _seq("m1", 2000)
        problems = [
            (m1, 2000, (-1e4, 1e4), 1e-7),
            (m1, 300, (-200.0, 3000.0), None),
            (tiny([1.0, 1.0], [0.0, 0.0]), 2, (5.0, 6.0), None),  # empty window
            (tiny([1.0, 1.0], [0.0, 0.0]), 2, (-1.0, 1.0), None),  # ends on eigenvalues
            (tiny(rng.uniform(0.2, 3.0, 40), rng.uniform(-5.0, 5.0, 40)), 40, (-1.0, 2.0), 1e-4),
            (m1, 1, (-5.0, 5.0), None),
        ]
        got = eigenvalues_in_each(problems)
        assert [ev.size for ev in got][2:4] == [0, 2]
        self.assert_each(problems, got)

    def test_stack_makes_one_kernel_call_per_sweep(self, monkeypatch):
        calls = []
        kernel = _kernels.sturm_counts

        def counted(*args):
            calls.append(len(args))
            return kernel(*args)

        monkeypatch.setattr(_kernels, "sturm_counts", counted)
        eigenvalues_in_each(_c14_problems())
        # 22 sweeps on a stack of columns (diag, offsq, xs, stop, mat, last),
        # where the 100 matrices alone take 715 sweeps
        assert set(calls) == {6} and len(calls) <= 50

    def test_empty_stack(self):
        assert eigenvalues_in_each([]) == []
        assert charpoly_eigenvalues_each([]) == []

    def test_full_spectra_match_single_calls(self):
        seq = _seq("m1", 51)
        spectra = full_spectra(seq, range(1, 51))
        for N, spec in zip(range(1, 51), spectra):
            a, b = gershgorin_interval(seq, N)
            tol = 1e-10 * max(1.0, abs(a), abs(b))
            single = full_spectrum(seq, N).eigenvalues
            assert spec.eigenvalues.size == N
            assert np.all(np.abs(spec.eigenvalues - single) <= tol)


def _count(diag, offsq, xs):
    return _kernels.sturm_counts(diag, offsq, np.asarray(xs, dtype=np.float64))[0]


class TestBracketContract:
    """Every bracket is at most tol wide, holds its eigenvalue by the Sturm
    count (count(lo) < k <= count(hi)) and has its midpoint within tol of
    the eigenvalue computed independently."""

    @staticmethod
    def check(diag, offsq, window, tol, expected):
        a, b = window
        lo, hi = _sturm_brackets(diag, offsq, a, b, tol)
        with np.errstate(over="ignore"):  # one ulp below -max is -inf
            below = np.nextafter(a, -np.inf)
        k = _count(diag, offsq, [below])[0] + 1 + np.arange(lo.size)
        assert lo.size == expected.size
        assert np.all(hi - lo <= tol)
        assert np.all(_count(diag, offsq, lo) < k)
        assert np.all(k <= _count(diag, offsq, hi))
        assert np.all(np.abs(0.5 * (lo + hi) - expected) <= tol)

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 40, 300])
    @pytest.mark.parametrize("rel_tol", [1e-13, 1e-9, 1e-4])
    def test_random_matrices(self, rng, n, rel_tol):
        for _ in range(5):
            rho = rng.uniform(0.2, 3.0, max(n, 2))
            q = rng.uniform(-5.0, 5.0, max(n, 2))
            seq = tiny(rho, q)
            diag, offsq = seq.q[:n], seq.rho[: n - 1] ** 2
            window = gershgorin_interval(seq, n)
            tol = rel_tol * max(1.0, abs(window[0]), abs(window[1]))
            J = np.diag(diag) + np.diag(rho[: n - 1], 1) + np.diag(rho[: n - 1], -1)
            self.check(diag, offsq, window, tol, np.linalg.eigvalsh(J))
            if n <= 8:
                oracle = charpoly_eigenvalues(seq, n, tol / 4)
                self.check(diag, offsq, window, tol, oracle)

    def test_window_inside_the_spectrum(self):
        seq = _seq("m1", 2000)
        diag, offsq = seq.q[:300], seq.rho[:299] ** 2
        off = np.diag(seq.rho[:299], 1)
        ev = np.linalg.eigvalsh(np.diag(diag) + off + off.T)
        window = (-200.0, 3000.0)
        inside = ev[(ev >= window[0]) & (ev <= window[1])]
        self.check(diag, offsq, window, 1e-9 * 3000.0, inside)

    def test_eigenvalues_on_the_window_ends(self):
        # free 4 x 4: eigenvalues +-2 cos(pi/5), +-2 cos(2 pi/5)
        ev = 2.0 * np.cos(np.arange(4, 0, -1) * np.pi / 5)
        self.check(np.zeros(4), np.ones(3), (ev[0], ev[3]), 1e-10, ev)
        # free 2 x 2: the pivots at +-1 are exactly zero
        self.check(np.zeros(2), np.ones(1), (-1.0, 1.0), 1e-10, np.array([-1.0, 1.0]))

    def test_cluster_narrower_than_tol(self):
        # two decoupled free 2 x 2 blocks: -1 and 1 are double eigenvalues of
        # J_4 and also eigenvalues of J_3, so no interval isolates them
        diag, offsq = np.zeros(4), np.array([1.0, 0.0, 1.0])
        self.check(diag, offsq, (-3.0, 3.0), 1e-10, np.array([-1.0, -1.0, 1.0, 1.0]))

    def test_window_as_wide_as_the_float_range(self):
        top = np.finfo(np.float64).max
        ev = np.array([-np.sqrt(2.0), 0.0, np.sqrt(2.0)])
        self.check(np.zeros(3), np.ones(2), (-top, top), 1e-9, ev)

    def test_empty_window(self):
        lo, hi = _sturm_brackets(np.zeros(2), np.ones(1), 5.0, 6.0, 1e-10)
        assert lo.size == hi.size == 0


def _bisection_brackets(diag, offsq, a, b, tol):
    """Plain Sturm bisection, the reference for the work count: one bracket
    per eigenvalue, every bracket halved in every sweep until all are at
    most tol wide."""
    ks = np.arange(
        _count(diag, offsq, [np.nextafter(a, -np.inf)])[0] + 1,
        _count(diag, offsq, [np.nextafter(b, np.inf)])[0] + 1,
    )
    lo, hi = np.full(ks.size, a), np.full(ks.size, b)
    while ks.size and np.max(hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        above = _count(diag, offsq, mid) >= ks
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return lo, hi


class TestWorkCount:
    def test_at_most_half_of_plain_bisection(self, monkeypatch):
        # golden m1, N = 2000, window +-1e4: the shifts times rows counted
        # by eigenvalues_in must stay at or below half of plain bisection's
        seq = _seq("m1", 2000)
        work = []
        kernel = _kernels.sturm_counts

        def counted(diag, offsq, xs, *rest):
            work.append(diag.shape[0] * np.size(xs))
            return kernel(diag, offsq, xs, *rest)

        monkeypatch.setattr(_kernels, "sturm_counts", counted)
        tol = 1e-7
        ev = eigenvalues_in(seq, 2000, (-1e4, 1e4), tol=tol)
        ours = sum(work)
        work.clear()
        lo, hi = _bisection_brackets(seq.q[:2000], seq.rho[:1999] ** 2, -1e4, 1e4, tol)
        plain = sum(work)
        assert ev.size == lo.size > 100
        assert np.max(np.abs(ev - 0.5 * (lo + hi))) <= tol
        assert ours <= 0.5 * plain


class TestSecantFinish:
    def test_small_step_far_from_the_eigenvalue(self, monkeypatch):
        # golden m2, seed 1, N = 2000: the eigenvalue near 68.5546624 is
        # isolated in [68.5302734375, 68.554687498813], whose lower end lies
        # 1e-6 above an eigenvalue of J_1999, so d_N(lo) ~ 1e6 and the first
        # secant step, 1.2e-9, is below 0.1 tol at 2.5e-5 from the
        # eigenvalue.  Its failed finish goes back to the secant, which ends
        # in a confirmed centred bracket instead of bisecting alone.
        desc = descriptor_from_json({
            "beta1": 0.5, "beta2": 0, "x0": 1, "y0": 1,
            "remainder": {"kind": "seeded_noise", "amplitude": 0.5, "seed": 1},
        })
        seq = materialize(desc, 2000)
        diag, offsq = seq.q[:2000], seq.rho[:1999] ** 2
        sweeps = []
        kernel = _kernels.sturm_counts

        def counted(diag, offsq, xs, *rest):
            sweeps.append(np.size(xs))
            return kernel(diag, offsq, xs, *rest)

        monkeypatch.setattr(_kernels, "sturm_counts", counted)
        tol = 1e-7
        lo, hi = _sturm_brackets(diag, offsq, -1e3, 1e3, tol)
        n_sweeps = len(sweeps)
        base = _count(diag, offsq, [np.nextafter(-1e3, -np.inf)])[0]
        k = _count(diag, offsq, [68.5546875])[0]
        i = k - base - 1
        assert _count(diag, offsq, [lo[i]])[0] < k <= _count(diag, offsq, [hi[i]])[0]
        assert 68.5546 < lo[i] and hi[i] < 68.5547
        # centred: [x - 0.45 tol, x + 0.45 tol], not a bisection remainder
        assert hi[i] - lo[i] == pytest.approx(0.9 * tol, rel=1e-6)
        # bisecting this bracket alone took 12 more sweeps of one shift (28)
        assert n_sweeps <= 20


def _golden_m2_2000():
    """J_2000 of golden m2, seed 1, as (diag, offsq), with its sequence."""
    desc = descriptor_from_json({
        "beta1": 0.5, "beta2": 0, "x0": 1, "y0": 1,
        "remainder": {"kind": "seeded_noise", "amplitude": 0.5, "seed": 1},
    })
    seq = materialize(desc, 2000)
    return seq, seq.q[:2000], seq.rho[:1999] ** 2


class TestSturmWork:
    """The shifts the solver counts per eigenvalue."""

    def test_shifts_per_eigenvalue_on_golden_m2(self, monkeypatch):
        # every eigenvalue of J_2000 lies in +-1e3; 9.57 shifts per
        # eigenvalue before the one-count finish and the first-step weight
        seq, _, _ = _golden_m2_2000()
        shifts = []
        kernel = _kernels.sturm_counts

        def counted(diag, offsq, xs, *args):
            shifts.append(np.size(xs))
            return kernel(diag, offsq, xs, *args)

        monkeypatch.setattr(_kernels, "sturm_counts", counted)
        ev = eigenvalues_in(seq, 2000, (-1e3, 1e3), tol=1e-7)
        assert ev.size == 2000
        assert sum(shifts) / ev.size <= 8.5

    def test_finish_counts_only_the_end_inside_the_bracket(self, monkeypatch):
        # the lowest eigenvalue of J_2000, near -87.7723, alone in its
        # window: one isolation sweep, secant steps of one shift, then the
        # finish, whose point lies within 0.45 tol of an end a secant step
        # certified, so the finish counts its other end only, one shift
        # instead of two
        _, diag, offsq = _golden_m2_2000()
        sweeps = []
        kernel = _kernels.sturm_counts

        def counted(diag, offsq, xs, *args):
            sweeps.append(np.array(xs, dtype=np.float64))
            return kernel(diag, offsq, xs, *args)

        monkeypatch.setattr(_kernels, "sturm_counts", counted)
        tol = 1e-7
        lo, hi = _sturm_brackets(diag, offsq, -88.0, -87.5, tol)
        assert lo.size == 1
        assert sweeps[0].size == 257 and {s.size for s in sweeps[1:]} == {1}
        # the last sweep counted one end of the centred bracket
        assert sweeps[-1][0] in (lo[0], hi[0])
        assert hi[0] - lo[0] == pytest.approx(0.9 * tol, rel=1e-6)
        # both stored ends hold the eigenvalue by a direct count
        monkeypatch.setattr(_kernels, "sturm_counts", kernel)
        assert list(_count(diag, offsq, [lo[0], hi[0]])) == [0, 1]


class TestCountingFunction:
    # n_N(r) = #{|lambda| <= r} read from the Sturm count table of the free
    # matrix: J_1 has {0}, J_2 has {-1, 1}, J_3 has {-sqrt 2, 0, sqrt 2}
    def _free_table(self):
        seq = tiny([1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
        return stabilized_counting(seq, np.array([0.5, 1.0]), (1, 2, 3))

    def test_two_point_spectrum(self):
        table, _ = self._free_table()
        assert table[:, 1].tolist() == [0, 2]  # eigenvalues at exactly +-r count

    def test_three_point_spectrum(self):
        table, stable = self._free_table()
        assert table.tolist() == [[1, 0, 1], [1, 2, 1]]
        assert stable.tolist() == [False, False]

    def test_negative_radius_rejected(self):
        seq = tiny([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            stabilized_counting(seq, np.array([-1.0]), (1, 2, 3))

    def test_nan_radius_rejected(self):
        # a NaN radius was counted as 0 and flagged stable
        with pytest.raises(ValueError, match="NaN"):
            stabilized_counting(_seq("m1", 200), [np.nan], (50, 100, 200))

    def test_infinite_radius_counts_everything(self):
        table, stable = stabilized_counting(_seq("m1", 200), [np.inf], (50, 100, 200))
        assert table.tolist() == [[50, 100, 200]] and stable.tolist() == [False]


class TestStabilizedCounting:
    def test_m1_stabilizes_at_moderate_radius(self):
        table, stable = stabilized_counting(
            _seq("m1", 2000), np.array([50.0]), (500, 1000, 2000)
        )
        assert stable[0] and table[0, -1] == table[0, -2]

    def test_free_matrix_counts_grow(self):
        seq = golden_m5_sequence(2000)
        table, stable = stabilized_counting(seq, np.array([1.0]), (500, 1000, 2000))
        assert not stable[0]
        assert table[0, 0] < table[0, 1] < table[0, 2]

    def test_zero_radius(self):
        table, stable = stabilized_counting(
            _seq("m1", 2000), np.array([0.0]), (500, 1000, 2000)
        )
        assert stable[0] and table.tolist() == [[0, 0, 0]]

    @pytest.mark.parametrize("which, rmax", [("m1", 1e4), ("m5", 2.0)])
    def test_array_of_radii_matches_scalar_calls(self, which, rmax):
        seq = _seq("m1", 2000) if which == "m1" else golden_m5_sequence(2000)
        rs = np.concatenate([[0.0], np.geomspace(0.1, rmax, 19)])
        table, stable = stabilized_counting(seq, rs, (500, 1000, 2000))
        assert table.shape == (20, 3) and stable.shape == (20,)
        for r, row, flag in zip(rs, table, stable):
            one, s = stabilized_counting(seq, np.array([r]), (500, 1000, 2000))
            assert one.tolist() == [row.tolist()] and s.tolist() == [flag]

    def test_negative_radius_in_array_rejected(self):
        with pytest.raises(ValueError):
            stabilized_counting(_seq("m1", 2000), [1.0, -1.0], (500, 1000, 2000))

    def test_needs_increasing_dims(self):
        with pytest.raises(ValueError):
            stabilized_counting(_seq("m1", 2000), np.array([1.0]), (500, 500, 1000))

    @pytest.mark.parametrize("rs", [1.0, [[1.0, 2.0]]])
    def test_radii_must_be_one_dimensional(self, rs):
        with pytest.raises(ValueError, match="1-d"):
            stabilized_counting(_seq("m1", 2000), rs, (500, 1000, 2000))


class TestInterlacing:
    def test_cauchy_interlacing_up_to_50(self):
        seq = _seq("m1", 51)
        prev = full_spectrum(seq, 1).eigenvalues
        for N in range(2, 51):
            cur = full_spectrum(seq, N).eigenvalues
            assert np.all(cur[:-1] < prev)
            assert np.all(prev < cur[1:])
            prev = cur


def charpoly_values(seq, N, xs):
    """det(J_N - x I) by the determinant recurrence, one matrix at a time."""
    diag, offsq = seq.q[:N], seq.rho[: N - 1] ** 2
    xs = np.asarray(xs, dtype=np.float64)
    pm1 = np.ones_like(xs)
    p = diag[0] - xs
    for k in range(1, N):
        p, pm1 = (diag[k] - xs) * p - offsq[k - 1] * pm1, p
    return p


def _charpoly_roots_per_bracket(seq, N, tol=1e-11):
    """The bracket-by-bracket bisection, one matrix at a time, that
    charpoly_eigenvalues_each batches."""
    a, b = gershgorin_interval(seq, N)
    pts = 64 * N
    for _ in range(16):
        xs = np.linspace(a, b, pts)
        sign = np.sign(charpoly_values(seq, N, xs))
        sign[sign == 0] = -1.0
        idx = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
        if idx.size == N:
            break
        pts *= 4
    roots = []
    for i in idx:
        lo, hi = xs[i], xs[i + 1]
        flo = charpoly_values(seq, N, np.array([lo]))[0]
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            fm = charpoly_values(seq, N, np.array([mid]))[0]
            if (flo < 0) == (fm < 0):
                lo, flo = mid, fm
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    return np.array(roots)


def _mp_eigenvalues(seq, n, dps=40):
    """Eigenvalues of J_n at *dps* digits (mpmath's Jacobi method), from the
    same float rho and q."""
    with mpmath.workdps(dps):
        J = mpmath.zeros(n)
        for i in range(n):
            J[i, i] = mpmath.mpf(float(seq.q[i]))
            if i + 1 < n:
                J[i, i + 1] = J[i + 1, i] = mpmath.mpf(float(seq.rho[i]))
        return np.sort([float(e) for e in mpmath.eigsy(J, eigvals_only=True)])


class TestMpmathEigenvalueWitness:
    """c14 compares the Sturm solver with the charpoly oracle; a 40-digit
    eigensolver checks both, on c14's random matrices and on J_1 .. J_30 of
    m1, within c14's 1e-9."""

    @pytest.fixture(scope="class")
    def problems(self):
        seq = _seq("m1", 51)
        m1 = []
        for n in range(1, 31):
            a, b = gershgorin_interval(seq, n)
            m1.append((seq, n, (a, b), 1e-12 * max(1, abs(a), abs(b))))
        return _c14_problems() + m1

    @pytest.fixture(scope="class")
    def exact(self, problems):
        return [_mp_eigenvalues(seq, n) for seq, n, _, _ in problems]

    def test_sturm_eigenvalues(self, problems, exact):
        for ev, ref in zip(eigenvalues_in_each(problems), exact):
            assert ev.size == ref.size
            assert np.max(np.abs(ev - ref)) <= 1e-9

    def test_charpoly_oracle(self, problems, exact):
        got = charpoly_eigenvalues_each((seq, n) for seq, n, _, _ in problems)
        for ev, ref in zip(got, exact):
            assert ev.size == ref.size
            assert np.max(np.abs(ev - ref)) <= 1e-9


class TestCharpolyOracle:
    def test_batched_bisection_matches_per_bracket_loop(self):
        # the random sample of acceptance check c14
        rng = np.random.default_rng(987654321)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            rho = rng.uniform(0.2, 3.0, max(n, 2))
            seq = tiny(rho, rng.uniform(-5.0, 5.0, max(n, 2)))
            got = charpoly_eigenvalues(seq, n)
            assert np.array_equal(got, _charpoly_roots_per_bracket(seq, n))

    def test_stack_matches_per_bracket_loop(self):
        problems = [(seq, n) for seq, n, _, _ in _c14_problems()]
        for (seq, n), got in zip(problems, charpoly_eigenvalues_each(problems)):
            assert np.array_equal(got, _charpoly_roots_per_bracket(seq, n))

    def test_grids_of_the_stack_in_few_calls_per_round(self, monkeypatch):
        # c14's family isolates on its first grids, evaluated together in
        # calls of about _BUDGET // 8 points, not one call per matrix; two
        # decoupled diagonal entries 1e-4 apart need the grid refined, for
        # that matrix only
        close = tiny([1e-9, 1e-9, 1e-9], [0.0, 1e-4, 2.0])
        problems = [(seq, n) for seq, n, _, _ in _c14_problems()] + [(close, 3)]
        rounds = []
        grid = spectrum._charpoly_grid_brackets
        values = spectrum._charpoly_values

        def counted(diag, offsq, sizes, xs, mat):
            rounds.append((np.unique(mat).size, xs.size))
            return values(diag, offsq, sizes, xs, mat)

        def grid_only(*args):
            monkeypatch.setattr(spectrum, "_charpoly_values", counted)
            try:
                return grid(*args)
            finally:
                monkeypatch.setattr(spectrum, "_charpoly_values", values)

        monkeypatch.setattr(spectrum, "_charpoly_grid_brackets", grid_only)
        got = charpoly_eigenvalues_each(problems)
        first = 64 * sum(n for _, n in problems)
        calls = np.cumsum([points for _, points in rounds]).searchsorted(first) + 1
        assert sum(m for m, _ in rounds[:calls]) == len(problems)
        assert calls <= first // (_kernels._BUDGET // 8) + 1
        assert [m for m, _ in rounds[calls:]] == [1] * (len(rounds) - calls) != []
        for (seq, n), roots in zip(problems, got):
            assert np.array_equal(roots, _charpoly_roots_per_bracket(seq, n))

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
    @pytest.mark.parametrize("tol", [1e-11, 1e-3, 10.0])
    def test_batched_bisection_matches_on_free_matrix(self, n, tol):
        # integer entries put roots (such as 0) on grid points; a coarse tol
        # leaves some brackets untouched
        seq = tiny(np.ones(max(n, 2)), np.zeros(max(n, 2)))
        got = charpoly_eigenvalues(seq, n, tol)
        assert np.array_equal(got, _charpoly_roots_per_bracket(seq, n, tol))

    def test_values_match_numpy_det(self, rng):
        # the oracle's stacked recurrence, each x on its own matrix
        mats, dense = [], []
        for n in (6, 2, 1, 4):
            rho = rng.uniform(0.3, 2.0, n)
            q = rng.uniform(-3.0, 3.0, n)
            mats.append((q, rho[: n - 1] ** 2))
            dense.append(np.diag(q) + np.diag(rho[: n - 1], 1) + np.diag(rho[: n - 1], -1))
        xs = rng.uniform(-5.0, 5.0, 28)
        mat = np.arange(28) % 4
        got = spectrum._charpoly_values(*_stack_columns(mats), xs, mat)
        for x, m, value in zip(xs, mat, got):
            J = dense[m]
            direct = np.linalg.det(J - x * np.eye(J.shape[0]))
            assert value == pytest.approx(direct, rel=1e-9, abs=1e-9)

    def test_strict_spectrum_validation(self):
        with pytest.raises(ValueError):
            TruncatedSpectrum(eigenvalues=np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="strictly increasing"):
            TruncatedSpectrum(eigenvalues=np.array([2.0, 1.0]))
        with pytest.raises(ValueError, match=r"eigenvalue 1\.5 has multiplicity 3 .*no tol"):
            TruncatedSpectrum(eigenvalues=np.array([0.5, 1.5, 1.5, 1.5, 2.0, 2.0]))

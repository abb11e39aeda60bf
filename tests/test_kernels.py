"""The numpy kernels: recurrence overflow index, transfer-product rescaling
and the dtype-generic transfer loop."""

import numpy as np
import pytest

from jacobispec import _kernels as K


@pytest.fixture(scope="module")
def model(rng_seed=2024):
    rng = np.random.default_rng(rng_seed)
    N = 400
    n = np.arange(N, dtype=float)
    rho = np.maximum(n, 1.0) ** 2 * (1.0 + 0.5 / np.maximum(n, 1.0))
    q = 1.0 + 0.1 * rng.standard_normal(N)
    P, _ = K.solve_three_term(rho, q, 1.0, -q[0] / rho[0])
    Q, _ = K.solve_three_term(rho, q, 0.0, 1.0 / rho[0])
    return P, Q


def _transfer_real_reference(P, Q, xs, N):
    """The real transfer loop as it stood before the real and complex loops
    were merged; the merged loop must match it bit for bit."""
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
        big = m > K._RESCALE
        if big.any():
            s = np.where(big, m, 1.0)
            A = A / s
            B = B / s
            C = C / s
            D = D / s
            logscale = logscale + np.where(big, np.log(s), 0.0)
    return A, B, C, D, logscale


def test_solve_overflow_index():
    n = np.arange(300, dtype=float)
    rho = np.ones(300)
    q = (n + 1.0) ** 2
    u, k = K.solve_three_term(rho, q, 1.0, 1.0)
    assert 2 <= k < 300
    assert abs(u[k]) > K._OVERFLOW
    assert np.all(np.abs(u[:k]) <= K._OVERFLOW)


def test_merged_transfer_loop_matches_reference(model, m1_sol_2000):
    xs = np.concatenate([np.linspace(-1e6, 1e6, 301), -np.geomspace(1.0, 1e6, 40)])
    for P, Q, N in (model + (400,), (m1_sol_2000.P, m1_sol_2000.Q, 2000)):
        got = K.transfer_real(P, Q, xs, N)
        want = _transfer_real_reference(P, Q, xs, N)
        assert np.any(want[4] > 0)  # rescaling engaged
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == np.float64
            assert np.array_equal(a, b)


def test_transfer_with_heavy_rescaling(model, monkeypatch):
    P, Q = model
    zs = np.array([1e8 + 0j, -1e8 + 3e7j, 4e9 + 0j])
    out = K.transfer_complex(P, Q, zs, 400)
    assert [x.dtype for x in out] == [np.dtype(np.complex128)] * 4 + [np.float64]
    assert np.all(out[4] > 0)  # rescaling definitely engaged
    # rescaling much more often must give the same product once log_scale
    # is undone; log_scale reaches ~5e3 here, so exp of the difference
    # carries a relative error of a few 1e-12
    monkeypatch.setattr(K, "_RESCALE", 1e10)
    often = K.transfer_complex(P, Q, zs, 400)
    assert np.all(often[4] > out[4])
    factor = np.exp(out[4] - often[4])
    for a, b in zip(out[:4], often[:4]):
        assert np.allclose(a * factor, b, rtol=1e-10, atol=0)
    # P and Q are real, so the product at conj(z) is the conjugate
    conj = K.transfer_complex(P, Q, zs.conj(), 400)
    for a, b in zip(conj, often):
        assert np.array_equal(a, np.conj(b))


def test_transfer_real_agrees_with_complex(model):
    P, Q = model
    xs = np.linspace(-3e4, 3e4, 33)
    Ar, Br, Cr, Dr, lsr = K.transfer_real(P, Q, xs, 400)
    Ac, Bc, Cc, Dc, lsc = K.transfer_complex(P, Q, xs.astype(complex), 400)
    assert np.allclose(Br * np.exp(lsr - lsc), Bc.real, rtol=1e-12)
    assert np.max(np.abs(Bc.imag)) == 0.0


def test_backend_is_numpy():
    assert K.BACKEND == "numpy"

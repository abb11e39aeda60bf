"""The numpy kernels: recurrence overflow index, the float loops against
their numpy-scalar form, and the transfer loop's accuracy, renormalization
and dtype entry points."""

import mpmath
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


def _transfer_reference(P, Q, zs, N):
    """The four-entry transfer loop the column kernel replaced: all of A, B,
    C, D advanced together and divided by their largest magnitude whenever
    it passes 1e150.  Returns the entries and the list of divisors, whose
    product is the scale of the true entries."""
    A = np.zeros_like(zs)
    B = np.full_like(zs, -1.0)
    C = np.ones_like(zs)
    D = np.zeros_like(zs)
    divisors = []
    for k in range(N):
        pq = P[k] * Q[k]
        qq = Q[k] * Q[k]
        pp = P[k] * P[k]
        A, C = A + zs * (qq * C - pq * A), C + zs * (pq * C - pp * A)
        B, D = B + zs * (qq * D - pq * B), D + zs * (pq * D - pp * B)
        m = np.maximum(np.maximum(np.abs(A), np.abs(B)),
                       np.maximum(np.abs(C), np.abs(D)))
        big = m > 1e150
        if big.any():
            s = np.where(big, m, 1.0)
            A = A / s
            B = B / s
            C = C / s
            D = D / s
            divisors.append(s)
    return A, B, C, D, divisors


def _mp_columns(P, Q, z, N):
    """The (A, C) and (B, D) columns of the product of the float factors,
    in 50-digit arithmetic."""
    with mpmath.workdps(50):
        z = mpmath.mpmathify(z)
        cols = [[mpmath.mpf(0), mpmath.mpf(1)], [mpmath.mpf(-1), mpmath.mpf(0)]]
        for p, q in zip(P[:N].tolist(), Q[:N].tolist()):
            for col in cols:
                s = z * (q * col[1] - p * col[0])
                col[0] += q * s
                col[1] += p * s
        return cols


def test_solve_overflow_index():
    n = np.arange(300, dtype=float)
    rho = np.ones(300)
    q = (n + 1.0) ** 2
    u, k = K.solve_three_term(rho, q, 1.0, 1.0)
    assert 2 <= k < 300
    assert abs(u[k]) > K._OVERFLOW
    assert np.all(np.abs(u[:k]) <= K._OVERFLOW)


def _solve_three_term_numpy(rho, q, u0, u1):
    """The recurrence stepped over numpy scalars read back from the output
    array: the loop the kernel ran before it stepped over Python floats."""
    n = rho.shape[0]
    u = np.empty(n + 1, dtype=np.float64)
    u[0] = float(u0)
    u[1] = float(u1)
    for k in range(n - 1):
        v = -(q[k + 1] * u[k + 1] + rho[k] * u[k]) / rho[k + 1]
        u[k + 2] = v
        if abs(v) > K._OVERFLOW:
            return u, k + 2
    return u, -1


class _NumpyScalars(np.ndarray):
    """An array whose ``tolist()`` holds numpy scalars, not Python floats:
    a kernel that steps over ``tolist()`` then runs its loop over numpy
    scalars."""

    def tolist(self):
        return list(np.asarray(self))


def test_float_loops_match_numpy_scalar_loops(model):
    # the recurrence and the transfer loop step over Python floats, whose
    # operations are those of numpy scalars: the results are bit-identical
    P, Q = model
    rho = np.maximum(np.arange(400.0), 1.0) ** 2
    n = np.arange(300, dtype=float)
    for r, q, u0, u1 in ((rho, Q, 1.0, -0.5), (np.ones(300), (n + 1.0) ** 2, 1.0, 1.0)):
        u, k = K.solve_three_term(r, q, u0, u1)
        ref, ref_k = _solve_three_term_numpy(r, q, u0, u1)
        m = k + 1 if k >= 0 else u.size  # entries past an overflow are unset
        assert k == ref_k and np.array_equal(u[:m], ref[:m])
    assert k > 0  # the second recurrence overflows, at the same index
    xs = np.concatenate([np.linspace(-1e8, 1e8, 9), [0.0, 3.5]])
    zs = 1e6 * np.exp(1j * np.linspace(0.1, 3.0, 5))
    Pn, Qn = P.view(_NumpyScalars), Q.view(_NumpyScalars)
    for kernel, points in ((K.transfer_real, xs), (K.transfer_complex, zs)):
        for u0, v0 in ((0.0, 1.0), (-1.0, 0.0)):
            got = kernel(P, Q, points, 400, u0, v0)
            ref = kernel(Pn, Qn, points, 400, u0, v0)
            for a, b in zip(got, ref):
                assert np.array_equal(np.asarray(a), np.asarray(b))


def test_transfer_matches_mpmath_product(model):
    # the column kernel against the product of the same float factors in
    # 50-digit arithmetic, next to the four-entry loop it replaced
    P, Q = model
    N = 400
    xs = np.concatenate([np.linspace(-1e8, 1e8, 9), -np.geomspace(1.0, 1e8, 5)])
    zs = np.concatenate([
        1e8 * np.exp(1j * np.linspace(0.1, 3.0, 6)),
        np.geomspace(10.0, 1e7, 4) * np.exp(0.7j),
    ])
    # the growth bound passes the budget several times: renormalization engaged
    assert np.sum(np.log1p(1e8 * (P**2 + Q**2))) > 5 * K._LOG_BUDGET
    for kernel, points in ((K.transfer_real, xs), (K.transfer_complex, zs)):
        A, B, C, D, divisors = _transfer_reference(P, Q, points.astype(complex), N)
        got = [kernel(P, Q, points, N, 0.0, 1.0), kernel(P, Q, points, N, -1.0, 0.0)]
        with mpmath.workdps(50):
            for i, z in enumerate(points.tolist()):
                exact = _mp_columns(P, Q, z, N)
                ref_scale = mpmath.fprod(mpmath.mpf(float(s[i])) for s in divisors)
                for (u, v, e), ref, col in zip(got, ((A, C), (B, D)), exact):
                    scale = max(abs(x) for x in col)
                    new = [complex(x[i]) * mpmath.ldexp(1, int(e[i])) for x in (u, v)]
                    old = [complex(x[i]) * ref_scale for x in ref]
                    for a, b, want in zip(new, old, col):
                        err_new = abs(a - want) / scale
                        assert err_new <= 2 * abs(b - want) / scale + 1e-13, (z, err_new)
                        assert err_new < 1e-13
                # B has the high-precision sign wherever it is not tiny
                b, scale_b = exact[1][0], max(abs(x) for x in exact[1])
                if kernel is K.transfer_real and abs(b) > 1e-8 * scale_b:
                    assert np.sign(got[1][0][i]) == mpmath.sign(b)


def test_transfer_with_heavy_rescaling(model, monkeypatch):
    P, Q = model
    zs = np.array([1e8 + 0j, -1e8 + 3e7j, 4e9 + 0j])
    out = K.transfer_complex(P, Q, zs, 400, -1.0, 0.0)
    assert [x.dtype for x in out] == [np.dtype(np.complex128)] * 2 + [np.int64]
    assert np.all(out[2] > 0)  # the entries are far beyond binary64 range
    # renormalizing much more often gives the same canonical column bit for
    # bit, since powers of two scale every step exactly
    monkeypatch.setattr(K, "_LOG_BUDGET", 20.0)
    often = K.transfer_complex(P, Q, zs, 400, -1.0, 0.0)
    for a, b in zip(out, often):
        assert np.array_equal(a, b)
    # in the canonical form the largest real or imaginary part is in [1, 2)
    top = np.maximum(np.abs(out[0].view(float)), np.abs(out[1].view(float)))
    top = top.reshape(-1, 2).max(axis=1)
    assert np.all((1.0 <= top) & (top < 2.0))
    # P and Q are real, so the product at conj(z) is the conjugate
    conj = K.transfer_complex(P, Q, zs.conj(), 400, -1.0, 0.0)
    assert np.array_equal(conj[2], often[2])
    for a, b in zip(conj[:2], often[:2]):
        assert np.array_equal(a, np.conj(b))


def _transfer_eight_ops(P, Q, zs, N, u0, v0):
    """The transfer loop as eight array operations a factor on separate u
    and v rows, with the kernel's scaling: the reference of the kernel's
    five-operation step."""
    shape, zs = zs.shape, zs.reshape(-1)
    col = np.array([np.broadcast_to(c, shape).reshape(-1) for c in (u0, v0)], zs.dtype)
    e = np.zeros(zs.size, dtype=np.int64)
    s, t = np.empty_like(zs), np.empty_like(zs)
    (uf, vf), sf, tf = col.view(np.float64), s.view(np.float64), t.view(np.float64)
    logg = np.log1p(np.max(np.abs(zs), initial=0.0) * (P[:N] ** 2 + Q[:N] ** 2))
    grown = 0.0
    for p, q, g in zip(P[:N].tolist(), Q[:N].tolist(), logg.tolist()):
        if grown + g > K._LOG_BUDGET:
            m = np.frexp(np.maximum(abs(col.real), abs(col.imag)).max(axis=0))[1]
            col *= np.ldexp(1.0, -m)
            e, grown = e + m, 0.0
        grown += g
        np.multiply(vf, q, out=sf)
        np.multiply(uf, p, out=tf)
        np.subtract(sf, tf, out=sf)
        np.multiply(s, zs, out=s)
        np.multiply(sf, q, out=tf)
        np.add(uf, tf, out=uf)
        np.multiply(sf, p, out=tf)
        np.add(vf, tf, out=vf)
    m = np.frexp(np.maximum(abs(col.real), abs(col.imag)).max(axis=0))[1]
    m = np.maximum(m - 1, -e)
    col *= np.ldexp(1.0, -m)
    return col[0].reshape(shape), col[1].reshape(shape), (e + m).reshape(shape)


@pytest.mark.parametrize("budget", [K._LOG_BUDGET, 5.0])
def test_transfer_matches_eight_operation_loop(model, monkeypatch, budget):
    # q v + (-p u) is q v - p u bit for bit, and the products commute, so the
    # five-operation step equals the eight-operation one; a small budget
    # makes both rescale many times
    P, Q = model
    monkeypatch.setattr(K, "_LOG_BUDGET", budget)
    xs = np.concatenate([np.linspace(-1e8, 1e8, 9), [0.0, 3.5, -4e9]])
    zs = np.concatenate([1e6 * np.exp(1j * np.linspace(0.1, 3.0, 5)), [4e9 + 0j, 2j]])
    scaled = 0
    for kernel, points in ((K.transfer_real, xs), (K.transfer_complex, zs)):
        for N in (1, 37, 400):
            for u0, v0 in ((0.0, 1.0), (-1.0, 0.0)):
                got = kernel(P, Q, points, N, u0, v0)
                ref = _transfer_eight_ops(P, Q, points.astype(got[0].dtype), N, u0, v0)
                for a, b in zip(got, ref):
                    assert a.dtype == b.dtype and np.array_equal(a, b)
                scaled += np.count_nonzero(got[2] > 0)
    assert scaled > 0


def test_transfer_real_agrees_with_complex(model):
    # on the real axis the complex loop does the real loop's arithmetic
    P, Q = model
    xs = np.concatenate([np.linspace(-3e4, 3e4, 33), [1e8, -4e9]])
    for u0, v0 in ((0.0, 1.0), (-1.0, 0.0)):
        ur, vr, er = K.transfer_real(P, Q, xs, 400, u0, v0)
        uc, vc, ec = K.transfer_complex(P, Q, xs.astype(complex), 400, u0, v0)
        assert np.array_equal(er, ec) and np.any(er > 0)
        assert np.array_equal(ur, uc.real) and np.array_equal(vr, vc.real)
        assert np.max(np.abs(uc.imag)) == np.max(np.abs(vc.imag)) == 0.0


def test_backend_is_numpy():
    assert K.BACKEND == "numpy"

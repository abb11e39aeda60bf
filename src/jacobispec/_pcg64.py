"""numpy's ``default_rng(seed)`` stream, without importing numpy's random
subpackage.

``seeded_noise`` remainders and two ``verify`` checks draw from
``default_rng(seed)``: a PCG64 generator (XSL-RR output, 128-bit LCG)
seeded through ``SeedSequence``.  Importing that subpackage imports
``secrets`` and so maps OpenSSL's libcrypto, which costs more peak memory
than any stage of a run.  ``Pcg64`` reproduces the two draws the package
makes, ``uniform`` and ``integers`` on a range below 2^32, bit for bit,
with Python ints and numpy ``uint64`` arrays.
"""

from __future__ import annotations

import operator

import numpy as np

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
# PCG's default 128-bit LCG multiplier
_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_U32 = np.uint64(32)
_LOW32 = np.uint64(_M32)
# states stepped one at a time on Python ints before the doubling takes
# over: a doubling step costs ~40 us of numpy calls, and c14 draws 2 to 8
# values per call
_STEPPED = 64


def _seed_sequence(seed: int) -> tuple[int, int]:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` as two 128-bit
    ints, (initstate, initseq): each is (word 0 << 64) | word 1 of its pair."""
    words = []
    while True:
        words.append(seed & _M32)
        seed >>= 32
        if not seed:
            break
    const = 0x43B0D7E5

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = 0x8B51F9DD
    state = []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & _M32
        value = value * const & _M32
        state.append(value ^ value >> 16)
    u64 = [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]
    return u64[0] << 64 | u64[1], u64[2] << 64 | u64[3]


def _mul_add(hi, lo, a: int, c: int):
    """(a * s + c) mod 2^128 for the states s = hi * 2^64 + lo (uint64
    arrays); the high word of lo * a_lo is summed from 32-bit halves."""
    a_hi, a_lo = np.uint64(a >> 64), np.uint64(a & _M64)
    c_hi, c_lo = np.uint64(c >> 64), np.uint64(c & _M64)
    x0, x1 = lo & _LOW32, lo >> _U32
    y0, y1 = a_lo & _LOW32, a_lo >> _U32
    p01, p10 = x0 * y1, x1 * y0
    mid = (x0 * y0 >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)
    carry_hi = x1 * y1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)
    new_lo = lo * a_lo + c_lo
    new_hi = carry_hi + lo * a_hi + hi * a_lo + c_hi + (new_lo < c_lo)
    return new_hi, new_lo


class Pcg64:
    """The stream of numpy's ``default_rng(seed)`` for an int *seed*."""

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError("seed must be >= 0")
        initstate, initseq = _seed_sequence(seed)
        self._inc = (initseq << 1 | 1) & _M128
        self._state = ((self._inc + initstate) * _MULT + self._inc) & _M128
        # the high word of a 64-bit draw, kept for the next 32-bit draw
        self._half: int | None = None

    def _next32(self) -> int:
        if self._half is not None:
            value, self._half = self._half, None
            return value
        self._state = (self._state * _MULT + self._inc) & _M128
        rot = self._state >> 122
        x = (self._state >> 64 ^ self._state) & _M64
        value = (x >> rot | x << (64 - rot)) & _M64
        self._half = value >> 32
        return value & _M32

    def integers(self, low: int, high: int) -> int:
        """One integer in [low, high), for high - low <= 2^32 - 1, by
        Lemire's rejection method on 32-bit draws."""
        rng = high - low - 1
        if not 0 <= rng < _M32:
            raise ValueError("need 1 <= high - low < 2**32")
        if rng == 0:
            return low
        excl = rng + 1
        threshold = (_M32 - rng) % excl  # 2^32 mod excl
        m = self._next32() * excl
        while m & _M32 < threshold:
            m = self._next32() * excl
        return low + (m >> 32)

    def uniform(self, low: float, high: float, n: int) -> np.ndarray:
        """*n* doubles ``low + (high - low) * (v >> 11) * 2^-53`` from the
        next *n* 64-bit draws v.  The first states are stepped one by one;
        then they come by jump-ahead doubling: a block of m states gives the
        next m through the affine map (a, c) that advances a state by m
        steps."""
        states = []
        s = self._state
        for _ in range(min(n, _STEPPED)):
            s = (s * _MULT + self._inc) & _M128
            states.append(s)
        hi = np.array([x >> 64 for x in states], dtype=np.uint64)
        lo = np.array([x & _M64 for x in states], dtype=np.uint64)
        a = pow(_MULT, len(states), 1 << 128)
        c = (s - a * self._state) & _M128
        while hi.size < n:
            more = min(hi.size, n - hi.size)
            new_hi, new_lo = _mul_add(hi[:more], lo[:more], a, c)
            hi, lo = np.concatenate((hi, new_hi)), np.concatenate((lo, new_lo))
            a, c = a * a & _M128, (a * c + c) & _M128
        if n:
            self._state = int(hi[-1]) << 64 | int(lo[-1])
        rot = hi >> np.uint64(58)
        x = hi ^ lo
        v = x >> rot | x << (np.uint64(64) - rot & np.uint64(63))
        return low + (high - low) * ((v >> np.uint64(11)).astype(np.float64) * 2.0**-53)

"""``Pcg64`` against numpy's ``default_rng``: every draw must be bit-equal,
so that seeds give the same matrices and c05 / c14 keep their inputs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobispec._pcg64 import _BLOCK, Pcg64

SEEDS = [0, 1, 7, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 12345]


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("N", [2, 3, 1000, 2000, 4097])
def test_uniform_matches_default_rng(seed, N):
    ours = Pcg64(seed).uniform(-1.0, 1.0, 2 * N).reshape(2, N)
    theirs = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(2, N))
    assert np.array_equal(_bits(ours), _bits(theirs))


@pytest.mark.parametrize("n", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
def test_uniform_blocks_keep_the_stream(n):
    # a draw around and past the block size, then a 32-bit draw and a short
    # draw: the state after the last block is numpy's
    ours, theirs = Pcg64(11), np.random.default_rng(11)
    assert np.array_equal(_bits(ours.uniform(-2.0, 3.0, n)), _bits(theirs.uniform(-2.0, 3.0, n)))
    assert ours._state == theirs.bit_generator.state["state"]["state"]
    assert ours.integers(0, 1000) == int(theirs.integers(0, 1000))
    assert np.array_equal(_bits(ours.uniform(0.0, 1.0, 3)), _bits(theirs.uniform(0.0, 1.0, 3)))


def test_c05_stream():
    ours = Pcg64(20240814).uniform(-10, 10, 40).reshape(20, 2)
    theirs = np.random.default_rng(20240814).uniform(-10, 10, size=(20, 2))
    assert np.array_equal(_bits(ours), _bits(theirs))


def test_c14_stream():
    # integers keeps the high word of its 64-bit draw across uniform calls
    ours, theirs = Pcg64(987654321), np.random.default_rng(987654321)
    for _ in range(100):
        n = ours.integers(1, 9)
        assert n == int(theirs.integers(1, 9))
        for low, high in ((0.2, 3.0), (-5.0, 5.0)):
            assert np.array_equal(
                _bits(ours.uniform(low, high, max(n, 2))),
                _bits(theirs.uniform(low, high, size=max(n, 2))),
            )


@pytest.mark.parametrize("span", [1, 2, 7, 1000, 2**31 + 1, 2**32 - 1])
def test_integers_match_default_rng(span):
    # span 1 draws nothing; 2**31 + 1 rejects about half of its draws
    ours, theirs = Pcg64(3), np.random.default_rng(3)
    for _ in range(50):
        assert ours.integers(5, 5 + span) == int(theirs.integers(5, 5 + span))
    assert np.array_equal(_bits(ours.uniform(0, 1, 3)), _bits(theirs.uniform(0, 1, 3)))


def test_rejects_negative_seed_and_wide_range():
    with pytest.raises(ValueError):
        Pcg64(-1)
    with pytest.raises(ValueError):
        Pcg64(0).integers(0, 2**32 + 1)


def test_uniform_rejects_negative_size():
    # as numpy does, where an unchecked size would index an empty block
    for draw in (lambda: Pcg64(0).uniform(0.0, 1.0, -1),
                 lambda: np.random.default_rng(0).uniform(0.0, 1.0, size=-1)):
        with pytest.raises(ValueError, match="negative dimensions"):
            draw()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**130 - 1), N=st.integers(0, 5000))
def test_uniform_matches_default_rng_property(seed, N):
    ours = Pcg64(seed).uniform(-1.0, 1.0, 2 * N)
    theirs = np.random.default_rng(seed).uniform(-1.0, 1.0, size=2 * N)
    assert np.array_equal(_bits(ours), _bits(theirs))

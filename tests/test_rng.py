"""The seeded generator: complex_vector's one numpy pass against the scalar next_u64 loop."""

import warnings

import numpy as np
import pytest

from padicgabor.rng import SplitMix64
from padicgabor.verify import DEFAULT_SEED

SEEDS = (0, 1, 2**64 - 1, DEFAULT_SEED)
SIZES = (0, 1, 9, 16, 1024)


def scalar_complex_vector(rng, n):
    """The oracle: 2n next_float calls, Re then Im, one complex at a time."""
    out = np.empty(n, dtype=complex)
    for i in range(n):
        re = 2.0 * rng.next_float() - 1.0
        im = 2.0 * rng.next_float() - 1.0
        out[i] = complex(re, im)
    return out


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64))


def test_next_u64_matches_the_reference_splitmix64():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", SIZES)
def test_complex_vector_matches_the_scalar_loop(seed, n):
    fast, oracle = SplitMix64(seed), SplitMix64(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a wrapping uint64 scalar op would warn
        for _ in range(3):
            assert same_bits(fast.complex_vector(n), scalar_complex_vector(oracle, n))
            assert fast.state == oracle.state


@pytest.mark.parametrize("seed", SEEDS)
def test_draws_interleave_with_bounded_integers(seed):
    fast, oracle = SplitMix64(seed), SplitMix64(seed)
    for i, n in enumerate(SIZES * 2):
        bound = 1 + 7 * i
        assert fast.next_below(bound) == oracle.next_below(bound)
        assert same_bits(fast.complex_vector(n), scalar_complex_vector(oracle, n))
        assert fast.next_float() == oracle.next_float()
        assert fast.state == oracle.state


def test_one_stream_reshaped_is_the_same_draws():
    # verify draws a config's functions as one stream; rows must be the per-function draws
    whole, parts = SplitMix64(DEFAULT_SEED), SplitMix64(DEFAULT_SEED)
    rows = whole.complex_vector(5 * 16).reshape(5, 16)
    for row in rows:
        assert same_bits(row, parts.complex_vector(16))
    assert whole.state == parts.state


def test_draws_lie_in_the_half_open_square():
    z = SplitMix64(7).complex_vector(4096)
    for part in (z.real, z.imag):
        assert np.all(part >= -1.0) and np.all(part < 1.0)
        assert np.all(np.mod(part * 2.0**52, 1.0) == 0.0)  # 2u - 1 with u on the 2**-53 grid

"""Seeded, cross-platform pseudo-randomness for experiments and checks.

The generator is splitmix64: state advances by the 64-bit golden-gamma
0x9E3779B97F4A7C15 and each output is finalized by two xor-shift-multiply
rounds (constants 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB).  Floats take
the top 53 bits over 2**53; bounded integers reduce a raw draw modulo the
bound.  complex_vector(n) runs the same rounds as one numpy uint64 pass over
the 2n states state + gamma * (1..2n), wrapping mod 2**64 on arrays only, so
it returns the bits and leaves the state of 2n next_float calls.  Every
consumer in the package draws through this class so that a fixed seed
reproduces byte-identical output anywhere.
"""

from __future__ import annotations

from ._lazy import np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def next_float(self) -> float:
        return (self.next_u64() >> 11) * (2.0**-53)

    def next_below(self, n: int) -> int:
        if n <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % n

    def complex_vector(self, n: int) -> np.ndarray:
        """n complex draws with Re, Im independent uniform on [-1, 1), Re drawn first."""
        u64 = np.uint64
        z = u64(self.state) + np.arange(1, 2 * n + 1, dtype=u64) * u64(_GAMMA)
        self.state = (self.state + 2 * n * _GAMMA) & _MASK
        z = (z ^ (z >> u64(30))) * u64(_MIX1)
        z = (z ^ (z >> u64(27))) * u64(_MIX2)
        floats = ((z ^ (z >> u64(31))) >> u64(11)) * 2.0**-53
        return (2.0 * floats - 1.0).view(complex)

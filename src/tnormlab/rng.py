"""Seedable, cross-platform PRNG used by every randomized sweep.

The stream is splitmix64 (Steele, Lea & Flood's mixing constants): 64-bit
state advanced by the golden-ratio increment, each output independently
mixed.  Identical seeds therefore produce identical samples on any platform
and in any implementation language, which is what makes verification
reports byte-reproducible.

Unit doubles are formed from the top 53 bits of each output
(``word >> 11`` scaled by 2**-53), giving values in [0, 1).  When a sweep
needs k-tuples, sample i consumes outputs i*k .. i*k+k-1 in order.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TO_UNIT = 2.0**-53


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """splitmix64 stream; ``seed`` selects the stream deterministically."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix(self._state)

    def next_unit(self) -> float:
        """Next double in [0, 1)."""
        return (self.next_uint64() >> 11) * _TO_UNIT

    def unit_array(self, n: int) -> np.ndarray:
        """Next ``n`` unit doubles as a vector, advancing the state.

        Bit-identical to calling :meth:`next_unit` ``n`` times.
        """
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64(self._state)
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        z >>= np.uint64(11)
        self._state = (self._state + n * _GAMMA) & _MASK64
        return z * _TO_UNIT  # float64: the top 53 bits convert exactly

    def unit_tuples(self, n: int, k: int) -> np.ndarray:
        """``n`` samples of ``k`` unit doubles each, shape (n, k)."""
        return self.unit_array(n * k).reshape(n, k)

"""Deterministic counter-based random streams (SplitMix64).

Every source of randomness in the package flows through these streams.
A stream is a pure function of its seed: replaying with the same seed
yields the same draws regardless of what other streams did in between,
which is what makes task retraining bit-reproducible. Child streams are
derived from the parent *seed* (not its current state), so derivation is
schedule-independent.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _finalize(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _label_to_int(label) -> int:
    """Map a stream label (int or str) to a 64-bit integer, stably across runs."""
    if isinstance(label, int):
        return label & _MASK64
    if isinstance(label, tuple):
        h = _FNV_OFFSET
        for part in label:
            h = (h ^ _label_to_int(part)) * _FNV_PRIME & _MASK64
        return h
    h = _FNV_OFFSET
    for byte in str(label).encode("utf8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def mix_seed(parent_seed: int, label) -> int:
    """Derive a child seed. Pure function of (parent_seed, label)."""
    z = (parent_seed + _GOLDEN * ((_label_to_int(label) << 1) | 1)) & _MASK64
    return _finalize(z)


class PrngStream:
    """SplitMix64 stream: state advances by a fixed odd increment per draw.

    The output at counter i is finalize(seed + i * golden), so scalar draws
    and vectorized block draws produce identical sequences.
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._state = self.seed

    def child(self, label) -> "PrngStream":
        return PrngStream(mix_seed(self.seed, label))

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _finalize(self._state)

    def u64_block(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError("block size must be >= 0")
        if n == 0:
            return np.empty(0, dtype=np.uint64)
        # in place, wrapping mod 2**64: one block-sized temporary at a time
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= np.uint64(_GOLDEN)
        z += np.uint64(self._state)
        self._state = (self._state + n * _GOLDEN) & _MASK64
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        return z

    def uniform_block(self, n: int) -> np.ndarray:
        """n doubles in [0, 1), 53 random mantissa bits each."""
        return (self.u64_block(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def gaussian_block(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller on consecutive uniform pairs."""
        if n == 0:
            return np.empty(0, dtype=np.float64)
        pairs = (n + 1) // 2
        u1 = ((self.u64_block(pairs) >> np.uint64(11)) + np.uint64(1)).astype(
            np.float64
        ) * 2.0**-53  # in (0, 1], keeps log() finite
        u2 = self.uniform_block(pairs)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = (2.0 * math.pi) * u2
        out = np.concatenate([r * np.cos(theta), r * np.sin(theta)])
        return out[:n]

    def randint_block(self, count: int, bound: int) -> np.ndarray:
        """count integers uniform in [0, bound). Modulo bias is < bound/2**64."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        z = self.u64_block(count)
        z %= np.uint64(bound)
        return z.view(np.int64)  # the values astype(np.int64) gives, uncopied

    def shuffled(self, items: list) -> list:
        """Fisher-Yates shuffle of a copy of items."""
        out = list(items)
        for i in range(len(out) - 1, 0, -1):
            j = self.next_u64() % (i + 1)
            out[i], out[j] = out[j], out[i]
        return out

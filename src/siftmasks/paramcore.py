"""Exact numeric substrate: flat parameter vectors, fixed-point accumulation,
bit-packed masks and sign vectors.

Masks and sign vectors share one packed type, ``BitMask``: a sign vector's
set bit means +1 and a clear bit -1, and ``signs`` gives its dense view.

Merged task vectors are held as 64-bit integers on a 2**-SCALE_BITS grid so
that subtracting a task vector is exactly inverse to having added it, in any
order. Serialization of packed bits follows a fixed layout: little-endian
32-bit words, bit i stored in word i // 32 at position i % 32, trailing pad
bits zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .prng import PrngStream

SCALE_BITS = 32  # fractional bits of the fixed-point grid
_ACC_LIMIT = 1 << 62  # accumulator entries must stay below this magnitude


class FxpOverflowError(OverflowError):
    """A fixed-point value left the representable range."""


def as_param_vector(values) -> np.ndarray:
    """Validate and return a flat float64 parameter vector."""
    x = np.ascontiguousarray(values, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"parameter vector must be 1-d, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        bad = int(np.flatnonzero(~np.isfinite(x))[0])
        raise ValueError(f"non-finite parameter at index {bad}")
    return x


@dataclass(frozen=True)
class FxpVector:
    """Signed 64-bit fixed-point vector with SCALE_BITS fractional bits."""

    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.int64)
        object.__setattr__(self, "values", v)
        if v.ndim != 1:
            raise ValueError("fixed-point vector must be 1-d")
        _check_acc_range(v)

    def __len__(self) -> int:
        return int(self.values.shape[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, FxpVector):
            return NotImplemented
        return bool(np.array_equal(self.values, other.values))

    @classmethod
    def zeros(cls, length: int) -> "FxpVector":
        return cls(np.zeros(length, dtype=np.int64))


def _check_acc_range(v: np.ndarray) -> None:
    over = np.abs(v) >= _ACC_LIMIT
    if over.any():
        bad = int(np.flatnonzero(over)[0])
        raise FxpOverflowError(f"fixed-point overflow at index {bad}")


def _check_compatible(a: FxpVector, b: FxpVector) -> None:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")


def quantize(x) -> FxpVector:
    """Quantize a real vector to the fixed-point grid (round half to even)."""
    x = as_param_vector(x)
    over = np.abs(x) >= 2.0 ** (62 - SCALE_BITS)
    if over.any():
        bad = int(np.flatnonzero(over)[0])
        raise FxpOverflowError(f"value at index {bad} out of quantization range")
    # Scaling by a power of two is exact in float64; rint rounds half to even.
    return FxpVector(np.rint(x * 2.0**SCALE_BITS).astype(np.int64))


def dequantize(v: FxpVector) -> np.ndarray:
    """Exact value of each entry as value / 2**SCALE_BITS in float64."""
    return v.values.astype(np.float64) * 2.0**-SCALE_BITS


def fxp_add(a: FxpVector, b: FxpVector) -> FxpVector:
    _check_compatible(a, b)
    # Inputs are below 2**62 in magnitude, so int64 addition cannot wrap.
    return FxpVector(a.values + b.values)


def fxp_sub(a: FxpVector, b: FxpVector) -> FxpVector:
    _check_compatible(a, b)
    return FxpVector(a.values - b.values)


def pack_bits(bits) -> np.ndarray:
    """Pack a boolean array into uint32 words (bit i -> word i//32, pos i%32)."""
    bits = np.ascontiguousarray(bits, dtype=bool)
    packed = np.packbits(bits, bitorder="little")
    pad = (-len(packed)) % 4
    if pad:
        packed = np.concatenate([packed, np.zeros(pad, dtype=np.uint8)])
    return packed.view("<u4").copy()

def unpack_bits(words: np.ndarray, length: int) -> np.ndarray:
    """Inverse of pack_bits; returns a boolean array of the given length, or
    from a stack of packed rows (K, words) the (K, length) rows in one call."""
    raw = np.ascontiguousarray(words, dtype="<u4").view(np.uint8)
    return np.unpackbits(raw, axis=-1, count=length, bitorder="little").view(bool)


def mask_words(length: int) -> int:
    """Storage size of a packed mask in 32-bit words."""
    return (length + 31) // 32


@dataclass(frozen=True)
class BitMask:
    """Bit-packed mask of a parameter vector; stores exactly ceil(M/32) words,
    whose pad bits are zero."""

    words: np.ndarray
    length: int

    def __post_init__(self):
        w = np.ascontiguousarray(self.words, dtype="<u4")
        object.__setattr__(self, "words", w)
        if w.shape[0] != mask_words(self.length):
            raise ValueError(
                f"mask of length {self.length} needs {mask_words(self.length)} words, "
                f"got {w.shape[0]}"
            )
        tail = self.length % 32
        if tail and w[-1] >> tail:
            raise ValueError(f"mask of length {self.length} has nonzero pad bits")

    @classmethod
    def from_bools(cls, bits) -> "BitMask":
        bits = np.ascontiguousarray(bits, dtype=bool)
        return cls(pack_bits(bits), len(bits))

    def to_bools(self) -> np.ndarray:
        return unpack_bits(self.words, self.length)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitMask):
            return NotImplemented
        return self.length == other.length and bool(
            np.array_equal(self.words, other.words)
        )


def mask_apply(mask: BitMask, x: np.ndarray) -> np.ndarray:
    """Entry i of the result is x[i] where the bit is set, else zero."""
    x = np.asarray(x)
    if x.shape[0] != mask.length:
        raise ValueError(f"length mismatch: mask {mask.length} vs vector {x.shape[0]}")
    return np.where(mask.to_bools(), x, x.dtype.type(0))


def signs(v: BitMask) -> np.ndarray:
    """Dense float64 view of a sign vector: +1.0 where the bit is set, -1.0
    elsewhere. ``bits * 2.0 - 1.0`` in place is exact, so these are the bytes
    of ``np.where(bits, 1.0, -1.0)``."""
    out = unpack_bits(v.words, v.length) * 2.0
    out -= 1.0
    return out


def gen_sign_vector(seed: int, length: int) -> BitMask:
    """Fair-coin sign vector, reproducible from (seed, length)."""
    if length <= 0:
        raise ValueError("sign vector length must be positive")
    stream = PrngStream(seed)
    n_words = mask_words(length)
    words = (stream.u64_block(n_words) & np.uint64(0xFFFFFFFF)).astype("<u4")
    # zero the pad bits so serialized bytes are canonical
    tail = length % 32
    if tail:
        words[-1] &= np.uint32((1 << tail) - 1)
    return BitMask(words, length)

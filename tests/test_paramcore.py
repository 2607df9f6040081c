import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siftmasks.paramcore import (
    SCALE_BITS,
    BitMask,
    FxpOverflowError,
    FxpVector,
    dequantize,
    fxp_add,
    fxp_sub,
    gen_sign_vector,
    mask_apply,
    mask_words,
    pack_bits,
    signs,
    quantize,
    unpack_bits,
)

in_range_floats = st.floats(
    min_value=-(2.0**29), max_value=2.0**29, allow_nan=False, allow_infinity=False
)


def test_quantize_examples():
    assert SCALE_BITS == 32
    assert quantize([0.5, 0.0, -0.25]).values.tolist() == [2147483648, 0, -1073741824]


def test_quantize_rounds_half_to_even():
    # values exactly halfway between grid points
    half = 2.0**-33
    # round to even 0, to even 2, and to even 0
    assert quantize([half, 3 * half, -half]).values.tolist() == [0, 2, 0]


def test_quantize_overflow_names_index():
    with pytest.raises(FxpOverflowError, match="index 2"):
        quantize(np.array([0.0, 1.0, 2.0**31]))


@given(st.lists(in_range_floats, min_size=1, max_size=50))
@settings(max_examples=60, deadline=None)
def test_quantize_roundtrip_bound(values):
    x = np.array(values)
    back = dequantize(quantize(x))
    assert np.all(np.abs(back - x) <= 2.0**-33)


def test_fxp_add_sub_examples():
    a = FxpVector(np.array([3], dtype=np.int64))
    b = FxpVector(np.array([-5], dtype=np.int64))
    s = fxp_add(a, b)
    assert s.values.tolist() == [-2]
    assert fxp_sub(s, b).values.tolist() == [3]
    zero = fxp_sub(a, a)
    assert not zero.values.any()


int_vectors = st.lists(
    st.integers(min_value=-(2**45), max_value=2**45), min_size=1, max_size=8
)


@given(int_vectors, st.data())
@settings(max_examples=60, deadline=None)
def test_fold_add_is_order_free_and_subtraction_exact(values, data):
    length = len(values)
    vecs = [
        FxpVector(np.array(data.draw(st.lists(
            st.integers(min_value=-(2**45), max_value=2**45),
            min_size=length, max_size=length)), dtype=np.int64))
        for _ in range(data.draw(st.integers(min_value=1, max_value=6)))
    ]
    order = data.draw(st.permutations(range(len(vecs))))
    total = FxpVector(np.zeros(length, dtype=np.int64))
    for i in order:
        total = fxp_add(total, vecs[i])
    plain = FxpVector(np.zeros(length, dtype=np.int64))
    for v in vecs:
        plain = fxp_add(plain, v)
    assert np.array_equal(total.values, plain.values)
    # removing any element equals the fold over the rest, bit-exactly
    drop = data.draw(st.integers(min_value=0, max_value=len(vecs) - 1))
    removed = fxp_sub(total, vecs[drop])
    rest = FxpVector(np.zeros(length, dtype=np.int64))
    for i, v in enumerate(vecs):
        if i != drop:
            rest = fxp_add(rest, v)
    assert np.array_equal(removed.values, rest.values)


def test_fxp_mismatch_errors():
    a = FxpVector(np.array([1], dtype=np.int64))
    b = FxpVector(np.array([1, 2], dtype=np.int64))
    with pytest.raises(ValueError, match="length mismatch"):
        fxp_add(a, b)


def test_fxp_overflow_detected():
    big = FxpVector(np.array([(1 << 62) - 1], dtype=np.int64))
    with pytest.raises(FxpOverflowError):
        fxp_add(big, big)


@given(st.integers(min_value=1, max_value=2000))
@settings(max_examples=60, deadline=None)
def test_mask_storage_is_ceil_m_over_32(length):
    mask = BitMask.from_bools(np.ones(length, dtype=bool))
    assert mask.words.shape[0] == mask_words(length) == (length + 31) // 32
    assert mask.to_bools().all() and mask.to_bools().shape == (length,)


def test_bit_layout_little_endian_words():
    # bit i lives in word i//32 at position i%32
    bits = np.zeros(70, dtype=bool)
    bits[0] = bits[33] = bits[69] = True
    words = pack_bits(bits)
    assert words.shape[0] == 3
    assert words[0] == 1
    assert words[1] == 1 << 1
    assert words[2] == 1 << 5
    assert np.array_equal(unpack_bits(words, 70), bits)


def test_mask_apply_examples():
    mask = BitMask.from_bools([1, 0, 1])
    x = np.array([2.0, 3.0, 4.0])
    assert mask_apply(mask, x).tolist() == [2.0, 0.0, 4.0]
    assert mask_apply(BitMask.from_bools([1, 1, 1]), x).tolist() == x.tolist()
    assert not mask_apply(BitMask.from_bools([0, 0, 0]), x).any()
    with pytest.raises(ValueError, match="length mismatch"):
        mask_apply(mask, np.zeros(4))


def test_mask_apply_preserves_integer_dtype():
    mask = BitMask.from_bools([0, 1])
    out = mask_apply(mask, np.array([7, 9], dtype=np.int64))
    assert out.dtype == np.int64
    assert out.tolist() == [0, 9]


def test_sign_vector_reproducible_and_binary():
    a = gen_sign_vector(1, 1000)
    b = gen_sign_vector(1, 1000)
    assert a == b
    assert set(np.unique(signs(a))) <= {-1.0, 1.0}
    assert gen_sign_vector(2, 1000) != a


def test_sign_vector_balance_seed1():
    # binomial concentration: fraction of +1 within 3 sigma of one half
    m = 100_000
    sv = gen_sign_vector(1, m)
    frac = (signs(sv) > 0).mean()
    assert abs(frac - 0.5) <= 3 * 0.5 / np.sqrt(m)


def test_sign_vector_pad_bits_zero():
    sv = gen_sign_vector(3, 37)
    assert int(sv.words[-1]) >> (37 % 32) == 0


def test_sign_vector_is_a_bitmask_of_its_plus_signs():
    sv = gen_sign_vector(5, 70)
    assert type(sv) is BitMask
    assert np.array_equal(sv.to_bools(), signs(sv) > 0)


@pytest.mark.parametrize("length, bit", [(33, 33), (33, 63), (1, 31), (63, 63)])
def test_mask_rejects_nonzero_pad_bits(length, bit):
    words = np.zeros(mask_words(length), dtype="<u4")
    words[bit // 32] = 1 << (bit % 32)
    with pytest.raises(ValueError, match="nonzero pad bits"):
        BitMask(words, length)
    words[-1] &= (1 << (length % 32)) - 1  # the same mask with its pad cleared
    assert BitMask(words, length).to_bools().dtype == bool
    full = np.full(mask_words(64), 0xFFFFFFFF, dtype="<u4")  # no pad bits at all
    assert BitMask(full, 64).to_bools().all()


@pytest.mark.parametrize("length", [1, 31, 33, 8_193, 17_154])
def test_signs_bytes_match_where(length):
    sv = gen_sign_vector(length, length)
    expected = np.where(unpack_bits(sv.words, length), 1.0, -1.0)
    assert signs(sv).tobytes() == expected.tobytes()


def test_signs_roundtrip_through_words():
    sv = gen_sign_vector(9, 75)
    rebuilt = BitMask(sv.words.copy(), 75)
    assert np.array_equal(signs(rebuilt), signs(sv))


def test_fxp_constructor_rejects_out_of_range():
    with pytest.raises(FxpOverflowError):
        FxpVector(np.array([1 << 62], dtype=np.int64))
    ok = FxpVector(np.array([(1 << 62) - 1], dtype=np.int64))
    assert ok.values[0] == (1 << 62) - 1

"""Merging and unmerging of task vectors, plus localization backends.

The merged state keeps the exact fixed-point sum of quantized task vectors
and the number of vectors in it, nothing more: which tasks are in it and
their masks are the caller's record (the engine's shards hold both).
``unmerge`` is the exact inverse of ``fold``, so removing a task by
subtraction is bit-identical to never having merged it, regardless of order.
Serving reads the unweighted average: the summed vector divided by the
retained count, once per state, and cached as ``mean``.

Localization backends:

* sign-fixed masks -- the per-task mask comes out of sign-fixed tuning and
  depends only on local data; localized model is
  ``m0 + (mask * mean + 0.0)``, with the bytes of ``summed * mask / n_retained``
  (``+ 0.0`` keeps -0.0 out).
* TALL masks -- ``bit i set iff |tau_t[i]| >= lambda_t * |tau_bar[i] - tau_t[i]|``;
  lambda is tuned by targeting mask densities, with an extra rescale alpha.
  Each entry's bit holds up to an exact threshold lambda, so one sort of the
  thresholds per task serves every density query of the bisection. A task's
  candidates are scored by stacked forward passes, bounded in size.
* EMR -- elects the per-entry sign of the summed vector, keeps the largest
  aligned magnitude as a unified vector, masks by sign agreement, and rescales
  to match each task's l1 norm.
* TIES -- trims each vector to its top-density entries by magnitude, elects a
  global per-entry sign, and averages the entries that agree with it. EMR and
  TIES build from one vector at a time, in running sums, maxima and counts.

Masked models are served as stacks (K, M) of K tasks, from one unpack of a
mask word table (K, ceil(M/32)), cast once to a float 0/1 mask that the
served vector is multiplied into; row k has the bits of serving task k alone.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .paramcore import (
    BitMask,
    FxpVector,
    dequantize,
    fxp_add,
    fxp_sub,
    mask_apply,
    mask_words,
    quantize,
    unpack_bits,
    word_table,
)
from .trainer import ModelSpec, TaskVector, accuracy

METHOD_TAGS = ("sift_masks", "ft_merge", "tall_masks", "emr", "ties", "central")

DENSITY_GRID_DEFAULT = (0.1, 0.3, 0.5, 0.7, 0.9)
ALPHA_GRID_DEFAULT = (0.8, 1.0, 1.2, 1.4, 1.6)
CENTRAL_MAX_STEPS_DEFAULT = 800  # central's cap on one pooled run's steps
# Bound on the entries of one stacked scoring pass, where a parameter vector
# costs its M entries and its widest activation, rows x the widest layer. It
# bounds both users: tall_tune's passes over a task's candidates and
# engine.evaluate's passes over a shard's tasks. Sized on a 2-vCPU Xeon
# (medians of 20-2000 calls): at M = 738 and 80 rows x 32 (lifecycle),
# scoring takes 47 us per candidate one at a time, 24 at 4 per pass, 18 at 16
# (52,768 entries) and 17-18 up to 50; from 26,000 entries per candidate up
# (800 rows, or 64-256-2 at 80 rows), a pass of several is no faster than one.
# The bound holds a lifecycle grid of 25, or 50 tasks of 20 eval rows, in one
# pass, and a pass's buffers stay near 1 MB each.
MAX_SCORE_ENTRIES = 1 << 17
TALL_BISECTION_STEPS = 60  # halvings of the TALL lambda bracket


@dataclass(frozen=True)
class LocalizationMethod:
    tag: str
    density_grid: tuple[float, ...] = DENSITY_GRID_DEFAULT
    alpha_grid: tuple[float, ...] = ALPHA_GRID_DEFAULT
    ties_density: float = 1.0
    central_max_steps: int = CENTRAL_MAX_STEPS_DEFAULT

    def __post_init__(self):
        if self.tag not in METHOD_TAGS:
            raise ValueError(f"unknown method tag {self.tag!r}")
        if not self.density_grid or not self.alpha_grid:
            raise ValueError("tuning grids must be nonempty")
        if any(not (0.0 < d <= 1.0) for d in self.density_grid):
            raise ValueError("density grid values must lie in (0, 1]")
        if any(not (0.0 < a < float("inf")) for a in self.alpha_grid):
            raise ValueError("alpha grid values must be finite and > 0")
        if not (0.0 < self.ties_density <= 1.0):
            raise ValueError("ties density must lie in (0, 1]")
        if not 0 <= self.central_max_steps < 2**32:  # a u32 checkpoint field
            raise ValueError("central_max_steps must lie in [0, 2**32)")
        object.__setattr__(self, "density_grid", tuple(self.density_grid))
        object.__setattr__(self, "alpha_grid", tuple(self.alpha_grid))


@dataclass(frozen=True)
class MergedState:
    """Exact sum of the retained task vectors and their count.

    ``n_retained`` is the averaging denominator. ``summed`` and ``mean`` are
    caches that ``==`` ignores and a new state starts without.
    """

    accumulator: FxpVector
    n_retained: int

    @property
    def length(self) -> int:
        return len(self.accumulator)

    @cached_property
    def summed(self) -> np.ndarray:
        """Read-only ``dequantize(accumulator)``, filled on first use; not a field."""
        summed = dequantize(self.accumulator)
        summed.flags.writeable = False
        return summed

    @cached_property
    def mean(self) -> np.ndarray:
        """Read-only ``dequantize(accumulator) / max(n_retained, 1)``, filled on
        first use; dequantized on its own, so sift and ft_merge cache one vector."""
        mean = dequantize(self.accumulator)
        mean /= max(self.n_retained, 1)
        mean.flags.writeable = False
        return mean


def merge(task_vectors: list[TaskVector], *, length: int | None = None) -> MergedState:
    """Fold task vectors into an exact fixed-point sum.

    The accumulator is invariant to the order of task_vectors.
    """
    ids = [tv.source_task for tv in task_vectors]
    if len(set(ids)) != len(ids):
        dup = sorted({i for i in ids if ids.count(i) > 1})
        raise ValueError(f"duplicate task ids in merge: {dup}")
    if task_vectors:
        length = task_vectors[0].delta.shape[0]
        for tv in task_vectors:
            if tv.delta.shape[0] != length:
                raise ValueError("task vectors have mismatched lengths")
    elif length is None:
        raise ValueError("merging zero vectors requires an explicit length")

    state = MergedState(FxpVector.zeros(length), 0)
    for tv in task_vectors:
        state = fold(state, quantize(tv.delta))
    return state


def fold(state: MergedState, quantized: FxpVector) -> MergedState:
    """``state`` with one more quantized vector in its sum, the add that
    ``merge`` makes for each vector: into a new accumulator, range-checked
    (``FxpOverflowError``) after the add.

    A sum folded in any order holds the same integers. The check is made on
    each partial sum, so where every vector's entries share one sign, a sum
    raises in any order iff its total leaves the range.
    """
    return MergedState(fxp_add(state.accumulator, quantized), state.n_retained + 1)


def unmerge(state: MergedState, quantized: FxpVector) -> MergedState:
    """``state`` with one quantized vector (``quantize(delta)``) taken out of
    its sum: the exact inverse of ``fold``. The caller checks that the vector
    is in the sum."""
    return MergedState(fxp_sub(state.accumulator, quantized), state.n_retained - 1)


def serve_merged(state: MergedState, m0: np.ndarray) -> np.ndarray:
    """Average merged model ``m0 + mean``; the base model when none is retained."""
    if state.n_retained == 0:
        return m0.copy()
    return m0 + state.mean


def localize_sift(state: MergedState, mask: BitMask, m0: np.ndarray) -> np.ndarray:
    """Masked average model under one task's mask."""
    if mask.length != state.length:
        raise ValueError(f"length mismatch: mask {mask.length} vs state {state.length}")
    return localize_stack(state, mask.words[None], m0)[0]


def localize_stack(
    state: MergedState, masks: np.ndarray, m0: np.ndarray,
    alpha: float | np.ndarray | None = None,
) -> np.ndarray:
    """Masked average models (K, M) of the K masks of a word table, from one
    unpack and one ``_masked_params`` call; ``alpha`` is one rescale, a
    column (K, 1) of them, or None for none."""
    return _masked_params(state, _mask_rows(masks, state.length), m0, alpha)


def _mask_rows(masks: np.ndarray, length: int) -> np.ndarray:
    """The (K, length) bools of a (K, ceil(length/32)) word table, unpacked in one call."""
    if masks.shape[-1] != mask_words(length):
        raise ValueError(f"length mismatch: masks of {masks.shape[-1]} words vs state {length}")
    return unpack_bits(masks, length)


def pass_size(spec: ModelSpec, length: int, rows: int) -> int:
    """Parameter vectors of ``length`` entries per stacked scoring pass on
    ``rows`` rows each, bounded by MAX_SCORE_ENTRIES; at least one."""
    return max(1, MAX_SCORE_ENTRIES // (length + max(rows, 1) * max(spec.widths[1:])))


def _masked_params(state: MergedState, bits: np.ndarray, m0: np.ndarray,
                   alpha: float | np.ndarray | None, out: np.ndarray | None = None):
    """``m0 + alpha * (summed where bits, else +0.0) / n``, served and tuned
    alike; adding 0.0 turns an unset bit's -0.0 (from a negative sum) to +0.0.
    The bits are cast once, contiguously, to a float 0/1 mask that the sum is
    multiplied into (``b * x == x * b``); a product with the bools would cast
    them chunk by chunk. Into ``out`` when given: a column of alphas (A, 1)
    and out (A, M) write each alpha's row with the bits of its own call.
    Without an alpha, the bytes of alpha 1.0 come from the cached ``mean``: a
    product by 1.0 changes no bit, and ``(s * b) / n == (s / n) * b`` for b in
    {0, 1} up to the sign of a zero, which the added 0.0 clears. With one, the
    division stays last: ``(s * b * alpha) / n`` may differ from
    ``(s / n) * b * alpha``."""
    term = np.empty(bits.shape) if out is None else out
    np.copyto(term, bits)
    if alpha is None:
        term *= state.mean
    else:
        term *= state.summed
        term *= alpha
        term /= max(state.n_retained, 1)
    term += 0.0
    return np.add(m0, term, out=term)


def _tall_terms(tau_t: TaskVector, state: MergedState) -> tuple[np.ndarray, np.ndarray]:
    """|tau_t| and |tau_bar - tau_t|, the two sides of the TALL comparison."""
    tau = tau_t.delta
    if tau.shape[0] != state.length:
        raise ValueError("length mismatch between task vector and merged state")
    return np.abs(tau), np.abs(state.summed - tau)


def _tall_thresholds(tau: np.ndarray, rest: np.ndarray) -> list[float]:
    """Every entry's TALL threshold, ascending.

    Entry i's threshold is the largest finite float lambda with
    ``fl(lambda * rest[i]) <= tau[i]``. Rounding is monotone, so entry i is
    in the mask at lambda iff lambda is at most its threshold, and the mask
    density at lambda is the share of thresholds >= lambda.

    Non-negative floats order like their bit patterns, so the thresholds are
    bisected on bit patterns, from a bracket of two ulps either side of
    ``tau / rest``; an entry whose bracket misses its threshold (as where
    the products are subnormal) searches all finite floats instead. That
    takes at most 64 rounds for any finite input.
    """
    end = np.float64(np.inf).view(np.int64)  # fails the test: inf * rest is inf or nan

    def holds(bits: np.ndarray) -> np.ndarray:
        return bits.view(np.float64) * rest <= tau

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        guess = np.fmin(tau / rest, np.finfo(np.float64).max).view(np.int64)
        lo = np.maximum(guess - 2, 0)
        lo[~holds(lo)] = 0  # lambda = 0 always holds
        hi = np.minimum(guess + 2, end)
        hi[holds(hi)] = end
        while (gap := hi - lo).max() > 1:
            mid = lo + gap // 2
            ok = holds(mid)
            lo = np.where(ok, mid, lo)
            hi = np.where(ok, hi, mid)
    return np.sort(lo.view(np.float64)).tolist()


def _tall_lambda(thresholds: list[float], target_density: float) -> float:
    """Bisect lambda so the TALL mask density lands closest to the target.

    Mask density is non-increasing in lambda; lambda = 0 gives the full mask.
    The density at x is (n - j) / n for the count j of thresholds below x. It
    exceeds the target iff j < j*, the smallest count at which it does not,
    that is iff x <= cutoff = thresholds[j* - 1]. So the bisection compares
    floats, and counts on the sorted thresholds only at its two ends.
    """
    if target_density >= 1.0:
        return 0.0
    n = len(thresholds)

    def density(lam: float) -> float:
        return (n - bisect_left(thresholds, lam)) / n

    # j* is n + 1 if even the empty mask's density exceeds the target
    j = bisect_left(range(n + 1), True, key=lambda j: not (n - j) / n > target_density)
    cutoff = thresholds[j - 1] if 0 < j <= n else (math.inf if j else -math.inf)
    lo, hi = 0.0, 1.0
    while hi <= cutoff and hi < 1e12:
        hi *= 2.0
    for _ in range(TALL_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if mid <= cutoff:
            lo = mid
        else:
            hi = mid
    return hi if abs(density(hi) - target_density) <= abs(density(lo) - target_density) else lo


def tall_mask(tau_t: TaskVector, state: MergedState, lambda_t: float) -> BitMask:
    """Bit i set iff |tau_t[i]| >= lambda_t * |tau_bar[i] - tau_t[i]|.
    Kept as the tests' reference for ``tall_tune``'s masks; perfbench/spans.py wraps it."""
    if lambda_t < 0:
        raise ValueError("lambda must be >= 0")
    tau, rest = _tall_terms(tau_t, state)
    return BitMask.from_bools(tau >= lambda_t * rest)


def tall_lambda_for_density(tau_t: TaskVector, state: MergedState, target_density: float) -> float:
    """Bisect lambda so the TALL mask density lands closest to the target;
    the lambda tall_tune tries for that target.
    Kept as the tests' reference for ``tall_tune``'s lambdas; perfbench/spans.py wraps it."""
    tau, rest = _tall_terms(tau_t, state)
    return _tall_lambda(_tall_thresholds(tau, rest), target_density)


def tall_tune(
    tau_t: TaskVector,
    state: MergedState,
    density_grid: tuple[float, ...],
    alpha_grid: tuple[float, ...],
    features: np.ndarray,
    labels: np.ndarray,
    spec: ModelSpec,
    m0: np.ndarray,
) -> tuple[float, float, BitMask]:
    """Grid-search (lambda, alpha) by accuracy on the given split.

    Candidate lambdas hit the density targets; ties break toward the smaller
    density, then the smaller alpha. Returns the winning lambda, alpha and
    mask. Candidates are built as ``localize_stack`` serves them, in that
    order, into one stack, and scored by one stacked ``accuracy`` call per
    pass, each row with the bits of scoring it alone. A pass holds
    ``pass_size`` candidates.
    """
    if not density_grid or not alpha_grid:
        raise ValueError("tuning grids must be nonempty")
    tau, rest = _tall_terms(tau_t, state)
    thresholds = _tall_thresholds(tau, rest)
    lams = [_tall_lambda(thresholds, target) for target in sorted(density_grid)]
    bits = [tau >= lam * rest for lam in lams]
    alphas = sorted(alpha_grid)
    column = np.array(alphas)[:, None]
    # candidate i is (lams[i // a], alphas[i % a]); a pass scores [start, stop)
    a, count = len(alphas), len(lams) * len(alphas)
    stack = np.empty((min(pass_size(spec, state.length, len(labels)), count), state.length))
    best, best_acc = 0, None
    for start in range(0, count, len(stack)):
        stop = min(start + len(stack), count)
        for t in range(start // a, (stop - 1) // a + 1):  # the pass's alphas of each lambda
            first, last = max(start, t * a), min(stop, t * a + a)
            _masked_params(state, bits[t], m0, column[first - t * a : last - t * a],
                           out=stack[first - start : last - start])
        scores = accuracy(stack[: stop - start], spec, features, labels)
        for i, acc in enumerate(scores.tolist(), start):
            if best_acc is None or acc > best_acc:
                best, best_acc = i, acc
    t, j = divmod(best, a)
    return lams[t], alphas[j], BitMask.from_bools(bits[t])


def emr_build(task_vectors: list[TaskVector]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elect signs from the sum, keep max aligned magnitudes, rescale per task.

    Returns the sign-elected unified vector (M,), the per-task l1 rescales
    (K,) and the word table of the sign-agreement masks (K, ceil(M/32)), with
    a row per vector in input order. Entries whose summed sign is exactly zero
    are dropped from the unified vector and from every mask.
    """
    if not task_vectors:
        raise ValueError("emr needs at least one task vector")
    # the engine's vectors are dequantized: this sum and the l1 norms below are exact in
    # any order, so at any dispatch level, while below 2**(53 - SCALE_BITS) = 2**21
    elected = np.sign(reduce(np.add, (tv.delta for tv in task_vectors)))
    # the aligned magnitudes are the entries of delta * elected > 0; + 0.0 clears a -0.0 max
    unified = elected * (reduce(np.maximum, (tv.delta * elected for tv in task_vectors), 0.0) + 0.0)

    masks = [BitMask.from_bools(tv.delta * unified > 0.0) for tv in task_vectors]
    kept = [np.linalg.norm(mask_apply(mask, unified), ord=1) for mask in masks]
    scales = [float(np.linalg.norm(tv.delta, ord=1) / k) if k > 0 else 1.0
              for tv, k in zip(task_vectors, kept)]
    return unified, np.array(scales), word_table(masks, len(unified))


def emr_localize(
    unified: np.ndarray, scales: np.ndarray, masks: np.ndarray, rows: list[int], m0: np.ndarray
) -> np.ndarray:
    """EMR models (K, M) of the tasks at K ``rows`` of the word table ``masks``
    and of ``scales``, from one unpack: row k holds the bytes of ``m0 +
    scale * mask_apply(mask, unified)``. The bits are cast to a float 0/1 mask
    and ``unified`` multiplied in; adding 0.0 turns an unset bit's -0.0 (over a
    negative entry) to the +0.0 that ``mask_apply`` gives, and no set bit sits
    on a zero entry, as a bit is set only where ``delta * unified > 0``."""
    term = _mask_rows(masks.take(rows, 0), len(unified)).astype(np.float64)
    term *= unified
    term += 0.0
    term *= scales.take(rows)[:, None]
    return np.add(m0, term, out=term)


def ties_trim(delta: np.ndarray, density: float) -> np.ndarray:
    """Keep the top ceil(density * M) entries by magnitude, zeroing the rest.

    Magnitude ties at the cut keep the lower index (stable ordering).
    """
    m = delta.shape[0]
    k = int(np.ceil(density * m))
    if k >= m:
        return delta.copy()
    order = np.argsort(-np.abs(delta), kind="stable")
    out = np.zeros_like(delta)
    keep = order[:k]
    out[keep] = delta[keep]
    return out


def ties_merge(task_vectors: list[TaskVector], density: float) -> np.ndarray:
    """Trim, elect per-entry signs, and average the sign-agreeing entries."""
    if not (0.0 < density <= 1.0):
        raise ValueError("density must lie in (0, 1]")
    if not task_vectors:
        raise ValueError("ties needs at least one task vector")
    # exact in any order for the engine's dequantized vectors, as in emr_build
    elected = np.sign(reduce(np.add, (ties_trim(tv.delta, density) for tv in task_vectors)))
    sums, counts = np.zeros(len(elected)), np.zeros(len(elected), np.int64)
    for tv in task_vectors:  # trimmed afresh; the agreeing magnitudes: trimmed * elected > 0
        aligned = np.maximum(ties_trim(tv.delta, density) * elected, 0.0)
        sums += aligned
        counts += aligned != 0.0
    return np.where(counts > 0, elected * sums / np.maximum(counts, 1), 0.0)

"""Merging and unmerging of task vectors, plus localization backends.

The merged state keeps the exact fixed-point sum of quantized task vectors,
the number of vectors in it and the served masks; which tasks are in it is
the caller's record (the engine's assignment and unlearned ids). Removing a
task by subtraction is bit-identical to never having merged it, regardless
of order. Serving divides the summed vector by the retained count (an
unweighted average).

Localization backends:

* sign-fixed masks -- the per-task mask comes out of sign-fixed tuning and
  depends only on local data; localized model is
  ``m0 + (summed * mask / n_retained + 0.0)``, where ``summed`` is the
  state's cached ``dequantize(accumulator)`` (``+ 0.0`` keeps -0.0 out).
* TALL masks -- ``bit i set iff |tau_t[i]| >= lambda_t * |tau_bar[i] - tau_t[i]|``;
  lambda is tuned by targeting mask densities, with an extra rescale alpha.
  Each entry's bit holds up to an exact threshold lambda, so one sort of the
  thresholds per task serves every density query of the bisection.
* EMR -- elects the per-entry sign of the summed vector, keeps the largest
  aligned magnitude as a unified vector, masks by sign agreement, and rescales
  to match each task's l1 norm.
* TIES -- trims each vector to its top-density entries by magnitude, elects a
  global per-entry sign, and averages the entries that agree with it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .paramcore import (
    BitMask,
    FxpVector,
    dequantize,
    fxp_add,
    fxp_sub,
    mask_apply,
    quantize,
)
from .trainer import ModelSpec, TaskVector, accuracy

METHOD_TAGS = ("sift_masks", "ft_merge", "tall_masks", "emr", "ties", "central")

DENSITY_GRID_DEFAULT = (0.1, 0.3, 0.5, 0.7, 0.9)
ALPHA_GRID_DEFAULT = (0.8, 1.0, 1.2, 1.4, 1.6)


@dataclass(frozen=True)
class LocalizationMethod:
    tag: str
    density_grid: tuple[float, ...] = DENSITY_GRID_DEFAULT
    alpha_grid: tuple[float, ...] = ALPHA_GRID_DEFAULT
    ties_density: float = 1.0

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
        object.__setattr__(self, "density_grid", tuple(self.density_grid))
        object.__setattr__(self, "alpha_grid", tuple(self.alpha_grid))


@dataclass(frozen=True)
class MergedState:
    """Exact sum of the retained task vectors, their count, and served masks.

    ``n_retained`` is the averaging denominator; ``masks`` holds the mask of
    each retained task that has one (sift, TALL and EMR masks).
    """

    accumulator: FxpVector
    n_retained: int
    masks: dict[int, BitMask]

    @property
    def length(self) -> int:
        return len(self.accumulator)

    @cached_property
    def summed(self) -> np.ndarray:
        """Read-only ``dequantize(accumulator)``, filled on first use; not a field."""
        summed = dequantize(self.accumulator)
        summed.flags.writeable = False
        return summed


def merge(
    task_vectors: list[TaskVector],
    masks: dict[int, BitMask] | None = None,
    *,
    length: int | None = None,
) -> MergedState:
    """Fold task vectors into an exact fixed-point sum.

    The accumulator is invariant to the order of task_vectors. Masks, when
    given, must cover exactly the merged ids.
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

    acc = FxpVector.zeros(length)
    for tv in task_vectors:
        acc = fxp_add(acc, quantize(tv.delta))

    if masks is not None and set(masks) != set(ids):
        raise ValueError("masks must cover exactly the merged task ids")
    return MergedState(accumulator=acc, n_retained=len(ids), masks=dict(masks or {}))


def unmerge(state: MergedState, tau_u: TaskVector) -> MergedState:
    """Subtract one task's quantized vector and drop its mask; the caller
    checks that the task is retained."""
    acc = fxp_sub(state.accumulator, quantize(tau_u.delta))
    masks = {t: m for t, m in state.masks.items() if t != tau_u.source_task}
    return MergedState(acc, state.n_retained - 1, masks)


def serve_merged(state: MergedState, m0: np.ndarray) -> np.ndarray:
    """Average merged model; the base model when nothing is retained."""
    if state.n_retained == 0:
        return m0.copy()
    return m0 + state.summed / state.n_retained


def localize_sift(state: MergedState, task_id: int, m0: np.ndarray) -> np.ndarray:
    """Masked average model for one retained task."""
    if task_id not in state.masks:
        raise KeyError(f"no stored mask for task {task_id}")
    return localize_masked(state, state.masks[task_id], m0)


def localize_masked(
    state: MergedState, mask: BitMask, m0: np.ndarray, alpha: float = 1.0
) -> np.ndarray:
    """Masked average model under an externally supplied mask and rescale."""
    if mask.length != state.length:
        raise ValueError(f"length mismatch: mask {mask.length} vs state {state.length}")
    return _masked_params(state, mask.to_bools(), m0, alpha)


def _masked_params(state: MergedState, bits: np.ndarray, m0: np.ndarray, alpha: float):
    """``m0 + alpha * (summed where bits, else +0.0) / n``, served and tuned
    alike; adding 0.0 turns an unset bit's -0.0 (from a negative sum) to +0.0."""
    term = state.summed * bits
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


def _tall_lambda(thresholds: list[float], target_density: float, iters: int = 60) -> float:
    """Bisect lambda so the TALL mask density lands closest to the target.

    Mask density is non-increasing in lambda; lambda = 0 gives the full mask.
    Each density is counted on the sorted thresholds.
    """
    if target_density >= 1.0:
        return 0.0
    n = len(thresholds)

    def density(lam: float) -> float:
        return (n - bisect_left(thresholds, lam)) / n

    lo, hi = 0.0, 1.0
    while density(hi) > target_density and hi < 1e12:
        hi *= 2.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if density(mid) > target_density:
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


def tall_lambda_for_density(
    tau_t: TaskVector, state: MergedState, target_density: float, iters: int = 60
) -> float:
    """Bisect lambda so the TALL mask density lands closest to the target;
    the lambda tall_tune tries for that target.
    Kept as the tests' reference for ``tall_tune``'s lambdas; perfbench/spans.py wraps it."""
    tau, rest = _tall_terms(tau_t, state)
    return _tall_lambda(_tall_thresholds(tau, rest), target_density, iters)


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
    mask. Candidates are built as ``localize_masked`` serves them.
    """
    if not density_grid or not alpha_grid:
        raise ValueError("tuning grids must be nonempty")
    tau, rest = _tall_terms(tau_t, state)
    thresholds = _tall_thresholds(tau, rest)
    best = None
    for target in sorted(density_grid):
        lam = _tall_lambda(thresholds, target)
        bits = tau >= lam * rest
        for alpha in sorted(alpha_grid):
            acc = accuracy(_masked_params(state, bits, m0, alpha), spec, features, labels)
            if best is None or acc > best[0]:
                best = (acc, lam, alpha, bits)
    return best[1], best[2], BitMask.from_bools(best[3])


@dataclass(frozen=True)
class EmrArtifacts:
    """Sign-elected unified vector and per-task l1 rescales.

    The per-task masks are served from the shard's ``MergedState.masks``.
    """

    unified: np.ndarray
    scales: dict[int, float]


def emr_build(task_vectors: list[TaskVector]) -> tuple[EmrArtifacts, dict[int, BitMask]]:
    """Elect signs from the sum, keep max aligned magnitudes, rescale per task.

    Returns the artifacts and each task's sign-agreement mask. Entries whose
    summed sign is exactly zero are dropped from the unified vector and from
    every mask.
    """
    if not task_vectors:
        raise ValueError("emr needs at least one task vector")
    deltas = np.stack([tv.delta for tv in task_vectors])
    elected = np.sign(deltas.sum(axis=0))
    aligned = np.where(np.sign(deltas) == elected, np.abs(deltas), 0.0)
    unified = elected * aligned.max(axis=0)

    masks: dict[int, BitMask] = {}
    scales: dict[int, float] = {}
    for tv in task_vectors:
        mask = BitMask.from_bools(tv.delta * unified > 0.0)
        kept = np.linalg.norm(mask_apply(mask, unified), ord=1)
        scale = float(np.linalg.norm(tv.delta, ord=1) / kept) if kept > 0 else 1.0
        masks[tv.source_task] = mask
        scales[tv.source_task] = scale
    return EmrArtifacts(unified=unified, scales=scales), masks


def emr_localize(emr: EmrArtifacts, task_id: int, mask: BitMask, m0: np.ndarray) -> np.ndarray:
    return m0 + emr.scales[task_id] * mask_apply(mask, emr.unified)


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
    trimmed = np.stack([ties_trim(tv.delta, density) for tv in task_vectors])
    elected = np.sign(trimmed.sum(axis=0))
    agree = (np.sign(trimmed) == elected) & (elected != 0)
    counts = agree.sum(axis=0)
    sums = np.where(agree, trimmed, 0.0).sum(axis=0)
    return np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)

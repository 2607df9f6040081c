"""Reference copies of the serve path as it was before the cached float sum.

Each function dequantizes the accumulator afresh and masks with ``np.where``
(through ``mask_apply``), so an unset bit contributes +0.0. Tests compare the
served bytes of the library against these.
"""

import numpy as np

from siftmasks.paramcore import BitMask, FxpVector, dequantize, mask_apply


def frozen_serve_merged(state, m0):
    if state.n_retained == 0:
        return m0.copy()
    return m0 + dequantize(state.accumulator) / state.n_retained


def frozen_localize_masked(state, mask, m0, alpha=1.0):
    masked = dequantize(FxpVector(mask_apply(mask, state.accumulator.values)))
    return m0 + alpha * masked / max(state.n_retained, 1)


def frozen_localize_sift(state, mask, m0):
    return frozen_localize_masked(state, mask, m0)


def frozen_emr_localize(unified, scale, mask, m0):
    return m0 + scale * mask_apply(mask, unified)


def frozen_serve_for_task(system, task_id):
    """The engine's per-method dispatch, on the frozen functions above."""
    tag = system.method.tag
    shard = next(s for s in system.shards if task_id in s.retained + s.unlearned)
    m0 = system.m0
    if tag == "ties":
        return m0 + shard.ties_vector
    if tag in ("ft_merge", "central") or task_id not in shard.retained:
        return frozen_serve_merged(shard.merged, m0)
    row = shard.retained.index(task_id)
    mask = BitMask(shard.masks[row], len(m0))
    if tag == "sift_masks":
        return frozen_localize_sift(shard.merged, mask, m0)
    if tag == "tall_masks":
        return frozen_localize_masked(shard.merged, mask, m0, shard.tall[row][1])
    return frozen_emr_localize(shard.unified, shard.scales[row], mask, m0)

"""Reference copies of the serve path as it was before the cached float sum.

Each function dequantizes the accumulator afresh and masks with ``np.where``
(through ``mask_apply``), so an unset bit contributes +0.0. Tests compare the
served bytes of the library against these.
"""

import numpy as np

from siftmasks.paramcore import FxpVector, dequantize, mask_apply


def frozen_serve_merged(state, m0):
    if state.n_retained == 0:
        return m0.copy()
    return m0 + dequantize(state.accumulator) / state.n_retained


def frozen_localize_masked(state, mask, m0, alpha=1.0):
    masked = dequantize(FxpVector(mask_apply(mask, state.accumulator.values)))
    return m0 + alpha * masked / max(state.n_retained, 1)


def frozen_localize_sift(state, mask, m0):
    return frozen_localize_masked(state, mask, m0)


def frozen_emr_localize(emr, task_id, mask, m0):
    return m0 + emr.scales[task_id] * mask_apply(mask, emr.unified)


def frozen_serve_for_task(system, task_id):
    """The engine's per-method dispatch, on the frozen functions above."""
    tag = system.method.tag
    shard = next(s for s in system.shards if task_id in s.retained + s.unlearned)
    m0 = system.m0
    if tag == "central":
        return shard.central_params
    if tag == "ties":
        return m0 + shard.ties_vector
    masks = shard.masks
    if tag == "ft_merge" or task_id not in masks:
        return frozen_serve_merged(shard.merged, m0)
    if tag == "sift_masks":
        return frozen_localize_sift(shard.merged, masks[task_id], m0)
    if tag == "tall_masks":
        return frozen_localize_masked(shard.merged, masks[task_id], m0, shard.tall[task_id][1])
    return frozen_emr_localize(shard.emr, task_id, masks[task_id], m0)

"""Reference copies of EMR and TIES as they were built from stacked vectors.

Each function stacks every vector into one (T, M) array and elects, aligns
and averages over the stack. Tests compare the bytes of the library's
one-vector-at-a-time builds against these.
"""

import numpy as np

from siftmasks.merging import ties_trim
from siftmasks.paramcore import BitMask, mask_apply, word_table


def frozen_emr_build(task_vectors):
    deltas = np.stack([tv.delta for tv in task_vectors])
    elected = np.sign(deltas.sum(axis=0))
    aligned = np.where(np.sign(deltas) == elected, np.abs(deltas), 0.0)
    unified = elected * aligned.max(axis=0)

    masks = [BitMask.from_bools(tv.delta * unified > 0.0) for tv in task_vectors]
    kept = [np.linalg.norm(mask_apply(mask, unified), ord=1) for mask in masks]
    scales = [float(np.linalg.norm(tv.delta, ord=1) / k) if k > 0 else 1.0
              for tv, k in zip(task_vectors, kept)]
    return unified, np.array(scales), word_table(masks, len(unified))


def frozen_ties_merge(task_vectors, density):
    trimmed = np.stack([ties_trim(tv.delta, density) for tv in task_vectors])
    elected = np.sign(trimmed.sum(axis=0))
    agree = (np.sign(trimmed) == elected) & (elected != 0)
    counts = agree.sum(axis=0)
    sums = np.where(agree, trimmed, 0.0).sum(axis=0)
    return np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)

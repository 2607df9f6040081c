"""Reference copy of the gradient kernel as it was before it was bound once
per lockstep chunk.

``frozen_loss_and_grad`` checks its inputs, builds its views, transposes and
index arrays on every call and computes the loss next to the gradient. Tests
compare the trainer's loss, gradient and trained bytes against it, so the
reference is not the code under test. Only the parameter layout (``_views``)
is shared with the library.
"""

import numpy as np

from siftmasks.trainer import _views


def _softmax_rows(logits):
    top = logits[..., :1].copy()
    for c in range(1, logits.shape[-1]):
        np.maximum(top, logits[..., c:c + 1], out=top)
    logits -= top
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


def _t(a):
    return a.swapaxes(-1, -2)


def frozen_loss_and_grad(params, spec, features, labels):
    """Mean softmax cross-entropy and its gradient; params (M,) or (K, M)."""
    stacked = np.ndim(params) == 2
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if not stacked:
        params = params[None]
        x = np.atleast_2d(x)[None]
        y = np.atleast_1d(y)[None]
    k, n, d = x.shape
    if n == 0:
        raise ValueError("batch must be nonempty")
    if d != spec.input_dim:
        raise ValueError(f"feature dim {d} != model input_dim {spec.input_dim}")
    if y.shape != (k, n):
        raise ValueError("features/labels length mismatch")
    if y.min() < 0 or y.max() >= spec.num_classes:
        bad = int(np.flatnonzero((y < 0) | (y >= spec.num_classes))[0])
        raise ValueError(
            f"label {y.flat[bad]} at batch index {bad % n} outside [0, {spec.num_classes})"
        )

    grad = np.empty_like(params)
    picked = (np.arange(k)[:, None], np.arange(n), y)
    if spec.kind == "logistic":
        w, b = _views(params, spec)
        gw, gb = _views(grad, spec)
        logits = x @ _t(w)
        logits += b[:, None]
        p = _softmax_rows(logits)
        loss = -np.log(p[picked]).sum(axis=-1)
        p[picked] -= 1.0
        np.matmul(_t(p), x, out=gw)
        gb[...] = p.sum(axis=-2)
    else:
        w1, b1, w2, b2 = _views(params, spec)
        g1, gb1, g2, gb2 = _views(grad, spec)
        hid = x @ _t(w1)
        hid += b1[:, None]
        np.tanh(hid, out=hid)
        logits = hid @ _t(w2)
        logits += b2[:, None]
        p = _softmax_rows(logits)
        loss = -np.log(p[picked]).sum(axis=-1)
        p[picked] -= 1.0
        np.matmul(_t(p), hid, out=g2)
        gb2[...] = p.sum(axis=-2)
        back = p @ w2
        hid *= hid
        np.subtract(1.0, hid, out=hid)
        back *= hid
        np.matmul(_t(back), x, out=g1)
        gb1[...] = back.sum(axis=-2)
    grad /= n
    if stacked:
        return loss / n, grad
    return float(loss[0] / n), grad[0]

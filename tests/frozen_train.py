"""Reference copies of the trainer's model code as it was when each model
kind had its own branch: the parameter layout, initialization, the forward
pass and the gradient kernel before it was bound once per lockstep chunk.

``frozen_loss_and_grad`` checks its inputs, builds its views, transposes and
index arrays on every call and computes the loss next to the gradient. Tests
compare the trainer's parameters, logits, loss, gradient and trained bytes
against these, so no reference imports layout code of the library.
"""

import numpy as np

from siftmasks.prng import PrngStream


def _views(params, spec):
    """(w, b) for logistic, (w1, b1, w2, b2) for the MLP; params (M,) or
    (K, M), with a leading task axis on every view of a stack."""
    d, c, h = spec.input_dim, spec.num_classes, spec.hidden_dim
    o1 = c * d if spec.kind == "logistic" else h * d
    o2 = o1 + h
    o3 = o2 + h * c
    if params.ndim == 2:
        k = params.shape[0]
        if spec.kind == "logistic":
            return params[:, :o1].reshape(k, c, d), params[:, o1:]
        return (
            params[:, :o1].reshape(k, h, d),
            params[:, o1:o2],
            params[:, o2:o3].reshape(k, c, h),
            params[:, o3:],
        )
    if spec.kind == "logistic":
        return params[:o1].reshape(c, d), params[o1:]
    return (
        params[:o1].reshape(h, d),
        params[o1:o2],
        params[o2:o3].reshape(c, h),
        params[o3:],
    )


def frozen_init_params(spec, seed):
    stream = PrngStream(seed)
    if spec.kind == "logistic":
        params = np.zeros(spec.input_dim * spec.num_classes + spec.num_classes)
        w, _ = _views(params, spec)
        w[...] = stream.gaussian_block(w.size).reshape(w.shape) / np.sqrt(spec.input_dim)
        return params
    d, h, c = spec.input_dim, spec.hidden_dim, spec.num_classes
    params = np.zeros(d * h + h + h * c + c)
    w1, _, w2, _ = _views(params, spec)
    w1[...] = stream.gaussian_block(w1.size).reshape(w1.shape) / np.sqrt(spec.input_dim)
    w2[...] = stream.gaussian_block(w2.size).reshape(w2.shape) / np.sqrt(spec.hidden_dim)
    return params


def frozen_predict_logits(params, spec, features):
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if spec.kind == "logistic":
        w, b = _views(params, spec)
        return x @ w.T + b
    w1, b1, w2, b2 = _views(params, spec)
    hidden = np.tanh(x @ w1.T + b1)
    return hidden @ w2.T + b2


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

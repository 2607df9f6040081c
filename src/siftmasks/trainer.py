"""Deterministic finetuning of small dense classifiers.

A model is one stack of dense layers, ``ModelSpec.widths`` wide, with tanh
between layers: the logistic model is the MLP without a hidden layer. Its
parameters are a flat vector, each layer's weight (out, in) then its bias.
Training optimizes the delta from the base parameters directly (the task
vector), with Adam, so the zero-step case is exactly the zero vector and
replays are bit-identical.
Sign-fixed tuning (SIFT) projects the delta onto the sign constraint after
every optimizer step; optimizer moments are left untouched. The projection
is branchless, a multiply by the agreement mask and a ``+ 0.0``, and exact
because a trained delta never holds -0.0 (see ``_zero_disagreeing``).

``finetune_stream`` trains a list of tasks in lockstep: bounded chunks of
tasks are stacked along a leading axis and stepped together by one loop,
whose every operation acts on each task's slice alone, so a task's bits are
those of training it by itself. It yields each chunk as it finishes, so a
caller that folds the vectors away holds one chunk, not every task.
``finetune_tasks`` collects the stream into a list in input order, and
``ft_finetune`` and ``sift_finetune`` are its one-task calls.

The gradient arithmetic exists once, in ``_gradient_kernel``. A chunk checks
its features once and binds the kernel to its buffers; its batches are drawn
and their labels checked in bounded blocks of steps, inside the step loop, so
memory does not grow with the step count. Each step then computes only the
gradient. ``loss_and_grad`` binds it for one checked batch and adds the loss.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .datasets import DataFormatError
from .paramcore import BitMask, as_param_vector, signs
from .prng import PrngStream, mix_seed

MODEL_KINDS = ("logistic", "mlp")
# Bound on the entries of one stacked (tasks, M) training array: lockstep
# training runs max(1, MAX_STACKED_ENTRIES // M) tasks at a time. Sized on a
# 2-vCPU Xeon at M = 738 (sift, 20 steps, batch 32; medians of 40 rounds):
# CPU time per finetune falls from 1.7 ms at one task per chunk to 0.6 ms at
# 8 and stays there up to 48 (0.58-0.61 ms at 8, 11, 16, 24 and 48), while
# the chunk's peak memory grows ~90 KB per task (1.0 MB at 11, 4.4 MB at 48).
# A chunk's batches are drawn in blocks of max(1, MAX_STACKED_ENTRIES // (K x
# rows)) steps, so a block's index arrays hold at most max(MAX_STACKED_ENTRIES,
# K x rows) entries whatever the step count.
MAX_STACKED_ENTRIES = 8192
# Adam's constants (Kingma & Ba's defaults): fixed by the code, not set by a
# run, since every replay must repeat the build's optimizer exactly
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    input_dim: int
    num_classes: int
    hidden_dim: int = 0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.input_dim < 1 or self.num_classes < 2:
            raise ValueError("need input_dim >= 1 and num_classes >= 2")
        if self.hidden_dim < (1 if self.kind == "mlp" else 0):
            raise ValueError("need hidden_dim >= 1 for mlp and >= 0 for logistic")
        if max(self.input_dim, self.hidden_dim, self.num_classes) >= 2**32:  # u32 in a checkpoint
            raise ValueError("need input_dim, hidden_dim and num_classes < 2**32")

    @property
    def widths(self) -> tuple[int, ...]:
        """Layer widths from input to logits."""
        hidden = (self.hidden_dim,) if self.kind == "mlp" else ()
        return (self.input_dim, *hidden, self.num_classes)

    @cached_property
    def _layout(self) -> tuple[tuple[int, int, int, tuple[int, int]], ...]:
        """Per layer, the offsets of its weight, bias and end, and the
        weight's (out, in) shape."""
        layers, end = [], 0
        for fan_in, fan_out in zip(self.widths, self.widths[1:]):
            w, b, end = end, end + fan_out * fan_in, end + fan_out * fan_in + fan_out
            layers.append((w, b, end, (fan_out, fan_in)))
        return tuple(layers)

    @property
    def param_count(self) -> int:
        return self._layout[-1][2]


@dataclass(frozen=True)
class TrainConfig:
    """A run's training settings; Adam's constants are the module's ``ADAM_*``."""

    steps: int = 20
    batch_size: int = 32
    learning_rate: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.steps < 0 or self.batch_size < 1 or not 0 < self.learning_rate < float("inf"):
            raise ValueError("need steps >= 0, batch_size >= 1, finite learning_rate > 0")
        if max(self.steps, self.batch_size) >= 2**32:  # u32 fields in a checkpoint
            raise ValueError("need steps and batch_size < 2**32")


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, shape: int | tuple[int, ...]) -> "AdamState":
        return cls(np.zeros(shape), np.zeros(shape), 0)


@dataclass(frozen=True)
class TaskVector:
    """Delta from the base parameters after finetuning one task."""

    delta: np.ndarray
    source_task: int
    steps_used: int

    def __post_init__(self):
        object.__setattr__(self, "delta", as_param_vector(self.delta))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TaskVector):
            return NotImplemented
        return self.source_task == other.source_task and bool(
            np.array_equal(self.delta, other.delta)
        )


def _views(params: np.ndarray, spec: ModelSpec) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each layer's (weight, bias) views of a vector (M,), or of a stack
    (K, M) with a leading task axis on every view.

    The vector case serves predictions, so each case keeps plain slices at
    the spec's precomputed offsets: one form for both (``params[..., a:b]``)
    doubled the cost of a vector's views.
    """
    views = []
    if params.ndim == 2:
        k = params.shape[0]
        for w, b, end, shape in spec._layout:
            views.append((params[:, w:b].reshape(k, *shape), params[:, b:end]))
    else:
        for w, b, end, shape in spec._layout:
            views.append((params[w:b].reshape(shape), params[b:end]))
    return views


def init_params(spec: ModelSpec, seed: int) -> np.ndarray:
    """Gaussian weights scaled by 1/sqrt(fan_in), zero biases; bit-reproducible."""
    stream = PrngStream(seed)
    params = np.zeros(spec.param_count)
    for w, _ in _views(params, spec):
        w[...] = stream.gaussian_block(w.size).reshape(w.shape) / np.sqrt(w.shape[1])
    return params


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, computed in place over ``logits``.

    The row max is taken column by column, elementwise: a max is exact in
    any order, and numpy's reduction over a short last axis is slow.
    """
    top = logits[..., :1].copy()
    for c in range(1, logits.shape[-1]):
        np.maximum(top, logits[..., c:c + 1], out=top)
    logits -= top
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


def predict_logits(params: np.ndarray, spec: ModelSpec, features: np.ndarray) -> np.ndarray:
    """Logits (rows, C) of a vector (M,), or (K, rows, C) of a stack (K, M).

    A stack scores K parameter vectors in one pass over shared features
    (rows, d), broadcast and never copied, or over features (K, rows, d),
    slice k for vector k: each layer is one matmul that runs the vector
    call's product on every slice, then the same bias add and tanh, so row k
    holds the bits of ``predict_logits(params[k], ...)`` on its features. Adds
    and tanh write in place: a fresh (K, rows, width) buffer per operation
    cost a stack more than the arithmetic.
    """
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    stacked = params.ndim == 2
    *hidden, (w, b) = _views(params, spec)
    for w_h, b_h in hidden:
        x = np.matmul(x, _t(w_h))
        x += b_h[:, None] if stacked else b_h
        np.tanh(x, out=x)
    x = np.matmul(x, _t(w))
    x += b[:, None] if stacked else b
    return x


def predict_labels(params: np.ndarray, spec: ModelSpec, features: np.ndarray) -> np.ndarray:
    return np.argmax(predict_logits(params, spec, features), axis=-1)


def accuracy(
    params: np.ndarray, spec: ModelSpec, features: np.ndarray, labels: np.ndarray
) -> float | np.ndarray:
    """Share of rows predicted right: a float for a vector (M,), one per row
    for a stack (K, M), each the float of scoring that row alone. A stack
    takes shared rows, features (rows, d) and labels (rows,), or rows of its
    own per parameter vector, features (K, rows, d) and labels (K, rows)."""
    rows = np.shape(labels)[-1]
    if rows == 0:
        return np.zeros(params.shape[0]) if params.ndim == 2 else 0.0
    right = predict_labels(params, spec, features) == labels
    if params.ndim == 2:  # exact counts in float64, then one rounding each
        return np.count_nonzero(right, axis=-1) / rows
    # the same float as np.mean over the booleans: an exact count, one rounding
    return int(np.count_nonzero(right)) / rows


def loss_and_grad(
    params: np.ndarray,
    spec: ModelSpec,
    features: np.ndarray,
    labels: np.ndarray,
) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean softmax cross-entropy and its analytic gradient.

    One batched pass: each gradient block is a single matrix product over the
    batch, so a call's arithmetic depends only on its inputs and repeated
    calls are bit-identical. A leading task axis stacks independent problems:
    params (K, M), features (K, n, d) and labels (K, n) give K losses and a
    (K, M) gradient, each slice bit-identical to the 2-D call on that slice.
    A 2-D call (params (M,), features (n, d)) is the K = 1 case and returns
    a float loss and an (M,) gradient. The gradient is the training loop's
    kernel (``_gradient_kernel``), bound for this one call.
    """
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
    _check_input_dim(d, spec)
    if y.shape != (k, n):
        raise ValueError("features/labels length mismatch")
    _check_labels(y, spec)

    grad = np.empty_like(params)
    picked = _gradient_kernel(params, grad, spec, n)(x, _class_positions(y, spec))
    loss = -np.log(picked).sum(axis=-1)
    if stacked:
        return loss / n, grad
    return float(loss[0] / n), grad[0]


def _check_input_dim(d: int, spec: ModelSpec) -> None:
    if d != spec.input_dim:
        raise ValueError(f"feature dim {d} != model input_dim {spec.input_dim}")


def _check_labels(y: np.ndarray, spec: ModelSpec) -> None:
    """Reject the first label outside [0, C) of batches y (..., rows)."""
    if y.min() < 0 or y.max() >= spec.num_classes:
        bad = int(np.flatnonzero((y < 0) | (y >= spec.num_classes))[0])
        raise ValueError(
            f"label {y.flat[bad]} at batch index {bad % y.shape[-1]} "
            f"outside [0, {spec.num_classes})"
        )


def _class_positions(y: np.ndarray, spec: ModelSpec) -> np.ndarray:
    """Flat index of each label's class in a step's (K, rows, C) probabilities,
    for batches y (..., K, rows)."""
    c = spec.num_classes
    return y + np.arange(0, y.shape[-2] * y.shape[-1] * c, c).reshape(y.shape[-2:])


def _gradient_kernel(params: np.ndarray, grad: np.ndarray, spec: ModelSpec, rows: int):
    """The gradient of the mean softmax cross-entropy, bound to stacked
    buffers params (K, M) and grad (K, M) and to batches of ``rows`` examples.

    Views, transposes, bias broadcasts, the activation and error buffers and
    the plan of the backward pass are made here, once. The returned
    ``step(x, positions)`` takes features (K, rows, d) and the
    ``_class_positions`` of their labels, writes the gradient at the current
    params into grad and returns the true-class probabilities (K, rows). It
    checks nothing: its callers check their inputs. A product written into a
    buffer has the bits of one allocated fresh, so a step's bits depend only
    on params and its inputs.
    """
    k = params.shape[0]
    layers, grads = _views(params, spec), _views(grad, spec)
    acts = [np.empty((k, rows, width)) for width in spec.widths[1:]]
    p, p_flat = acts[-1], acts[-1].reshape(-1)
    forward = [(_t(w), b[:, None], a) for (w, b), a in zip(layers, acts)]
    # the error at each layer's output: the probabilities less one at the
    # true class for the last, back-propagated through tanh below it; a
    # hidden layer's weight gradient is its error times its tanh input
    errs = [np.empty_like(a) for a in acts[:-1]] + [p]
    backward = [
        (errs[i], _t(errs[i]), acts[i - 1], layers[i][0], *grads[i], errs[i - 1])
        for i in range(len(layers) - 1, 0, -1)
    ]
    err0, err0_t, (g0, gb0) = errs[0], _t(errs[0]), grads[0]

    def step(x, positions):
        a = x
        for w_t, bias, out in forward:
            if a is not x:  # tanh between layers
                np.tanh(a, out=a)
            np.matmul(a, w_t, out=out)
            np.add(out, bias, out=out)
            a = out
        _softmax_rows(p)
        picked = p_flat[positions]
        p_flat[positions] = picked - 1.0
        for err, err_t, h, w, g_w, g_b, back in backward:
            np.matmul(err_t, h, out=g_w)
            g_b[...] = err.sum(axis=-2)
            np.matmul(err, w, out=back)
            np.multiply(h, h, out=h)
            np.subtract(1.0, h, out=h)
            np.multiply(back, h, out=back)
        np.matmul(err0_t, x, out=g0)
        gb0[...] = err0.sum(axis=-2)
        np.divide(grad, rows, out=grad)
        return picked

    return step


def _t(a: np.ndarray) -> np.ndarray:
    """Transpose of each matrix in a stack."""
    return a.swapaxes(-1, -2)


def adam_step(
    params: np.ndarray,
    grad: np.ndarray,
    state: AdamState,
    lr: float,
) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update under ``ADAM_BETA1``, ``ADAM_BETA2`` and
    ``ADAM_EPS``, in place on params and state.

    Every operation is elementwise, so a stacked (K, M) update gives each
    row the bits of a lone (M,) update. Returns params and state.
    """
    if params.shape != grad.shape:
        raise ValueError("params/grad length mismatch")
    if not np.isfinite(grad).all():  # from finite data, a diverged training run
        raise DataFormatError("non-finite gradient: training diverged")
    state.t += 1
    m, v = state.m, state.v
    step = (1.0 - ADAM_BETA1) * grad
    m *= ADAM_BETA1
    m += step
    np.multiply(grad, 1.0 - ADAM_BETA2, out=step)
    step *= grad
    v *= ADAM_BETA2
    v += step
    denom = v / (1.0 - ADAM_BETA2**state.t)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    np.divide(m, 1.0 - ADAM_BETA1**state.t, out=step)
    step *= lr
    step /= denom
    params -= step
    return params, state


def project_sign(tau: np.ndarray, v: BitMask) -> np.ndarray:
    """Zero every entry of finite tau whose sign disagrees with v. Idempotent.
    Every zero it returns is +0.0, a -0.0 input entry included.
    Kept as the tests' reference for ``_zero_disagreeing``; perfbench/spans.py wraps it."""
    if tau.shape[-1] != v.length:
        raise ValueError("length mismatch between delta and sign vector")
    out = tau.copy()
    _zero_disagreeing(out, signs(v))
    return out


def _zero_disagreeing(tau: np.ndarray, signs: np.ndarray) -> None:
    """In place: +0.0 wherever tau * signs < 0, without a masked write.

    The multiply by the agreement bools leaves -0.0 where a negative entry
    disagrees, and ``+= 0.0`` makes it +0.0. In the trainer that addition
    changes no other entry: tau starts at +0.0 and changes only by
    ``tau -= step`` and this projection, and in round-to-nearest ``x - y``
    is -0.0 only for x = -0.0 and y = +0.0, so tau never holds -0.0.
    """
    np.multiply(tau, tau * signs >= 0.0, out=tau)
    tau += 0.0


def _batch_blocks(tasks, cfg: TrainConfig, spec: ModelSpec):
    """Every step's batches of K tasks with equal batch rows, block by block.

    Yields (rows, positions), both (steps, K, rows), for blocks of at most
    max(1, MAX_STACKED_ENTRIES // (K * rows)) steps: each batch's indices
    into the tasks' concatenated examples, and the ``_class_positions`` of
    their labels, every label checked. Batches are uniform with replacement
    from the training split, the first ``n_train`` rows, drawn from one
    stream per task: draws are split-invariant, so the blocks hold the same
    SplitMix64 counters as one draw of batch_size per step. A split smaller
    than the batch size is used whole at every step, with no stream draws.
    """
    rows = min(cfg.batch_size, tasks[0].n_train)
    y_pool = np.concatenate([t.labels for t in tasks])
    offsets = np.cumsum([0] + [t.n_examples for t in tasks[:-1]])[:, None]
    streams = [PrngStream(mix_seed(cfg.seed, t.id)) for t in tasks]
    block = max(1, MAX_STACKED_ENTRIES // (len(tasks) * rows))
    for start in range(0, cfg.steps, block):
        steps = min(block, cfg.steps - start)
        batches = np.stack([
            np.broadcast_to(np.arange(rows), (steps, rows)) if t.n_train < cfg.batch_size
            else stream.randint_block(steps * rows, t.n_train).reshape(steps, rows)
            for t, stream in zip(tasks, streams)
        ], axis=1)
        batches += offsets
        drawn = y_pool[batches]
        _check_labels(drawn, spec)
        yield batches, _class_positions(drawn, spec)


def ft_finetune(task, m0: np.ndarray, spec: ModelSpec, cfg: TrainConfig) -> TaskVector:
    """Plain finetuning; returns the trained delta. Replay-identical."""
    return finetune_tasks([task], m0, spec, cfg)[0][0]


def sift_finetune(
    task, m0: np.ndarray, spec: ModelSpec, v: BitMask, cfg: TrainConfig
) -> tuple[TaskVector, BitMask]:
    """Sign-fixed finetuning; delta entries agree with v or are zero.

    The returned mask is exactly the nonzero support of the delta.
    """
    return finetune_tasks([task], m0, spec, cfg, v)[0]


def finetune_tasks(
    tasks, m0: np.ndarray, spec: ModelSpec, cfg: TrainConfig, v: BitMask | None = None
) -> list[tuple[TaskVector, BitMask | None]]:
    """Finetune every task from m0; sign-fixed under v when given.

    Returns (vector, mask) per task in input order; the mask is None without
    v. This collects ``finetune_stream``, whose chunks finish in another order.
    """
    out: list = [None] * len(tasks)
    for chunk in finetune_stream(tasks, m0, spec, cfg, v):
        for i, tv, mask in chunk:
            out[i] = (tv, mask)
    return out


def finetune_stream(
    tasks, m0: np.ndarray, spec: ModelSpec, cfg: TrainConfig, v: BitMask | None = None
):
    """Finetune every task from m0, sign-fixed under v when given, yielding
    each chunk as it finishes: a list of (input index, vector, mask), the mask
    None without v.

    Tasks train in lockstep, in chunks of tasks with equal batch rows and at
    most max(1, MAX_STACKED_ENTRIES // M) tasks. Every operation of a step
    acts on each task's slice alone, so a task's bits do not depend on the
    other tasks or on how they are chunked. The stream keeps no chunk once it
    is yielded: a consumer that drops a vector frees it.
    """
    if v is not None and v.length != m0.shape[0]:
        raise ValueError("sign vector length does not match parameter count")
    dense = None if v is None else signs(v)
    size = max(1, MAX_STACKED_ENTRIES // m0.shape[0])
    by_rows: dict[int, list[int]] = {}
    for i, task in enumerate(tasks):
        by_rows.setdefault(min(cfg.batch_size, task.n_train), []).append(i)
    for group in by_rows.values():
        for start in range(0, len(group), size):
            chunk = group[start : start + size]
            # no local holds the chunk while the next one trains
            yield [
                (i, TaskVector(tau, tasks[i].id, cfg.steps),
                 None if v is None else BitMask.from_bools(tau * dense > 0.0))
                for i, tau in zip(
                    chunk, _finetune_chunk([tasks[i] for i in chunk], m0, spec, cfg, dense)
                )
            ]


def _finetune_chunk(tasks, m0, spec, cfg, dense) -> np.ndarray:
    """Train K tasks with equal batch rows in lockstep; returns (K, M) deltas.

    The features are checked once and the gradient kernel is bound once to
    the chunk's buffers. Batches come block by block from ``_batch_blocks``,
    inside the step loop, so memory does not grow with the step count; a
    block's labels are checked before any of its steps. ``dense`` is the
    sign vector's ``signs`` view, or None for plain finetuning.
    """
    x_pool = np.concatenate([t.features for t in tasks])
    tau = np.zeros((len(tasks), m0.shape[0]))
    if not cfg.steps:
        return tau
    _check_input_dim(x_pool.shape[1], spec)
    # the first block is drawn before the step buffers are allocated: drawn
    # after them, it changed glibc's heap layout so that a 50-task call took
    # ~30% more page faults (800 against 600) and ~3% longer with two BLAS
    # threads, at lifecycle shape
    blocks = _batch_blocks(tasks, cfg, spec)
    first = next(blocks)
    params = np.empty_like(tau)
    grad = np.empty_like(tau)
    gradient = _gradient_kernel(params, grad, spec, min(cfg.batch_size, tasks[0].n_train))
    state = AdamState.zeros(tau.shape)
    # a diverging run overflows; adam_step raises on it, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for batches, positions in itertools.chain([first], blocks):
            for rows, picks in zip(batches, positions):
                np.add(m0, tau, out=params)
                gradient(x_pool[rows], picks)
                adam_step(tau, grad, state, cfg.learning_rate)
                if dense is not None:
                    _zero_disagreeing(tau, dense)
    return tau

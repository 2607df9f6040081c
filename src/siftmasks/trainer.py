"""Deterministic finetuning of small dense classifiers.

Models are flat parameter vectors over a fixed layout. Training optimizes the
delta from the base parameters directly (the task vector), with Adam, so the
zero-step case is exactly the zero vector and replays are bit-identical.
Sign-fixed tuning (SIFT) projects the delta onto the sign constraint after
every optimizer step; optimizer moments are left untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .paramcore import BitMask, SignVector, as_param_vector
from .prng import PrngStream, mix_seed

MODEL_KINDS = ("logistic", "mlp")


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
        if self.kind == "mlp" and self.hidden_dim < 1:
            raise ValueError("mlp requires hidden_dim >= 1")

    @property
    def param_count(self) -> int:
        d, c, h = self.input_dim, self.num_classes, self.hidden_dim
        if self.kind == "logistic":
            return d * c + c
        return d * h + h + h * c + c


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 20
    batch_size: int = 32
    learning_rate: float = 0.05
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.steps < 0 or self.batch_size < 1 or self.learning_rate <= 0:
            raise ValueError("need steps >= 0, batch_size >= 1, learning_rate > 0")


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, length: int) -> "AdamState":
        return cls(np.zeros(length), np.zeros(length), 0)


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


def _views(params: np.ndarray, spec: ModelSpec):
    d, c, h = spec.input_dim, spec.num_classes, spec.hidden_dim
    if spec.kind == "logistic":
        w = params[: c * d].reshape(c, d)
        b = params[c * d :]
        return w, b
    o1 = h * d
    o2 = o1 + h
    o3 = o2 + h * c
    return (
        params[:o1].reshape(h, d),
        params[o1:o2],
        params[o2:o3].reshape(c, h),
        params[o3:],
    )


def init_params(spec: ModelSpec, seed: int) -> np.ndarray:
    """Gaussian weights scaled by 1/sqrt(fan_in), zero biases; bit-reproducible."""
    stream = PrngStream(seed)
    params = np.zeros(spec.param_count)
    if spec.kind == "logistic":
        w, _ = _views(params, spec)
        w[...] = stream.gaussian_block(w.size).reshape(w.shape) / np.sqrt(
            spec.input_dim
        )
    else:
        w1, _, w2, _ = _views(params, spec)
        w1[...] = stream.gaussian_block(w1.size).reshape(w1.shape) / np.sqrt(
            spec.input_dim
        )
        w2[...] = stream.gaussian_block(w2.size).reshape(w2.shape) / np.sqrt(
            spec.hidden_dim
        )
    return params


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def predict_logits(params: np.ndarray, spec: ModelSpec, features: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if spec.kind == "logistic":
        w, b = _views(params, spec)
        return x @ w.T + b
    w1, b1, w2, b2 = _views(params, spec)
    hidden = np.tanh(x @ w1.T + b1)
    return hidden @ w2.T + b2


def predict_labels(params: np.ndarray, spec: ModelSpec, features: np.ndarray) -> np.ndarray:
    return np.argmax(predict_logits(params, spec, features), axis=1)


def accuracy(params: np.ndarray, spec: ModelSpec, features: np.ndarray, labels: np.ndarray) -> float:
    if len(labels) == 0:
        return 0.0
    return float(np.mean(predict_labels(params, spec, features) == labels))


def loss_and_grad(
    params: np.ndarray,
    spec: ModelSpec,
    features: np.ndarray,
    labels: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy and its analytic gradient.

    One batched pass: each gradient block is a single matrix product over the
    batch, so a call's arithmetic depends only on its inputs and repeated
    calls are bit-identical.
    """
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    y = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    n, d = x.shape
    if n == 0:
        raise ValueError("batch must be nonempty")
    if d != spec.input_dim:
        raise ValueError(f"feature dim {d} != model input_dim {spec.input_dim}")
    if y.shape[0] != n:
        raise ValueError("features/labels length mismatch")
    if y.min() < 0 or y.max() >= spec.num_classes:
        bad = int(np.flatnonzero((y < 0) | (y >= spec.num_classes))[0])
        raise ValueError(f"label {y[bad]} at batch index {bad} outside [0, {spec.num_classes})")

    grad = np.empty_like(params)
    rows = np.arange(n)
    if spec.kind == "logistic":
        w, b = _views(params, spec)
        gw, gb = _views(grad, spec)
        p = _softmax_rows(x @ w.T + b)
        loss = -np.log(p[rows, y]).sum()
        p[rows, y] -= 1.0
        gw[...] = p.T @ x
        gb[...] = p.sum(axis=0)
    else:
        w1, b1, w2, b2 = _views(params, spec)
        g1, gb1, g2, gb2 = _views(grad, spec)
        hid = np.tanh(x @ w1.T + b1)
        p = _softmax_rows(hid @ w2.T + b2)
        loss = -np.log(p[rows, y]).sum()
        p[rows, y] -= 1.0
        g2[...] = p.T @ hid
        gb2[...] = p.sum(axis=0)
        back = (p @ w2) * (1.0 - hid * hid)
        g1[...] = back.T @ x
        gb1[...] = back.sum(axis=0)
    grad /= n
    return float(loss / n), grad


def adam_step(
    params: np.ndarray,
    grad: np.ndarray,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update; returns new arrays, inputs untouched."""
    if params.shape != grad.shape:
        raise ValueError("params/grad length mismatch")
    if not np.all(np.isfinite(grad)):
        raise ValueError("non-finite gradient")
    t = state.t + 1
    m = beta1 * state.m + (1.0 - beta1) * grad
    v = beta2 * state.v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    new_params = params - lr * m_hat / (np.sqrt(v_hat) + eps)
    return new_params, AdamState(m, v, t)


def project_sign(tau: np.ndarray, v: SignVector) -> np.ndarray:
    """Zero every entry of tau whose sign disagrees with v. Idempotent."""
    if tau.shape[0] != v.length:
        raise ValueError("length mismatch between delta and sign vector")
    return np.where(tau * v.signs() < 0.0, 0.0, tau)


def _batches(task, cfg: TrainConfig):
    """Batch sampler: uniform with replacement from the training split.

    Falls back to the full training split (no stream draws) when it is
    smaller than the batch size.
    """
    x_train, y_train = task.train_xy()
    n = len(y_train)
    if n == 0:
        raise ValueError(f"task {task.id} has no training examples")
    stream = PrngStream(mix_seed(cfg.seed, task.id))

    def sample():
        if n < cfg.batch_size:
            return x_train, y_train
        idx = stream.randint_block(cfg.batch_size, n)
        return x_train[idx], y_train[idx]

    return sample


def ft_finetune(task, m0: np.ndarray, spec: ModelSpec, cfg: TrainConfig) -> TaskVector:
    """Plain finetuning; returns the trained delta. Replay-identical."""
    return _finetune(task, m0, spec, cfg, sign_vector=None)[0]


def sift_finetune(
    task, m0: np.ndarray, spec: ModelSpec, v: SignVector, cfg: TrainConfig
) -> tuple[TaskVector, BitMask]:
    """Sign-fixed finetuning; delta entries agree with v or are zero.

    The returned mask is exactly the nonzero support of the delta.
    """
    if v.length != m0.shape[0]:
        raise ValueError("sign vector length does not match parameter count")
    return _finetune(task, m0, spec, cfg, sign_vector=v)


def _finetune(task, m0, spec, cfg, sign_vector):
    tau = np.zeros_like(m0)
    state = AdamState.zeros(tau.shape[0])
    sample = _batches(task, cfg)
    for _ in range(cfg.steps):
        xb, yb = sample()
        _, grad = loss_and_grad(m0 + tau, spec, xb, yb)
        tau, state = adam_step(
            tau, grad, state, cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.eps
        )
        if sign_vector is not None:
            tau = project_sign(tau, sign_vector)
    if sign_vector is None:
        return TaskVector(tau, task.id, cfg.steps), None
    tau = project_sign(tau, sign_vector)  # idempotent; keeps the contract explicit
    mask = BitMask.from_bools(tau * sign_vector.signs() > 0.0)
    return TaskVector(tau, task.id, cfg.steps), mask

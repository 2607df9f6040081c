"""Lockstep training: stacked chunks of tasks give every task the bits of
training it alone, whatever the chunk size, task order or batch-row mix."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siftmasks import trainer
from siftmasks.datasets import HeterogeneityRegime, synth_generate
from siftmasks.engine import _digest, _pooled_task, build
from siftmasks.merging import LocalizationMethod
from siftmasks.paramcore import gen_sign_vector, quantize, signs
from siftmasks.prng import PrngStream, mix_seed
from siftmasks.trainer import (
    AdamState,
    ModelSpec,
    TrainConfig,
    adam_step,
    finetune_tasks,
    ft_finetune,
    init_params,
    loss_and_grad,
    sift_finetune,
)

from conftest import make_task
from frozen_train import frozen_init_params, frozen_loss_and_grad, frozen_predict_logits

SPECS = {
    "logistic": ModelSpec("logistic", 6, 3),
    "mlp": ModelSpec("mlp", 6, 3, hidden_dim=5),
    # M = 8,203: one task's row exceeds numpy's 8,192-entry buffers, as at
    # serve-delete's M = 17,154
    "wide-mlp": ModelSpec("mlp", 6, 3, hidden_dim=820),
}
CFG = TrainConfig(steps=7, batch_size=10, learning_rate=0.05, seed=21)
# training-split sizes: 5 and 7 fall back to the whole split (5 and 7 batch
# rows, two tasks with 5); the rest sample batches of 10
TRAIN_SIZES = {3: 12, 8: 5, 4: 30, 11: 7, 1: 10, 6: 40, 9: 5, 2: 25}


def single_task_reference(task, m0, spec, cfg, v=None):
    """One task at a time as the trainer ran before lockstep: one batch draw
    per step, the frozen gradient kernel, a functional Adam update and an
    ``np.where`` sign projection."""
    x_train, y_train = task.train_xy()
    n = len(y_train)
    stream = PrngStream(mix_seed(cfg.seed, task.id))
    tau = np.zeros_like(m0)
    m = np.zeros_like(m0)
    s2 = np.zeros_like(m0)
    for t in range(1, cfg.steps + 1):
        if n < cfg.batch_size:
            xb, yb = x_train, y_train
        else:
            idx = stream.randint_block(cfg.batch_size, n)
            xb, yb = x_train[idx], y_train[idx]
        _, grad = frozen_loss_and_grad(m0 + tau, spec, xb, yb)
        beta1, beta2 = trainer.ADAM_BETA1, trainer.ADAM_BETA2
        m = beta1 * m + (1.0 - beta1) * grad
        s2 = beta2 * s2 + (1.0 - beta2) * grad * grad
        m_hat = m / (1.0 - beta1**t)
        v_hat = s2 / (1.0 - beta2**t)
        tau = tau - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + trainer.ADAM_EPS)
        if v is not None:
            tau = np.where(tau * signs(v) < 0.0, 0.0, tau)
    return tau


def mixed_tasks():
    rng = np.random.default_rng(4)
    tasks = []
    for task_id, n_train in TRAIN_SIZES.items():
        x = rng.normal(size=(n_train + 3, 6))
        y = np.argmax(x[:, :3] + rng.normal(scale=0.5, size=(n_train + 3, 3)), axis=1)
        tasks.append(make_task(task_id, x, y, n_eval=3))
    return tasks


@pytest.mark.parametrize("kind", sorted(SPECS))
@pytest.mark.parametrize("signed", [False, True], ids=["ft", "sift"])
@pytest.mark.parametrize("chunk", [1, 3, "whole"])
@pytest.mark.parametrize("order", ["ascending", "reversed"])
def test_lockstep_matches_single_task_training(kind, signed, chunk, order, monkeypatch):
    spec = SPECS[kind]
    tasks = sorted(mixed_tasks(), key=lambda t: t.id, reverse=order == "reversed")
    size = len(tasks) if chunk == "whole" else chunk
    monkeypatch.setattr(trainer, "MAX_STACKED_ENTRIES", size * spec.param_count)
    m0 = init_params(spec, 3)
    v = gen_sign_vector(5, spec.param_count) if signed else None
    results = finetune_tasks(tasks, m0, spec, CFG, v)
    assert [tv.source_task for tv, _ in results] == [t.id for t in tasks]
    for task, (tv, mask) in zip(tasks, results):
        expected = single_task_reference(task, m0, spec, CFG, v)
        assert tv.delta.tobytes() == expected.tobytes(), task.id
        assert _digest(quantize(tv.delta)) == _digest(quantize(expected))
        assert tv.steps_used == CFG.steps
        if signed:
            assert np.array_equal(mask.to_bools(), expected * signs(v) > 0.0)
            assert (tv, mask) == sift_finetune(task, m0, spec, v, CFG)
        else:
            assert mask is None
            assert tv == ft_finetune(task, m0, spec, CFG)


@pytest.mark.parametrize("kind", ["logistic", "mlp"])
def test_pooled_many_step_training_matches_single_task_reference(kind):
    """Central's shape: the pooled training splits as one task, trained for
    hundreds of steps."""
    spec = SPECS[kind]
    pooled = _pooled_task(mixed_tasks())
    cfg = replace(CFG, steps=240, batch_size=32)
    m0 = init_params(spec, 3)
    tv = ft_finetune(pooled, m0, spec, cfg)
    assert tv.delta.tobytes() == single_task_reference(pooled, m0, spec, cfg).tobytes()


def with_label(task, index, label):
    labels = task.labels.copy()
    labels[index] = label
    return make_task(task.id, task.features, labels, n_eval=task.n_eval)


@pytest.mark.parametrize("label", [3, -1])
def test_drawn_label_out_of_range_named_in_a_stacked_chunk(label):
    # tasks 8 and 9 train together on their whole 5-row split at every step
    tasks = [t if t.id != 9 else with_label(t, 2, label) for t in mixed_tasks()]
    with pytest.raises(ValueError, match=rf"label {label} at batch index 2 outside \[0, 3\)"):
        finetune_tasks(tasks, init_params(SPECS["mlp"], 3), SPECS["mlp"], CFG)


def test_label_out_of_range_only_in_the_eval_split_still_trains():
    spec = SPECS["mlp"]
    m0 = init_params(spec, 3)
    tasks = mixed_tasks()
    # each task's last 3 examples are its eval split, never drawn
    marked = [with_label(t, t.n_examples - 1, 7) for t in tasks]
    for (got, _), (want, _) in zip(finetune_tasks(marked, m0, spec, CFG),
                                   finetune_tasks(tasks, m0, spec, CFG)):
        assert got.delta.tobytes() == want.delta.tobytes()


@pytest.mark.parametrize("steps_per_block", [1, 3, 7, 100])
@pytest.mark.parametrize("rows", [10, 5])
def test_batch_blocks_concatenate_to_one_whole_draw(steps_per_block, rows, monkeypatch):
    """Blocks of 1, 3 (two full and a remainder of 1) and 7 or more steps
    join to one draw of every step's batch, for a chunk that samples and one
    that uses its whole split; nothing trains."""
    spec = SPECS["logistic"]
    cfg = replace(CFG, steps=7)
    tasks = [t for t in mixed_tasks() if min(cfg.batch_size, t.n_train) == rows]
    monkeypatch.setattr(trainer, "MAX_STACKED_ENTRIES", steps_per_block * len(tasks) * rows)
    blocks = list(trainer._batch_blocks(tasks, cfg, spec))
    assert [len(b) for b, _ in blocks][0] == min(steps_per_block, cfg.steps)
    batches = np.concatenate([b for b, _ in blocks])
    positions = np.concatenate([p for _, p in blocks])
    start = 0
    for k, task in enumerate(tasks):
        if task.n_train < cfg.batch_size:
            whole = np.broadcast_to(np.arange(task.n_train), (cfg.steps, rows))
        else:
            stream = PrngStream(mix_seed(cfg.seed, task.id))
            whole = stream.randint_block(cfg.steps * rows, task.n_train).reshape(cfg.steps, rows)
        assert np.array_equal(batches[:, k] - start, whole)
        assert np.array_equal(positions[:, k], task.labels[whole] + 3 * np.arange(k * rows, (k + 1) * rows))
        start += task.n_examples


def test_batch_blocks_memory_does_not_grow_with_steps():
    """Two lifecycle-shape tasks (100 examples, the 20-32-2 MLP, batch 32):
    iterating 200,000 steps peaks within 1 MB of 2,000 (~0.4 MB each), where
    drawing every step at once held three 102 MB arrays: indices, labels and
    class positions."""
    regime = HeterogeneityRegime("conflicting", conflict_rate=0.5, margin=1.0)
    tasks = synth_generate(regime, 2, 100, 20, 2, seed=3)
    spec = ModelSpec("mlp", 20, 2, hidden_dim=32)

    def peak(steps):
        cfg = TrainConfig(steps=steps, batch_size=32, seed=5)
        tracemalloc.start()
        try:
            for _ in trainer._batch_blocks(tasks, cfg, spec):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(200_000) - peak(2_000) < 1 << 20


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the error alone reports divergence
def test_non_finite_gradient_during_training_raises():
    tasks = mixed_tasks()
    task = tasks[0]
    features = task.features.copy()
    features[:task.n_train] = np.inf
    tasks[0] = make_task(task.id, features, task.labels, n_eval=task.n_eval)
    with pytest.raises(ValueError, match="non-finite gradient"):
        finetune_tasks(tasks, init_params(SPECS["mlp"], 3), SPECS["mlp"], CFG)


def test_chunks_group_equal_batch_rows_up_to_the_bound(monkeypatch):
    spec = SPECS["logistic"]
    chunks = []
    train_chunk = trainer._finetune_chunk

    def recording(tasks, *args):
        chunks.append([t.id for t in tasks])
        return train_chunk(tasks, *args)

    monkeypatch.setattr(trainer, "_finetune_chunk", recording)
    m0 = init_params(spec, 3)
    finetune_tasks(mixed_tasks(), m0, spec, CFG)  # the default bound holds all
    # 10 batch rows: tasks 3, 4, 1, 6, 2; 5 rows: 8, 9; 7 rows: 11
    assert chunks == [[3, 4, 1, 6, 2], [8, 9], [11]]
    chunks.clear()
    monkeypatch.setattr(trainer, "MAX_STACKED_ENTRIES", 4 * spec.param_count - 1)
    finetune_tasks(mixed_tasks(), m0, spec, CFG)
    assert chunks == [[3, 4, 1], [6, 2], [8, 9], [11]]


def test_zero_steps_and_empty_list():
    spec = SPECS["mlp"]
    m0 = init_params(spec, 3)
    v = gen_sign_vector(5, spec.param_count)
    assert finetune_tasks([], m0, spec, CFG, v) == []
    results = finetune_tasks(mixed_tasks(), m0, spec, TrainConfig(steps=0, batch_size=10), v)
    assert all(not tv.delta.any() and not mask.to_bools().any() for tv, mask in results)


@pytest.mark.parametrize("kind, hidden", [("logistic", 0), ("mlp", 8), ("mlp", 1)])
@pytest.mark.parametrize("classes", [2, 3])
@pytest.mark.parametrize("rows", [1, 7, 32])
@pytest.mark.parametrize("stack", [1, 3, 11])
def test_stacked_kernel_slices_match_2d_call(kind, hidden, classes, rows, stack):
    spec = ModelSpec(kind, 10, classes, hidden_dim=hidden)
    rng = np.random.default_rng(rows * 100 + stack)
    params = rng.normal(size=(stack, spec.param_count)) * 0.4
    x = rng.normal(size=(stack, rows, 10))
    y = rng.integers(0, classes, size=(stack, rows))
    losses, grads = loss_and_grad(params, spec, x, y)
    assert losses.shape == (stack,) and grads.shape == params.shape
    for k in range(stack):
        loss, grad = loss_and_grad(params[k], spec, x[k], y[k])
        assert losses[k] == loss
        assert grads[k].tobytes() == grad.tobytes()


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["logistic", "mlp"]),
    dims=st.tuples(st.integers(1, 24), st.integers(1, 40), st.integers(2, 5)),
    rows=st.integers(1, 40),
    stack=st.one_of(st.none(), st.integers(1, 12)),
    scale=st.sampled_from([0.1, 1.0, 8.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_loss_and_grad_bytes_match_the_frozen_kernel(kind, dims, rows, stack, scale, seed):
    d, h, c = dims
    spec = ModelSpec(kind, d, c, hidden_dim=h if kind == "mlp" else 0)
    rng = np.random.default_rng(seed)
    lead = () if stack is None else (stack,)
    params = rng.normal(size=(*lead, spec.param_count)) * scale
    x = rng.normal(size=(*lead, rows, d))
    y = rng.integers(0, c, size=(*lead, rows))
    loss, grad = loss_and_grad(params, spec, x, y)
    want_loss, want_grad = frozen_loss_and_grad(params, spec, x, y)
    assert type(loss) is type(want_loss)
    assert np.asarray(loss).tobytes() == np.asarray(want_loss).tobytes()
    assert grad.tobytes() == want_grad.tobytes()


@pytest.mark.parametrize(
    "spec, stack",
    [
        (ModelSpec("logistic", 10, 3), None),
        (ModelSpec("mlp", 6, 3, hidden_dim=1), None),
        (ModelSpec("mlp", 20, 2, hidden_dim=8), 3),
        (ModelSpec("mlp", 20, 2, hidden_dim=32), None),
        # 12 x 738 = 8,856 stacked entries, past numpy's 8,192-entry buffers
        (ModelSpec("mlp", 20, 2, hidden_dim=32), 12),
    ],
    ids=["logistic", "mlp-h1", "mlp-h8-stack3", "mlp-h32", "mlp-h32-stack12"],
)
def test_model_bytes_match_the_frozen_layout(spec, stack):
    """Initial parameters, logits, loss and gradient keep the bytes of the
    per-kind code, whose layout no fixture pins for the MLP."""
    m0 = init_params(spec, 17)
    assert m0.tobytes() == frozen_init_params(spec, 17).tobytes()
    rng = np.random.default_rng(spec.param_count)
    x = rng.normal(size=(33, spec.input_dim))
    y = rng.integers(0, spec.num_classes, size=33)
    params = m0 + rng.normal(size=m0.shape) * 0.3
    logits = trainer.predict_logits(params, spec, x)
    assert logits.tobytes() == frozen_predict_logits(params, spec, x).tobytes()
    if stack is not None:
        params = params + rng.normal(size=(stack, spec.param_count)) * 0.3
        x = np.broadcast_to(x, (stack, *x.shape)) * rng.normal(size=(stack, 1, 1))
        y = rng.integers(0, spec.num_classes, size=(stack, 33))
    loss, grad = loss_and_grad(params, spec, x, y)
    want_loss, want_grad = frozen_loss_and_grad(params, spec, x, y)
    assert np.asarray(loss).tobytes() == np.asarray(want_loss).tobytes()
    assert grad.tobytes() == want_grad.tobytes()


def test_stacked_adam_rows_match_lone_updates():
    rng = np.random.default_rng(8)
    params = rng.normal(size=(4, 16))
    stacked = AdamState.zeros(params.shape)
    lone = [AdamState.zeros(16) for _ in range(4)]
    rows = [p.copy() for p in params]
    for _ in range(3):
        grad = rng.normal(size=(4, 16))
        adam_step(params, grad, stacked, lr=0.05)
        for k in range(4):
            adam_step(rows[k], grad[k], lone[k], lr=0.05)
    for k in range(4):
        assert params[k].tobytes() == rows[k].tobytes()
        assert stacked.m[k].tobytes() == lone[k].m.tobytes()
        assert stacked.v[k].tobytes() == lone[k].v.tobytes()


@pytest.mark.parametrize("tag", ["sift_masks", "ft_merge"])
def test_build_independent_of_chunk_size(tag, monkeypatch):
    regime = HeterogeneityRegime("conflicting", conflict_rate=0.5, margin=1.0)
    tasks = synth_generate(regime, 9, 30, 10, 3, seed=11)
    spec = ModelSpec("mlp", 10, 3, hidden_dim=4)
    cfg = TrainConfig(steps=6, batch_size=8, learning_rate=0.05, seed=3)
    systems = []
    for size in (1, 4, 9):
        monkeypatch.setattr(trainer, "MAX_STACKED_ENTRIES", size * spec.param_count)
        system, _ = build(LocalizationMethod(tag), tasks, spec, cfg, base_seed=1, sign_seed=2)
        systems.append(system)
    first = systems[0]
    for other in systems[1:]:
        assert other.replay_digests == first.replay_digests
        assert np.array_equal(other.shards[0].merged.accumulator.values,
                              first.shards[0].merged.accumulator.values)
        assert np.array_equal(other.shards[0].masks, first.shards[0].masks)

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siftmasks.paramcore import gen_sign_vector, signs
from siftmasks.trainer import (
    AdamState,
    ModelSpec,
    TrainConfig,
    _batch_blocks,
    _softmax_rows,
    _zero_disagreeing,
    accuracy,
    adam_step,
    ft_finetune,
    init_params,
    loss_and_grad,
    predict_labels,
    predict_logits,
    project_sign,
    sift_finetune,
)

from conftest import make_task
from frozen_train import _views


def central_difference_grad(params, spec, x, y, indices, h=1e-4):
    """Independent oracle: symmetric finite differences of the loss."""
    out = {}
    for i in indices:
        hi = params.copy()
        lo = params.copy()
        hi[i] += h
        lo[i] -= h
        out[i] = (loss_and_grad(hi, spec, x, y)[0] - loss_and_grad(lo, spec, x, y)[0]) / (2 * h)
    return out


def loop_loss_and_grad(params, spec, x, y):
    """Reference: the per-example loop the batched kernel replaced."""

    def softmax(logits):
        e = np.exp(logits - logits.max())
        return e / e.sum()

    grad = np.zeros_like(params)
    loss = 0.0
    if spec.kind == "logistic":
        w, b = _views(params, spec)
        gw, gb = _views(grad, spec)
        for xi, yi in zip(x, y):
            p = softmax(w @ xi + b)
            loss -= np.log(p[yi])
            p[yi] -= 1.0
            gw += np.outer(p, xi)
            gb += p
    else:
        w1, b1, w2, b2 = _views(params, spec)
        g1, gb1, g2, gb2 = _views(grad, spec)
        for xi, yi in zip(x, y):
            hvec = np.tanh(w1 @ xi + b1)
            p = softmax(w2 @ hvec + b2)
            loss -= np.log(p[yi])
            p[yi] -= 1.0
            g2 += np.outer(p, hvec)
            gb2 += p
            back = (w2.T @ p) * (1.0 - hvec * hvec)
            g1 += np.outer(back, xi)
            gb1 += back
    return loss / len(y), grad / len(y)


@pytest.mark.parametrize("classes", range(1, 11))
def test_softmax_rows_matches_numpy_reductions(classes):
    gen = np.random.default_rng(classes)
    for shape in ((1, classes), (32, classes), (11, 32, classes)):
        logits = gen.normal(size=shape) * gen.choice([1e-3, 1.0, 60.0], size=shape)
        logits[gen.random(shape) < 0.1] = -0.0
        want = logits - logits.max(axis=-1, keepdims=True)
        np.exp(want, out=want)
        want /= want.sum(axis=-1, keepdims=True)
        assert np.array_equal(_softmax_rows(logits.copy()).view(np.int64), want.view(np.int64))


def test_param_count_formulas():
    assert ModelSpec("logistic", 7, 4).param_count == 7 * 4 + 4
    assert ModelSpec("mlp", 7, 4, hidden_dim=5).param_count == 7 * 5 + 5 + 5 * 4 + 4


def test_init_deterministic_and_seed_sensitive(small_mlp):
    a = init_params(small_mlp, 5)
    b = init_params(small_mlp, 5)
    c = init_params(small_mlp, 6)
    assert np.array_equal(a, b)
    assert a.shape[0] == small_mlp.param_count
    assert np.any(a != c)


def test_zero_params_uniform_loss(small_logistic):
    x = np.random.default_rng(0).normal(size=(4, 10))
    y = np.array([0, 1, 2, 0])
    loss, grad = loss_and_grad(np.zeros(small_logistic.param_count), small_logistic, x, y)
    assert loss == pytest.approx(np.log(3), abs=1e-12)
    assert grad.shape[0] == small_logistic.param_count


@pytest.mark.parametrize("kind,hidden", [("logistic", 0), ("mlp", 8)])
def test_gradient_matches_central_differences(kind, hidden):
    spec = ModelSpec(kind, 10, 3, hidden_dim=hidden)
    rng = np.random.default_rng(42)
    params = rng.normal(size=spec.param_count) * 0.4
    x = rng.normal(size=(9, 10))
    y = rng.integers(0, 3, size=9)
    _, grad = loss_and_grad(params, spec, x, y)
    idx = rng.choice(spec.param_count, size=min(100, spec.param_count), replace=False)
    fd = central_difference_grad(params, spec, x, y, idx)
    rel = [abs(fd[i] - grad[i]) / max(abs(fd[i]), 1e-12) for i in idx]
    assert max(rel) <= 1e-4


@pytest.mark.parametrize("kind,hidden", [("logistic", 0), ("mlp", 8)])
@pytest.mark.parametrize("batch_size", [1, 7, 32, 64])
def test_batched_kernel_matches_per_example_loop(kind, hidden, batch_size):
    # batches come from the training sampler; 64 exceeds the 40-example
    # training split, so that case is the full-split fallback
    spec = ModelSpec(kind, 10, 3, hidden_dim=hidden)
    task = _toy_task(n=48, n_eval=8, seed=batch_size)
    batches, _ = next(_batch_blocks([task], TrainConfig(batch_size=batch_size, seed=5), spec))
    rows = batches[0, 0]  # the first step's batch of the one task
    x, y = task.features[rows], task.labels[rows]
    assert len(y) == min(batch_size, 40)
    params = np.random.default_rng(batch_size).normal(size=spec.param_count) * 0.4
    loss, grad = loss_and_grad(params, spec, x, y)
    ref_loss, ref_grad = loop_loss_and_grad(params, spec, x, y)
    np.testing.assert_allclose(loss, ref_loss, rtol=1e-12)
    np.testing.assert_allclose(grad, ref_grad, rtol=1e-12)


def test_replay_digest_independent_of_blas_threads():
    script = (
        "from siftmasks.datasets import HeterogeneityRegime, synth_generate\n"
        "from siftmasks.engine import _digest\n"
        "from siftmasks.paramcore import gen_sign_vector, quantize\n"
        "from siftmasks.trainer import ModelSpec, TrainConfig, init_params, sift_finetune\n"
        "regime = HeterogeneityRegime('conflicting', conflict_rate=0.5, margin=1.0)\n"
        "task = synth_generate(regime, 1, 200, 64, 2, seed=3)[0]\n"
        "spec = ModelSpec('mlp', 64, 2, hidden_dim=256)\n"
        "cfg = TrainConfig(steps=10, batch_size=128, seed=4)\n"
        "v = gen_sign_vector(2, spec.param_count)\n"
        "tv, _ = sift_finetune(task, init_params(spec, 1), spec, v, cfg)\n"
        "print(_digest(quantize(tv.delta)).hex(), tv.delta.tobytes().hex())\n"
        # a multi-task build, its four tasks stacked in one lockstep chunk
        "import hashlib\n"
        "import siftmasks.trainer as trainer\n"
        "from siftmasks.engine import build\n"
        "from siftmasks.merging import LocalizationMethod\n"
        "trainer.MAX_STACKED_ENTRIES = 4 * spec.param_count\n"
        "tasks = synth_generate(regime, 4, 200, 64, 2, seed=5)\n"
        "system, _ = build(LocalizationMethod('sift_masks'), tasks, spec, cfg,\n"
        "                  base_seed=1, sign_seed=2)\n"
        "shard = system.shards[0]\n"
        "print(sorted((t, d.hex()) for t, d in system.replay_digests.items()))\n"
        "print(hashlib.sha256(shard.merged.accumulator.values.tobytes()).hexdigest())\n"
        "print([row.tobytes().hex() for row in shard.masks])\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for threads in ("1", None):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        run = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]


def test_logistic_single_example_gradient_closed_form():
    # for one example the class-k weight row gradient is (softmax_k - 1{k==y}) x
    spec = ModelSpec("logistic", 4, 3)
    rng = np.random.default_rng(1)
    params = rng.normal(size=spec.param_count)
    x = rng.normal(size=4)
    y = 2
    _, grad = loss_and_grad(params, spec, x[None, :], np.array([y]))
    w = params[: 3 * 4].reshape(3, 4)
    b = params[3 * 4 :]
    logits = w @ x + b
    p = np.exp(logits - logits.max())
    p /= p.sum()
    p[y] -= 1.0
    expected_w = np.outer(p, x)
    assert np.allclose(grad[: 3 * 4].reshape(3, 4), expected_w, atol=1e-12)
    assert np.allclose(grad[3 * 4 :], p, atol=1e-12)


def test_label_out_of_range_named(small_logistic):
    x = np.zeros((2, 10))
    with pytest.raises(ValueError, match="label 3 at batch index 1"):
        loss_and_grad(np.zeros(small_logistic.param_count), small_logistic, x, np.array([0, 3]))


def test_adam_first_step_closed_form():
    # with g=1 the bias-corrected first update is -lr / (1 + eps)
    params = np.array([0.0])
    grad = np.array([1.0])
    new, state = adam_step(params, grad, AdamState.zeros(1), lr=0.1)
    expected = -0.1 * (1.0 / (1.0 + 1e-8))
    assert new[0] == pytest.approx(expected, rel=1e-12)
    assert state.t == 1


def test_adam_zero_gradient_is_identity():
    params = np.array([1.5, -2.0])
    new, _ = adam_step(params.copy(), np.zeros(2), AdamState.zeros(2), lr=0.3)
    assert np.array_equal(new, params)


def test_adam_rejects_nonfinite_gradient():
    with pytest.raises(ValueError, match="non-finite"):
        adam_step(np.zeros(1), np.array([np.nan]), AdamState.zeros(1), lr=0.1)


def test_adam_deterministic_replay():
    rng = np.random.default_rng(3)
    p = rng.normal(size=16)
    g = rng.normal(size=16)
    a1, s1 = adam_step(p.copy(), g, AdamState.zeros(16), lr=0.05)
    a2, s2 = adam_step(p.copy(), g, AdamState.zeros(16), lr=0.05)
    assert np.array_equal(a1, a2)
    b1, _ = adam_step(a1, g * 0.5, s1, lr=0.05)
    b2, _ = adam_step(a2, g * 0.5, s2, lr=0.05)
    assert np.array_equal(b1, b2)


def test_project_sign_examples():
    v = gen_sign_vector(1, 3)
    tau = np.array([0.5, 0.3, 0.2]) * signs(v)  # aligned entrywise
    assert np.array_equal(project_sign(tau, v), tau)
    projected = project_sign(-tau, v)  # every entry disagrees
    assert not projected.any()
    zeros = project_sign(np.array([-0.0, 0.0, -0.0]), v)  # a -0.0 input too
    assert zeros.tobytes() == np.zeros(3).tobytes()


def test_project_sign_direct_formula():
    sv = gen_sign_vector(7, 3)
    s = signs(sv)
    tau = np.array([0.5, -0.3, 0.2])
    expected = np.where(tau * s < 0, 0.0, tau)
    assert np.array_equal(project_sign(tau, sv), expected)


@given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=64), st.integers(0, 2**32))
@settings(max_examples=50, deadline=None)
def test_project_sign_idempotent(values, seed):
    tau = np.array(values)
    v = gen_sign_vector(seed, len(tau))
    once = project_sign(tau, v)
    assert np.array_equal(project_sign(once, v), once)
    assert np.all(once * signs(v) >= 0)


def frozen_zero_disagreeing(tau, signs):
    """The projection as a masked write, before it was branchless."""
    np.copyto(tau, 0.0, where=tau * signs < 0.0)


def assert_projection_matches_frozen(tau, seed):
    dense = signs(gen_sign_vector(seed, tau.shape[-1]))
    expected = tau.copy()
    frozen_zero_disagreeing(expected, dense)
    _zero_disagreeing(tau, dense)
    assert tau.tobytes() == expected.tobytes()


# what a trained delta holds: finite values of either sign and +0.0, never -0.0
delta_entries = st.floats(allow_nan=False, allow_infinity=False).map(lambda x: x + 0.0)


@given(st.lists(delta_entries, min_size=1, max_size=100), st.integers(0, 2**32))
@settings(max_examples=200, deadline=None)
def test_zero_disagreeing_matches_masked_write(values, seed):
    assert_projection_matches_frozen(np.array(values), seed)


@given(st.integers(0, 2**32), st.floats(0.0, 1.0))
@settings(max_examples=20, deadline=None)
def test_zero_disagreeing_matches_masked_write_at_serve_delete_size(seed, zero_share):
    # M = 17,154 spans several of numpy's 8,192-entry buffers; two stacked rows
    rng = np.random.default_rng(seed)
    tau = rng.normal(scale=1e-3, size=(2, 17_154))
    tau[rng.random(tau.shape) < zero_share] = 0.0
    assert_projection_matches_frozen(tau, seed)


def _toy_task(task_id=0, n=24, d=10, c=3, seed=0, n_eval=4):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    w = rng.normal(size=(c, d))
    y = np.argmax(x @ w.T, axis=1)
    return make_task(task_id, x, y, n_eval=n_eval)


def test_zero_steps_gives_zero_vector(small_logistic, fast_cfg):
    task = _toy_task()
    cfg = TrainConfig(steps=0, batch_size=8, learning_rate=0.1, seed=1)
    m0 = init_params(small_logistic, 2)
    tv = ft_finetune(task, m0, small_logistic, cfg)
    assert not tv.delta.any()
    v = gen_sign_vector(4, small_logistic.param_count)
    tv2, mask = sift_finetune(task, m0, small_logistic, v, cfg)
    assert not tv2.delta.any()
    assert not mask.to_bools().any()


def test_ft_replay_bit_identical(small_logistic, fast_cfg):
    task = _toy_task()
    m0 = init_params(small_logistic, 2)
    a = ft_finetune(task, m0, small_logistic, fast_cfg)
    b = ft_finetune(task, m0, small_logistic, fast_cfg)
    assert np.array_equal(a.delta, b.delta)
    assert a.source_task == task.id and a.steps_used == fast_cfg.steps


def test_replay_unaffected_by_sibling_training(small_logistic, fast_cfg):
    task = _toy_task(task_id=3)
    other = _toy_task(task_id=4, seed=9)
    m0 = init_params(small_logistic, 2)
    alone = ft_finetune(task, m0, small_logistic, fast_cfg)
    ft_finetune(other, m0, small_logistic, fast_cfg)  # interleave another task
    again = ft_finetune(task, m0, small_logistic, fast_cfg)
    assert np.array_equal(alone.delta, again.delta)


def test_training_reduces_loss(small_logistic, fast_cfg):
    task = _toy_task(n=40)
    m0 = init_params(small_logistic, 2)
    x, y = task.train_xy()
    before, _ = loss_and_grad(m0, small_logistic, x, y)
    tv = ft_finetune(task, m0, small_logistic, fast_cfg)
    after, _ = loss_and_grad(m0 + tv.delta, small_logistic, x, y)
    assert after < before


def test_full_batch_when_dataset_small(small_logistic):
    # fewer training examples than batch_size: every step sees the full split
    task = _toy_task(n=10, n_eval=2)
    cfg = TrainConfig(steps=5, batch_size=64, learning_rate=0.1, seed=1)
    m0 = init_params(small_logistic, 2)
    tv = ft_finetune(task, m0, small_logistic, cfg)
    # manual replay with explicit full-batch steps
    from siftmasks.trainer import AdamState as AS, adam_step as step, loss_and_grad as lg

    tau = np.zeros_like(m0)
    state = AS.zeros(m0.shape[0])
    x, y = task.train_xy()
    for _ in range(5):
        _, g = lg(m0 + tau, small_logistic, x, y)
        tau, state = step(tau, g, state, 0.1)
    assert np.array_equal(tv.delta, tau)


def test_sift_outputs_feasible_with_exact_support(small_mlp, fast_cfg):
    task = _toy_task(n=30)
    m0 = init_params(small_mlp, 2)
    v = gen_sign_vector(77, small_mlp.param_count)
    tv, mask = sift_finetune(task, m0, small_mlp, v, fast_cfg)
    prod = tv.delta * signs(v)
    assert np.all(prod >= 0)
    assert np.array_equal(mask.to_bools(), tv.delta != 0)
    # replay determinism
    tv2, mask2 = sift_finetune(task, m0, small_mlp, v, fast_cfg)
    assert np.array_equal(tv.delta, tv2.delta) and mask == mask2


def test_sift_train_accuracy_close_to_ft():
    # paired run oracle on one contested-regime task
    from siftmasks.datasets import HeterogeneityRegime, synth_generate

    regime = HeterogeneityRegime("conflicting", conflict_rate=0.5, margin=1.0)
    task = synth_generate(regime, 2, 60, 20, 2, seed=5)[0]
    spec = ModelSpec("mlp", 20, 2, hidden_dim=32)
    cfg = TrainConfig(steps=20, batch_size=32, learning_rate=0.05, seed=9)
    m0 = init_params(spec, 3)
    ft = ft_finetune(task, m0, spec, cfg)
    v = gen_sign_vector(8, spec.param_count)
    sift, _ = sift_finetune(task, m0, spec, v, cfg)
    x, y = task.train_xy()
    ft_acc = accuracy(m0 + ft.delta, spec, x, y)
    sift_acc = accuracy(m0 + sift.delta, spec, x, y)
    assert sift_acc >= ft_acc - 0.05


def test_accuracy_equals_mean_of_matches_exactly(small_logistic):
    gen = np.random.default_rng(7)
    params = gen.normal(size=small_logistic.param_count)
    features = gen.normal(size=(1000, small_logistic.input_dim))
    labels = gen.integers(0, small_logistic.num_classes, size=1000)
    for n in range(1, 1001):
        x, y = features[:n], labels[:n]
        want = float(np.mean(predict_labels(params, small_logistic, x) == y))
        assert accuracy(params, small_logistic, x, y) == want


@given(
    st.sampled_from(["logistic", "mlp"]),
    st.integers(1, 30),
    st.one_of(st.just(1), st.integers(1, 100)),
    st.integers(2, 4),
    st.integers(1, 12),
    st.booleans(),
    st.integers(0, 2**32),
)
@settings(max_examples=120, deadline=None)
def test_stacked_predict_matches_each_row(kind, k, rows, classes, width, halves, seed):
    """Row k of a stacked forward pass has the bits of the vector call on
    stack[k], over shared rows and over rows of its own; with small halves as
    parameters, logits tie often."""
    spec = ModelSpec(kind, 1 + seed % 24, classes, width if kind == "mlp" else 0)
    gen = np.random.default_rng(seed)
    if halves:
        stack = gen.integers(-2, 3, size=(k, spec.param_count)) / 2.0
        xs = gen.integers(-2, 3, size=(k, rows, spec.input_dim)) / 2.0
    else:
        stack = gen.normal(size=(k, spec.param_count))
        xs = gen.normal(size=(k, rows, spec.input_dim)) * 3.0
    ys = gen.integers(0, classes, size=(k, rows))
    # shared rows (rows, d) and (rows,), then each vector's own (K, rows, d) and (K, rows)
    for x, y, row_of in ((xs[0], ys[0], lambda a, i: a), (xs, ys, lambda a, i: a[i])):
        logits, accs = predict_logits(stack, spec, x), accuracy(stack, spec, x, y)
        assert logits.shape == (k, rows, classes) and accs.shape == (k,)
        for i in range(k):
            x_i, y_i = row_of(x, i), row_of(y, i)
            assert logits[i].tobytes() == predict_logits(stack[i], spec, x_i).tobytes()
            one = accuracy(stack[i], spec, x_i, y_i)
            assert type(one) is float and accs[i] == one


def test_stacked_accuracy_of_no_rows_is_zero_per_row(small_mlp):
    stack = np.ones((3, small_mlp.param_count))
    x, y = np.empty((0, small_mlp.input_dim)), np.empty(0, dtype=np.int64)
    assert accuracy(stack, small_mlp, x, y).tolist() == [0.0, 0.0, 0.0]
    assert accuracy(stack[0], small_mlp, x, y) == 0.0
    own_x, own_y = np.empty((3, 0, small_mlp.input_dim)), np.empty((3, 0), dtype=np.int64)
    assert accuracy(stack, small_mlp, own_x, own_y).tolist() == [0.0, 0.0, 0.0]

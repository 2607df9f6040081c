import json

import numpy as np
import pytest

from siftmasks.datasets import (
    CONTEXT_COORDS,
    DataFormatError,
    HeterogeneityRegime,
    camp_sign,
    load_tasks,
    save_tasks,
    synth_generate,
)
from siftmasks.engine import build
from siftmasks.merging import LocalizationMethod
from siftmasks.trainer import ModelSpec, TrainConfig, predict_labels


def pooled_bayes_by_enumeration(tasks, num_classes):
    """Oracle: per shared input, the best any single model can do is the
    most common label across tasks."""
    labels = np.stack([t.labels for t in tasks])
    best = 0.0
    for j in range(labels.shape[1]):
        counts = np.bincount(labels[:, j], minlength=num_classes)
        best += counts.max() / labels.shape[0]
    return best / labels.shape[1]


def test_generation_deterministic():
    regime = HeterogeneityRegime("conflicting", conflict_rate=0.4)
    a = synth_generate(regime, 5, 30, 10, 3, seed=7)
    b = synth_generate(regime, 5, 30, 10, 3, seed=7)
    for ta, tb in zip(a, b):
        assert np.array_equal(ta.features, tb.features)
        assert np.array_equal(ta.labels, tb.labels)
    c = synth_generate(regime, 5, 30, 10, 3, seed=8)
    assert not np.array_equal(a[0].labels, c[0].labels) or not np.array_equal(
        a[0].features, c[0].features
    )


def test_conflicting_shared_pool_with_full_conflict():
    tasks = synth_generate(
        HeterogeneityRegime("conflicting", conflict_rate=1.0), 2, 10, 8, 2, seed=3
    )
    assert np.array_equal(tasks[0].features, tasks[1].features)
    assert np.any(tasks[0].labels != tasks[1].labels)
    # opposing camps disagree on every contested input at rate 1
    assert np.all(tasks[0].labels != tasks[1].labels)


def test_camp_pattern():
    assert camp_sign(0) == 1 and camp_sign(1) == -1  # first two tasks oppose
    first_five = [camp_sign(t) for t in range(5)]
    assert first_five.count(-1) == 1
    fifty = [camp_sign(t) for t in range(50)]
    assert abs(sum(fifty)) <= 2  # camps nearly balanced at scale


def test_conflict_realization_matches_rate():
    rate = 0.3
    n = 400
    tasks = synth_generate(
        HeterogeneityRegime("conflicting", conflict_rate=rate, margin=1.0),
        10, n, 20, 2, seed=41,
    )
    labels = np.stack([t.labels for t in tasks])
    disagree = (labels != labels[0]).any(axis=0).mean()
    se = np.sqrt(rate * (1 - rate) / n)
    assert abs(disagree - rate) <= 3 * se + 1 / n  # + 1/n for the forced input


def test_pooled_bayes_bound_for_balanced_camps():
    # cr=0.5, two classes: contested half splits the camps, so the best
    # single model lands near 1 - cr/2
    tasks = synth_generate(
        HeterogeneityRegime("conflicting", conflict_rate=0.5, margin=1.0),
        50, 100, 20, 2, seed=11,
    )
    bayes = pooled_bayes_by_enumeration(tasks, 2)
    slack = 3 * np.sqrt(0.25 / 100) + 2 / 50  # conflict-draw noise + camp imbalance
    assert bayes <= 0.75 + slack
    # and a model trained on the pooled data cannot beat the enumeration
    spec = ModelSpec("logistic", 20, 2)
    cfg = TrainConfig(steps=20, batch_size=64, learning_rate=0.1, seed=3)
    system, _ = build(LocalizationMethod("central"), tasks, spec, cfg, base_seed=5)
    accs = []
    for t in tasks:
        x, y = t.train_xy()
        accs.append(float((predict_labels(system.shards[0].central_params, spec, x) == y).mean()))
    assert np.mean(accs) <= bayes + slack


def test_conflicting_context_block_structure():
    tasks = synth_generate(
        HeterogeneityRegime("conflicting", conflict_rate=0.5), 3, 50, 12, 2, seed=13
    )
    ctx = tasks[0].features[:, -CONTEXT_COORDS:]
    contested = np.abs(ctx).max(axis=1) > 0
    # contested inputs carry the full-amplitude context block, others zero
    assert contested.any() and (~contested).any()
    assert np.all(ctx[~contested] == 0)
    per_row = np.abs(ctx[contested])
    assert np.all(per_row == per_row[0, 0])


def test_similar_regime_supports_pooled_training():
    tasks = synth_generate(
        HeterogeneityRegime("similar", margin=0.5), 10, 50, 20, 2, seed=21
    )
    spec = ModelSpec("logistic", 20, 2)
    cfg = TrainConfig(steps=20, batch_size=64, learning_rate=0.1, seed=3)
    system, _ = build(LocalizationMethod("central"), tasks, spec, cfg, base_seed=5)
    from siftmasks.engine import evaluate

    assert evaluate(system, "held_in").aggregate >= 0.95


def test_distinct_regions_disjoint():
    tasks = synth_generate(HeterogeneityRegime("distinct"), 6, 40, 8, 3, seed=31)
    ranges = [(t.features[:, 0].min(), t.features[:, 0].max()) for t in tasks]
    for (lo_a, hi_a), (lo_b, hi_b) in zip(ranges, ranges[1:]):
        assert hi_a < lo_b


def test_eval_split_is_tail_20_percent(tmp_path):
    path = tmp_path / "two.jsonl"
    with open(path, "w") as fh:
        for task_id in (0, 1):
            for i in range(5):
                fh.write(json.dumps({"task_id": task_id, "features": [float(i)], "label": 0}) + "\n")
    tasks = load_tasks(path)
    assert len(tasks) == 2
    for t in tasks:
        assert len(t.train_indices) == 4
        assert t.eval_indices.tolist() == [4]


def test_label_out_of_range_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps({"task_id": 0, "features": [0.0], "label": 0}) + "\n")
        fh.write(json.dumps({"task_id": 0, "features": [0.0], "label": 2}) + "\n")
    with pytest.raises(DataFormatError, match="line 2: label 2"):
        load_tasks(path, num_classes=2)


def test_malformed_line_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps({"task_id": 0, "features": [0.0], "label": 0}) + "\n")
        fh.write("not json\n")
    with pytest.raises(DataFormatError, match="line 2"):
        load_tasks(path)


def test_inconsistent_dimension_and_empty_file(tmp_path):
    path = tmp_path / "dims.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps({"task_id": 0, "features": [0.0, 1.0], "label": 0}) + "\n")
        fh.write(json.dumps({"task_id": 0, "features": [0.0], "label": 0}) + "\n")
    with pytest.raises(DataFormatError, match="line 2: feature dimension 1 != 2"):
        load_tasks(path)
    empty = tmp_path / "empty.jsonl"
    empty.touch()
    with pytest.raises(DataFormatError, match="empty dataset"):
        load_tasks(empty)


@pytest.mark.parametrize(
    "line",
    [b'{"task_id": 0, "features": [NaN], "label": 0}',
     b'{"task_id": 0, "features": [-Infinity], "label": 0}',
     b'{"task_id": 0, "features": [1e400], "label": 0}',
     b'{"task_id": 1e400, "features": [0.0], "label": 0}',
     b'{"task_id": 0, "features": [0.0\xff], "label": 0}'],
    ids=["nan", "-inf", "1e400", "task_id-1e400", "not-utf8"],
)
def test_non_finite_or_undecodable_record_names_its_line(line, tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b'{"task_id": 0, "features": [0.5], "label": 0}\n' + line + b"\n")
    with pytest.raises(DataFormatError, match="line 2: "):
        load_tasks(path)


def test_finite_features_whose_sum_overflows_load(tmp_path):
    path = tmp_path / "huge.jsonl"
    path.write_text("".join(
        json.dumps({"task_id": 0, "features": [1e308, 1e308], "label": 0}) + "\n" for _ in range(2)
    ))
    assert load_tasks(path)[0].features.tolist() == [[1e308, 1e308]] * 2


def test_save_load_roundtrip_exact(tmp_path):
    tasks = synth_generate(
        HeterogeneityRegime("conflicting", conflict_rate=0.5), 3, 15, 8, 3, seed=17
    )
    path = tmp_path / "round.jsonl"
    save_tasks(tasks, path)
    back = load_tasks(path, num_classes=3)
    assert len(back) == len(tasks)
    for orig, loaded in zip(tasks, back):
        assert loaded.id == orig.id
        assert np.array_equal(loaded.features, orig.features)  # bit-exact floats
        assert np.array_equal(loaded.labels, orig.labels)
        assert np.array_equal(loaded.eval_indices, orig.eval_indices)

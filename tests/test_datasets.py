import hashlib
import json
import math
import os
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from siftmasks import datasets
from siftmasks.datasets import (
    CONTEXT_COORDS,
    DataFormatError,
    HeterogeneityRegime,
    TaskSpec,
    camp_sign,
    load_tasks,
    save_tasks,
    synth_generate,
)
from siftmasks.engine import build
from siftmasks.merging import LocalizationMethod
from siftmasks.sealed import seal
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
        assert (t.n_train, t.n_eval) == (4, 1)
        assert t.eval_xy()[0].tolist() == [[4.0]]


@pytest.mark.parametrize("n_eval", [-1, 5])
def test_task_rejects_a_split_without_training_rows(n_eval):
    with pytest.raises(DataFormatError, match="task 3: needs at least one training example"):
        TaskSpec(3, np.zeros((5, 2)), np.zeros(5, dtype=np.int64), n_eval=n_eval)


def test_train_and_eval_rows_are_views_split_at_n_train():
    features = np.arange(10.0).reshape(5, 2)
    task = TaskSpec(0, features, np.arange(5), n_eval=2)
    (x_tr, y_tr), (x_ev, y_ev) = task.train_xy(), task.eval_xy()
    assert task.n_train == 3
    assert x_tr.tolist() == features[:3].tolist() and y_tr.tolist() == [0, 1, 2]
    assert x_ev.tolist() == features[3:].tolist() and y_ev.tolist() == [3, 4]
    for rows in (x_tr, x_ev):
        assert np.shares_memory(rows, task.features) and rows.flags.c_contiguous


def test_split_views_are_made_once_and_remade_by_replace():
    task = TaskSpec(0, np.arange(10.0).reshape(5, 2), np.arange(5), n_eval=2)
    assert task.train_xy() is task.train_xy() and task.eval_xy() is task.eval_xy()
    wider = replace(task, n_eval=4)
    assert [len(x) for x, _ in (wider.train_xy(), wider.eval_xy())] == [1, 4]


@pytest.mark.parametrize(
    "record, named",
    [('"task_id": 0.9, "features": [0.0], "label": 0', "task_id 0.9"),
     ('"task_id": true, "features": [0.0], "label": 0', "task_id true"),
     ('"task_id": "0", "features": [0.0], "label": 0', 'task_id "0"'),
     ('"task_id": 0, "features": [0.0], "label": true', "label true"),
     ('"task_id": 0, "features": [0.0], "label": 1.7', "label 1.7"),
     ('"task_id": 0, "features": [0.0], "label": 1.0', "label 1.0")],
)
def test_task_id_and_label_must_be_json_integers(record, named, tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"task_id": 0, "features": [0.5], "label": 0}\n{' + record + "}\n")
    with pytest.raises(DataFormatError, match=f"line 2: {named} is not an integer"):
        load_tasks(path)


@pytest.mark.parametrize(
    "features",
    ['"12"', "[true, false]", "[0.5, true]", "[[0.5]]", '[0.5, "1"]', '{"0": 0.5}', "null", "0.5"],
    ids=["string", "bools", "one-bool", "nested", "one-string", "object", "null", "number"],
)
def test_features_must_be_a_json_list_of_numbers(features, tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"task_id": 0, "features": [0.5, 1], "label": 0}\n'
                    '{"task_id": 0, "features": ' + features + ', "label": 0}\n')
    with pytest.raises(DataFormatError, match=r"line 2: malformed record \(features .* is not a "
                                              r"list of numbers\)"):
        load_tasks(path)
    assert not copy_of(path).exists()


def test_integer_features_load_as_floats(tmp_path):
    path = tmp_path / "ints.jsonl"
    path.write_text('{"task_id": 0, "features": [0, -2], "label": 0}\n' * 2)
    features = load_tasks(path)[0].features
    assert features.dtype == np.float64 and features.tolist() == [[0.0, -2.0]] * 2


def test_label_out_of_range_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps({"task_id": 0, "features": [0.0], "label": 0}) + "\n")
        fh.write(json.dumps({"task_id": 0, "features": [0.0], "label": 2}) + "\n")
    with pytest.raises(DataFormatError, match="line 2: label 2"):
        load_tasks(path, num_classes=2)


def test_label_past_int64_names_line_without_num_classes(tmp_path):
    path = tmp_path / "big.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps({"task_id": 0, "features": [0.0], "label": 0}) + "\n")
        fh.write('{"task_id": 0, "features": [0.0], "label": 9223372036854775808}\n')
    with pytest.raises(DataFormatError, match=r"line 2: label 9223372036854775808 outside"):
        load_tasks(path)
    assert not os.path.exists(tmp_path / ".big.jsonl.parsed")


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
        assert loaded.n_eval == orig.n_eval


def reference_save_tasks(tasks, path):
    """The dataset writer as it was first written: one dict and one
    ``json.dumps`` per record, in a file opened in text mode."""
    with open(path, "w", encoding="utf8") as fh:
        for task in tasks:
            for i in range(task.n_examples):
                record = {
                    "task_id": int(task.id),
                    "features": [float(x) for x in task.features[i]],
                    "label": int(task.labels[i]),
                }
                fh.write(json.dumps(record) + "\n")


def test_writer_bytes_match_json_dumps_per_record(tmp_path):
    odd = TaskSpec(2**32 - 1, [[-0.0, 5e-324, 1e-7, 1e16],
                               [1e308, 0.1, 2.0, -3.0],
                               [float("nan"), float("inf"), float("-inf"), 1.0],
                               [-5e-324, -1e308, 123456789.0, 1e22]],
                   [0, 1, 2**63 - 1, 7], n_eval=1)
    tasks = [*synth_generate(HeterogeneityRegime("conflicting"), 3, 15, 8, 3, seed=17),
             *synth_generate(HeterogeneityRegime("distinct"), 2, 10, 4, 2, seed=3), odd]
    save_tasks(tasks, tmp_path / "fast.jsonl")
    reference_save_tasks(tasks, tmp_path / "reference.jsonl")
    written = (tmp_path / "fast.jsonl").read_bytes()
    assert written == (tmp_path / "reference.jsonl").read_bytes()
    assert b"[NaN, Infinity, -Infinity, 1.0]" in written and b"[-0.0, 5e-324, " in written


@pytest.mark.parametrize("shift", range(-2, 3))
def test_records_that_straddle_a_read_block_keep_their_lines(shift, tmp_path):
    """A CR LF and a two-byte character near byte 8192 and 16384, edges of
    the blocks the parser reads, split and decode as anywhere else."""
    good = b'{"task_id": 0, "features": [0.5], "label": 0}'
    first = good[:-1] + b" " * (8191 + shift - len(good)) + b"}"  # then CR LF at 8191 + shift
    second = b"{" + b" " * 8188 + '"é": 0, "task_id": 0, "features": [0.25], "label": 0}'.encode()
    raw = first + b"\r\n" + second + b"\r" + b"\n".join([good] * 3) + b"\n"
    assert raw[8191 + shift:8193 + shift] == b"\r\n"
    assert raw[16383 + shift:16385 + shift] == "é".encode()
    path = tmp_path / "blocks.jsonl"
    path.write_bytes(raw)
    assert load_tasks(path)[0].features[:, 0].tolist() == [0.5, 0.25, 0.5, 0.5, 0.5]
    path.write_bytes(raw + good[:-1] + b"\xc3\n")
    with pytest.raises(DataFormatError, match="line 6: malformed record"):
        load_tasks(path)


# ---------- the parsed copy ----------


def copy_of(path):
    """Where load_tasks keeps the parsed copy of ``path``."""
    return path.parent / f".{path.name}.parsed"


def assert_same_tasks(got, want):
    assert [t.id for t in got] == [t.id for t in want]
    for a, b in zip(got, want):
        assert type(a.id) is int and a.n_eval == b.n_eval
        for x, y in ((a.features, b.features), (a.labels, b.labels)):
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
            assert x.flags.writeable and x.flags.c_contiguous


@pytest.fixture
def dataset(tmp_path):
    """A three-task file whose tasks interleave; its tasks as parsed."""
    tasks = synth_generate(HeterogeneityRegime("conflicting", conflict_rate=0.5), 3, 15, 8, 3,
                           seed=17)
    path = tmp_path / "data.jsonl"
    save_tasks(tasks, path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[0::2] + lines[1::2]))  # records of a task split up
    return path


def no_parse(*args):
    raise AssertionError("parsed the file although its copy was current")


def test_warm_load_reads_the_copy_and_equals_a_cold_load(dataset, monkeypatch):
    cold = load_tasks(dataset, num_classes=3)
    assert copy_of(dataset).exists()
    monkeypatch.setattr(datasets, "_parse_jsonl", no_parse)
    warm = load_tasks(dataset, num_classes=3)
    assert_same_tasks(warm, cold)
    warm[0].features[0, 0] = 9.0  # the copy's arrays are the caller's own
    assert_same_tasks(load_tasks(dataset), cold)


def test_one_edited_byte_is_read_on_the_next_load(tmp_path):
    path = tmp_path / "edit.jsonl"
    path.write_text('{"task_id": 0, "features": [0.5], "label": 0}\n' * 5)
    assert load_tasks(path)[0].features[0, 0] == 0.5
    raw = path.read_bytes()
    path.write_bytes(raw.replace(b"0.5", b"0.7", 1))
    assert load_tasks(path)[0].features[:, 0].tolist() == [0.7, 0.5, 0.5, 0.5, 0.5]
    path.write_bytes(raw)
    assert load_tasks(path)[0].features[:, 0].tolist() == [0.5] * 5


def flip(at):
    return lambda raw: raw[:at] + bytes([raw[at] ^ 1]) + raw[at + 1:]


def resealed(edit):
    """The copy with its body edited and sealed again: only the checks behind
    the trailer can reject it."""
    return lambda raw: b"".join(seal(b"SFTDATA\0", 2, edit(raw[12:-32])))


# where the fixture's copy (three tasks of 15 rows) keeps its payload, in its body
IDS = datasets._COPY_HEADER.size
ROWS, LABELS, FEATURES = IDS + 3 * 8, IDS + 6 * 8, IDS + 6 * 8 + 45 * 8


def packed(offset, fmt, *values):
    """The copy resealed with ``values`` packed at ``offset`` of its body."""
    def edit(body):
        body = bytearray(body)
        struct.pack_into(fmt, body, offset, *values)
        return bytes(body)
    return resealed(edit)


@pytest.mark.parametrize(
    "damage",
    [lambda raw: b"",
     lambda raw: raw[:-1],
     lambda raw: raw[:64],
     lambda raw: raw + b"\0" * 8,
     flip(0),  # magic
     flip(8),  # version
     flip(12),  # feature dimension
     flip(32),  # key
     flip(-1),  # SHA-256 trailer
     flip(64),  # first task id
     flip(-33),  # last feature
     lambda raw: b"not a parsed copy",
     lambda raw: bytes(len(raw)),
     resealed(lambda body: body[:40]),
     resealed(lambda body: body[:-8]),
     resealed(lambda body: body + b"\0" * 8),
     packed(ROWS, "<3q", 15, 15, 16),
     packed(ROWS, "<3q", 25, -5, 25),
     packed(IDS, "<3q", 0, 0, 2),
     packed(IDS + 16, "<q", 2**40),
     packed(LABELS, "<q", -1),
     packed(FEATURES, "<d", math.nan)],
    ids=["empty", "short-by-one", "header-only", "appended", "magic", "version", "dim", "key",
         "trailer", "task-id", "feature", "foreign", "zeros", "sealed-short-header",
         "sealed-short-payload", "sealed-long-payload", "sealed-counts-past-rows",
         "sealed-negative-count", "sealed-repeated-id", "sealed-id-past-u32",
         "sealed-negative-label", "sealed-nan-feature"],
)
def test_damaged_copy_is_ignored_and_rewritten(damage, dataset, monkeypatch):
    """A copy that is not whole, or that a resealing edit made break a rule
    the parse enforces, is ignored: the file is parsed and the copy rewritten.
    Row counts that keep every rule but split the rows otherwise than the
    file, such as (18, 12, 15) here, are out of scope: only a parse can tell
    them from the file's."""
    cold = load_tasks(dataset)
    good = copy_of(dataset).read_bytes()
    copy_of(dataset).write_bytes(damage(good))
    assert_same_tasks(load_tasks(dataset), cold)
    assert copy_of(dataset).read_bytes() == good
    monkeypatch.setattr(datasets, "_parse_jsonl", no_parse)
    load_tasks(dataset)


def version_1_copy(tasks, key):
    """The parsed copy as format version 1 wrote it: a header that ends with
    the SHA-256 of the payload, then the payload, and no trailer."""
    payload = b"".join([
        np.array([t.id for t in tasks], dtype="<i8").tobytes(),
        np.array([t.n_examples for t in tasks], dtype="<i8").tobytes(),
        *(t.labels.astype("<i8").tobytes() for t in tasks),
        *(t.features.astype("<f8").tobytes() for t in tasks),
    ])
    rows = sum(t.n_examples for t in tasks)
    header = struct.pack("<8sIIQQ32s32s", b"SFTDATA\0", 1, tasks[0].input_dim, len(tasks), rows,
                         key, hashlib.sha256(payload).digest())
    return header + payload


def test_version_1_copy_is_parsed_once_and_rewritten_as_version_2(dataset, monkeypatch):
    cold = load_tasks(dataset)
    good = copy_of(dataset).read_bytes()
    assert struct.unpack_from("<I", good, 8) == (2,)
    copy_of(dataset).write_bytes(
        version_1_copy(cold, hashlib.sha256(dataset.read_bytes()).digest()))
    parses = []
    parse = datasets._parse_jsonl
    monkeypatch.setattr(datasets, "_parse_jsonl", lambda *args: parses.append(1) or parse(*args))
    assert_same_tasks(load_tasks(dataset), cold)
    assert copy_of(dataset).read_bytes() == good
    assert_same_tasks(load_tasks(dataset), cold)
    assert parses == [1]


def test_copy_of_another_file_is_ignored(dataset, tmp_path):
    cold = load_tasks(dataset)
    other = tmp_path / "other.jsonl"
    other.write_text('{"task_id": 7, "features": [0.5], "label": 1}\n' * 2)
    load_tasks(other)
    copy_of(dataset).write_bytes(copy_of(other).read_bytes())
    assert_same_tasks(load_tasks(dataset), cold)


def test_read_only_directory_still_loads(dataset, monkeypatch):
    cold = load_tasks(dataset)
    copy_of(dataset).unlink()
    real_open = os.open

    def refuse_create(path, flags, *args):  # what a read-only directory does, even for root
        if flags & os.O_CREAT:
            raise PermissionError(13, "Permission denied", path)
        return real_open(path, flags, *args)

    monkeypatch.setattr(os, "open", refuse_create)
    dataset.parent.chmod(0o555)
    try:
        assert_same_tasks(load_tasks(dataset), cold)
    finally:
        dataset.parent.chmod(0o755)
    assert sorted(p.name for p in dataset.parent.iterdir()) == ["data.jsonl"]


def test_warm_copy_still_range_checks_labels_by_line(tmp_path, monkeypatch):
    path = tmp_path / "labels.jsonl"
    path.write_text("".join(
        json.dumps({"task_id": 0, "features": [0.0], "label": label}) + "\n"
        for label in (0, 1, 2, 1)
    ))
    assert [t.labels.tolist() for t in load_tasks(path)] == [[0, 1, 2, 1]]
    good = copy_of(path).read_bytes()
    assert load_tasks(path, num_classes=3)[0].labels.max() == 2
    with pytest.raises(DataFormatError, match=r"line 3: label 2 outside \[0, 2\)"):
        load_tasks(path, num_classes=2)
    assert copy_of(path).read_bytes() == good


def test_file_that_fails_to_parse_leaves_no_copy(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"task_id": 0, "features": [0.5], "label": 0}\nnot json\n')
    with pytest.raises(DataFormatError, match="line 2"):
        load_tasks(path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.jsonl"]


def test_load_that_hits_the_copy_never_holds_the_file_whole(tmp_path):
    """A load that reads the copy hashes the file in blocks: its peak traced
    memory stays below the file's size, which a whole read alone would reach."""
    tasks = synth_generate(HeterogeneityRegime("similar"), 4, 200, 20, 2, seed=5)
    path = tmp_path / "big.jsonl"
    save_tasks(tasks, path)
    cold = load_tasks(path)
    assert copy_of(path).stat().st_size < path.stat().st_size
    tracemalloc.start()
    try:
        warm = load_tasks(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert_same_tasks(warm, cold)
    assert peak < path.stat().st_size, (peak, path.stat().st_size)


def test_load_that_misses_the_copy_never_holds_the_file_whole(tmp_path):
    """A load that parses the file reads it as a stream: its peak traced
    memory stays below the file's size, which a whole read alone would reach."""
    tasks = synth_generate(HeterogeneityRegime("similar"), 4, 200, 20, 2, seed=5)
    path = tmp_path / "big.jsonl"
    save_tasks(tasks, path)
    tracemalloc.start()
    try:
        cold = load_tasks(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert_same_tasks(cold, tasks)
    assert copy_of(path).read_bytes()[32:64] == hashlib.sha256(path.read_bytes()).digest()
    assert peak < path.stat().st_size, (peak, path.stat().st_size)


def test_writing_the_copy_never_holds_it_whole(tmp_path, monkeypatch):
    """The copy is written from the tasks' own arrays, chunk by chunk. Its
    tasks here come from a stand-in parse of a two-line file, so the write
    is the only step that could hold as many bytes as the copy."""
    tasks = synth_generate(HeterogeneityRegime("similar"), 4, 1000, 20, 2, seed=5)
    path = tmp_path / "small.jsonl"
    path.write_text('{"task_id": 0, "features": [0.5], "label": 0}\n' * 2)

    parse = datasets._parse_jsonl

    def parse_then_swap(*args):
        parse(*args)  # reads the file to its end, which the copy's key covers
        return tasks

    monkeypatch.setattr(datasets, "_parse_jsonl", parse_then_swap)
    tracemalloc.start()
    try:
        load_tasks(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < copy_of(path).stat().st_size, (peak, copy_of(path).stat().st_size)
    monkeypatch.setattr(datasets, "_parse_jsonl", no_parse)
    assert_same_tasks(load_tasks(path), tasks)

"""Synthetic multi-task datasets with controllable heterogeneity, plus JSONL I/O.

Three regimes:

* ``conflicting`` -- every task sees the same pool of inputs: one read-only
  array, held once (``replace(task, features=copy)`` edits one task). A seeded
  fraction of the pool is contested: those inputs carry a context block
  (trailing coordinates set to +-CONTEXT_AMP) and each task labels them by
  the context sign read through its own camp orientation, so the two camps
  assign opposite labels to identical inputs. The rest of the pool is
  labeled by one global margin-separated rule every task agrees on. Each
  task's labeling is realizable by a small model on its own, but pooled
  training is capped near 1 - conflict_rate/2 accuracy for two classes
  once the camps balance out. Camp orientations are fixed so that tasks 0
  and 1 always oppose each other, exactly one of the first five tasks is
  in the minority camp, and the camps approach an even split as the task
  count grows.
* ``distinct`` -- each task draws features from a private region (disjoint
  ranges of coordinate 0) and labels them with a private random linear rule.
* ``similar`` -- all tasks draw from one distribution and share a single
  global labeling rule with a margin, so pooled training generalizes.

File format: JSON lines, one record per example,
``{"task_id": int, "features": [number...], "label": int}``, grouped by task
in file order. The held-out split of every task is the last ceil(20%) of its
records. ``save_tasks`` replaces the file in one step (``sealed.write_atomic``).

``load_tasks`` parses a given file's bytes once, as a stream: after a parse
that passed every check it writes a binary copy of the parsed tasks beside the
file, ``.<name>.parsed``, keyed by the SHA-256 of the bytes it parsed. The
copy is a sealed file (``sealed``), so it ends with the SHA-256 of everything
before it, and it is written from the tasks' arrays without joining them. A
later load of the same bytes reads the copy; a copy with any other key, magic,
version, length or trailer, or one that breaks a rule the parse enforces, is
ignored and rewritten. The copy is derived: deleting it costs one parse.
Neither the file nor the copy is ever held whole.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import struct
from array import array
from dataclasses import dataclass

import numpy as np

from .prng import PrngStream, mix_seed
from .sealed import Body, SealError, seal, unseal, write_atomic

REGIME_KINDS = ("conflicting", "distinct", "similar")
CONTEXT_AMP = 4.0  # context feature magnitude in the conflicting regime
CONTEXT_COORDS = 4  # trailing coordinates reserved for context
REGION_SPACING = 3.0  # coordinate-0 spacing between private regions

# the parsed copy's sealed body: feature dimension, task count, row count,
# SHA-256 of the JSONL bytes, then the payload: the task ids, the row counts
# and the labels as <i8, then the features as <f8.
_COPY_MAGIC = b"SFTDATA\0"
_COPY_VERSION = 2  # bump whenever a parse rule of load_tasks or the layout changes
_COPY_HEADER = struct.Struct("<IQQ32s")


class DataFormatError(ValueError):
    """A dataset file violated the JSONL schema."""


@dataclass(frozen=True)
class TaskSpec:
    """One task: examples, of which the last ``n_eval`` are held out. Its
    training and held-out rows are views made once, at construction."""

    id: int
    features: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) int64
    n_eval: int  # held-out rows, at the end

    def __post_init__(self):
        f = np.ascontiguousarray(self.features, dtype=np.float64)
        y = np.ascontiguousarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "labels", y)
        if f.ndim != 2 or y.shape[0] != f.shape[0]:
            raise DataFormatError(f"task {self.id}: malformed examples")
        if not 0 <= self.n_eval < self.n_examples:
            raise DataFormatError(f"task {self.id}: needs at least one training example")
        cut = self.n_train
        object.__setattr__(self, "_train", (f[:cut], y[:cut]))
        object.__setattr__(self, "_eval", (f[cut:], y[cut:]))

    @property
    def n_examples(self) -> int:
        return int(self.labels.shape[0])

    @property
    def n_train(self) -> int:
        return self.n_examples - self.n_eval

    @property
    def input_dim(self) -> int:
        return int(self.features.shape[1])

    def train_xy(self) -> tuple[np.ndarray, np.ndarray]:
        """The training rows, as views."""
        return self._train

    def eval_xy(self) -> tuple[np.ndarray, np.ndarray]:
        """The held-out rows, as views."""
        return self._eval


@dataclass(frozen=True)
class HeterogeneityRegime:
    kind: str
    conflict_rate: float = 0.5  # conflicting: fraction of pool inputs in contention
    margin: float = 0.5  # required top-two score gap for rule-labeled features

    def __post_init__(self):
        if self.kind not in REGIME_KINDS:
            raise ValueError(f"unknown regime kind {self.kind!r}")
        if not (0.0 <= self.conflict_rate <= 1.0 and 0.0 <= self.margin <= 1.0):
            raise ValueError("regime parameters must lie in [0, 1]")


def _split_task(task_id: int, features, labels) -> TaskSpec:
    """A task of these records, holding out their tail by the file rule above."""
    return TaskSpec(task_id, features, labels, n_eval=math.ceil(0.2 * len(labels)))


def camp_sign(task_id: int) -> int:
    """Camp orientation for the conflicting regime.

    Odd tasks are the minority camp, except task 3, which keeps tasks 0 and 1
    opposed, leaves exactly one minority task among the first five, and
    balances the camps as the task count grows.
    """
    return -1 if (task_id % 2 == 1 and task_id != 3) else 1


def check_synthetic(
    regime: HeterogeneityRegime, num_tasks: int, n_per_task: int, input_dim: int, num_classes: int
) -> None:
    """Raise ValueError unless ``synth_generate`` can draw these tasks: each
    task holds out its tail (``_split_task``) and trains on at least one."""
    if min(num_tasks, input_dim) < 1 or n_per_task < 2 or num_classes < 2:
        raise ValueError("need num_tasks, input_dim >= 1, n_per_task >= 2 and num_classes >= 2")
    if regime.kind == "conflicting" and input_dim < CONTEXT_COORDS + 2:
        raise ValueError(f"conflicting regime needs input_dim >= {CONTEXT_COORDS + 2}")


def synth_generate(
    regime: HeterogeneityRegime,
    num_tasks: int,
    n_per_task: int,
    input_dim: int,
    num_classes: int,
    seed: int,
) -> list[TaskSpec]:
    """Deterministic synthetic dataset; identical inputs give identical tasks."""
    check_synthetic(regime, num_tasks, n_per_task, input_dim, num_classes)
    if regime.kind == "conflicting":
        return _gen_conflicting(regime, num_tasks, n_per_task, input_dim, num_classes, seed)
    if regime.kind == "distinct":
        return _gen_distinct(num_tasks, n_per_task, input_dim, num_classes, seed)
    return _gen_similar(regime, num_tasks, n_per_task, input_dim, num_classes, seed)


def _margin_features(stream: PrngStream, n: int, rule: np.ndarray, margin: float):
    """Gaussian features kept only when the rule's top-two score gap >= margin."""
    d = rule.shape[1]
    feats: list[np.ndarray] = []
    labs: list[np.ndarray] = []
    have = 0
    while have < n:
        block = stream.gaussian_block(2 * n * d).reshape(-1, d)
        scores = block @ rule.T
        order = np.sort(scores, axis=1)
        keep = (order[:, -1] - order[:, -2]) >= margin
        feats.append(block[keep])
        labs.append(np.argmax(scores[keep], axis=1))
        have += int(keep.sum())
    return np.concatenate(feats)[:n], np.concatenate(labs)[:n]


def _gen_conflicting(regime, num_tasks, n_per_task, d, c, seed):
    core = d - CONTEXT_COORDS
    root = PrngStream(mix_seed(seed, "synth-conflicting"))
    pool_stream = root.child("pool")
    rule_stream = root.child("rule")

    n = n_per_task
    conflict = pool_stream.uniform_block(n) < regime.conflict_rate
    if regime.conflict_rate > 0:
        conflict[0] = True  # guarantee at least one contested shared input

    rule = rule_stream.gaussian_block(c * core).reshape(c, core)
    features = np.zeros((n, d))
    features[:, :core], base_labels = _margin_features(
        pool_stream, n, rule, regime.margin
    )
    context_sign = np.where(pool_stream.uniform_block(n) < 0.5, -1.0, 1.0)
    context_sign[0] = 1.0
    features[conflict, core:] = (CONTEXT_AMP * context_sign[conflict])[:, None]
    features.flags.writeable = False  # the one pool every task holds; labels are per task

    # contested inputs are disputed between one fixed pair of classes, so the
    # context sign maps to a label consistently within each camp
    k0 = int(rule_stream.randint_block(1, c)[0])
    k1 = (k0 + 1 + int(rule_stream.randint_block(1, c - 1)[0])) % c

    # each camp's labels, drawn once; every task holds a copy of its camp's
    camps = {sign: np.where(conflict, np.where(sign * context_sign > 0, k1, k0), base_labels)
             for sign in (1, -1)}
    return [_split_task(t, features, camps[camp_sign(t)].copy()) for t in range(num_tasks)]


def _gen_distinct(num_tasks, n_per_task, d, c, seed):
    root = PrngStream(mix_seed(seed, "synth-distinct"))
    tasks = []
    for t in range(num_tasks):
        stream = root.child(("task-data", t))
        n = n_per_task
        features = np.zeros((n, d))
        features[:, 0] = REGION_SPACING * (t + 1) + (
            stream.uniform_block(n) * 2.0 - 1.0
        )
        if d > 1:
            features[:, 1:] = stream.gaussian_block(n * (d - 1)).reshape(n, d - 1)
        rule = stream.gaussian_block(c * max(d - 1, 1)).reshape(c, max(d - 1, 1))
        scored = features[:, 1:] if d > 1 else features[:, :1]
        labels = np.argmax(scored @ rule.T, axis=1)
        tasks.append(_split_task(t, features, labels))
    return tasks


def _gen_similar(regime, num_tasks, n_per_task, d, c, seed):
    root = PrngStream(mix_seed(seed, "synth-similar"))
    rule = root.child("rule").gaussian_block(c * d).reshape(c, d)
    tasks = []
    for t in range(num_tasks):
        stream = root.child(("task-data", t))
        features, labels = _margin_features(stream, n_per_task, rule, regime.margin)
        tasks.append(_split_task(t, features, labels))
    return tasks


def save_tasks(tasks: list[TaskSpec], path) -> None:
    """Write tasks as JSON lines, grouped by task, examples in stored order.

    Each record is spelled as ``json.dumps`` spells it (``float.__repr__``
    for a finite feature), one task at a time, and the file is replaced in one
    step by ``sealed.write_atomic``: a failed write leaves the old file whole.
    """
    write_atomic(path, map(_task_jsonl, tasks))


def _task_jsonl(task: TaskSpec) -> bytes:
    """The JSON lines of one task's records."""
    head = f'{{"task_id": {int(task.id)}, "features": ['
    text = "".join([
        f'{head}{", ".join(map(repr, row))}], "label": {label}}}\n'
        for row, label in zip(task.features.tolist(), task.labels.tolist())
    ])
    if not np.isfinite(task.features).all():
        # repr spells these nan, inf and -inf, which no other token of a record
        # contains; json spells them NaN, Infinity and -Infinity
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return text.encode()


def load_tasks(path, num_classes: int | None = None) -> list[TaskSpec]:
    """Load a JSONL dataset; groups records by task_id in file order.

    The held-out split follows the module docstring's file rule. Task ids and
    labels must be JSON integers, task ids must fit an unsigned 32-bit field
    and features must be a list of finite JSON numbers. Labels are
    range-checked against num_classes when it is given, and against 2**63,
    the int64 they are stored as, when it is not.

    The file is hashed in blocks. When the parsed copy beside it (module
    docstring) was made from bytes of that hash, the tasks come from the
    copy; otherwise the file is parsed as a stream, hashed again as it is
    read, and the copy is rewritten, keyed by the bytes parsed. The file is
    never held whole. Either way the result is the same, and so is every
    error.
    """
    with open(path, "rb") as fh:
        tasks = _read_copy(path, hashlib.file_digest(fh, "sha256").digest())
    # a label out of range is found again by the parse, which names its line
    if tasks and (num_classes is None or max(int(t.labels.max()) for t in tasks) < num_classes):
        return tasks
    # lines split and decode as in a file opened in text mode, one at a time;
    # an undecodable byte becomes U+FFFD, so a record it breaks is named by its line
    with _HashingFile(path) as fh, io.TextIOWrapper(
            io.BufferedReader(fh), encoding="utf8", errors="replace") as lines:
        tasks = _parse_jsonl(lines, path, num_classes)
    key = fh.sha256.digest()  # of the bytes parsed, should the file have changed
    with contextlib.suppress(OSError):  # the copy only saves time; a load never needs it
        write_atomic(_copy_path(path), _copy_chunks(tasks, key))
    return tasks


class _HashingFile(io.FileIO):
    """A file opened for reading that feeds each byte read by ``readinto``,
    as a buffered reader reads, to its ``sha256``."""

    def __init__(self, path):
        super().__init__(path)
        self.sha256 = hashlib.sha256()

    def readinto(self, buf) -> int:
        n = super().readinto(buf)
        self.sha256.update(memoryview(buf)[:n])
        return n


def _copy_path(path) -> str:
    head, name = os.path.split(os.fspath(path))
    return os.path.join(head, f".{name}.parsed")


def _copy_chunks(tasks: list[TaskSpec], key: bytes) -> list:
    """The chunks of the parsed copy of these tasks, parsed from the bytes
    whose SHA-256 is key: views of the tasks' arrays, never joined."""
    rows = sum(t.n_examples for t in tasks)
    header = _COPY_HEADER.pack(tasks[0].input_dim, len(tasks), rows, key)
    return seal(_COPY_MAGIC, _COPY_VERSION, header,
                np.array([t.id for t in tasks], dtype="<i8"),
                np.array([t.n_examples for t in tasks], dtype="<i8"),
                *(t.labels.astype("<i8", copy=False) for t in tasks),
                *(t.features.astype("<f8", copy=False) for t in tasks))


def _read_copy(path, key: bytes) -> list[TaskSpec] | None:
    """The tasks of the parsed copy beside ``path``, as writable arrays; None
    unless the copy is whole, was made from the bytes whose SHA-256 is key and
    keeps the parse's rules, as a resealed copy may not: tasks of 2 or more
    rows (``_split_task``) summing to the header's count, distinct u32 ids,
    labels >= 0 and finite features."""
    try:
        with open(_copy_path(path), "rb") as fh:
            buf = bytearray(os.fstat(fh.fileno()).st_size)
            fh.readinto(buf)  # a short read leaves zeros, which the trailer rejects
    except OSError:
        return None
    try:
        body = Body(unseal(buf, _COPY_MAGIC, _COPY_VERSION))
        dim, n_tasks, n_rows, source = body.unpack(_COPY_HEADER, "header")
        ids = body.array("<i8", n_tasks, "task ids")
        rows = body.array("<i8", n_tasks, "row counts")
        labels = body.array("<i8", n_rows, "labels")
        features = body.array("<f8", (n_rows, dim), "features")
    except SealError:
        return None
    ids, rows = ids.tolist(), rows.tolist()
    if (source != key or len(body.rest) or not ids or min(rows) < 2 or sum(rows) != n_rows
            or len(set(ids)) != n_tasks or not 0 <= min(ids) <= max(ids) < 2**32
            or (labels < 0).any() or not np.isfinite(features).all()):
        return None
    ends = np.cumsum(rows).tolist()
    return [
        _split_task(task_id, features[end - n:end], labels[end - n:end])
        for task_id, n, end in zip(ids, rows, ends)
    ]


def _parse_jsonl(lines, path, num_classes: int | None) -> list[TaskSpec]:
    """The tasks of the text ``lines`` of the JSONL file ``path``, read to
    their end, by load_tasks's rules."""
    groups: dict[int, tuple[array, list[int]]] = {}  # per task: features flat, labels
    dim: int | None = None
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            task_id, label, feats = rec["task_id"], rec["label"], rec["features"]
            # float() would read a string of digits or a bool, so test the types
            if type(feats) is not list or not {float, int}.issuperset(map(type, feats)):
                raise TypeError(f"features {json.dumps(feats)} is not a list of numbers")
            feats = list(map(float, feats))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataFormatError(f"line {lineno}: malformed record ({exc})") from None
        # a JSON integer parses to int; a bool is an int subclass, so test the type
        if type(task_id) is not int or type(label) is not int:
            name, bad = ("label", label) if type(task_id) is int else ("task_id", task_id)
            raise DataFormatError(f"line {lineno}: {name} {json.dumps(bad)} is not an integer")
        if not 0 <= task_id < 2**32:  # checkpoints store task ids as u32
            raise DataFormatError(f"line {lineno}: task_id {task_id} outside [0, 2**32)")
        # a non-finite feature makes the sum non-finite; a finite sum rules it out
        if not math.isfinite(sum(feats)) and not all(map(math.isfinite, feats)):
            raise DataFormatError(f"line {lineno}: non-finite feature")
        if dim is None:
            dim = len(feats)
        elif len(feats) != dim:
            raise DataFormatError(
                f"line {lineno}: feature dimension {len(feats)} != {dim}"
            )
        if label < 0:
            raise DataFormatError(f"line {lineno}: negative label {label}")
        limit = 2**63 if num_classes is None else num_classes  # labels are stored as int64
        if label >= limit:
            raise DataFormatError(f"line {lineno}: label {label} outside [0, {limit})")
        task_features, task_labels = groups.setdefault(task_id, (array("d"), []))
        task_features.extend(feats)
        task_labels.append(label)
    if not groups:
        raise DataFormatError(f"{path}: empty dataset")
    return [
        _split_task(task_id, np.frombuffer(feats, np.float64).reshape(len(labels), dim),
                    np.array(labels, dtype=np.int64))
        for task_id, (feats, labels) in groups.items()
    ]

"""Synthetic multi-task datasets with controllable heterogeneity, plus JSONL I/O.

Three regimes:

* ``conflicting`` -- every task sees the same pool of inputs. A seeded
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
``{"task_id": int, "features": [float...], "label": int}``, grouped by task
in file order. The held-out split of every task is the last ceil(20%) of its
records.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .prng import PrngStream, mix_seed

REGIME_KINDS = ("conflicting", "distinct", "similar")
CONTEXT_AMP = 4.0  # context feature magnitude in the conflicting regime
CONTEXT_COORDS = 4  # trailing coordinates reserved for context
REGION_SPACING = 3.0  # coordinate-0 spacing between private regions


class DataFormatError(ValueError):
    """A dataset file violated the JSONL schema."""


@dataclass(frozen=True)
class TaskSpec:
    """One task: examples, of which the last ``n_eval`` are held out."""

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
        return self.features[:self.n_train], self.labels[:self.n_train]

    def eval_xy(self) -> tuple[np.ndarray, np.ndarray]:
        """The held-out rows, as views."""
        return self.features[self.n_train:], self.labels[self.n_train:]


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

    # contested inputs are disputed between one fixed pair of classes, so the
    # context sign maps to a label consistently within each camp
    k0 = int(rule_stream.randint_block(1, c)[0])
    k1 = (k0 + 1 + int(rule_stream.randint_block(1, c - 1)[0])) % c

    tasks = []
    for t in range(num_tasks):
        labels = base_labels.copy()
        picks_k1 = camp_sign(t) * context_sign > 0
        labels[conflict] = np.where(picks_k1, k1, k0)[conflict]
        tasks.append(_split_task(t, features.copy(), labels))
    return tasks


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
    """Write tasks as JSON lines, grouped by task, examples in stored order."""
    with open(path, "w", encoding="utf8") as fh:
        for task in tasks:
            for i in range(task.n_examples):
                record = {
                    "task_id": int(task.id),
                    "features": [float(x) for x in task.features[i]],
                    "label": int(task.labels[i]),
                }
                fh.write(json.dumps(record) + "\n")


def load_tasks(path, num_classes: int | None = None) -> list[TaskSpec]:
    """Load a JSONL dataset; groups records by task_id in file order.

    The held-out split follows the module docstring's file rule. Task ids and
    labels must be JSON integers, task ids must fit an unsigned 32-bit field
    and features must be finite. When num_classes is given, labels are
    range-checked against it.
    """
    groups: dict[int, list[tuple[list[float], int]]] = {}
    dim: int | None = None
    # an undecodable byte becomes U+FFFD, so a record it breaks is named by its line
    with open(path, "r", encoding="utf8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                task_id, label = rec["task_id"], rec["label"]
                feats = list(map(float, rec["features"]))
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
            if num_classes is not None and label >= num_classes:
                raise DataFormatError(
                    f"line {lineno}: label {label} outside [0, {num_classes})"
                )
            groups.setdefault(task_id, []).append((feats, label))
    if not groups:
        raise DataFormatError(f"{path}: empty dataset")

    tasks = []
    for task_id, rows in groups.items():
        features = np.array([r[0] for r in rows])
        labels = np.array([r[1] for r in rows], dtype=np.int64)
        tasks.append(_split_task(task_id, features, labels))
    return tasks

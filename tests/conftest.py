import numpy as np
import pytest

from siftmasks.datasets import HeterogeneityRegime, TaskSpec, synth_generate
from siftmasks.trainer import ModelSpec, TrainConfig


@pytest.fixture
def small_logistic():
    return ModelSpec("logistic", 10, 3)


@pytest.fixture
def small_mlp():
    return ModelSpec("mlp", 10, 3, hidden_dim=8)


@pytest.fixture
def fast_cfg():
    return TrainConfig(steps=20, batch_size=16, learning_rate=0.05, seed=99)


@pytest.fixture
def conflicting_tasks():
    regime = HeterogeneityRegime("conflicting", conflict_rate=0.5, margin=1.0)
    return synth_generate(regime, 8, 30, 10, 3, seed=11)


def make_task(task_id, features, labels, n_eval=0):
    n = len(labels)
    return TaskSpec(
        id=task_id,
        features=np.asarray(features, dtype=float),
        labels=np.asarray(labels, dtype=np.int64),
        eval_indices=np.arange(n - n_eval, n, dtype=np.int64),
    )

"""Frozen version-1 checkpoints: loading and re-saving must keep their bytes.

The files under data/v1 were written before systems became tuples of shards,
so they pin the on-disk format across that refactor and later ones. Their
configuration: a logistic 10 -> 3 model (M = 33), the six tasks below,
TrainConfig(steps=4, batch_size=8, learning_rate=0.05, seed=99), base seed 1,
sign seed 2, central_max_steps 12, density grid (0.3, 0.7), alpha grid
(1.0, 1.4), and for the ``_k3`` files three shards from cluster seed 7. Each
configuration is saved fresh, after deleting task 2, and after deleting every
task in the order 2, 0, 5, 1, 4, 3. Nothing is retrained here, so the check
holds on any machine.
"""

from pathlib import Path

import pytest

from siftmasks.checkpoint import (
    checkpoint_from_system,
    load_checkpoint,
    save_checkpoint,
    system_from_checkpoint,
)
from siftmasks.datasets import HeterogeneityRegime, synth_generate
from siftmasks.engine import evaluate
from siftmasks.merging import METHOD_TAGS

DATA = Path(__file__).resolve().parent / "data" / "v1"
CONFIGS = (*METHOD_TAGS, "sift_masks_k3", "central_k3")
FIXTURES = [f"{c}_{state}" for c in CONFIGS for state in ("fresh", "deleted1", "empty")]


@pytest.fixture(scope="module")
def tasks():
    regime = HeterogeneityRegime("conflicting", conflict_rate=0.5, margin=1.0)
    return synth_generate(regime, 6, 20, 10, 3, seed=11)


@pytest.mark.parametrize("name", FIXTURES)
def test_v1_checkpoint_bytes_survive_load_and_reattach(name, tasks, tmp_path):
    raw = (DATA / f"{name}.sftm").read_bytes()
    ckpt = load_checkpoint(DATA / f"{name}.sftm")
    save_checkpoint(ckpt, tmp_path / "resaved.sftm")
    assert (tmp_path / "resaved.sftm").read_bytes() == raw

    system = system_from_checkpoint(ckpt, tasks)
    save_checkpoint(checkpoint_from_system(system, ckpt.ledger), tmp_path / "rebuilt.sftm")
    assert (tmp_path / "rebuilt.sftm").read_bytes() == raw
    assert set(evaluate(system, "held_out").per_task) == {t.id for t in tasks}

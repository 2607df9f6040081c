"""Frozen version-1 checkpoints: rejected at load, but their layout still holds.

The files under data/v1 were trained by the per-example gradient loop. The
batched kernel that replaced it rounds differently, so their replay digests
and float artifacts cannot be reproduced; loading them must fail with a data
error that says to retrain, never later with a replay mismatch. Their
configurations are those of the version-2 files (see test_checkpoint_v2.py).

Version 2 changed the kernel, not the layout: the version number is the only
field that differs. So each v1 file, with its version field restamped to the
current one, must still load, re-save and reattach to its own bytes; that
keeps the v1 files pinning the on-disk format as they did before. Nothing is
retrained here, so the check holds on any machine.
"""

import struct
from pathlib import Path

import pytest

from siftmasks.checkpoint import (
    MAGIC,
    VERSION,
    CheckpointFormatError,
    checkpoint_from_system,
    load_checkpoint,
    save_checkpoint,
    system_from_checkpoint,
)
from siftmasks.cli import main
from siftmasks.engine import evaluate

from test_checkpoint_v2 import FIXTURES, cli_data_args, make_tasks

DATA = Path(__file__).resolve().parent / "data" / "v1"
RETRAIN = r"version-1 checkpoint, trained by the per-example gradient loop.*siftmasks train"


@pytest.fixture(scope="module")
def tasks():
    return make_tasks()


def restamped(raw: bytes) -> bytes:
    """The same file with its version field set to the current version."""
    assert raw[: len(MAGIC)] == MAGIC
    assert struct.unpack_from("<I", raw, len(MAGIC)) == (1,)
    at = len(MAGIC) + 4
    return raw[: len(MAGIC)] + struct.pack("<I", VERSION) + raw[at:]


@pytest.mark.parametrize("name", FIXTURES)
def test_v1_checkpoint_bytes_survive_load_and_reattach(name, tasks, tmp_path):
    raw = restamped((DATA / f"{name}.sftm").read_bytes())
    (tmp_path / "restamped.sftm").write_bytes(raw)
    ckpt = load_checkpoint(tmp_path / "restamped.sftm")
    save_checkpoint(ckpt, tmp_path / "resaved.sftm")
    assert (tmp_path / "resaved.sftm").read_bytes() == raw

    system = system_from_checkpoint(ckpt, tasks)
    save_checkpoint(checkpoint_from_system(system, ckpt.ledger), tmp_path / "rebuilt.sftm")
    assert (tmp_path / "rebuilt.sftm").read_bytes() == raw
    assert set(evaluate(system, "held_out").per_task) == {t.id for t in tasks}


@pytest.mark.parametrize("name", FIXTURES)
def test_v1_checkpoint_rejected_with_retrain_message(name):
    with pytest.raises(CheckpointFormatError, match=RETRAIN):
        load_checkpoint(DATA / f"{name}.sftm")


@pytest.mark.parametrize("command", [["eval", "--mode", "held_in"], ["unlearn", "--id", "2"]])
def test_cli_on_v1_checkpoint_exits_2(command, tmp_path, capsys):
    code = main([*command, *cli_data_args(tmp_path),
                 "--checkpoint", str(DATA / "sift_masks_fresh.sftm"), "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "per-example gradient loop" in err and "siftmasks train" in err

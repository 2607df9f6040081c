"""Frozen version-2 checkpoints: loading and re-saving must keep their bytes.

The files under data/v2 pin the on-disk format across refactors. Their
configuration: a logistic 10 -> 3 model (M = 33), the six tasks below,
TrainConfig(steps=4, batch_size=8, learning_rate=0.05, seed=99), base seed 1,
sign seed 2, central_max_steps 12, density grid (0.3, 0.7), alpha grid
(1.0, 1.4), and for the ``_k3`` files three shards from cluster seed 7. Each
configuration is saved fresh, after deleting task 2, and after deleting every
task in the order 2, 0, 5, 1, 4, 3. These are the configurations of the
version-1 files under data/v1, retrained by the batched gradient kernel.
Nothing is retrained by the tests, so they hold on any machine.

To rewrite the files (only when the format or the trainer changes on purpose,
together with a version bump): ``PYTHONPATH=src python tests/test_checkpoint_v2.py``.
To check that the current code still writes them byte for byte, without
touching them: ``PYTHONPATH=src python tests/test_checkpoint_v2.py --check``
(exit 1 naming the first file that differs).
"""

import os
import re
import struct
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from siftmasks.checkpoint import (
    _F_MASKS,
    _F_TIES,
    CheckpointFormatError,
    checkpoint_from_system,
    load_checkpoint,
    save_checkpoint,
    system_from_checkpoint,
)
from siftmasks.cli import main
from siftmasks.datasets import DataFormatError, HeterogeneityRegime, save_tasks, synth_generate
from siftmasks.engine import build, evaluate, unlearn, verify_exactness
from siftmasks.merging import METHOD_TAGS, LocalizationMethod
from siftmasks.paramcore import BitMask, FxpVector
from siftmasks.trainer import ModelSpec, TrainConfig

DATA = Path(__file__).resolve().parent / "data" / "v2"
CONFIGS = (*METHOD_TAGS, "sift_masks_k3", "central_k3")
STATES = ("fresh", "deleted1", "empty")
FIXTURES = [f"{c}_{state}" for c in CONFIGS for state in STATES]
DELETION_ORDER = (2, 0, 5, 1, 4, 3)


def make_tasks():
    regime = HeterogeneityRegime("conflicting", conflict_rate=0.5, margin=1.0)
    return synth_generate(regime, 6, 20, 10, 3, seed=11)


def write_fixtures(out_dir: Path) -> None:
    """Build every configuration and save its fresh, deleted1 and empty states."""
    out_dir.mkdir(parents=True, exist_ok=True)
    tasks = make_tasks()
    spec = ModelSpec("logistic", 10, 3)
    cfg = TrainConfig(steps=4, batch_size=8, learning_rate=0.05, seed=99)
    for config in CONFIGS:
        tag, clusters = (config[:-3], 3) if config.endswith("_k3") else (config, 1)
        method = LocalizationMethod(tag, density_grid=(0.3, 0.7), alpha_grid=(1.0, 1.4))
        system, ledger = build(
            method, tasks, spec, cfg, base_seed=1, sign_seed=2,
            central_max_steps=12, clusters=clusters, cluster_seed=7,
        )
        save_checkpoint(checkpoint_from_system(system, ledger), out_dir / f"{config}_fresh.sftm")
        for i, task_id in enumerate(DELETION_ORDER):
            system, _, cost = unlearn(system, task_id)
            ledger.add(cost)
            if i == 0:
                name = f"{config}_deleted1.sftm"
                save_checkpoint(checkpoint_from_system(system, ledger), out_dir / name)
        save_checkpoint(checkpoint_from_system(system, ledger), out_dir / f"{config}_empty.sftm")


def cli_data_args(tmp_path: Path) -> list[str]:
    """Writes the tasks as a dataset file; returns the CLI flags that read it."""
    data = tmp_path / "dataset.jsonl"
    save_tasks(make_tasks(), data)
    return ["--data", str(data)]


@pytest.fixture(scope="module")
def tasks():
    return make_tasks()


@pytest.mark.parametrize("name", FIXTURES)
def test_v2_checkpoint_bytes_survive_load_and_reattach(name, tasks, tmp_path):
    raw = (DATA / f"{name}.sftm").read_bytes()
    ckpt = load_checkpoint(DATA / f"{name}.sftm")
    save_checkpoint(ckpt, tmp_path / "resaved.sftm")
    assert (tmp_path / "resaved.sftm").read_bytes() == raw

    system = system_from_checkpoint(ckpt, tasks)
    save_checkpoint(checkpoint_from_system(system, ckpt.ledger), tmp_path / "rebuilt.sftm")
    assert (tmp_path / "rebuilt.sftm").read_bytes() == raw
    assert set(evaluate(system, "held_out").per_task) == {t.id for t in tasks}
    assert verify_exactness(system).exact


def test_loaded_system_names_its_tasks_but_cannot_serve_them_until_reattached():
    system = load_checkpoint(DATA / "sift_masks_deleted1.sftm").system
    assert system.registry == {}
    assert system.retained == (0, 1, 3, 4, 5)
    with pytest.raises(DataFormatError, match=r"missing task ids \[0, 1, 2, 3, 4, 5\]"):
        evaluate(system, "held_out")


def test_appended_byte_rejected_with_exit_2(tmp_path, capsys):
    path = tmp_path / "appended.sftm"
    path.write_bytes((DATA / "sift_masks_fresh.sftm").read_bytes() + b"\x00")
    with pytest.raises(CheckpointFormatError, match="trailing bytes after checkpoint"):
        load_checkpoint(path)
    code = main(["eval", "--mode", "held_in", *cli_data_args(tmp_path),
                 "--checkpoint", str(path), "--out-dir", str(tmp_path)])
    assert code == 2
    assert "trailing bytes after checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["sift_masks_fresh", "emr_deleted1", "central_k3_fresh"])
@pytest.mark.parametrize("command", [["eval"], ["verify"]], ids=["eval", "verify"])
def test_three_class_checkpoint_read_from_data_alone(name, command, tmp_path):
    """The checkpoint fixes the model (10 -> 3 here), so no dimension flag is
    needed to read its dataset."""
    code = main([*command, *cli_data_args(tmp_path),
                 "--checkpoint", str(DATA / f"{name}.sftm"), "--out-dir", str(tmp_path)])
    assert code == 0
    if command == ["eval"]:
        rows = (tmp_path / "eval_held_out.csv").read_text().splitlines()
        assert len(rows) == 1 + 6 + 1  # header, per-task, aggregate


@pytest.mark.parametrize(
    "command",
    [["eval", "--method", "emr"], ["verify", "--method", "central"],
     ["unlearn", "--id", "1", "--clusters", "2"], ["eval", "--steps", "3"],
     ["verify", "--input-dim", "10"], ["eval", "--num-classes", "3"]],
)
def test_checkpoint_commands_refuse_what_the_checkpoint_fixes(command, tmp_path, capsys):
    path = tmp_path / "ck.sftm"
    path.write_bytes((DATA / "central_fresh.sftm").read_bytes())
    raw = path.read_bytes()
    code = main([*command, *cli_data_args(tmp_path),
                 "--checkpoint", str(path), "--out-dir", str(tmp_path)])
    assert code == 1
    assert f"No such option '{command[-2]}'" in capsys.readouterr().err
    assert path.read_bytes() == raw


@pytest.mark.parametrize(
    "command", [["eval"], ["verify"], ["unlearn", "--id", "1"]], ids=["eval", "verify", "unlearn"]
)
def test_dataset_of_other_feature_dim_exits_2(command, tmp_path, capsys):
    data = tmp_path / "wide.jsonl"
    regime = HeterogeneityRegime("conflicting", conflict_rate=0.5, margin=1.0)
    save_tasks(synth_generate(regime, 6, 20, 12, 3, seed=11), data)
    path = tmp_path / "ck.sftm"
    path.write_bytes((DATA / "sift_masks_fresh.sftm").read_bytes())
    raw = path.read_bytes()
    code = main([*command, "--data", str(data),
                 "--checkpoint", str(path), "--out-dir", str(tmp_path)])
    assert code == 2
    assert "task 0 has feature dim 12, the checkpoint's model input_dim is 10" in (
        capsys.readouterr().err
    )
    assert path.read_bytes() == raw


@pytest.mark.parametrize("name", ["sift_masks_deleted1", "emr_fresh", "central_k3_fresh"])
def test_every_truncation_is_a_format_error(name, tmp_path):
    raw = (DATA / f"{name}.sftm").read_bytes()
    path = tmp_path / "cut.sftm"
    for size in range(len(raw)):
        path.write_bytes(raw[:size])
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)


def corrupt_copy(tmp_path: Path, name: str, old: bytes, new: bytes) -> Path:
    """Copies a fixture with its one occurrence of ``old`` replaced by ``new``."""
    raw = (DATA / f"{name}.sftm").read_bytes()
    assert raw.count(old) == 1
    path = tmp_path / f"corrupt_{name}.sftm"
    path.write_bytes(raw.replace(old, new))
    return path


def packed_ids(ids) -> bytes:
    return struct.pack(f"<I{len(ids)}I", len(ids), *ids)


@pytest.mark.parametrize("target", ["other_shard", "missing_shard", "unowned_unlearned"])
@pytest.mark.parametrize(
    "command", [["eval"], ["verify"], ["unlearn", "--id", "1"]], ids=["eval", "verify", "unlearn"]
)
def test_task_lists_disagreeing_with_assignment_exit_2(target, command, tmp_path, capsys):
    ckpt = load_checkpoint(DATA / "sift_masks_k3_fresh.sftm")
    table = dict(sorted(ckpt.system.assignment.items()))
    retained = [t for t, c in table.items() if c == 0]

    def layout(unlearned) -> bytes:
        """The assignment table, then shard 0's retained and unlearned ids."""
        pairs = b"".join(struct.pack("<II", t, c) for t, c in table.items())
        return pairs + packed_ids(retained) + packed_ids(unlearned)

    before = layout(())
    if target == "unowned_unlearned":  # shard 0 lists task 99, which no shard holds
        after = layout((99,))
    else:  # task 1 moves to another shard, or to one past the last
        table[1] = (table[1] + 1) % 3 if target == "other_shard" else 3
        after = layout(())
    path = corrupt_copy(tmp_path, "sift_masks_k3_fresh", before, after)
    message = "shard 3 of 3" if target == "missing_shard" else "do not match the assignment"
    with pytest.raises(CheckpointFormatError, match=message):
        load_checkpoint(path)
    code = main([*command, *cli_data_args(tmp_path),
                 "--checkpoint", str(path), "--out-dir", str(tmp_path)])
    assert code == 2
    assert message in capsys.readouterr().err


def test_digest_filed_under_wrong_shard_rejected(tmp_path):
    ckpt = load_checkpoint(DATA / "sift_masks_k3_fresh.sftm")
    table = ckpt.system.assignment
    other = next(t for t, c in table.items() if c != table[1])
    digest = ckpt.system.replay_digests[1]
    path = corrupt_copy(
        tmp_path, "sift_masks_k3_fresh",
        struct.pack("<I", 1) + digest, struct.pack("<I", other) + digest,
    )
    with pytest.raises(CheckpointFormatError, match=f"digest of task {other}"):
        load_checkpoint(path)


def assignment_table(pairs) -> bytes:
    return struct.pack(f"<I{2 * len(pairs)}I", len(pairs), *(x for pair in pairs for x in pair))


@pytest.mark.parametrize("change", ["swapped", "repeated"])
def test_assignment_not_strictly_ascending_exits_2(change, tmp_path, capsys):
    """Saving such a file would sort and merge its pairs, so it could not
    reproduce its bytes; the reader rejects it."""
    ckpt = load_checkpoint(DATA / "sift_masks_k3_fresh.sftm")
    pairs = sorted(ckpt.system.assignment.items())
    bad = [pairs[1], pairs[0], *pairs[2:]] if change == "swapped" else [pairs[0], *pairs]
    path = corrupt_copy(
        tmp_path, "sift_masks_k3_fresh", assignment_table(pairs), assignment_table(bad)
    )
    message = "assignment task ids are not strictly ascending"
    with pytest.raises(CheckpointFormatError, match=message):
        load_checkpoint(path)
    code = main(["report", "--checkpoint", str(path), "--out-dir", str(tmp_path)])
    assert code == 2
    assert message in capsys.readouterr().err


# offset and value of each table count in sift_masks_deleted1 (one shard, six
# tasks, task 2 deleted): after the 104-byte header come the two 2-entry grids,
# the ledger, the shard count and the assignment, then shard 0's retained ids,
# its unlearned ids and, after its 33-entry accumulator, its digest table
COUNTS = {
    "density_grid": (104, 2), "alpha_grid": (124, 2), "assignment": (180, 6),
    "retained": (232, 5), "unlearned": (256, 1), "digests": (536, 6),
}


@pytest.mark.parametrize("table", sorted(COUNTS))
def test_count_past_the_file_is_a_format_error(table, tmp_path):
    raw = bytearray((DATA / "sift_masks_deleted1.sftm").read_bytes())
    at, count = COUNTS[table]
    assert struct.unpack_from("<I", raw, at) == (count,)
    struct.pack_into("<I", raw, at, 0xFFFFFFFF)
    path = tmp_path / "huge_count.sftm"
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def test_model_too_large_for_the_file_rejected_before_allocating(tmp_path):
    raw = bytearray((DATA / "sift_masks_fresh.sftm").read_bytes())
    assert struct.unpack_from("<I", raw, 12) == (10,)  # input_dim
    struct.pack_into("<I", raw, 12, 2**20)
    path = tmp_path / "wide.sftm"
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointFormatError, match="1 shards of 3145731 parameters"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "offset, value, message",
    [(8, 9, "unknown method code 9"), (9, 7, "unknown model kind code 7")],
)
def test_unknown_header_code_report_exits_2(offset, value, message, tmp_path, capsys):
    raw = bytearray((DATA / "sift_masks_fresh.sftm").read_bytes())
    raw[offset] = value
    path = tmp_path / "bad_code.sftm"
    path.write_bytes(bytes(raw))
    code = main(["report", "--checkpoint", str(path), "--out-dir", str(tmp_path)])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "offset, fmt, old, new, message",
    [
        (20, "<I", 3, 1, "need input_dim >= 1 and num_classes >= 2"),
        (108, "<d", 0.3, 2.0, "density grid values must lie in (0, 1]"),
    ],
    ids=["num_classes", "density_grid"],
)
def test_invalid_header_value_is_a_format_error_naming_the_file(
    offset, fmt, old, new, message, tmp_path, capsys
):
    raw = bytearray((DATA / "sift_masks_fresh.sftm").read_bytes())
    assert struct.unpack_from(fmt, raw, offset) == (old,)
    struct.pack_into(fmt, raw, offset, new)
    path = tmp_path / "bad_value.sftm"
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointFormatError, match=re.escape(f"{path}: {message}")):
        load_checkpoint(path)
    code = main(["report", "--checkpoint", str(path), "--out-dir", str(tmp_path)])
    assert code == 2
    assert f"{path}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["report"], ["verify"]], ids=["report", "verify"])
def test_accumulator_out_of_range_is_a_format_error_naming_the_file(command, tmp_path, capsys):
    raw = bytearray((DATA / "sift_masks_fresh.sftm").read_bytes())
    merged = load_checkpoint(DATA / "sift_masks_fresh.sftm").system.shards[0].merged
    at = raw.find(merged.accumulator.values.tobytes())
    assert at > 0
    struct.pack_into("<q", raw, at, 2**62 + 5)  # entry 0, past the fixed-point range
    path = tmp_path / "overflow.sftm"
    path.write_bytes(bytes(raw))
    message = f"{path}: shard 0: accumulator: fixed-point overflow at index 0"
    with pytest.raises(CheckpointFormatError, match=re.escape(message)):
        load_checkpoint(path)
    data = cli_data_args(tmp_path) if command == ["verify"] else []
    code = main([*command, *data, "--checkpoint", str(path), "--out-dir", str(tmp_path)])
    assert code == 2
    assert message in capsys.readouterr().err


def test_scale_bits_other_than_32_exits_2(tmp_path, capsys):
    raw = bytearray((DATA / "sift_masks_fresh.sftm").read_bytes())
    assert struct.unpack_from("<I", raw, 24) == (32,)
    struct.pack_into("<I", raw, 24, 31)
    path = tmp_path / "scale31.sftm"
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointFormatError, match="scale_bits 31"):
        load_checkpoint(path)
    code = main(["eval", "--mode", "held_in", *cli_data_args(tmp_path),
                 "--checkpoint", str(path), "--out-dir", str(tmp_path)])
    assert code == 2
    assert "scale_bits 31" in capsys.readouterr().err


def resaved_copy(tmp_path: Path, name: str, change) -> Path:
    """Loads a fixture, applies ``change`` to the checkpoint and saves a copy."""
    ckpt = load_checkpoint(DATA / f"{name}.sftm")
    change(ckpt)
    path = tmp_path / f"changed_{name}.sftm"
    save_checkpoint(ckpt, path)
    return path


@pytest.mark.parametrize("command", [["unlearn", "--id", "1"], ["verify"]],
                         ids=["unlearn", "verify"])
def test_missing_digest_exits_2(command, tmp_path, capsys):
    path = resaved_copy(tmp_path, "sift_masks_fresh", lambda c: c.system.replay_digests.pop(1))
    message = "digests of tasks [0, 2, 3, 4, 5], expected [0, 1, 2, 3, 4, 5]"
    with pytest.raises(CheckpointFormatError, match=re.escape(message)):
        load_checkpoint(path)
    code = main([*command, *cli_data_args(tmp_path),
                 "--checkpoint", str(path), "--out-dir", str(tmp_path)])
    assert code == 2
    assert message in capsys.readouterr().err


def test_central_digest_rejected(tmp_path):
    path = resaved_copy(
        tmp_path, "central_fresh", lambda c: c.system.replay_digests.update({1: bytes(32)})
    )
    with pytest.raises(CheckpointFormatError, match=r"digests of tasks \[1\], expected \[\]"):
        load_checkpoint(path)


def shorten_accumulator(ckpt) -> None:
    merged = ckpt.system.shards[0].merged
    short = FxpVector(merged.accumulator.values[:32])
    ckpt.system.shards = (
        replace(ckpt.system.shards[0], merged=replace(merged, accumulator=short)),
    )


@pytest.mark.parametrize(
    "command", [["eval"], ["verify"], ["unlearn", "--id", "1"]], ids=["eval", "verify", "unlearn"]
)
def test_short_accumulator_exits_2(command, tmp_path, capsys):
    path = resaved_copy(tmp_path, "sift_masks_fresh", shorten_accumulator)
    message = "shard 0: accumulator has 32 entries, expected 33"
    with pytest.raises(CheckpointFormatError, match=message):
        load_checkpoint(path)
    code = main([*command, *cli_data_args(tmp_path),
                 "--checkpoint", str(path), "--out-dir", str(tmp_path)])
    assert code == 2
    assert message in capsys.readouterr().err


def shorten_ties(ckpt) -> None:
    shard = ckpt.system.shards[0]
    ckpt.system.shards = (replace(shard, ties_vector=shard.ties_vector[:32]),)


def shorten_emr(ckpt) -> None:
    emr = replace(ckpt.system.shards[0].emr, unified=ckpt.system.shards[0].emr.unified[:32])
    ckpt.system.shards = (replace(ckpt.system.shards[0], emr=emr),)


def shorten_central(ckpt) -> None:
    shard = ckpt.system.shards[0]
    ckpt.system.shards = (replace(shard, central_params=shard.central_params[:32]),)


@pytest.mark.parametrize(
    "name, change, what",
    [("ties_fresh", shorten_ties, "TIES vector"),
     ("emr_fresh", shorten_emr, "EMR unified vector"),
     ("central_fresh", shorten_central, "central parameters")],
    ids=["ties", "emr", "central"],
)
def test_short_method_vector_rejected(name, change, what, tmp_path):
    path = resaved_copy(tmp_path, name, change)
    message = f"shard 0: {what} has 32 entries, expected 33"
    with pytest.raises(CheckpointFormatError, match=message):
        load_checkpoint(path)


def flip_mask_bit(ckpt) -> None:
    masks = ckpt.system.shards[0].merged.masks
    words = masks[1].words.copy()
    words[0] ^= 1
    masks[1] = BitMask(words, masks[1].length)


def double_tall_alpha(ckpt) -> None:
    lam, alpha = ckpt.system.shards[0].tall[1]
    ckpt.system.shards[0].tall[1] = (lam, 2 * alpha)


def verify_changed(tmp_path: Path, name: str, change) -> int:
    """Exit code of ``verify`` on a copy of a fixture changed by ``change``."""
    path = resaved_copy(tmp_path, name, change)
    return main(["verify", *cli_data_args(tmp_path),
                 "--checkpoint", str(path), "--out-dir", str(tmp_path)])


def test_verify_exits_3_on_flipped_sift_mask_bit(tmp_path, capsys):
    assert verify_changed(tmp_path, "sift_masks_fresh", flip_mask_bit) == 3
    assert "replay_matches=True state_matches_oracle=False" in capsys.readouterr().out


def test_verify_exits_3_on_doubled_tall_alpha(tmp_path, capsys):
    assert verify_changed(tmp_path, "tall_masks_fresh", double_tall_alpha) == 3
    assert "replay_matches=True state_matches_oracle=False" in capsys.readouterr().out


def bump_accumulator(ckpt) -> None:
    ckpt.system.shards[0].merged.accumulator.values[0] += 1


def corrupt_remaining_digest(ckpt) -> None:
    ckpt.system.replay_digests[3] = bytes(32)  # task 3 stays, so deleting task 1 never replays it


def unlearn_verify_changed(tmp_path: Path, change) -> None:
    """Runs ``unlearn --id 1 --verify`` on a changed copy of the sift fixture
    and checks that it exits 3, leaving the checkpoint and the exactness log
    as they were."""
    path = resaved_copy(tmp_path, "sift_masks_fresh", change)
    raw = path.read_bytes()
    log = tmp_path / "exactness.csv"
    log.write_text("earlier rows\n")
    code = main(["unlearn", "--id", "1", "--verify", *cli_data_args(tmp_path),
                 "--checkpoint", str(path), "--out-dir", str(tmp_path)])
    assert code == 3
    assert path.read_bytes() == raw
    assert log.read_text() == "earlier rows\n"


def test_failed_unlearn_audit_exits_3_and_keeps_checkpoint(tmp_path, capsys):
    unlearn_verify_changed(tmp_path, bump_accumulator)
    err = capsys.readouterr().err
    assert "does not match a fresh merge" in err
    assert "replay_matches=True, state_matches_oracle=False" in err


def test_unlearn_audit_catches_a_remaining_replay_mismatch(tmp_path, capsys):
    unlearn_verify_changed(tmp_path, corrupt_remaining_digest)
    assert "replay_matches=False, state_matches_oracle=True" in capsys.readouterr().err


# byte count of the artifacts a one-shard fixture stores after its masks:
# TALL (lambda, alpha) pairs; EMR's unified vector (count + 33 floats) and scales
TAIL = {"sift_masks_fresh": 0, "tall_masks_fresh": 6 * 16, "emr_fresh": 8 + 33 * 8 + 6 * 8}


def mask_block(name: str) -> tuple[bytes, int, int]:
    """A one-shard fixture's bytes, and the offset and size of its masks."""
    raw = (DATA / f"{name}.sftm").read_bytes()
    masks = load_checkpoint(DATA / f"{name}.sftm").system.shards[0].merged.masks
    size = sum(m.words.nbytes for m in masks.values())
    return raw, len(raw) - TAIL[name] - size, size


def without_masks(tmp_path: Path, name: str) -> Path:
    """Copies a one-shard fixture with its mask flag cleared and its masks cut."""
    raw, at, size = mask_block(name)
    assert raw[at - 1] & _F_MASKS
    path = tmp_path / f"nomasks_{name}.sftm"
    path.write_bytes(raw[:at - 1] + bytes([raw[at - 1] & ~_F_MASKS]) + raw[at + size:])
    return path


def without_ties_vector(tmp_path: Path) -> Path:
    """Copies the TIES fixture with its vector flag cleared and its vector
    (count + 33 floats, the file's last bytes) cut; the writer, which writes
    the flags of the method, cannot write this file."""
    raw = (DATA / "ties_fresh.sftm").read_bytes()
    at = len(raw) - (8 + 33 * 8)
    assert raw[at - 1] == _F_TIES
    path = tmp_path / "noties.sftm"
    path.write_bytes(raw[:at - 1] + bytes([0]))
    return path


@pytest.mark.parametrize(
    "make, flags",
    [(lambda tmp: without_masks(tmp, "tall_masks_fresh"), "0x04, expected 0x05"),
     (lambda tmp: without_masks(tmp, "sift_masks_fresh"), "0x00, expected 0x01"),
     (without_ties_vector, "0x00, expected 0x08")],
    ids=["tall_no_masks", "sift_no_masks", "ties_no_vector"],
)
@pytest.mark.parametrize("command", [["eval"], ["verify"]], ids=["eval", "verify"])
def test_artifact_flags_other_than_written_exit_2(make, flags, command, tmp_path, capsys):
    path = make(tmp_path)
    message = f"shard 0: artifact flags {flags}"
    with pytest.raises(CheckpointFormatError, match=message):
        load_checkpoint(path)
    code = main([*command, *cli_data_args(tmp_path),
                 "--checkpoint", str(path), "--out-dir", str(tmp_path)])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(TAIL))
@pytest.mark.parametrize("command", [["eval"], ["verify"]], ids=["eval", "verify"])
def test_mask_pad_bit_set_exits_2(name, command, tmp_path, capsys):
    raw, at, _ = mask_block(name)
    mask = load_checkpoint(DATA / f"{name}.sftm").system.shards[0].merged.masks[0]
    assert raw[at:at + 8] == mask.words.tobytes()  # task 0's mask comes first
    path = tmp_path / f"padbit_{name}.sftm"
    # bit 63 of 64 stored: past M = 33, a pad bit
    path.write_bytes(raw[:at + 7] + bytes([raw[at + 7] | 0x80]) + raw[at + 8:])
    message = "shard 0, task 0: mask of length 33 has nonzero pad bits"
    with pytest.raises(CheckpointFormatError, match=message):
        load_checkpoint(path)
    code = main([*command, *cli_data_args(tmp_path),
                 "--checkpoint", str(path), "--out-dir", str(tmp_path)])
    assert code == 2
    assert message in capsys.readouterr().err


def test_failed_checkpoint_rename_keeps_old_bytes(tmp_path, monkeypatch, capsys):
    path = tmp_path / "ckpt" / "sift.sftm"
    path.parent.mkdir()
    path.write_bytes((DATA / "sift_masks_fresh.sftm").read_bytes())
    raw = path.read_bytes()

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        save_checkpoint(load_checkpoint(path), path)
    code = main(["unlearn", "--id", "1", *cli_data_args(tmp_path),
                 "--checkpoint", str(path), "--out-dir", str(tmp_path)])
    assert code == 2
    assert "rename refused" in capsys.readouterr().err
    assert path.read_bytes() == raw
    assert [p.name for p in path.parent.iterdir()] == ["sift.sftm"]
    assert not (tmp_path / "exactness.csv").exists()


@pytest.mark.parametrize("bad", [2**32, -1, np.int64(2**32)], ids=["2**32", "-1", "np.int64"])
def test_save_rejects_id_outside_u32_before_writing(bad, tmp_path):
    ckpt = load_checkpoint(DATA / "sift_masks_fresh.sftm")
    ckpt.system.assignment[bad] = ckpt.system.assignment.pop(5)
    ckpt.system.replay_digests[bad] = ckpt.system.replay_digests.pop(5)
    path = tmp_path / "out.sftm"
    with pytest.raises(struct.error):
        save_checkpoint(ckpt, path)
    assert list(tmp_path.iterdir()) == []


def first_mismatch(expected_dir: Path) -> str | None:
    """Rewrites the fixtures into a temporary directory; names the first file
    whose bytes differ from (or is missing in) ``expected_dir``, else None."""
    with tempfile.TemporaryDirectory() as tmp:
        write_fixtures(Path(tmp))
        names = sorted({p.name for p in Path(tmp).iterdir()}
                       | {p.name for p in expected_dir.glob("*.sftm")})
        for name in names:
            fresh, kept = Path(tmp) / name, expected_dir / name
            if not (fresh.exists() and kept.exists()) or fresh.read_bytes() != kept.read_bytes():
                return name
    return None


def test_current_code_rewrites_every_fixture_byte_for_byte():
    assert first_mismatch(DATA) is None


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[:1] == ["--check"]:
        expected = Path(args[1]) if len(args) > 1 else DATA
        name = first_mismatch(expected)
        if name is not None:
            print(f"{expected / name}: differs from what the current code writes",
                  file=sys.stderr)
            sys.exit(1)
        print(f"every fixture in {expected} is reproduced byte for byte")
    else:
        write_fixtures(Path(args[0]) if args else DATA)

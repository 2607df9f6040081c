"""Frozen version-3 checkpoints: loading and re-saving must keep their bytes.

The files under data/v3 pin the on-disk format across refactors. Their
configuration: a logistic 10 -> 3 model (M = 33), the six tasks below,
TrainConfig(steps=4, batch_size=8, learning_rate=0.05, seed=99), base seed 1,
sign seed 2, central_max_steps 12, density grid (0.3, 0.7), alpha grid
(1.0, 1.4), and for the ``_k3`` files three shards from cluster seed 7. Each
configuration is saved fresh, after deleting task 2, and after deleting every
task in the order 2, 0, 5, 1, 4, 3.

The files under data/v2 hold the same configurations in the version-2
layout, which stored some facts twice. No reader of it is kept: they stay as
proof that version 3 moved no bit, since every accumulator, mask, digest and
float artifact of a v3 file occurs verbatim in its v2 counterpart, and as
files that must be refused. data/v1 keeps one version-1 file, trained by the
per-example gradient loop, which must be refused too.

Loading and re-saving retrain nothing, but ``verify``'s audit and a rewrite
of the files (``--check`` and the test that runs it) retrain every task.
Those hold only on the OpenBLAS kernels and the numpy SIMD dispatch level
that wrote the files (``FIXTURE_CORE``, ``FIXTURE_DISPATCH``): other kernels,
as under ``OPENBLAS_CORETYPE=Haswell``, or a lower dispatch level, as under
``NPY_DISABLE_CPU_FEATURES=AVX512_SPR,AVX512_ICL,X86_V4``, may train other
bits, and each such failure names both parts for the files and for the run.

A test that corrupts a field reseals the file (``resealed``), so that the
corruption reaches the check it targets rather than the SHA-256 trailer.

To rewrite the files (only when the format or the trainer changes on purpose,
together with a version bump): ``PYTHONPATH=src python tests/test_checkpoint_v3.py``.
To check that the current code still writes them byte for byte, without
touching them: ``PYTHONPATH=src python tests/test_checkpoint_v3.py --check``
(exit 1 naming the first file that differs and the offset of its first
differing byte).
"""

import ctypes
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
    MAGIC,
    VERSION,
    CheckpointFormatError,
    checkpoint_from_system,
    load_checkpoint,
    save_checkpoint,
    system_from_checkpoint,
)
from siftmasks.cli import main
from siftmasks.datasets import DataFormatError, HeterogeneityRegime, save_tasks, synth_generate
from siftmasks.engine import METHODS, build, evaluate, unlearn, verify_exactness
from siftmasks.merging import METHOD_TAGS, LocalizationMethod
from siftmasks.paramcore import BitMask, FxpVector
from siftmasks.sealed import seal
from siftmasks.trainer import ModelSpec, TrainConfig

DATA = Path(__file__).resolve().parent / "data" / "v3"
V2 = DATA.parent / "v2"
V1 = DATA.parent / "v1"
CONFIGS = (*METHOD_TAGS, "sift_masks_k3", "central_k3")
STATES = ("fresh", "deleted1", "empty")
FIXTURES = [f"{c}_{state}" for c in CONFIGS for state in STATES]
DELETION_ORDER = (2, 0, 5, 1, 4, 3)
# What picked the bits of the files: the core type of numpy's bundled
# OpenBLAS whose kernels trained them, and numpy's highest enabled SIMD
# dispatch group, whose exp, log and tanh loops trained them and drew m0
FIXTURE_CORE = "SkylakeX"
FIXTURE_DISPATCH = "AVX512_SPR"


def running_core() -> str:
    """The core type of numpy's bundled OpenBLAS in this process, through
    ``scipy_openblas_get_corename64_``; "unknown" where that symbol is missing."""
    for lib in sorted(Path(np.__file__).resolve().parent.parent.glob("numpy.libs/*openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def _umath():
    try:
        from numpy._core import _multiarray_umath as umath  # numpy 2
    except ImportError:
        from numpy.core import _multiarray_umath as umath  # numpy 1
    return umath


def cpu_feature_group() -> str:
    """numpy's highest enabled CPU feature group, the dispatch level of its
    SIMD loops: the last of its baseline and dispatch groups, which it lists
    from lowest to highest, that this CPU supports and that
    ``NPY_DISABLE_CPU_FEATURES`` leaves on."""
    umath = _umath()
    groups = [*umath.__cpu_baseline__, *umath.__cpu_dispatch__]
    enabled = [group for group in groups if umath.__cpu_features__.get(group)]
    return enabled[-1] if enabled else "unknown"


def cores() -> str:
    """Both parts of what picks the bits, for the files and for this process,
    for the message of a test whose bits depend on them."""
    return (f"files written on OpenBLAS core {FIXTURE_CORE} with numpy dispatch"
            f" {FIXTURE_DISPATCH}, run on OpenBLAS core {running_core()} with numpy"
            f" dispatch {cpu_feature_group()}")


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
def test_v3_checkpoint_bytes_survive_load_and_reattach(name, tasks, tmp_path):
    raw = (DATA / f"{name}.sftm").read_bytes()
    ckpt = load_checkpoint(DATA / f"{name}.sftm")
    save_checkpoint(ckpt, tmp_path / "resaved.sftm")
    assert (tmp_path / "resaved.sftm").read_bytes() == raw

    system = system_from_checkpoint(ckpt, tasks)
    save_checkpoint(checkpoint_from_system(system, ckpt.ledger), tmp_path / "rebuilt.sftm")
    assert (tmp_path / "rebuilt.sftm").read_bytes() == raw
    assert set(evaluate(system, "held_out").per_task) == {t.id for t in tasks}
    assert verify_exactness(system).exact, cores()


def stored_sections(system) -> list[bytes]:
    """The bytes of what each shard of ``system`` stores beside its ids: its
    accumulator, retained digests and masks, and its float artifacts, each
    as the v2 layout laid it out (TALL's pairs and EMR's unified vector with
    its scales each in one run). An empty EMR shard's zero unified vector is
    left out: v2 stored no EMR artifacts for an empty shard."""
    ops = METHODS[system.method.tag]
    sections = []
    for shard in system.shards:
        retained = shard.retained
        if ops.per_task:
            sections.append(shard.merged.accumulator.values.tobytes())
            sections += [system.replay_digests[t] for t in retained]
        if ops.stores_masks:
            sections += [shard.masks[t].words.tobytes() for t in retained]
        if shard.tall is not None:
            sections.append(np.array([shard.tall[t] for t in retained], "<f8").tobytes())
        if shard.emr is not None and retained:
            scales = [shard.emr.scales[t] for t in retained]
            sections.append(np.concatenate([shard.emr.unified, scales]).tobytes())
        for vector in (shard.ties_vector, shard.central_params):
            if vector is not None:
                sections.append(vector.tobytes())
    return sections


@pytest.mark.parametrize("name", FIXTURES)
def test_every_v3_section_occurs_verbatim_in_its_v2_file(name):
    """No trained, stored or served bit moved from v2 to v3."""
    v2 = (V2 / f"{name}.sftm").read_bytes()
    system = load_checkpoint(DATA / f"{name}.sftm").system
    sections = stored_sections(system)
    assert sections
    for section in sections:
        assert section in v2
    for shard in system.shards:  # the one section v2 did not store
        if shard.emr is not None and not shard.retained:
            assert shard.emr.unified.tobytes() == bytes(8 * 33)


@pytest.mark.parametrize("config", [c for c in CONFIGS if not c.startswith("central")])
def test_no_deleted_task_digest_in_any_v3_file(config):
    """A v3 file keeps the digests of its retained tasks only; each digest
    is the one the v2 file stores after the task's id. (Central keeps none.)"""
    fresh = load_checkpoint(DATA / f"{config}_fresh.sftm").system.replay_digests
    v2 = (V2 / f"{config}_fresh.sftm").read_bytes()
    assert sorted(fresh) == sorted(DELETION_ORDER)
    for t, digest in fresh.items():
        assert v2.count(struct.pack("<I", t) + digest) == 1
    for state, gone in (("deleted1", DELETION_ORDER[:1]), ("empty", DELETION_ORDER)):
        raw = (DATA / f"{config}_{state}.sftm").read_bytes()
        system = load_checkpoint(DATA / f"{config}_{state}.sftm").system
        assert set(system.replay_digests) == set(fresh) - set(gone)
        for t in gone:
            assert fresh[t] not in raw


RETRAIN = {
    1: r"version-1 checkpoint, trained by the per-example gradient loop.*`siftmasks train`",
    2: r"version-2 checkpoint, a layout that stored some facts twice.*`siftmasks train`",
}


@pytest.mark.parametrize(
    "path", [V1 / "sift_masks_fresh.sftm", *(V2 / f"{name}.sftm" for name in FIXTURES)],
    ids=["v1-sift_masks_fresh", *(f"v2-{name}" for name in FIXTURES)],
)
def test_earlier_version_refused_saying_to_retrain(path):
    version = int(path.parent.name[1:])
    with pytest.raises(CheckpointFormatError, match=f"^{re.escape(str(path))}: {RETRAIN[version]}"):
        load_checkpoint(path)


@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize("command", [["eval", "--mode", "held_in"], ["unlearn", "--id", "2"]],
                         ids=["eval", "unlearn"])
def test_cli_on_earlier_version_exits_2(version, command, tmp_path, capsys):
    path = tmp_path / "old.sftm"
    path.write_bytes((DATA.parent / f"v{version}" / "sift_masks_fresh.sftm").read_bytes())
    raw = path.read_bytes()
    code = main([*command, *cli_data_args(tmp_path),
                 "--checkpoint", str(path), "--out-dir", str(tmp_path)])
    assert code == 2
    assert re.search(RETRAIN[version], capsys.readouterr().err)
    assert path.read_bytes() == raw


def test_loaded_system_names_its_tasks_but_cannot_serve_them_until_reattached():
    system = load_checkpoint(DATA / "sift_masks_deleted1.sftm").system
    assert system.registry == {}
    assert system.retained == (0, 1, 3, 4, 5)
    with pytest.raises(DataFormatError, match=r"missing task ids \[0, 1, 2, 3, 4, 5\]"):
        evaluate(system, "held_out")


TRAILER = "SHA-256 trailer does not match the contents"


def test_appended_byte_rejected_with_exit_2(tmp_path, capsys):
    path = tmp_path / "appended.sftm"
    path.write_bytes((DATA / "sift_masks_fresh.sftm").read_bytes() + b"\x00")
    with pytest.raises(CheckpointFormatError, match=TRAILER):
        load_checkpoint(path)
    code = main(["eval", "--mode", "held_in", *cli_data_args(tmp_path),
                 "--checkpoint", str(path), "--out-dir", str(tmp_path)])
    assert code == 2
    assert TRAILER in capsys.readouterr().err


def resealed(raw) -> bytes:
    """The file ``raw`` with its body sealed again, so that a change to the
    body reaches the check it targets instead of failing the trailer."""
    return b"".join(seal(MAGIC, VERSION, bytes(raw[len(MAGIC) + 4:-32])))


def test_resealed_byte_after_the_last_shard_rejected(tmp_path):
    raw = (DATA / "sift_masks_fresh.sftm").read_bytes()
    path = tmp_path / "longer.sftm"
    path.write_bytes(resealed(raw[:-32] + b"\x00" + raw[-32:]))
    with pytest.raises(CheckpointFormatError, match="trailing bytes after the last shard"):
        load_checkpoint(path)


@pytest.mark.parametrize("name", ["sift_masks_k3_deleted1", "tall_masks_deleted1"])
def test_every_single_bit_flip_is_a_format_error_naming_the_file(name, tmp_path):
    raw = (DATA / f"{name}.sftm").read_bytes()
    path = tmp_path / "flipped.sftm"
    for at in range(len(raw)):
        for bit in range(8):
            flipped = bytearray(raw)
            flipped[at] ^= 1 << bit
            path.write_bytes(flipped)
            with pytest.raises(CheckpointFormatError, match=f"^{re.escape(str(path))}: "):
                load_checkpoint(path)


@pytest.mark.parametrize("at, bit", [(4, 0), (30, 3), (-1, 7)],
                         ids=["version", "steps", "trailer"])
def test_bit_flip_unlearn_exits_2_and_keeps_the_file(at, bit, tmp_path, capsys):
    raw = bytearray((DATA / "sift_masks_k3_deleted1.sftm").read_bytes())
    raw[at] ^= 1 << bit
    path = tmp_path / "flipped.sftm"
    path.write_bytes(raw)
    code = main(["unlearn", "--id", "1", *cli_data_args(tmp_path),
                 "--checkpoint", str(path), "--out-dir", str(tmp_path)])
    assert code == 2
    assert f"{path}: " in capsys.readouterr().err
    assert path.read_bytes() == raw
    assert not (tmp_path / "exactness.csv").exists()


@pytest.mark.parametrize("name", ["sift_masks_fresh", "emr_deleted1", "central_k3_fresh"])
@pytest.mark.parametrize("command", [["eval"], ["verify"]], ids=["eval", "verify"])
def test_three_class_checkpoint_read_from_data_alone(name, command, tmp_path):
    """The checkpoint fixes the model (10 -> 3 here), so no dimension flag is
    needed to read its dataset."""
    code = main([*command, *cli_data_args(tmp_path),
                 "--checkpoint", str(DATA / f"{name}.sftm"), "--out-dir", str(tmp_path)])
    assert code == 0, cores()
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
        with pytest.raises(CheckpointFormatError, match=f"^{re.escape(str(path))}: "):
            load_checkpoint(path)


@pytest.mark.parametrize("name", FIXTURES)
def test_every_resealed_cut_and_an_appended_byte_are_format_errors(name, tmp_path):
    """The body cut at every offset, or one byte longer, and sealed again: the
    trailer passes, so the parser itself must reject each one."""
    body = (DATA / f"{name}.sftm").read_bytes()[len(MAGIC) + 4:-32]
    path = tmp_path / "resealed.sftm"
    for size in range(len(body)):
        path.write_bytes(b"".join(seal(MAGIC, VERSION, body[:size])))
        with pytest.raises(CheckpointFormatError, match=f"^{re.escape(str(path))}: "):
            load_checkpoint(path)
    path.write_bytes(b"".join(seal(MAGIC, VERSION, body + b"\0")))
    with pytest.raises(CheckpointFormatError, match="trailing bytes after the last shard"):
        load_checkpoint(path)


def corrupt_copy(tmp_path: Path, name: str, old: bytes, new: bytes) -> Path:
    """Copies a fixture with its one occurrence of ``old`` replaced by
    ``new``, resealed."""
    raw = (DATA / f"{name}.sftm").read_bytes()
    assert raw.count(old) == 1
    path = tmp_path / f"corrupt_{name}.sftm"
    path.write_bytes(resealed(raw.replace(old, new)))
    return path


def packed_ids(ids) -> bytes:
    return struct.pack(f"<I{len(ids)}I", len(ids), *ids)


def relisted(name: str, lists: dict[int, tuple]) -> tuple[bytes, bytes]:
    """The bytes of the id lists of a fixture's shards, and of those lists
    with the shards in ``lists`` given new (retained, unlearned) ids."""
    shards = load_checkpoint(DATA / f"{name}.sftm").system.shards
    old = [packed_ids(s.retained) + packed_ids(s.unlearned) for s in shards]
    new = [packed_ids(lists[c][0]) + packed_ids(lists[c][1]) if c in lists else o
           for c, o in enumerate(old)]
    return old, new


# each case: a fixture, the new lists of some of its shards (retained ids
# 0, 1, 3, 4, 5 and unlearned 2 in the one-shard file; retained (1, 2),
# (4, 5) and (0, 3) in the three-shard one), and the error
LISTED = {
    "twice_in_one_shard": ("sift_masks_deleted1", {0: ((0, 1, 1, 4, 5), (2,))},
                           "shard 0: task 1 is listed twice"),
    "retained_and_unlearned": ("sift_masks_deleted1", {0: ((0, 1, 3, 4, 5), (3,))},
                               "shard 0: task 3 is listed twice"),
    "across_shards": ("sift_masks_k3_fresh", {2: ((0, 4), ())},
                      "shard 2: task 4 is listed twice"),
    "out_of_order": ("sift_masks_deleted1", {0: ((0, 3, 1, 4, 5), (2,))},
                     "shard 0: retained ids are not strictly ascending"),
}


@pytest.mark.parametrize("case", sorted(LISTED))
@pytest.mark.parametrize(
    "command", [["eval"], ["verify"], ["unlearn", "--id", "1"]], ids=["eval", "verify", "unlearn"]
)
def test_id_listed_twice_or_out_of_order_exits_2(case, command, tmp_path, capsys):
    name, lists, message = LISTED[case]
    old, new = relisted(name, lists)
    raw = (DATA / f"{name}.sftm").read_bytes()
    for o, n in zip(old, new):
        assert raw.count(o) == 1
        raw = raw.replace(o, n)
    path = tmp_path / "relisted.sftm"
    path.write_bytes(resealed(raw))
    with pytest.raises(CheckpointFormatError, match=re.escape(f"{path}: {message}")):
        load_checkpoint(path)
    code = main([*command, *cli_data_args(tmp_path),
                 "--checkpoint", str(path), "--out-dir", str(tmp_path)])
    assert code == 2
    assert message in capsys.readouterr().err


# offset and value of each table count in sift_masks_deleted1 (one shard, six
# tasks, task 2 deleted): after the 8-byte framing and the 94-byte header come
# the two 2-entry grids, the ledger and the shard count, then shard 0's
# retained ids and its unlearned ids
COUNTS = {
    "density_grid": (102, 2), "alpha_grid": (122, 2), "shards": (158, 1),
    "retained": (162, 5), "unlearned": (186, 1),
}


@pytest.mark.parametrize("table", sorted(COUNTS))
def test_count_past_the_file_is_a_format_error(table, tmp_path):
    raw = bytearray((DATA / "sift_masks_deleted1.sftm").read_bytes())
    at, count = COUNTS[table]
    assert struct.unpack_from("<I", raw, at) == (count,)
    struct.pack_into("<I", raw, at, 0xFFFFFFFF)
    path = tmp_path / "huge_count.sftm"
    path.write_bytes(resealed(raw))
    with pytest.raises(CheckpointFormatError, match="truncated|do not fit the file"):
        load_checkpoint(path)


def test_model_too_large_for_the_file_rejected_before_allocating(tmp_path):
    raw = bytearray((DATA / "sift_masks_fresh.sftm").read_bytes())
    assert struct.unpack_from("<I", raw, 10) == (10,)  # input_dim
    struct.pack_into("<I", raw, 10, 2**20)
    path = tmp_path / "wide.sftm"
    path.write_bytes(resealed(raw))
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
    path.write_bytes(resealed(raw))
    code = main(["report", "--checkpoint", str(path), "--out-dir", str(tmp_path)])
    assert code == 2
    assert message in capsys.readouterr().err


ADAM = "need beta1 and beta2 in [0, 1) and finite eps > 0"


@pytest.mark.parametrize(
    "offset, fmt, old, new, message",
    [
        (18, "<I", 3, 1, "need input_dim >= 1 and num_classes >= 2"),
        (106, "<d", 0.3, 2.0, "density grid values must lie in (0, 1]"),
        (46, "<d", 0.9, 2.0, ADAM),
        (46, "<d", 0.9, float("nan"), ADAM),
        (54, "<d", 0.999, 1.0, ADAM),
        (62, "<d", 1e-8, 0.0, ADAM),
        (62, "<d", 1e-8, -1.0, ADAM),
    ],
    ids=["num_classes", "density_grid", "beta1=2", "beta1=nan", "beta2=1", "eps=0", "eps=-1"],
)
def test_invalid_header_value_is_a_format_error_naming_the_file(
    offset, fmt, old, new, message, tmp_path, capsys
):
    raw = bytearray((DATA / "sift_masks_fresh.sftm").read_bytes())
    assert struct.unpack_from(fmt, raw, offset) == (old,)
    struct.pack_into(fmt, raw, offset, new)
    path = tmp_path / "bad_value.sftm"
    path.write_bytes(resealed(raw))
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
    path.write_bytes(resealed(raw))
    message = f"{path}: shard 0: accumulator: fixed-point overflow at index 0"
    with pytest.raises(CheckpointFormatError, match=re.escape(message)):
        load_checkpoint(path)
    data = cli_data_args(tmp_path) if command == ["verify"] else []
    code = main([*command, *data, "--checkpoint", str(path), "--out-dir", str(tmp_path)])
    assert code == 2
    assert message in capsys.readouterr().err


def test_scale_bits_other_than_32_exits_2(tmp_path, capsys):
    raw = bytearray((DATA / "sift_masks_fresh.sftm").read_bytes())
    assert struct.unpack_from("<I", raw, 22) == (32,)
    struct.pack_into("<I", raw, 22, 31)
    path = tmp_path / "scale31.sftm"
    path.write_bytes(resealed(raw))
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


def set_entry(get, key):
    """A change that sets entry ``key`` of what ``get`` reads from shard 0."""
    def change(ckpt, value):
        get(ckpt.system.shards[0])[key] = value
    return change


def set_tall(i: int):
    """A change that sets item ``i`` (0 lambda, 1 alpha) of task 1's TALL pair."""
    def change(ckpt, value):
        pair = list(ckpt.system.shards[0].tall[1])
        pair[i] = value
        ckpt.system.shards[0].tall[1] = tuple(pair)
    return change


EMR = "EMR unified vector and scales"
NON_FINITE = {
    "tall_lambda": ("tall_masks_fresh", set_tall(0), "TALL lambdas and alphas"),
    "tall_alpha": ("tall_masks_fresh", set_tall(1), "TALL lambdas and alphas"),
    "emr_unified": ("emr_fresh", set_entry(lambda s: s.emr.unified, 0), EMR),
    "emr_scale": ("emr_fresh", set_entry(lambda s: s.emr.scales, 1), EMR),
    "ties_vector": ("ties_fresh", set_entry(lambda s: s.ties_vector, 0), "TIES vector"),
    "central_params": ("central_fresh", set_entry(lambda s: s.central_params, 0),
                       "central parameters"),
}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("kind", sorted(NON_FINITE))
def test_non_finite_artifact_verify_exits_2_naming_shard_and_field(kind, value, tmp_path, capsys):
    """Loaded, such a file would serve non-finite parameters, and ``verify``
    would blame determinism (exit 3); the reader refuses it."""
    name, change, what = NON_FINITE[kind]
    path = resaved_copy(tmp_path, name, lambda ckpt: change(ckpt, value))
    message = f"{path}: shard 0: non-finite value in {what}"
    with pytest.raises(CheckpointFormatError, match=re.escape(message)):
        load_checkpoint(path)
    code = main(["verify", *cli_data_args(tmp_path),
                 "--checkpoint", str(path), "--out-dir", str(tmp_path)])
    assert code == 2
    assert message in capsys.readouterr().err


def shorten_accumulator(ckpt) -> None:
    merged = ckpt.system.shards[0].merged
    short = FxpVector(merged.accumulator.values[:32])
    ckpt.system.shards = (
        replace(ckpt.system.shards[0], merged=replace(merged, accumulator=short)),
    )


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
    "name, change, message",
    [("sift_masks_fresh", shorten_accumulator, "accumulator has 32 entries, expected 33"),
     ("ties_fresh", shorten_ties, "TIES vector has 32 entries, expected 33"),
     ("emr_fresh", shorten_emr, "EMR unified vector and scales has 38 entries, expected 39"),
     ("central_fresh", shorten_central, "central parameters has 32 entries, expected 33")],
    ids=["accumulator", "ties", "emr", "central"],
)
def test_save_refuses_a_short_vector_before_writing(name, change, message, tmp_path):
    """The layout stores no vector lengths, so a vector of another length
    could not be read back; the writer refuses it and writes nothing."""
    ckpt = load_checkpoint(DATA / f"{name}.sftm")
    change(ckpt)
    with pytest.raises(CheckpointFormatError, match=re.escape(message)):
        save_checkpoint(ckpt, tmp_path / "out.sftm")
    assert list(tmp_path.iterdir()) == []


def flip_mask_bit(ckpt) -> None:
    masks = ckpt.system.shards[0].masks
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
# TALL (lambda, alpha) pairs; EMR's unified vector (33 floats) and scales
TAIL = {"sift_masks_fresh": 0, "tall_masks_fresh": 6 * 16, "emr_fresh": 33 * 8 + 6 * 8}


def mask_block(name: str) -> tuple[bytes, int, int]:
    """A one-shard fixture's bytes, and the offset and size of its masks,
    which come before its artifacts and the 32-byte trailer."""
    raw = (DATA / f"{name}.sftm").read_bytes()
    masks = load_checkpoint(DATA / f"{name}.sftm").system.shards[0].masks
    size = sum(m.words.nbytes for m in masks.values())
    return raw, len(raw) - 32 - TAIL[name] - size, size


@pytest.mark.parametrize("name", sorted(TAIL))
@pytest.mark.parametrize("command", [["eval"], ["verify"]], ids=["eval", "verify"])
def test_mask_pad_bit_set_exits_2(name, command, tmp_path, capsys):
    raw, at, _ = mask_block(name)
    mask = load_checkpoint(DATA / f"{name}.sftm").system.shards[0].masks[0]
    assert raw[at:at + 8] == mask.words.tobytes()  # task 0's mask comes first
    path = tmp_path / f"padbit_{name}.sftm"
    # bit 63 of 64 stored: past M = 33, a pad bit
    path.write_bytes(resealed(raw[:at + 7] + bytes([raw[at + 7] | 0x80]) + raw[at + 8:]))
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
    data_args = cli_data_args(tmp_path)  # the dataset is written atomically too

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        save_checkpoint(load_checkpoint(path), path)
    code = main(["unlearn", "--id", "1", *data_args,
                 "--checkpoint", str(path), "--out-dir", str(tmp_path)])
    assert code == 2
    assert "rename refused" in capsys.readouterr().err
    assert path.read_bytes() == raw
    assert [p.name for p in path.parent.iterdir()] == ["sift.sftm"]
    assert not (tmp_path / "exactness.csv").exists()


def test_digest_ending_in_nul_bytes_survives_save_and_load(tmp_path):
    ckpt = load_checkpoint(DATA / "sift_masks_k3_deleted1.sftm")
    digests = ckpt.system.replay_digests
    for t in digests:
        digests[t] = digests[t][:30] + b"\0\0"
    save_checkpoint(ckpt, tmp_path / "nul.sftm")
    assert load_checkpoint(tmp_path / "nul.sftm").system.replay_digests == digests


@pytest.mark.parametrize("bad", [2**32, -1, np.int64(2**32)], ids=["2**32", "-1", "np.int64"])
def test_save_rejects_id_outside_u32_before_writing(bad, tmp_path):
    ckpt = load_checkpoint(DATA / "sift_masks_fresh.sftm")
    shard = ckpt.system.shards[0]
    retained = tuple(bad if t == 5 else t for t in shard.retained)
    ckpt.system.shards = (replace(shard, retained=retained),)
    ckpt.system.replay_digests[bad] = ckpt.system.replay_digests.pop(5)
    path = tmp_path / "out.sftm"
    with pytest.raises(struct.error):
        save_checkpoint(ckpt, path)
    assert list(tmp_path.iterdir()) == []


def first_difference(a: bytes, b: bytes) -> int | None:
    """The offset of the first byte at which ``a`` and ``b`` differ, where
    one ending early differs at its end; None where they are equal."""
    if a == b:
        return None
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


def first_mismatch(expected_dir: Path) -> str | None:
    """Rewrites the fixtures into a temporary directory; names the first file
    of ``expected_dir`` that is missing on either side, or whose bytes differ
    from the rewrite, with the offset of its first differing byte; else None."""
    with tempfile.TemporaryDirectory() as tmp:
        write_fixtures(Path(tmp))
        names = sorted({p.name for p in Path(tmp).iterdir()}
                       | {p.name for p in expected_dir.glob("*.sftm")})
        for name in names:
            fresh, kept = Path(tmp) / name, expected_dir / name
            if not (fresh.exists() and kept.exists()):
                return f"{kept}: {'not written by' if kept.exists() else 'missing, written by'}" \
                       " the current code"
            at = first_difference(fresh.read_bytes(), kept.read_bytes())
            if at is not None:
                return f"{kept}: byte {at} differs from what the current code writes"
    return None


def test_first_difference_names_the_first_differing_offset():
    assert first_difference(b"abc", b"abc") is None
    assert first_difference(b"abc", b"abd") == 2
    assert first_difference(b"abc", b"xbc") == 0
    assert first_difference(b"ab", b"abc") == 2


def test_cores_name_a_cpu_feature_group_where_openblas_names_no_core(monkeypatch):
    def no_library(path):
        raise OSError(f"{path}: cannot open shared object file")

    monkeypatch.setattr(ctypes, "CDLL", no_library)
    group = cpu_feature_group()
    assert running_core() == "unknown" != group
    assert cores() == ("files written on OpenBLAS core SkylakeX with numpy dispatch AVX512_SPR,"
                       f" run on OpenBLAS core unknown with numpy dispatch {group}")


def test_cores_name_the_dispatch_group_left_enabled(monkeypatch):
    """The running dispatch named is the highest group still on, where the
    top groups are off as ``NPY_DISABLE_CPU_FEATURES`` turns them off."""
    umath = _umath()
    groups = [*umath.__cpu_baseline__, *umath.__cpu_dispatch__]
    for on in (groups, groups[:-1], groups[:1], []):
        monkeypatch.setattr(umath, "__cpu_features__", dict.fromkeys(on, True))
        want = on[-1] if on else "unknown"
        assert cpu_feature_group() == want
        assert cores().endswith(f" with numpy dispatch {want}")


def test_current_code_rewrites_every_fixture_byte_for_byte():
    mismatch = first_mismatch(DATA)
    assert mismatch is None, f"{mismatch} ({cores()})"


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[:1] == ["--check"]:
        expected = Path(args[1]) if len(args) > 1 else DATA
        mismatch = first_mismatch(expected)
        if mismatch is not None:
            print(f"{mismatch} ({cores()})", file=sys.stderr)
            sys.exit(1)
        print(f"every fixture in {expected} is reproduced byte for byte")
    else:
        write_fixtures(Path(args[0]) if args else DATA)

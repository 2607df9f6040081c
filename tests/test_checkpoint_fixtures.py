"""Frozen checkpoints of the current version: loading and re-saving must
keep their bytes.

The files under data/v{VERSION} (``DATA``, from ``checkpoint.VERSION``) pin
the on-disk format across refactors. Their configuration: a logistic 10 -> 3
model (M = 33), the six tasks below, TrainConfig(steps=4, batch_size=8,
learning_rate=0.05, seed=99), base seed 1, sign seed 2, central_max_steps 12,
density grid (0.3, 0.7), alpha grid (1.0, 1.4), and for the ``_k3`` files
three shards from cluster seed 7. Each configuration is saved fresh, after
deleting task 2, and after deleting every task in the order 2, 0, 5, 1, 4, 3.

The files under data/v3 hold the same configurations in the version-3
layout, whose TALL, EMR and TIES artifacts were derived from raw float deltas
and whose central shards held parameters, not an accumulator. No reader of
it is kept: they stay as proof of which bits version 4 did not move (every
sift_masks and ft_merge body is unchanged, and every accumulator, digest
and mask of a TALL, EMR or TIES file occurs verbatim in its v3 counterpart),
and as files that must be refused. data/v2 holds them in the version-2
layout, which stored some facts twice, and data/v1 keeps one version-1 file,
trained by the per-example gradient loop; both must be refused too.

Loading and re-saving retrain nothing, but ``verify``'s audit and a rewrite
of the files (``--check`` and the tests that run it) retrain every task.
Every stored bit derives from the quantized vectors that the replay digests
check, so they hold on other OpenBLAS kernels, as under
``OPENBLAS_CORETYPE=Haswell``, and at a lower numpy SIMD dispatch level, as
under ``NPY_DISABLE_CPU_FEATURES=AVX512_SPR,AVX512_ICL,X86_V4``, wherever
those train the same integers; a failure names the OpenBLAS core and the
dispatch level of the files (``FIXTURE_CORE``, ``FIXTURE_DISPATCH``) and of
the run.

A test that corrupts a field reseals the file (``resealed``), so that the
corruption reaches the check it targets rather than the SHA-256 trailer.

To rewrite the files (only when the format or the trainer changes on purpose,
together with a version bump): ``PYTHONPATH=src python tests/test_checkpoint_fixtures.py``.
To check that the current code still writes them byte for byte, without
touching them: ``PYTHONPATH=src python tests/test_checkpoint_fixtures.py --check``
(exit 1 naming the first file that differs and the offset of its first
differing byte).
"""

import ctypes
import os
import re
import struct
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from siftmasks.checkpoint import (
    MAGIC,
    VERSION,
    Checkpoint,
    CheckpointFormatError,
    checkpoint_from_system,
    load_checkpoint,
    save_checkpoint,
    system_from_checkpoint,
)
from siftmasks.cli import main
from siftmasks.datasets import DataFormatError, HeterogeneityRegime, save_tasks, synth_generate
from siftmasks.engine import CostLedger, build, evaluate, unlearn, verify_exactness
from siftmasks.merging import METHOD_TAGS, LocalizationMethod
from siftmasks.paramcore import FxpVector
from siftmasks.sealed import seal
from siftmasks.trainer import ModelSpec, TrainConfig

DATA = Path(__file__).resolve().parent / "data" / f"v{VERSION}"
V3 = DATA.parent / "v3"
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
        method = LocalizationMethod(tag, density_grid=(0.3, 0.7), alpha_grid=(1.0, 1.4),
                                    central_max_steps=12)
        system, ledger = build(
            method, tasks, spec, cfg, base_seed=1, sign_seed=2,
            clusters=clusters, cluster_seed=7,
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
def test_checkpoint_bytes_survive_load_and_reattach(name, tasks, tmp_path):
    raw = (DATA / f"{name}.sftm").read_bytes()
    ckpt = load_checkpoint(DATA / f"{name}.sftm")
    save_checkpoint(ckpt, tmp_path / "resaved.sftm")
    assert (tmp_path / "resaved.sftm").read_bytes() == raw

    system = system_from_checkpoint(ckpt, tasks)
    save_checkpoint(checkpoint_from_system(system, ckpt.ledger), tmp_path / "rebuilt.sftm")
    assert (tmp_path / "rebuilt.sftm").read_bytes() == raw
    assert set(evaluate(system, "held_out").per_task) == {t.id for t in tasks}
    assert verify_exactness(system).exact, cores()


# the configurations whose every stored bit version 4 left as version 3
# wrote it (they read no float delta), and those whose float artifacts moved
UNMOVED = [f"{c}_{state}" for c in ("sift_masks", "sift_masks_k3", "ft_merge") for state in STATES]
REBUILT = [f"{c}_{state}" for c in ("tall_masks", "emr", "ties") for state in STATES]


def framing(raw: bytes) -> tuple[bytes, int, bytes, bytes]:
    """A sealed file's magic, version, body and trailer."""
    head = len(MAGIC) + 4
    version = int.from_bytes(raw[len(MAGIC):head], "little")
    return raw[:len(MAGIC)], version, raw[head:-32], raw[-32:]


@pytest.mark.parametrize("name", UNMOVED)
def test_subtracting_method_body_equals_its_v3_body(name):
    """sift_masks and ft_merge read no float delta, so a file differs from its
    version-3 counterpart in the version field and the trailer alone."""
    magic, version, body, trailer = framing((DATA / f"{name}.sftm").read_bytes())
    v3_magic, v3_version, v3_body, v3_trailer = framing((V3 / f"{name}.sftm").read_bytes())
    assert magic == v3_magic == MAGIC
    assert (version, v3_version) == (VERSION, 3)
    assert body == v3_body
    assert trailer != v3_trailer


@pytest.mark.parametrize("name", REBUILT)
def test_every_integer_section_occurs_verbatim_in_its_v3_file(name):
    """TALL, EMR and TIES derive their float artifacts from the dequantized
    vectors now, which moved no accumulator, digest or mask table."""
    v3 = (V3 / f"{name}.sftm").read_bytes()
    system = load_checkpoint(DATA / f"{name}.sftm").system
    for shard in system.shards:
        assert shard.merged.accumulator.values.tobytes() in v3
        assert b"".join(system.replay_digests[t] for t in shard.retained) in v3
        if shard.masks is not None:
            assert shard.masks.tobytes() in v3


@pytest.mark.parametrize("config", [c for c in CONFIGS if not c.startswith("central")])
def test_no_deleted_task_digest_in_any_fixture(config):
    """A file keeps the digests of its retained tasks only; each shard's run
    of digests is the one its version-3 file stores. (Central keeps none.)"""
    system = load_checkpoint(DATA / f"{config}_fresh.sftm").system
    fresh = system.replay_digests
    v3 = (V3 / f"{config}_fresh.sftm").read_bytes()
    assert sorted(fresh) == sorted(DELETION_ORDER)
    for shard in system.shards:
        assert v3.count(b"".join(fresh[t] for t in shard.retained)) == 1
    for state, gone in (("deleted1", DELETION_ORDER[:1]), ("empty", DELETION_ORDER)):
        raw = (DATA / f"{config}_{state}.sftm").read_bytes()
        system = load_checkpoint(DATA / f"{config}_{state}.sftm").system
        assert set(system.replay_digests) == set(fresh) - set(gone)
        for t in gone:
            assert fresh[t] not in raw


RETRAIN = {
    1: r"version-1 checkpoint, trained by the per-example gradient loop.*`siftmasks train`",
    2: r"version-2 checkpoint, a layout that stored some facts twice.*`siftmasks train`",
    3: r"version-3 checkpoint, its float artifacts derived from float deltas that no digest "
       r"checks.*`siftmasks train`",
}
EARLIER = [V1 / "sift_masks_fresh.sftm",
           *(old / f"{name}.sftm" for old in (V2, V3) for name in FIXTURES)]


@pytest.mark.parametrize("path", EARLIER, ids=[f"{p.parent.name}-{p.stem}" for p in EARLIER])
def test_earlier_version_refused_saying_to_retrain(path):
    version = int(path.parent.name[1:])
    with pytest.raises(CheckpointFormatError, match=f"^{re.escape(str(path))}: {RETRAIN[version]}"):
        load_checkpoint(path)


@pytest.mark.parametrize("version", [1, 2, 3])
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


@pytest.mark.parametrize(
    "offset, fmt, old, new, message",
    [
        (18, "<I", 3, 1, "need input_dim >= 1 and num_classes >= 2"),
        (106, "<d", 0.3, 2.0, "density grid values must lie in (0, 1]"),
        (46, "<d", 0.9, 2.0, "Adam beta1 2.0, expected 0.9"),
        (46, "<d", 0.9, float("nan"), "Adam beta1 nan, expected 0.9"),
        (54, "<d", 0.999, 1.0, "Adam beta2 1.0, expected 0.999"),
        (62, "<d", 1e-8, 0.0, "Adam eps 0.0, expected 1e-08"),
        (62, "<d", 1e-8, -1.0, "Adam eps -1.0, expected 1e-08"),
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


@pytest.mark.parametrize(
    "offset, old, new, message",
    [(46, 0.9, 0.5, "Adam beta1 0.5, expected 0.9"),
     (54, 0.999, 0.99, "Adam beta2 0.99, expected 0.999"),
     (62, 1e-8, 1e-7, "Adam eps 1e-07, expected 1e-08")],
    ids=["beta1", "beta2", "eps"],
)
def test_resealed_adam_constant_verify_exits_2_and_keeps_the_file(
    offset, old, new, message, tmp_path, capsys
):
    """An in-range Adam value other than the trainer's constant is refused at
    load, naming the field; retrained under it, ``verify`` would blame the
    replay (exit 3)."""
    raw = bytearray((DATA / "sift_masks_fresh.sftm").read_bytes())
    assert struct.unpack_from("<d", raw, offset) == (old,)
    struct.pack_into("<d", raw, offset, new)
    path = tmp_path / "adam.sftm"
    path.write_bytes(resealed(raw))
    raw = path.read_bytes()
    code = main(["verify", *cli_data_args(tmp_path), "--checkpoint", str(path),
                 "--out-dir", str(tmp_path)])
    assert code == 2
    assert f"{path}: {message}" in capsys.readouterr().err
    assert path.read_bytes() == raw


# where the ledger's two counts sit in a fixture: after the framing, the
# 94-byte header and the two two-entry grids
LEDGER_AT = len(MAGIC) + 4 + 94 + 2 * (4 + 2 * 8)


@pytest.mark.parametrize(
    "command", [["report"], ["eval"], ["verify"], ["unlearn", "--id", "1"]],
    ids=["report", "eval", "verify", "unlearn"],
)
def test_resealed_ledger_exits_2_and_keeps_the_file(command, tmp_path, capsys):
    """The stored task-finetune counts must be the ones the shard lists imply:
    a build finetune per listed id, one replay for the deletion of task 2."""
    raw = bytearray((DATA / "sift_masks_deleted1.sftm").read_bytes())
    assert struct.unpack_from("<QQ", raw, LEDGER_AT) == (6, 1)
    struct.pack_into("<Q", raw, LEDGER_AT + 8, 4000)
    path = tmp_path / "ledger.sftm"
    path.write_bytes(resealed(raw))
    raw = path.read_bytes()
    data = [] if command == ["report"] else cli_data_args(tmp_path)
    code = main([*command, *data, "--checkpoint", str(path), "--out-dir", str(tmp_path)])
    assert code == 2
    message = ("ledger CostLedger(build_finetunes=6, unlearn_finetunes=4000), expected "
               "CostLedger(build_finetunes=6, unlearn_finetunes=1) from the shard lists")
    assert f"{path}: {message}" in capsys.readouterr().err
    assert path.read_bytes() == raw


@pytest.mark.parametrize("stale", [(6, 0), (5, 1)], ids=["unlearn", "build"])
def test_stale_ledger_save_raises_and_writes_nothing(stale, tmp_path):
    """A deletion whose cost was not added: nothing is written, not even a
    temporary file beside the target."""
    system = load_checkpoint(DATA / "sift_masks_deleted1.sftm").system
    with pytest.raises(CheckpointFormatError, match="^ledger CostLedger"):
        save_checkpoint(Checkpoint(system, CostLedger(*stale)), tmp_path / "stale.sftm")
    assert list(tmp_path.iterdir()) == []


def test_central_cap_is_a_method_setting_read_back_from_the_file():
    """The fixtures build central under a cap of 12 steps (the default is 800)."""
    for name in ("central_fresh", "central_k3_deleted1"):
        method = load_checkpoint(DATA / f"{name}.sftm").system.method
        assert method.central_max_steps == 12
    assert load_checkpoint(DATA / "sift_masks_fresh.sftm").system.method.central_max_steps == 12


@pytest.mark.parametrize("value", [2**62 + 5, -(2**62) - 5], ids=["above", "below"])
@pytest.mark.parametrize("name", ["sift_masks_fresh", "central_fresh"])
@pytest.mark.parametrize("command", [["report"], ["verify"]], ids=["report", "verify"])
def test_accumulator_out_of_range_is_a_format_error_naming_the_file(
    command, name, value, tmp_path, capsys
):
    """Loaded, such a file would serve parameters no fold can reach, and
    ``verify`` would blame determinism (exit 3); the reader refuses it, for
    central's one pooled vector as for a per-task sum."""
    raw = bytearray((DATA / f"{name}.sftm").read_bytes())
    merged = load_checkpoint(DATA / f"{name}.sftm").system.shards[0].merged
    at = raw.find(merged.accumulator.values.tobytes())
    assert at > 0
    struct.pack_into("<q", raw, at, value)  # entry 0, past the fixed-point range
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
        shard = ckpt.system.shards[0]
        shard.tall[shard.rows([1]), i] = value
    return change


NON_FINITE = {
    "tall_lambda": ("tall_masks_fresh", set_tall(0), "TALL lambdas and alphas"),
    "tall_alpha": ("tall_masks_fresh", set_tall(1), "TALL lambdas and alphas"),
    "emr_unified": ("emr_fresh", set_entry(lambda s: s.unified, 0), "EMR unified vector"),
    "emr_scale": ("emr_fresh", set_entry(lambda s: s.scales, 1), "EMR scales"),
    "ties_vector": ("ties_fresh", set_entry(lambda s: s.ties_vector, 0), "TIES vector"),
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


def misalign_emr(ckpt) -> None:
    """EMR's unified vector one entry short and its scales one entry long, so
    that the two still hold M + K floats between them."""
    shard = ckpt.system.shards[0]
    scales = np.append(shard.scales, shard.unified[-1])
    ckpt.system.shards = (replace(shard, unified=shard.unified[:-1], scales=scales),)


def shorten_emr_scales(ckpt) -> None:
    shard = ckpt.system.shards[0]
    ckpt.system.shards = (replace(shard, scales=shard.scales[:-1]),)


@pytest.mark.parametrize(
    "name, change, message",
    [("sift_masks_fresh", shorten_accumulator, "accumulator has 32 entries, expected 33"),
     ("ties_fresh", shorten_ties, "TIES vector has 32 entries, expected 33"),
     ("emr_fresh", misalign_emr, "EMR unified vector has 32 entries, expected 33"),
     ("emr_fresh", shorten_emr_scales, "EMR scales has 5 entries, expected 6"),
     ("central_fresh", shorten_accumulator, "accumulator has 32 entries, expected 33")],
    ids=["accumulator", "ties", "emr", "emr_scales", "central"],
)
def test_save_refuses_a_short_vector_before_writing(name, change, message, tmp_path):
    """The layout stores no vector lengths, so a vector of another length
    could not be read back; the writer checks each array against its own
    shape, refuses it and writes nothing. (Checked as one joined vector,
    EMR's misaligned pair would be written, and read back split at M.)"""
    ckpt = load_checkpoint(DATA / f"{name}.sftm")
    change(ckpt)
    with pytest.raises(CheckpointFormatError, match=re.escape(message)):
        save_checkpoint(ckpt, tmp_path / "out.sftm")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "name, field, what",
    [("sift_masks_fresh", "masks", "masks"), ("emr_fresh", "unified", "EMR unified vector")],
    ids=["u4_masks", "f8_unified"],
)
def test_save_names_a_missing_array_before_writing(name, field, what, tmp_path):
    """A shard without an array its method stores is refused by that array's
    name, for a word table and a float vector alike, and nothing is written."""
    ckpt = load_checkpoint(DATA / f"{name}.sftm")
    ckpt.system.shards = (replace(ckpt.system.shards[0], **{field: None}),)
    with pytest.raises(CheckpointFormatError, match=f"^{re.escape(what)} is missing$"):
        save_checkpoint(ckpt, tmp_path / "out.sftm")
    assert list(tmp_path.iterdir()) == []


def flip_mask_bit(ckpt) -> None:
    shard = ckpt.system.shards[0]
    shard.masks[shard.rows([1]), 0] ^= 1


def double_tall_alpha(ckpt) -> None:
    shard = ckpt.system.shards[0]
    shard.tall[shard.rows([1]), 1] *= 2


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
    size = load_checkpoint(DATA / f"{name}.sftm").system.shards[0].masks.nbytes
    return raw, len(raw) - 32 - TAIL[name] - size, size


@pytest.mark.parametrize("row", [0, -1], ids=["first", "last"])
@pytest.mark.parametrize("name", sorted(TAIL))
@pytest.mark.parametrize("command", [["eval"], ["verify"]], ids=["eval", "verify"])
def test_mask_pad_bit_set_exits_2(name, command, row, tmp_path, capsys):
    """A pad bit set in the first or the last retained task's mask row."""
    raw, at, _ = mask_block(name)
    shard = load_checkpoint(DATA / f"{name}.sftm").system.shards[0]
    t = shard.retained[row]
    at += 8 * shard.rows([t])[0]  # task t's row: 2 words, 8 bytes
    assert raw[at:at + 8] == shard.masks[row].tobytes()
    path = tmp_path / f"padbit_{name}.sftm"
    # bit 63 of 64 stored: past M = 33, a pad bit
    path.write_bytes(resealed(raw[:at + 7] + bytes([raw[at + 7] | 0x80]) + raw[at + 8:]))
    message = f"shard 0, task {t}: mask of length 33 has nonzero pad bits"
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


X86_V4_AND_ABOVE = ("AVX512_SPR", "AVX512_ICL", "X86_V4")
OTHER_KERNELS = {
    "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "x86_v4_off": {"NPY_DISABLE_CPU_FEATURES": ",".join(X86_V4_AND_ABOVE)},
}


def why_unchanged(setting: str) -> str | None:
    """Why ``setting`` would train on the kernels this process trains on, or
    could not run here; None where it trains on others."""
    if setting == "x86_v4_off":
        if cpu_feature_group() not in X86_V4_AND_ABOVE:
            return f"numpy dispatch here tops out at {cpu_feature_group()}, below X86_V4"
        return None
    if running_core() == "unknown":
        return "numpy's OpenBLAS names no core here, so its Haswell kernels cannot be told apart"
    if running_core() == "Haswell":
        return "OpenBLAS already runs its Haswell kernels here"
    if not all(_umath().__cpu_features__.get(f) for f in ("AVX2", "FMA3")):
        return "this CPU lacks AVX2 or FMA3, which the Haswell kernels need"
    return None


@pytest.mark.parametrize("setting", sorted(OTHER_KERNELS))
def test_fixture_check_exits_0_on_other_kernels(setting):
    """``--check`` in a process that trains on other OpenBLAS kernels, or at
    a lower numpy dispatch level, than the ones that wrote the files: every
    stored bit derives from integers that its digest checks, so each fixture
    is rewritten byte for byte."""
    reason = why_unchanged(setting)
    if reason:
        pytest.skip(reason)
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, __file__, "--check"], capture_output=True, text=True,
                          env={**os.environ, **OTHER_KERNELS[setting], "PYTHONPATH": path},
                          timeout=300)
    assert proc.returncode == 0, proc.stderr


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

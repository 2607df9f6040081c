"""Sealed files and the atomic writer: what ``unseal`` rejects, and what
``write_atomic`` makes durable for the checkpoint, the dataset, the parsed
copy and the CLI's JSON files."""

import json
import os
import struct
from pathlib import Path

import numpy as np
import pytest

from siftmasks import checkpoint, cli
from siftmasks.checkpoint import load_checkpoint, save_checkpoint
from siftmasks.config import RunConfig
from siftmasks.datasets import HeterogeneityRegime, load_tasks, save_tasks, synth_generate
from siftmasks.sealed import Body, SealError, seal, unseal

MAGIC = b"TEST"
PARTS = (b"head", np.arange(5, dtype="<i8"), bytearray(b"\x00\xff"), b"")
BODY = b"head" + np.arange(5, dtype="<i8").tobytes() + b"\x00\xff"
DATA = Path(__file__).resolve().parent / "data" / f"v{checkpoint.VERSION}"
FIXTURE = DATA / "sift_masks_fresh.sftm"
K3_FIXTURE = FIXTURE.with_name("sift_masks_k3_deleted1.sftm")


def sealed_file(magic, version, *parts) -> bytes:
    """The sealed file whose chunks ``seal`` hands out, joined."""
    return b"".join(seal(magic, version, *parts))


def test_seal_hands_out_the_parts_themselves():
    chunks = seal(MAGIC, 3, *PARTS)
    assert chunks[0] is MAGIC and bytes(chunks[1]) == b"\x03\0\0\0"
    assert all(chunk is part for chunk, part in zip(chunks[2:-1], PARTS))
    assert len(chunks) == len(PARTS) + 3 and len(chunks[-1]) == 32


def test_round_trip_of_several_parts():
    sealed = sealed_file(MAGIC, 3, *PARTS)
    assert len(sealed) == len(MAGIC) + 4 + len(BODY) + 32
    body = unseal(bytearray(sealed), MAGIC, 3)
    assert bytes(body) == BODY
    assert np.frombuffer(body, "<i8", 5, 4).tolist() == [0, 1, 2, 3, 4]


def test_empty_body_round_trips():
    assert bytes(unseal(sealed_file(MAGIC, 0), MAGIC, 0)) == b""


def test_every_single_bit_flip_is_rejected():
    sealed = sealed_file(MAGIC, 3, *PARTS)
    for at in range(len(sealed)):
        for bit in range(8):
            damaged = bytearray(sealed)
            damaged[at] ^= 1 << bit
            with pytest.raises(SealError):
                unseal(damaged, MAGIC, 3)


def test_every_truncation_and_an_appended_byte_are_rejected():
    sealed = sealed_file(MAGIC, 3, *PARTS)
    for end in range(len(sealed)):
        with pytest.raises(SealError):
            unseal(sealed[:end], MAGIC, 3)
    with pytest.raises(SealError, match="trailer"):
        unseal(sealed + b"\0", MAGIC, 3)


def test_foreign_magic_and_another_version_are_rejected():
    sealed = sealed_file(MAGIC, 3, *PARTS)
    with pytest.raises(SealError, match="bad magic"):
        unseal(sealed, b"TSET", 3)
    with pytest.raises(SealError, match="version 3, expected 4"):
        unseal(sealed, MAGIC, 4)
    with pytest.raises(SealError, match="bad magic"):
        unseal(sealed_file(b"TSET", 3, *PARTS), MAGIC, 3)


# ---------- Body ----------


def test_body_reads_fields_in_order_as_views():
    buf = bytearray(BODY)
    body = Body(memoryview(buf))
    assert body.unpack(struct.Struct("<4s"), "head") == (b"head",)
    numbers = body.array("<i8", 5, "numbers")
    assert numbers.tolist() == [0, 1, 2, 3, 4] and bytes(body.rest) == b"\x00\xff"
    assert body.array("u1", 2, "tail").tolist() == [0, 255] and len(body.rest) == 0
    numbers[0] = 7  # a view of the buffer, not a copy
    assert buf[4] == 7


def test_body_read_past_the_end_names_what():
    body = Body(BODY)
    body.array("u1", 4, "head")
    with pytest.raises(SealError, match="^truncated numbers$"):
        body.array("<i8", 6, "numbers")
    with pytest.raises(SealError, match="^truncated count$"):
        Body(b"abc").unpack(struct.Struct("<I"), "count")
    with pytest.raises(SealError, match="^truncated huge$"):
        Body(BODY).array("<f8", 2**61, "huge")


def test_body_zero_count_read_at_the_end_succeeds():
    body = Body(BODY)
    body.array("u1", len(BODY), "all")
    assert body.array("<f8", 0, "nothing").shape == (0,)
    assert body.unpack(struct.Struct("<"), "nothing") == ()
    assert len(body.rest) == 0


# ---------- write_atomic ----------


@pytest.fixture
def recorded(monkeypatch):
    """Each fsync's target (as an os.stat_result) and each rename's destination, in order."""
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append(("fsync", os.fstat(fd)))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", os.fspath(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    return events


def assert_durable_write(events, path):
    """The file was fsynced, renamed onto ``path``, then its directory fsynced."""
    assert [kind for kind, _ in events] == ["fsync", "replace", "fsync"]
    assert os.path.samestat(events[0][1], os.stat(path))
    assert events[1][1] == os.path.abspath(path)
    assert os.path.samestat(events[2][1], os.stat(os.path.dirname(os.path.abspath(path))))


def test_checkpoint_save_fsyncs_the_file_then_the_directory(tmp_path, recorded):
    ckpt = load_checkpoint(FIXTURE)
    save_checkpoint(ckpt, tmp_path / "out.sftm")
    assert_durable_write(recorded, tmp_path / "out.sftm")
    assert (tmp_path / "out.sftm").read_bytes() == FIXTURE.read_bytes()


def test_checkpoint_save_streams_the_shard_arrays(tmp_path, monkeypatch):
    """The chunks handed to the writer include each shard's accumulator and
    mask table themselves, not a copy of them inside one joined body."""
    ckpt = load_checkpoint(K3_FIXTURE)
    written = []
    monkeypatch.setattr(checkpoint, "write_atomic", lambda path, chunks: written.extend(chunks))
    save_checkpoint(ckpt, tmp_path / "out.sftm")
    assert b"".join(written) == K3_FIXTURE.read_bytes()
    shards = ckpt.system.shards
    arrays = [a for s in shards for a in (s.merged.accumulator.values, s.masks)]
    assert len(arrays) == 2 * len(shards) and all(len(s.masks) for s in shards)
    for array in arrays:
        assert any(np.shares_memory(chunk, array) for chunk in written)


def test_dataset_write_fsyncs_the_file_then_the_directory(tmp_path, recorded):
    path = tmp_path / "data.jsonl"
    save_tasks(synth_generate(HeterogeneityRegime("similar"), 2, 5, 3, 2, seed=1), path)
    assert_durable_write(recorded, path)


def test_dataset_write_that_fails_midway_keeps_the_old_file_and_no_temporary(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_bytes(b"previous\n")
    tasks = synth_generate(HeterogeneityRegime("similar"), 3, 400, 8, 2, seed=1)
    written = []

    def tasks_then_failure():
        yield from tasks[:2]
        # the first two tasks have gone to the temporary file beside the target
        written.extend(p.stat().st_size for p in tmp_path.iterdir() if p != path)
        raise RuntimeError("disk gone")

    with pytest.raises(RuntimeError, match="disk gone"):
        save_tasks(tasks_then_failure(), path)
    assert len(written) == 1 and written[0] > 0
    assert path.read_bytes() == b"previous\n"
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_parsed_copy_write_fsyncs_the_file_then_the_directory(tmp_path, recorded):
    path = tmp_path / "data.jsonl"
    save_tasks(synth_generate(HeterogeneityRegime("similar"), 2, 5, 3, 2, seed=1), path)
    recorded.clear()  # the dataset's own write
    load_tasks(path)
    assert_durable_write(recorded, tmp_path / ".data.jsonl.parsed")


DOC = {"b": [1.5, 2], "a": {"name": "café"}}


def text_file(path, write):
    with open(path, "w", encoding="utf8") as fh:
        write(fh)


# each JSON file the CLI writes whole: its writer, and how it was written in place before
WRITERS = {
    "run_config": (lambda path: RunConfig(seed=4, out_dir="runs/é").save(path),
                   lambda fh: fh.write(RunConfig(seed=4, out_dir="runs/é").to_json())),
    "report": (lambda path: cli._write_json(path, DOC),
               lambda fh: (json.dump(DOC, fh, indent=2, sort_keys=True), fh.write("\n"))),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_json_writer_is_atomic_and_keeps_its_bytes(name, tmp_path, recorded):
    write, in_place = WRITERS[name]
    path = tmp_path / f"{name}.json"
    write(path)
    assert_durable_write(recorded, path)
    text_file(tmp_path / "in_place.json", in_place)
    assert path.read_bytes() == (tmp_path / "in_place.json").read_bytes()


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_failed_json_rename_keeps_the_old_file_and_no_temporary(name, tmp_path, monkeypatch):
    path = tmp_path / f"{name}.json"
    path.write_bytes(b"previous\n")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        WRITERS[name][0](path)
    assert path.read_bytes() == b"previous\n"
    assert [p.name for p in tmp_path.iterdir()] == [path.name]

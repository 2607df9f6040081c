"""Binary checkpoint: magic "SFTM", versioned, little-endian throughout.

A checkpoint is the engine's ``SystemState`` without its task data, plus a
ledger snapshot. The file stores the method and model configuration, the
seeds that all randomness derives from, a task-to-shard assignment table
derived from the shards' lists, and the shards as the engine holds them
(exact fixed-point accumulator, bit-packed masks, method artifacts), plus the per-task replay digests and the unlearned
ids. A loaded system has an empty registry; ``system_from_checkpoint``
reattaches the tasks from the dataset.

Layouts are canonical (ids ascending where order is not semantic), so saving
a loaded checkpoint reproduces the original bytes. Each shard's block lists
its retained ids (ascending) and its unlearned ids (deletion order); the
writer writes the shard's own lists and derives the assignment table from
them, and the reader, which takes the table as outside input, rejects a file
whose lists, or whose digests, disagree with it. The ledger stores
task-finetune counts and, for each phase, its step count: the count times
``steps``, which the writer derives and the reader checks.

The version number also identifies the training kernel whose bits the stored
replay digests pin: version 1 files were trained by the per-example gradient
loop, version 2 files by the batched kernel. The file is written whole by
``sealed.write_atomic``: a reader sees the old file or the new one, and a
rewrite is durable once ``save_checkpoint`` returns.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .engine import METHODS, CostLedger, Shard, SystemState, new_system
from .merging import METHOD_TAGS, EmrArtifacts, LocalizationMethod, MergedState
from .paramcore import SCALE_BITS, BitMask, FxpOverflowError, FxpVector, mask_words
from .sealed import write_atomic
from .trainer import MODEL_KINDS, ModelSpec, TrainConfig

MAGIC = b"SFTM"
VERSION = 2

# the fixed header, read and written in this order: magic, version, method and
# model-kind codes (indices into METHOD_TAGS and MODEL_KINDS), a reserved u16,
# the model spec and SCALE_BITS, the train config, the seeds, ties_density
_HEADER = "4sIBBHIIIIIIIddddQQQd"

_F_MASKS = 1
_F_EMR = 2
_F_TALL = 4
_F_TIES = 8
_F_CENTRAL = 16


class CheckpointFormatError(ValueError):
    """The file is not a readable checkpoint of a supported version."""


@dataclass
class Checkpoint:
    """A saved system, without task data, and the ledger of the run so far."""

    system: SystemState
    ledger: CostLedger


def _w(fh, fmt, *vals):
    """Pack ``vals`` little-endian in one call, so a whole table is one write;
    an integer that does not fit its field raises ``struct.error``."""
    fh.write(struct.pack("<" + fmt, *vals))


def _read_exact(fh, size: int, what: str) -> bytes:
    raw = fh.read(size)
    if len(raw) != size:
        raise CheckpointFormatError(f"truncated {what}")
    return raw


def _r(fh, fmt):
    return struct.unpack("<" + fmt, _read_exact(fh, struct.calcsize("<" + fmt), "checkpoint"))


def _w_array(fh, arr: np.ndarray, dtype: str) -> None:
    data = np.ascontiguousarray(arr, dtype=dtype)
    _w(fh, "Q", data.shape[0])
    fh.write(data.tobytes())


def _r_array(fh, dtype: str, length: int, what: str) -> np.ndarray:
    """An array that must hold ``length`` entries; ``what`` names it in errors."""
    (n,) = _r(fh, "Q")
    if n != length:
        raise CheckpointFormatError(f"{what} has {n} entries, expected {length}")
    raw = _read_exact(fh, n * np.dtype(dtype).itemsize, "array")
    return np.frombuffer(raw, dtype=dtype).copy()


def _w_ids(fh, ids) -> None:
    _w(fh, f"I{len(ids)}I", len(ids), *ids)


def _r_table(fh, fmt: str, n: int | None = None) -> list[tuple]:
    """``n`` entries of ``fmt`` in one read, ``n`` first read as a u32 count
    when not given; the format is never repeated ``n`` times, since a corrupt
    count would make that string as long as the count."""
    if n is None:
        (n,) = _r(fh, "I")
    raw = _read_exact(fh, n * struct.calcsize("<" + fmt), "table")
    return list(struct.iter_unpack("<" + fmt, raw))


def _r_ids(fh) -> list[int]:
    return [t for (t,) in _r_table(fh, "I")]


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    system = ckpt.system
    spec, cfg, method = system.model_spec, system.train_cfg, system.method
    fh = io.BytesIO()
    _w(fh, _HEADER, MAGIC, VERSION, METHOD_TAGS.index(method.tag), MODEL_KINDS.index(spec.kind), 0,
       spec.input_dim, spec.hidden_dim, spec.num_classes, SCALE_BITS,
       cfg.steps, cfg.batch_size, system.central_max_steps,
       cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.eps,
       system.base_seed, system.sign_seed, cfg.seed, method.ties_density)
    for grid in (method.density_grid, method.alpha_grid):
        _w(fh, f"I{len(grid)}d", len(grid), *grid)
    led = ckpt.ledger
    _w(fh, "QQQQ", led.build_finetunes, led.build_finetunes * cfg.steps,
       led.unlearn_finetunes, led.unlearn_finetunes * cfg.steps)
    _w(fh, "I", len(system.shards))
    pairs = sorted((t, c) for c, s in enumerate(system.shards) for t in s.retained + s.unlearned)
    _w(fh, f"I{2 * len(pairs)}I", len(pairs), *chain.from_iterable(pairs))
    for shard in system.shards:
        _write_shard(fh, system, shard)
    write_atomic(path, [fh.getbuffer()])


def _write_shard(fh, system: SystemState, shard: Shard) -> None:
    retained = shard.retained
    digest_ids = [t for t in sorted(retained + shard.unlearned) if t in system.replay_digests]
    _w_ids(fh, retained)
    _w_ids(fh, shard.unlearned)
    _w_array(
        fh,
        np.empty(0, dtype=np.int64) if shard.merged is None else shard.merged.accumulator.values,
        "<i8",
    )
    digests = [system.replay_digests[t] for t in digest_ids]
    if any(len(d) != 32 for d in digests):
        raise CheckpointFormatError("digests must be 32 bytes")
    table = chain.from_iterable(zip(digest_ids, digests))
    _w(fh, "I" + "I32s" * len(digests), len(digests), *table)
    flags = _artifact_flags(system.method.tag, bool(retained))
    _w(fh, "B", flags)
    m = system.model_spec.param_count
    if flags & _F_MASKS:
        for t in retained:
            words = shard.merged.masks[t].words  # contiguous "<u4", as BitMask stores it
            if words.shape[0] != mask_words(m):
                raise CheckpointFormatError("mask word count mismatch")
            fh.write(words)
    if flags & _F_EMR:
        _w_array(fh, shard.emr.unified, "<f8")
        _w(fh, f"{len(retained)}d", *(shard.emr.scales[t] for t in retained))
    if flags & _F_TALL:
        _w(fh, f"{2 * len(retained)}d", *chain.from_iterable(shard.tall[t] for t in retained))
    if flags & _F_TIES:
        _w_array(fh, shard.ties_vector, "<f8")
    if flags & _F_CENTRAL:
        _w_array(fh, shard.central_params, "<f8")


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as src:
        raw = src.read()
    try:
        return _parse(raw)
    except CheckpointFormatError as exc:
        raise CheckpointFormatError(f"{path}: {exc}") from None


def _parse(raw: bytes) -> Checkpoint:
    if not raw.startswith(MAGIC):
        raise CheckpointFormatError("bad magic, not a checkpoint")
    fh = io.BytesIO(raw)
    (_, version, method_code, kind_code, _, input_dim, hidden_dim, num_classes, scale_bits,
     steps, batch_size, central_max_steps, lr, beta1, beta2, eps,
     base_seed, sign_seed, train_seed, ties_density) = _r(fh, _HEADER)
    if version == 1:
        raise CheckpointFormatError(
            "version-1 checkpoint, trained by the per-example gradient loop; "
            "its replays cannot match the current trainer, so retrain with "
            "`siftmasks train`"
        )
    if version != VERSION:
        raise CheckpointFormatError(f"unsupported version {version}")
    if method_code >= len(METHOD_TAGS):
        raise CheckpointFormatError(f"unknown method code {method_code}")
    if kind_code >= len(MODEL_KINDS):
        raise CheckpointFormatError(f"unknown model kind code {kind_code}")
    if scale_bits != SCALE_BITS:
        raise CheckpointFormatError(f"scale_bits {scale_bits}, expected {SCALE_BITS}")
    density_grid = tuple(x for (x,) in _r_table(fh, "d"))
    alpha_grid = tuple(x for (x,) in _r_table(fh, "d"))
    bf, bs, uf, us = _r(fh, "QQQQ")
    if (bs, us) != (bf * steps, uf * steps):
        raise CheckpointFormatError(
            f"ledger steps ({bs}, {us}) are not its task-finetunes ({bf}, {uf}) x {steps} steps"
        )
    (n_shards,) = _r(fh, "I")
    pairs = _r_table(fh, "II")
    if any(a >= b for (a, _), (b, _) in zip(pairs, pairs[1:])):
        raise CheckpointFormatError("assignment task ids are not strictly ascending")
    for t, c in pairs:
        if c >= n_shards:
            raise CheckpointFormatError(f"task {t} assigned to shard {c} of {n_shards}")
    try:
        model_spec = ModelSpec(MODEL_KINDS[kind_code], input_dim, num_classes, hidden_dim)
        method = LocalizationMethod(METHOD_TAGS[method_code], density_grid, alpha_grid, ties_density)
        train_cfg = TrainConfig(steps, batch_size, lr, beta1, beta2, eps, train_seed)
    except ValueError as exc:
        raise CheckpointFormatError(str(exc)) from exc
    # every shard stores an M-entry vector; checked before new_system allocates M entries
    if not 0 < 8 * model_spec.param_count * n_shards <= len(raw) - fh.tell():
        raise CheckpointFormatError(
            f"{n_shards} shards of {model_spec.param_count} parameters do not fit the file"
        )
    assigned = [[] for _ in range(n_shards)]  # n_shards is bounded by the file from here on
    for t, c in pairs:
        assigned[c].append(t)
    system = new_system(
        method,
        model_spec,
        train_cfg,
        {},
        base_seed=base_seed,
        sign_seed=sign_seed,
        central_max_steps=central_max_steps,
    )
    system.shards = tuple(_read_shard(fh, system, c, ids) for c, ids in enumerate(assigned))
    if fh.read(1):
        raise CheckpointFormatError("trailing bytes after checkpoint")
    return Checkpoint(system, CostLedger(bf, uf))


def _artifact_flags(tag: str, retains: bool) -> int:
    """The artifact flags of a shard of method ``tag``: written, and expected.

    Masks are stored iff the method stores them; TALL and EMR artifacts are
    tuned on the retained tasks, so a shard that retains none has none; a
    TIES or central shard always keeps its vector.
    """
    artifact = {"tall_masks": _F_TALL, "emr": _F_EMR, "ties": _F_TIES, "central": _F_CENTRAL}
    flags = artifact.get(tag, 0)
    if not retains and flags in (_F_TALL, _F_EMR):
        flags = 0
    return flags | (_F_MASKS if METHODS[tag].stores_masks else 0)


def _read_shard(fh, system: SystemState, c: int, assigned: list[int]) -> Shard:
    """Read shard ``c``, adding its digests to ``system``.

    ``assigned`` is every task id the file's assignment table routes to the
    shard, ascending; the block's task lists and digests must agree with it,
    so the lists the loaded system routes by are the table's, and
    its vectors must have the model's parameter count. A method that trains
    per task keeps an accumulator and one digest per assigned task; central
    keeps neither.
    """
    retained = tuple(_r_ids(fh))
    unlearned = tuple(_r_ids(fh))
    gone = set(unlearned)
    if sorted(retained + unlearned) != assigned or retained != tuple(
        t for t in assigned if t not in gone
    ):
        raise CheckpointFormatError(
            f"shard {c}: retained and unlearned ids do not match the assignment"
        )
    tag, m = system.method.tag, system.model_spec.param_count
    per_task = METHODS[tag].per_task
    accumulator = _r_array(fh, "<i8", m if per_task else 0, f"shard {c}: accumulator")
    digests = _r_table(fh, "I32s")
    digest_ids = [t for t, _ in digests]  # a list, so a repeated id fails the check below
    members = set(assigned)
    for t in digest_ids:
        if t not in members:
            raise CheckpointFormatError(f"shard {c}: digest of task {t}, not in this shard")
    if digest_ids != (assigned if per_task else []):
        raise CheckpointFormatError(
            f"shard {c}: digests of tasks {digest_ids}, expected {assigned if per_task else []}"
        )
    system.replay_digests.update(digests)
    (flags,) = _r(fh, "B")
    expected = _artifact_flags(tag, bool(retained))
    if flags != expected:
        raise CheckpointFormatError(
            f"shard {c}: artifact flags {flags:#04x}, expected {expected:#04x} for {tag}"
        )
    masks = {}
    if flags & _F_MASKS:
        nw = mask_words(m)
        for t in retained:
            raw = _read_exact(fh, 4 * nw, "mask")
            try:
                masks[t] = BitMask(np.frombuffer(raw, dtype="<u4").copy(), m)
            except ValueError as exc:
                raise CheckpointFormatError(f"shard {c}, task {t}: {exc}") from None
    emr = None
    if flags & _F_EMR:
        unified = _r_array(fh, "<f8", m, f"shard {c}: EMR unified vector")
        scales = _r_table(fh, "d", len(retained))
        emr = EmrArtifacts(unified, {t: x for t, (x,) in zip(retained, scales)})
    tall = dict(zip(retained, _r_table(fh, "dd", len(retained)))) if flags & _F_TALL else None
    ties_vector = None
    if flags & _F_TIES:
        ties_vector = _r_array(fh, "<f8", m, f"shard {c}: TIES vector")
    if flags & _F_CENTRAL:
        central = _r_array(fh, "<f8", m, f"shard {c}: central parameters")
        return Shard(central_params=central, retained=retained, unlearned=unlearned)
    try:
        merged = MergedState(FxpVector(accumulator), len(retained), masks)
    except FxpOverflowError as exc:
        raise CheckpointFormatError(f"shard {c}: accumulator: {exc}") from None
    return Shard(merged, emr=emr, tall=tall, ties_vector=ties_vector,
                 retained=retained, unlearned=unlearned)


def checkpoint_from_system(system: SystemState, ledger: CostLedger) -> Checkpoint:
    return Checkpoint(system, ledger)


def system_from_checkpoint(ckpt: Checkpoint, tasks) -> SystemState:
    """Reattach task data to a checkpoint. Tasks must cover the retained tasks
    and have the model's feature dimension; a deleted task's data, which only
    held-out evaluation reads, is attached when given.
    """
    system = ckpt.system
    by_id = {t.id: t for t in tasks}
    missing = sorted(set(system.retained) - set(by_id))
    if missing:
        raise CheckpointFormatError(f"dataset is missing task ids {missing}")
    registry = {t: by_id[t] for t in sorted(system.retained + system.unlearned) if t in by_id}
    dim = system.model_spec.input_dim
    for task in registry.values():
        if task.input_dim != dim:
            raise CheckpointFormatError(
                f"task {task.id} has feature dim {task.input_dim}, "
                f"the checkpoint's model input_dim is {dim}"
            )
    return replace(system, registry=registry)

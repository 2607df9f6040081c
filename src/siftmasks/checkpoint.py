"""Binary checkpoint: magic "SFTM", versioned, little-endian throughout.

A checkpoint is the engine's ``SystemState`` without its task data, plus a
ledger snapshot. The file stores the method and model configuration, the
seeds that all randomness derives from, the task-to-shard assignment, and the
shards as the engine holds them (exact fixed-point accumulator, bit-packed
masks, method artifacts), plus the per-task replay digests and the unlearned
ids. A loaded system has an empty registry; ``system_from_checkpoint``
reattaches the tasks from the dataset.

Layouts are canonical (ids ascending where order is not semantic), so saving
a loaded checkpoint reproduces the original bytes. Each shard's block lists
its retained and unlearned ids, which the assignment and the unlearned ids
already determine; the writer derives both lists with the engine's rule, and
the reader rejects a file whose lists, or whose digests, disagree with its
assignment.

The version number also identifies the training kernel whose bits the stored
replay digests pin: version 1 files were trained by the per-example gradient
loop, version 2 files by the batched kernel.
"""

from __future__ import annotations

import contextlib
import io
import os
import struct
from dataclasses import astuple, dataclass, replace
from itertools import chain

import numpy as np

from .engine import METHODS, CostLedger, Shard, SystemState, new_system, shard_ids
from .merging import EmrArtifacts, LocalizationMethod, MergedState
from .paramcore import SCALE_BITS, BitMask, FxpVector, mask_words
from .trainer import ModelSpec, TrainConfig

MAGIC = b"SFTM"
VERSION = 2

_METHOD_CODES = {
    "sift_masks": 0,
    "ft_merge": 1,
    "tall_masks": 2,
    "emr": 3,
    "ties": 4,
    "central": 5,
}
_METHOD_TAGS = {v: k for k, v in _METHOD_CODES.items()}
_KIND_CODES = {"logistic": 0, "mlp": 1}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}

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
    fh = io.BytesIO()
    fh.write(MAGIC)
    _w(fh, "I", VERSION)
    _w(fh, "BBH", _METHOD_CODES[system.method.tag], _KIND_CODES[system.model_spec.kind], 0)
    _w(
        fh,
        "IIII",
        system.model_spec.input_dim,
        system.model_spec.hidden_dim,
        system.model_spec.num_classes,
        SCALE_BITS,
    )
    cfg = system.train_cfg
    _w(fh, "III", cfg.steps, cfg.batch_size, system.central_max_steps)
    _w(fh, "dddd", cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.eps)
    _w(fh, "QQQ", system.base_seed, system.sign_seed, cfg.seed)
    _w(fh, "d", system.method.ties_density)
    for grid in (system.method.density_grid, system.method.alpha_grid):
        _w(fh, f"I{len(grid)}d", len(grid), *grid)
    _w(fh, "QQQQ", *astuple(ckpt.ledger))  # declaration order, as the reader builds CostLedger
    _w(fh, "I", len(system.shards))
    pairs = sorted(system.assignment.items())
    _w(fh, f"I{2 * len(pairs)}I", len(pairs), *chain.from_iterable(pairs))
    ids = shard_ids(system.assignment, system.unlearned)
    digest_ids = [[] for _ in system.shards]
    for t in sorted(system.replay_digests):
        digest_ids[system.assignment[t]].append(t)
    for c, shard in enumerate(system.shards):
        _write_shard(fh, system, shard, *ids[c], digest_ids[c])
    _write_atomic(path, fh.getvalue())


def _write_atomic(path, data: bytes) -> None:
    """Replace ``path`` by ``data`` in one step: write and fsync a temporary
    file beside it, then rename it over the target. On any failure the target
    keeps its old bytes and the temporary file is removed."""
    head, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(head, f".{name}.{os.urandom(6).hex()}.tmp")
    # created like open(path, "wb") creates a file: mode 0o666 less the umask
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as out:
            out.write(data)
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _write_shard(fh, system: SystemState, shard: Shard, retained, unlearned, digest_ids) -> None:
    _w_ids(fh, retained)
    _w_ids(fh, unlearned)
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
    masks = shard.merged.masks if METHODS[system.method.tag].stores_masks else None
    flags = 0
    for bit, part in (
        (_F_MASKS, masks),
        (_F_EMR, shard.emr),
        (_F_TALL, shard.tall),
        (_F_TIES, shard.ties_vector),
        (_F_CENTRAL, shard.central_params),
    ):
        if part is not None:
            flags |= bit
    _w(fh, "B", flags)
    m = system.model_spec.param_count
    if masks is not None:
        for t in retained:
            words = masks[t].words  # contiguous "<u4", as BitMask stores it
            if words.shape[0] != mask_words(m):
                raise CheckpointFormatError("mask word count mismatch")
            fh.write(words)
    if shard.emr is not None:
        _w_array(fh, shard.emr.unified, "<f8")
        _w(fh, f"{len(retained)}d", *(shard.emr.scales[t] for t in retained))
    if shard.tall is not None:
        _w(fh, f"{2 * len(retained)}d", *chain.from_iterable(shard.tall[t] for t in retained))
    if shard.ties_vector is not None:
        _w_array(fh, shard.ties_vector, "<f8")
    if shard.central_params is not None:
        _w_array(fh, shard.central_params, "<f8")


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as src:
        fh = io.BytesIO(src.read())
    if fh.read(4) != MAGIC:
        raise CheckpointFormatError(f"{path}: bad magic, not a checkpoint")
    (version,) = _r(fh, "I")
    if version == 1:
        raise CheckpointFormatError(
            f"{path}: version-1 checkpoint, trained by the per-example gradient loop; "
            "its replays cannot match the current trainer, so retrain with "
            "`siftmasks train`"
        )
    if version != VERSION:
        raise CheckpointFormatError(f"{path}: unsupported version {version}")
    method_code, kind_code, _ = _r(fh, "BBH")
    if method_code not in _METHOD_TAGS:
        raise CheckpointFormatError(f"{path}: unknown method code {method_code}")
    if kind_code not in _KIND_NAMES:
        raise CheckpointFormatError(f"{path}: unknown model kind code {kind_code}")
    input_dim, hidden_dim, num_classes, scale_bits = _r(fh, "IIII")
    if scale_bits != SCALE_BITS:
        raise CheckpointFormatError(f"{path}: scale_bits {scale_bits}, expected {SCALE_BITS}")
    steps, batch_size, central_max_steps = _r(fh, "III")
    lr, beta1, beta2, eps = _r(fh, "dddd")
    base_seed, sign_seed, train_seed = _r(fh, "QQQ")
    (ties_density,) = _r(fh, "d")
    density_grid = tuple(x for (x,) in _r_table(fh, "d"))
    alpha_grid = tuple(x for (x,) in _r_table(fh, "d"))
    bf, bs, uf, us = _r(fh, "QQQQ")
    (n_shards,) = _r(fh, "I")
    pairs = _r_table(fh, "II")
    if any(a >= b for (a, _), (b, _) in zip(pairs, pairs[1:])):
        raise CheckpointFormatError(f"{path}: assignment task ids are not strictly ascending")
    for t, c in pairs:
        if c >= n_shards:
            raise CheckpointFormatError(f"{path}: task {t} assigned to shard {c} of {n_shards}")
    try:
        model_spec = ModelSpec(_KIND_NAMES[kind_code], input_dim, num_classes, hidden_dim)
        method = LocalizationMethod(
            _METHOD_TAGS[method_code],
            density_grid=density_grid,
            alpha_grid=alpha_grid,
            ties_density=ties_density,
        )
        train_cfg = TrainConfig(
            steps=steps,
            batch_size=batch_size,
            learning_rate=lr,
            beta1=beta1,
            beta2=beta2,
            eps=eps,
            seed=train_seed,
        )
    except ValueError as exc:
        raise CheckpointFormatError(f"{path}: {exc}") from exc
    # every shard stores an M-entry vector; checked before new_system allocates M entries
    if not 0 < 8 * model_spec.param_count * n_shards <= len(fh.getbuffer()) - fh.tell():
        raise CheckpointFormatError(
            f"{path}: {n_shards} shards of {model_spec.param_count} parameters do not fit the file"
        )
    system = new_system(
        method,
        model_spec,
        train_cfg,
        {},
        dict(pairs),
        base_seed=base_seed,
        sign_seed=sign_seed,
        central_max_steps=central_max_steps,
    )
    assigned = shard_ids(system.assignment, ())
    system.shards = tuple(_read_shard(fh, system, c, assigned[c][0]) for c in range(n_shards))
    if fh.read(1):
        raise CheckpointFormatError(f"{path}: trailing bytes after checkpoint")
    return Checkpoint(system, CostLedger(bf, bs, uf, us))


def _artifact_flags(tag: str, retains: bool) -> int:
    """The artifact flags the writer sets on a shard of method ``tag``.

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
    """Read shard ``c``, adding its digests and unlearned ids to ``system``.

    ``assigned`` is every task id the assignment routes to the shard,
    ascending; the block's task lists and digests must agree with it, and
    its vectors must have the model's parameter count. A method that trains
    per task keeps an accumulator and one digest per assigned task; central
    keeps neither.
    """
    retained = _r_ids(fh)
    unlearned = _r_ids(fh)
    gone = set(unlearned)
    if sorted(retained + unlearned) != assigned or retained != [
        t for t in assigned if t not in gone
    ]:
        raise CheckpointFormatError(
            f"shard {c}: retained and unlearned ids do not match the assignment"
        )
    system.unlearned += tuple(unlearned)
    tag, m = system.method.tag, system.model_spec.param_count
    per_task = not (_artifact_flags(tag, True) & _F_CENTRAL)
    accumulator = _r_array(fh, "<i8", m if per_task else 0, f"shard {c}: accumulator")
    digests = _r_table(fh, "I32s")
    digest_ids = [t for t, _ in digests]  # a list, so a repeated id fails the check below
    for t in digest_ids:
        if system.assignment.get(t) != c:
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
        return Shard(central_params=_r_array(fh, "<f8", m, f"shard {c}: central parameters"))
    merged = MergedState(FxpVector(accumulator), len(retained), masks)
    return Shard(merged, emr=emr, tall=tall, ties_vector=ties_vector)


def checkpoint_from_system(system: SystemState, ledger: CostLedger) -> Checkpoint:
    return Checkpoint(system, ledger)


def system_from_checkpoint(ckpt: Checkpoint, tasks) -> SystemState:
    """Reattach task data to a checkpoint. Tasks must cover the assignment and
    have the model's feature dimension.

    The file keeps each shard's deletion order but not the order across
    shards; ``unlearned`` lists the shards' deletions shard by shard.
    """
    system = ckpt.system
    by_id = {t.id: t for t in tasks}
    missing = sorted(set(system.assignment) - set(by_id))
    if missing:
        raise CheckpointFormatError(f"dataset is missing task ids {missing}")
    registry = {t: by_id[t] for t in sorted(system.assignment)}
    dim = system.model_spec.input_dim
    for task in registry.values():
        if task.input_dim != dim:
            raise CheckpointFormatError(
                f"task {task.id} has feature dim {task.input_dim}, "
                f"the checkpoint's model input_dim is {dim}"
            )
    return replace(system, registry=registry)

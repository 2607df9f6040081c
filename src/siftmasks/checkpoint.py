"""Binary checkpoint: magic "SFTM", versioned, little-endian throughout.

A checkpoint is everything needed to resume serving/unlearning given the
dataset file: method and model configuration, the seeds that all randomness
derives from, the task-to-shard assignment, and the engine's shards as it
holds them (exact fixed-point accumulator, bit-packed masks, method
artifacts), plus the per-task replay digests, the unlearned ids and a ledger
snapshot. Task data itself is not stored; it is reattached from the dataset.

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
from dataclasses import astuple, dataclass, field
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
    method: LocalizationMethod
    model_spec: ModelSpec
    train_cfg: TrainConfig
    base_seed: int
    sign_seed: int
    central_max_steps: int
    assignment: dict[int, int]  # task id -> shard index
    replay_digests: dict[int, bytes]
    unlearned: tuple[int, ...]
    shards: tuple[Shard, ...]
    ledger: CostLedger = field(default_factory=CostLedger)


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


def _r_ids(fh) -> list[int]:
    (n,) = _r(fh, "I")
    return [_r(fh, "I")[0] for _ in range(n)]


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    fh = io.BytesIO()
    fh.write(MAGIC)
    _w(fh, "I", VERSION)
    _w(fh, "BBH", _METHOD_CODES[ckpt.method.tag], _KIND_CODES[ckpt.model_spec.kind], 0)
    _w(
        fh,
        "IIII",
        ckpt.model_spec.input_dim,
        ckpt.model_spec.hidden_dim,
        ckpt.model_spec.num_classes,
        SCALE_BITS,
    )
    cfg = ckpt.train_cfg
    _w(fh, "III", cfg.steps, cfg.batch_size, ckpt.central_max_steps)
    _w(fh, "dddd", cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.eps)
    _w(fh, "QQQ", ckpt.base_seed, ckpt.sign_seed, cfg.seed)
    _w(fh, "d", ckpt.method.ties_density)
    for grid in (ckpt.method.density_grid, ckpt.method.alpha_grid):
        _w(fh, f"I{len(grid)}d", len(grid), *grid)
    _w(fh, "QQQQ", *astuple(ckpt.ledger))  # declaration order, as the reader builds CostLedger
    _w(fh, "I", len(ckpt.shards))
    pairs = sorted(ckpt.assignment.items())
    _w(fh, f"I{2 * len(pairs)}I", len(pairs), *chain.from_iterable(pairs))
    ids = shard_ids(ckpt.assignment, ckpt.unlearned)
    digest_ids = [[] for _ in ckpt.shards]
    for t in sorted(ckpt.replay_digests):
        digest_ids[ckpt.assignment[t]].append(t)
    for c, shard in enumerate(ckpt.shards):
        _write_shard(fh, ckpt, shard, *ids[c], digest_ids[c])
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


def _write_shard(fh, ckpt: Checkpoint, shard: Shard, retained, unlearned, digest_ids) -> None:
    _w_ids(fh, retained)
    _w_ids(fh, unlearned)
    _w_array(
        fh,
        np.empty(0, dtype=np.int64) if shard.merged is None else shard.merged.accumulator.values,
        "<i8",
    )
    digests = [ckpt.replay_digests[t] for t in digest_ids]
    if any(len(d) != 32 for d in digests):
        raise CheckpointFormatError("digests must be 32 bytes")
    table = chain.from_iterable(zip(digest_ids, digests))
    _w(fh, "I" + "I32s" * len(digests), len(digests), *table)
    masks = shard.merged.masks if METHODS[ckpt.method.tag].stores_masks else None
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
    m = ckpt.model_spec.param_count
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
    (nd,) = _r(fh, "I")
    density_grid = tuple(_r(fh, "d")[0] for _ in range(nd))
    (na,) = _r(fh, "I")
    alpha_grid = tuple(_r(fh, "d")[0] for _ in range(na))
    bf, bs, uf, us = _r(fh, "QQQQ")
    (n_shards,) = _r(fh, "I")
    (n_assign,) = _r(fh, "I")
    assignment = {}
    for _ in range(n_assign):
        t, c = _r(fh, "II")
        if c >= n_shards:
            raise CheckpointFormatError(
                f"{path}: task {t} assigned to shard {c} of {n_shards}"
            )
        assignment[t] = c
    method = LocalizationMethod(
        _METHOD_TAGS[method_code],
        density_grid=density_grid,
        alpha_grid=alpha_grid,
        ties_density=ties_density,
    )
    model_spec = ModelSpec(_KIND_NAMES[kind_code], input_dim, num_classes, hidden_dim)
    cfg = TrainConfig(
        steps=steps,
        batch_size=batch_size,
        learning_rate=lr,
        beta1=beta1,
        beta2=beta2,
        eps=eps,
        seed=train_seed,
    )
    ckpt = Checkpoint(
        method=method,
        model_spec=model_spec,
        train_cfg=cfg,
        base_seed=base_seed,
        sign_seed=sign_seed,
        central_max_steps=central_max_steps,
        assignment=assignment,
        replay_digests={},
        unlearned=(),
        shards=(),
        ledger=CostLedger(bf, bs, uf, us),
    )
    assigned = shard_ids(assignment, ())
    shards = []
    for c in range(n_shards):
        shards.append(_read_shard(fh, ckpt, c, assigned[c][0]))
    ckpt.shards = tuple(shards)
    if fh.read(1):
        raise CheckpointFormatError(f"{path}: trailing bytes after checkpoint")
    return ckpt


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


def _read_shard(fh, ckpt: Checkpoint, c: int, assigned: list[int]) -> Shard:
    """Read shard ``c``, adding its digests and unlearned ids to ``ckpt``.

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
    ckpt.unlearned += tuple(unlearned)
    m = ckpt.model_spec.param_count
    per_task = METHODS[ckpt.method.tag].train_task is not None
    accumulator = _r_array(fh, "<i8", m if per_task else 0, f"shard {c}: accumulator")
    (n_dig,) = _r(fh, "I")
    digest_ids = []
    for _ in range(n_dig):
        (t,) = _r(fh, "I")
        if ckpt.assignment.get(t) != c:
            raise CheckpointFormatError(f"shard {c}: digest of task {t}, not in this shard")
        ckpt.replay_digests[t] = _read_exact(fh, 32, "digest")
        digest_ids.append(t)
    if digest_ids != (assigned if per_task else []):
        raise CheckpointFormatError(
            f"shard {c}: digests of tasks {digest_ids}, expected {assigned if per_task else []}"
        )
    (flags,) = _r(fh, "B")
    expected = _artifact_flags(ckpt.method.tag, bool(retained))
    if flags != expected:
        raise CheckpointFormatError(
            f"shard {c}: artifact flags {flags:#04x}, expected {expected:#04x} "
            f"for {ckpt.method.tag}"
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
        emr = EmrArtifacts(unified, {t: _r(fh, "d")[0] for t in retained})
    tall = {t: _r(fh, "dd") for t in retained} if flags & _F_TALL else None
    ties_vector = None
    if flags & _F_TIES:
        ties_vector = _r_array(fh, "<f8", m, f"shard {c}: TIES vector")
    if flags & _F_CENTRAL:
        return Shard(central_params=_r_array(fh, "<f8", m, f"shard {c}: central parameters"))
    merged = MergedState(FxpVector(accumulator), len(retained), masks)
    return Shard(merged, emr=emr, tall=tall, ties_vector=ties_vector)


def checkpoint_from_system(system: SystemState, ledger: CostLedger) -> Checkpoint:
    return Checkpoint(
        method=system.method,
        model_spec=system.model_spec,
        train_cfg=system.train_cfg,
        base_seed=system.base_seed,
        sign_seed=system.sign_seed,
        central_max_steps=system.central_max_steps,
        assignment=dict(system.assignment),
        replay_digests=dict(system.replay_digests),
        unlearned=system.unlearned,
        shards=system.shards,
        ledger=ledger,
    )


def system_from_checkpoint(ckpt: Checkpoint, tasks) -> SystemState:
    """Reattach task data to a checkpoint. Tasks must cover the registry.

    The file keeps each shard's deletion order but not the order across
    shards; ``unlearned`` lists the shards' deletions shard by shard.
    """
    by_id = {t.id: t for t in tasks}
    missing = sorted(set(ckpt.assignment) - set(by_id))
    if missing:
        raise CheckpointFormatError(f"dataset is missing task ids {missing}")
    system = new_system(
        ckpt.method,
        ckpt.model_spec,
        ckpt.train_cfg,
        {t: by_id[t] for t in sorted(ckpt.assignment)},
        dict(ckpt.assignment),
        base_seed=ckpt.base_seed,
        sign_seed=ckpt.sign_seed,
        central_max_steps=ckpt.central_max_steps,
    )
    system.replay_digests = dict(ckpt.replay_digests)
    system.unlearned = ckpt.unlearned
    system.shards = ckpt.shards
    return system

"""Binary checkpoint: magic "SFTM", versioned, little-endian throughout.

A checkpoint is everything needed to resume serving/unlearning given the
dataset file: method and model configuration, the seeds that all randomness
derives from, retained/unlearned ids, the exact fixed-point accumulator,
bit-packed masks, per-task replay digests, method artifacts, and a ledger
snapshot. Task data itself is not stored; it is reattached from the dataset.

Layouts are canonical (ids ascending where order is not semantic), so saving
a loaded checkpoint reproduces the original bytes.

The version number also identifies the training kernel whose bits the stored
replay digests pin: version 1 files were trained by the per-example gradient
loop, version 2 files by the batched kernel.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass, field

import numpy as np

from .engine import METHODS, CostLedger, Shard, SystemState, new_system
from .merging import EmrArtifacts, LocalizationMethod, MergedState
from .paramcore import SCALE_BITS_DEFAULT, BitMask, FxpVector, mask_words
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
class ClusterBlock:
    retained: tuple[int, ...]
    unlearned: tuple[int, ...]
    accumulator: np.ndarray  # int64, empty for central systems
    digests: dict[int, bytes]
    masks: dict[int, BitMask] | None = None
    emr_unified: np.ndarray | None = None
    emr_scales: dict[int, float] | None = None
    tall: dict[int, tuple[float, float]] | None = None
    ties_vector: np.ndarray | None = None
    central_params: np.ndarray | None = None


@dataclass
class Checkpoint:
    method: LocalizationMethod
    model_spec: ModelSpec
    train_cfg: TrainConfig
    base_seed: int
    sign_seed: int
    central_max_steps: int
    scale_bits: int
    assignment: dict[int, int]  # task id -> cluster index
    clusters: list[ClusterBlock]
    ledger: CostLedger = field(default_factory=CostLedger)


def _w(fh, fmt, *vals):
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


def _r_array(fh, dtype: str) -> np.ndarray:
    (n,) = _r(fh, "Q")
    raw = _read_exact(fh, n * np.dtype(dtype).itemsize, "array")
    return np.frombuffer(raw, dtype=dtype).copy()


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
        ckpt.scale_bits,
    )
    cfg = ckpt.train_cfg
    _w(fh, "III", cfg.steps, cfg.batch_size, ckpt.central_max_steps)
    _w(fh, "dddd", cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.eps)
    _w(fh, "QQQ", ckpt.base_seed, ckpt.sign_seed, cfg.seed)
    _w(fh, "d", ckpt.method.ties_density)
    _w(fh, "I", len(ckpt.method.density_grid))
    for v in ckpt.method.density_grid:
        _w(fh, "d", v)
    _w(fh, "I", len(ckpt.method.alpha_grid))
    for v in ckpt.method.alpha_grid:
        _w(fh, "d", v)
    led = ckpt.ledger
    _w(
        fh,
        "QQQQ",
        led.build_finetunes,
        led.build_steps,
        led.unlearn_finetunes,
        led.unlearn_steps,
    )
    _w(fh, "I", len(ckpt.clusters))
    _w(fh, "I", len(ckpt.assignment))
    for task_id in sorted(ckpt.assignment):
        _w(fh, "II", task_id, ckpt.assignment[task_id])
    for block in ckpt.clusters:
        _write_block(fh, block, ckpt)
    with open(path, "wb") as out:
        out.write(fh.getvalue())


def _write_block(fh, block: ClusterBlock, ckpt: Checkpoint) -> None:
    _w(fh, "I", len(block.retained))
    for t in block.retained:
        _w(fh, "I", t)
    _w(fh, "I", len(block.unlearned))
    for t in block.unlearned:
        _w(fh, "I", t)
    _w_array(fh, block.accumulator, "<i8")
    _w(fh, "I", len(block.digests))
    for t in sorted(block.digests):
        _w(fh, "I", t)
        digest = block.digests[t]
        if len(digest) != 32:
            raise CheckpointFormatError("digests must be 32 bytes")
        fh.write(digest)
    flags = 0
    if block.masks is not None:
        flags |= _F_MASKS
    if block.emr_unified is not None:
        flags |= _F_EMR
    if block.tall is not None:
        flags |= _F_TALL
    if block.ties_vector is not None:
        flags |= _F_TIES
    if block.central_params is not None:
        flags |= _F_CENTRAL
    _w(fh, "B", flags)
    m = ckpt.model_spec.param_count
    if block.masks is not None:
        for t in block.retained:
            words = block.masks[t].words
            if words.shape[0] != mask_words(m):
                raise CheckpointFormatError("mask word count mismatch")
            fh.write(np.ascontiguousarray(words, dtype="<u4").tobytes())
    if block.emr_unified is not None:
        _w_array(fh, block.emr_unified, "<f8")
        for t in block.retained:
            _w(fh, "d", block.emr_scales[t])
    if block.tall is not None:
        for t in block.retained:
            lam, alpha = block.tall[t]
            _w(fh, "dd", lam, alpha)
    if block.ties_vector is not None:
        _w_array(fh, block.ties_vector, "<f8")
    if block.central_params is not None:
        _w_array(fh, block.central_params, "<f8")


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
    input_dim, hidden_dim, num_classes, scale_bits = _r(fh, "IIII")
    steps, batch_size, central_max_steps = _r(fh, "III")
    lr, beta1, beta2, eps = _r(fh, "dddd")
    base_seed, sign_seed, train_seed = _r(fh, "QQQ")
    (ties_density,) = _r(fh, "d")
    (nd,) = _r(fh, "I")
    density_grid = tuple(_r(fh, "d")[0] for _ in range(nd))
    (na,) = _r(fh, "I")
    alpha_grid = tuple(_r(fh, "d")[0] for _ in range(na))
    bf, bs, uf, us = _r(fh, "QQQQ")
    (n_clusters,) = _r(fh, "I")
    (n_assign,) = _r(fh, "I")
    assignment = {}
    for _ in range(n_assign):
        t, c = _r(fh, "II")
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
        scale_bits=scale_bits,
        assignment=assignment,
        clusters=[],
        ledger=CostLedger(bf, bs, uf, us),
    )
    for _ in range(n_clusters):
        ckpt.clusters.append(_read_block(fh, ckpt))
    if fh.read(1):
        raise CheckpointFormatError(f"{path}: trailing bytes after checkpoint")
    return ckpt


def _read_block(fh, ckpt: Checkpoint) -> ClusterBlock:
    (n_ret,) = _r(fh, "I")
    retained = tuple(_r(fh, "I")[0] for _ in range(n_ret))
    (n_unl,) = _r(fh, "I")
    unlearned = tuple(_r(fh, "I")[0] for _ in range(n_unl))
    accumulator = _r_array(fh, "<i8")
    (n_dig,) = _r(fh, "I")
    digests = {}
    for _ in range(n_dig):
        (t,) = _r(fh, "I")
        digests[t] = _read_exact(fh, 32, "digest")
    (flags,) = _r(fh, "B")
    m = ckpt.model_spec.param_count
    block = ClusterBlock(retained, unlearned, accumulator, digests)
    if flags & _F_MASKS:
        block.masks = {}
        nw = mask_words(m)
        for t in retained:
            raw = _read_exact(fh, 4 * nw, "mask")
            block.masks[t] = BitMask(np.frombuffer(raw, dtype="<u4").copy(), m)
    if flags & _F_EMR:
        block.emr_unified = _r_array(fh, "<f8")
        block.emr_scales = {t: _r(fh, "d")[0] for t in retained}
    if flags & _F_TALL:
        block.tall = {}
        for t in retained:
            lam, alpha = _r(fh, "dd")
            block.tall[t] = (lam, alpha)
    if flags & _F_TIES:
        block.ties_vector = _r_array(fh, "<f8")
    if flags & _F_CENTRAL:
        block.central_params = _r_array(fh, "<f8")
    return block


def _block_from_shard(system: SystemState, c: int, shard: Shard) -> ClusterBlock:
    block = ClusterBlock(
        retained=tuple(system.shard_retained(c)),
        unlearned=tuple(t for t in system.unlearned if system.assignment[t] == c),
        accumulator=(
            np.empty(0, dtype=np.int64)
            if shard.merged is None
            else shard.merged.accumulator.values
        ),
        digests={
            t: d for t, d in system.replay_digests.items() if system.assignment[t] == c
        },
        tall=None if shard.tall is None else dict(shard.tall),
        ties_vector=shard.ties_vector,
        central_params=shard.central_params,
    )
    if METHODS[system.method.tag].stores_masks:
        block.masks = dict(shard.merged.masks)
    if shard.emr is not None:
        block.emr_unified = shard.emr.unified
        block.emr_scales = dict(shard.emr.scales)
    return block


def checkpoint_from_system(system: SystemState, ledger: CostLedger) -> Checkpoint:
    first = system.shards[0].merged
    return Checkpoint(
        method=system.method,
        model_spec=system.model_spec,
        train_cfg=system.train_cfg,
        base_seed=system.base_seed,
        sign_seed=system.sign_seed,
        central_max_steps=system.central_max_steps,
        scale_bits=SCALE_BITS_DEFAULT if first is None else first.accumulator.scale_bits,
        assignment=dict(system.assignment),
        clusters=[_block_from_shard(system, c, s) for c, s in enumerate(system.shards)],
        ledger=ledger,
    )


def _shard_from_block(ckpt: Checkpoint, block: ClusterBlock) -> Shard:
    if block.central_params is not None:
        return Shard(central_params=block.central_params)
    masks = dict(block.masks) if block.masks is not None else {}
    merged = MergedState(
        accumulator=FxpVector(block.accumulator, ckpt.scale_bits),
        retained=block.retained,
        masks=masks,
        method=ckpt.method.tag,
    )
    emr = None
    if block.emr_unified is not None:
        emr = EmrArtifacts(
            unified=block.emr_unified, masks=masks, scales=dict(block.emr_scales)
        )
    return Shard(
        merged,
        emr=emr,
        tall=None if block.tall is None else dict(block.tall),
        ties_vector=block.ties_vector,
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
    for block in ckpt.clusters:
        system.replay_digests.update(block.digests)
    system.unlearned = tuple(t for block in ckpt.clusters for t in block.unlearned)
    system.shards = tuple(_shard_from_block(ckpt, block) for block in ckpt.clusters)
    return system

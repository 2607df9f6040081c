"""Binary checkpoint, version 4: a sealed file (``sealed.seal``) of magic
"SFTM", little-endian throughout, that stores each fact once.

A checkpoint is the engine's ``SystemState`` without its task data, plus a
ledger snapshot. Its body holds, in this order:

* the header (``_HEADER``): the method and model-kind codes (indices into
  METHOD_TAGS and MODEL_KINDS), the model spec and SCALE_BITS, the train
  config with central's cap and Adam's constants, the seeds and ties_density;
  then the density and alpha grids, each a u32 count and its floats;
* the ledger's two task-finetune counts (each is ``steps`` optimizer steps);
* the shard count, then each shard: its retained ids (a u32 count, then the
  ids, strictly ascending) and its unlearned ids (count, ids, in deletion
  order), then what its method keeps, none with a length of its own: the
  fixed-point accumulator (M i64), central's of its one pooled vector; where
  the method trains per task, a 32-byte replay digest per retained id, in
  retained order; then the arrays its method names, in ``MethodOps.artifacts``
  order, each of the dtype and shape ``_ARTIFACTS`` gives: the mask table (a
  retained id's bit-packed mask of ceil(M/32) u32 per row), TALL's (lambda,
  alpha) table, EMR's unified vector and scales, or TIES's vector.

So a shard's layout follows from its method and retained count alone, and a
task's shard is the one whose lists hold it; no id may appear twice in the
file. A deleted task keeps its id, which held-out evaluation reads, but not
its digest, which nothing reads once ``unlearn`` has checked it. Saving a
loaded checkpoint reproduces its bytes.

The SHA-256 trailer is checked before any field is read, so accidental damage
(a flipped bit, a cut or an appended byte) fails to load. It does not catch a
deliberate edit: the file can be resealed, and no hash is kept outside it. So
the reader still checks every field it can: the codes, the configuration
(SCALE_BITS and the Adam doubles must equal the code's constants), that the
shards fit the file before M-entry vectors are allocated, the ids, the
accumulator's range, the masks' pad bits, that every float is finite, and
that the ledger is the one the shard lists imply (``engine.ledger_of``), which
the writer checks too.

The version also identifies the training kernel whose bits the stored replay
digests pin. Version 1 files were trained by an earlier per-example gradient
loop, whose replays the current trainer cannot match. Version 2 files hold
the bits of version 3 in a layout that stored some facts twice (an
assignment table, per-shard flags, digest ids, the digests of deleted tasks,
the ledger's step counts, vector lengths and a reserved field); reading them
would take a second reader. Version 3 files derived float artifacts from raw
deltas that no digest checks, and kept central's parameters, not its sum. All
are refused, saying to retrain (``siftmasks train``: v2's and v3's digests hold).
The file is written by ``sealed.write_atomic`` from chunks, each of a shard's
arrays and tables one chunk, the array itself: a reader sees the old file or
the new one, and a rewrite is durable once ``save_checkpoint`` returns. The
reader walks the body with ``sealed.Body``, reads each table in one piece and
copies it out: after the 94-byte header every field sits at 2 mod 4, so a view
would be unaligned, and read-only besides.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

import numpy as np

from .engine import METHODS, CostLedger, Shard, SystemState, ledger_of, new_system
from .merging import METHOD_TAGS, LocalizationMethod, MergedState
from .paramcore import SCALE_BITS, FxpOverflowError, FxpVector, mask_words
from .sealed import Body, SealError, seal, unseal, write_atomic
from .trainer import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, MODEL_KINDS, ModelSpec, TrainConfig

MAGIC = b"SFTM"
VERSION = 4
# why the files of each earlier version are refused
_REFUSED = {
    1: "trained by the per-example gradient loop, whose replays the current trainer cannot match",
    2: "a layout that stored some facts twice and is no longer read",
    3: "its float artifacts derived from float deltas that no digest checks",
}

# the header, read and written in this order after the sealed framing: method
# and model-kind codes, the model spec and SCALE_BITS, steps, batch size,
# central's cap, learning rate, Adam's constants, the seeds, ties_density
_HEADER = struct.Struct("<BBIIIIIIIddddQQQd")
_LEDGER = struct.Struct("<QQI")  # the two task-finetune counts, then the shard count
_COUNT = struct.Struct("<I")  # of a table's entries
_DIGEST = 32

# Each array a shard stores beside its merged state, by its Shard field (the
# names of ``MethodOps.artifacts``): what errors call it, its dtype, and its
# shape at M parameters and K retained tasks.
_ARTIFACTS = {
    "masks": ("masks", "<u4", lambda m, k: (k, mask_words(m))),
    "tall": ("TALL lambdas and alphas", "<f8", lambda m, k: (k, 2)),
    "unified": ("EMR unified vector", "<f8", lambda m, k: (m,)),
    "scales": ("EMR scales", "<f8", lambda m, k: (k,)),
    "ties_vector": ("TIES vector", "<f8", lambda m, k: (m,)),
}


class CheckpointFormatError(ValueError):
    """The file is not a readable checkpoint of a supported version."""


@dataclass
class Checkpoint:
    """A saved system, without task data, and the ledger of the run so far."""

    system: SystemState
    ledger: CostLedger


def _pack(fmt, *vals) -> bytes:
    """``vals`` packed little-endian in one call, so a whole table is one
    chunk; an integer that does not fit its field raises ``struct.error``."""
    return struct.pack("<" + fmt, *vals)


def _vector(values, dtype: str, shape: tuple, what: str) -> np.ndarray:
    """``values`` as contiguous ``dtype`` entries of ``shape``, the array itself
    where it is one already; stored without a count, which the reader knows."""
    if values is None:
        raise CheckpointFormatError(f"{what} is missing")
    data = np.ascontiguousarray(values, dtype=dtype)
    if data.shape != shape:
        found, want = (" x ".join(map(str, dims)) for dims in (data.shape, shape))
        raise CheckpointFormatError(f"{what} has {found} entries, expected {want}")
    return data


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    system = ckpt.system
    _checked(ckpt.ledger, system)  # before any byte is written
    spec, cfg, method = system.model_spec, system.train_cfg, system.method
    chunks = [_HEADER.pack(METHOD_TAGS.index(method.tag), MODEL_KINDS.index(spec.kind),
                           spec.input_dim, spec.hidden_dim, spec.num_classes, SCALE_BITS,
                           cfg.steps, cfg.batch_size, method.central_max_steps,
                           cfg.learning_rate, ADAM_BETA1, ADAM_BETA2, ADAM_EPS,
                           system.base_seed, system.sign_seed, cfg.seed, method.ties_density)]
    chunks += [_pack(f"I{len(g)}d", len(g), *g) for g in (method.density_grid, method.alpha_grid)]
    chunks.append(_LEDGER.pack(ckpt.ledger.build_finetunes, ckpt.ledger.unlearn_finetunes,
                               len(system.shards)))
    for shard in system.shards:
        chunks += _shard_chunks(system, shard)
    write_atomic(path, seal(MAGIC, VERSION, *chunks))


def _shard_chunks(system: SystemState, shard: Shard) -> list:
    """The chunks of one shard: its id tables packed, its arrays themselves."""
    ops, m, retained = METHODS[system.method.tag], system.model_spec.param_count, shard.retained
    chunks = [_pack(f"I{len(ids)}I", len(ids), *ids) for ids in (retained, shard.unlearned)]
    chunks.append(_vector(shard.merged.accumulator.values, "<i8", (m,), "accumulator"))
    if ops.per_task:
        digests = [system.replay_digests[t] for t in retained]
        if any(len(d) != _DIGEST for d in digests):
            raise CheckpointFormatError(f"digests must be {_DIGEST} bytes")
        chunks.append(b"".join(digests))
    for name in ops.artifacts:
        what, dtype, shape = _ARTIFACTS[name]
        chunks.append(_vector(getattr(shard, name), dtype, shape(m, len(retained)), what))
    return chunks


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as src:
        raw = src.read()
    try:
        return _parse(raw)
    except (CheckpointFormatError, SealError) as exc:
        raise CheckpointFormatError(f"{path}: {exc}") from None


def _table(body: Body, dtype: str) -> tuple:
    """A u32 count, then that many entries of ``dtype``."""
    (n,) = body.unpack(_COUNT, "checkpoint")
    return tuple(body.array(dtype, n, "table").tolist())


def _parse(raw: bytes) -> Checkpoint:
    head = raw[:len(MAGIC) + 4]  # an earlier version has no trailer to check first
    version = int.from_bytes(head[len(MAGIC):], "little")
    if len(head) == len(MAGIC) + 4 and head.startswith(MAGIC) and version != VERSION:
        why = _REFUSED.get(version)
        raise CheckpointFormatError(
            f"version-{version} checkpoint, {why}; retrain with `siftmasks train`" if why
            else f"unsupported version {version}"
        )
    body = Body(unseal(raw, MAGIC, VERSION))
    (method_code, kind_code, input_dim, hidden_dim, num_classes, scale_bits,
     steps, batch_size, central_max_steps, lr, beta1, beta2, eps,
     base_seed, sign_seed, train_seed, ties_density) = body.unpack(_HEADER, "checkpoint")
    if method_code >= len(METHOD_TAGS):
        raise CheckpointFormatError(f"unknown method code {method_code}")
    if kind_code >= len(MODEL_KINDS):
        raise CheckpointFormatError(f"unknown model kind code {kind_code}")
    if scale_bits != SCALE_BITS:
        raise CheckpointFormatError(f"scale_bits {scale_bits}, expected {SCALE_BITS}")
    for name, value, want in zip(("beta1", "beta2", "eps"), (beta1, beta2, eps),
                                 (ADAM_BETA1, ADAM_BETA2, ADAM_EPS)):
        if value != want:  # a NaN included
            raise CheckpointFormatError(f"Adam {name} {value}, expected {want}")
    density_grid, alpha_grid = _table(body, "<f8"), _table(body, "<f8")
    build_finetunes, unlearn_finetunes, n_shards = body.unpack(_LEDGER, "checkpoint")
    try:
        model_spec = ModelSpec(MODEL_KINDS[kind_code], input_dim, num_classes, hidden_dim)
        method = LocalizationMethod(METHOD_TAGS[method_code], density_grid, alpha_grid,
                                    ties_density, central_max_steps)
        train_cfg = TrainConfig(steps, batch_size, lr, seed=train_seed)
    except ValueError as exc:
        raise CheckpointFormatError(str(exc)) from exc
    # every shard stores an M-entry vector; checked before new_system allocates
    # M entries, and bounding the shard count by the file from here on
    if not 0 < 8 * model_spec.param_count * n_shards <= len(body.rest):
        raise CheckpointFormatError(
            f"{n_shards} shards of {model_spec.param_count} parameters do not fit the file"
        )
    system = new_system(method, model_spec, train_cfg, {}, base_seed=base_seed, sign_seed=sign_seed)
    listed: set[int] = set()
    system.shards = tuple(_read_shard(body, system, c, listed) for c in range(n_shards))
    if len(body.rest):
        raise CheckpointFormatError("trailing bytes after the last shard")
    return Checkpoint(system, _checked(CostLedger(build_finetunes, unlearn_finetunes), system))


def _checked(ledger: CostLedger, system: SystemState) -> CostLedger:
    """``ledger``, refused unless it is the one the shard lists imply."""
    if ledger != (want := ledger_of(system)):
        raise CheckpointFormatError(f"ledger {ledger}, expected {want} from the shard lists")
    return ledger


def _read_shard(body: Body, system: SystemState, c: int, listed: set[int]) -> Shard:
    """Read shard ``c``, adding its digests to ``system``. ``listed`` holds
    every id the shards before it list, so no id is listed twice in the file."""
    retained, unlearned = _table(body, "<u4"), _table(body, "<u4")
    for t in retained + unlearned:
        if t in listed:
            raise CheckpointFormatError(f"shard {c}: task {t} is listed twice")
        listed.add(t)
    if any(a >= b for a, b in zip(retained, retained[1:])):
        raise CheckpointFormatError(f"shard {c}: retained ids are not strictly ascending")
    ops, m = METHODS[system.method.tag], system.model_spec.param_count
    accumulator = body.array("<i8", m, f"shard {c}: accumulator").copy()
    if ops.per_task:
        # numpy's "V" keeps a digest's trailing NUL bytes, which "S" would strip
        digests = body.array(f"V{_DIGEST}", len(retained), f"shard {c}: digests")
        system.replay_digests.update(zip(retained, digests.tolist()))
    try:  # central's count is of the vectors folded: its one pooled vector, if any
        n = len(retained) if ops.per_task else min(len(retained), 1)
        merged = MergedState(FxpVector(accumulator), n)
    except FxpOverflowError as exc:
        raise CheckpointFormatError(f"shard {c}: accumulator: {exc}") from None
    arrays = {}
    for name in ops.artifacts:
        what, dtype, shape = _ARTIFACTS[name]
        arrays[name] = body.array(dtype, shape(m, len(retained)), f"shard {c}: {what}").copy()
        padded = np.flatnonzero(arrays[name][:, -1] >> m % 32) if name == "masks" and m % 32 else []
        if len(padded):
            raise CheckpointFormatError(f"shard {c}, task {retained[padded[0]]}: "
                                        f"mask of length {m} has nonzero pad bits")
        if dtype == "<f8" and not np.isfinite(arrays[name]).all():
            raise CheckpointFormatError(f"shard {c}: non-finite value in {what}")
    return Shard(merged, retained=retained, unlearned=unlearned, **arrays)


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

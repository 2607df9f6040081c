"""System lifecycle: build a merged system, process deletions, verify, evaluate.

Cost accounting uses the task-finetune as its unit (one fixed-step finetune of
one task). Build charges one task-finetune per task. Unlearning charges:

* sign-fixed masks / plain merge: one task-finetune (replay the deleted task,
  verify it reproduces the build-time vector bit-exactly, subtract); deleting
  the final task is free because the accumulator then equals that vector.
* TALL / EMR / TIES: the masks (or elected signs) depend on the merged state,
  so every remaining task is retrained and the state rebuilt; charges one
  task-finetune per remaining task.
* central: retrain on the pooled retain set, for at most the method's
  ``central_max_steps`` steps, folded as one vector; charged as one
  task-finetune per remaining task.

A replay that fails to reproduce the stored digest is a hard error: exactness
is void once determinism breaks, so the engine refuses to proceed.

Every system is a tuple of shards, each listing the tasks it retains and the
tasks deleted from it; those lists are the only record of which shard holds
a task, and a deletion or serve finds its task's shard by scanning them. An
unclustered system is one shard, as in SISA shard retraining. A deletion
touches only its task's shard. Shards are made in one place,
``_fresh_shards``: a build, a rebuild and an audit each train every task they
need, across shards, in one lockstep call, and fold each chunk into its
shards as it finishes. Each vector is quantized once, for its digest and its
shard's sum, so a subtracting method's memory is bounded by the model and the
chunk, not by the task count; a deletion subtracts the replay's quantized
vector. TALL, EMR and TIES keep every vector of a shard they build, since
their ``finish`` reads them all, each dequantized from the integers its
digest checks, never the raw delta. Serving is stacked: a method's serve
gives K tasks of one shard their parameters at once, ``serve_for_task`` is
its one-id call, and ``evaluate`` serves and scores in bounded stacked
passes. What differs between methods lives in one table, ``METHODS``.
"""

from __future__ import annotations

import hashlib
import itertools
from bisect import bisect_left
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from .datasets import DataFormatError, TaskSpec
from .merging import (
    LocalizationMethod,
    MergedState,
    emr_build,
    emr_localize,
    fold,
    localize_stack,
    merge,
    pass_size,
    serve_merged,
    tall_tune,
    ties_merge,
    unmerge,
)
from .paramcore import BitMask, FxpVector, dequantize, gen_sign_vector, mask_words, quantize
from .paramcore import word_table
from .prng import PrngStream
from .trainer import (
    ModelSpec,
    TaskVector,
    TrainConfig,
    accuracy,
    finetune_stream,
    ft_finetune,
    init_params,
)

class UnknownTaskError(KeyError):
    """The requested task id is not currently retained."""


class ReplayMismatchError(RuntimeError):
    """A deterministic replay failed to reproduce the build-time vector."""


@dataclass
class CostLedger:
    """Task-finetune counts, split by lifecycle phase; each task-finetune is
    ``train_cfg.steps`` optimizer steps."""

    build_finetunes: int = 0
    unlearn_finetunes: int = 0

    @property
    def task_finetunes(self) -> int:
        return self.build_finetunes + self.unlearn_finetunes

    def add(self, other: "CostLedger") -> None:
        self.build_finetunes += other.build_finetunes
        self.unlearn_finetunes += other.unlearn_finetunes


@dataclass(frozen=True)
class ExactnessReport:
    """Outcome of a deletion or audit; exact unlearning holds iff both flags."""

    replay_matches: bool
    state_matches_oracle: bool

    @property
    def exact(self) -> bool:
        return self.replay_matches and self.state_matches_oracle


@dataclass(frozen=True)
class EvalReport:
    mode: str
    per_task: dict[int, float]
    aggregate: float


@dataclass(frozen=True)
class Shard:
    """What one shard serves: its merged state (every method's) and the arrays
    its method names (``MethodOps.artifacts``; None for the others), in the
    dtypes and shapes ``checkpoint._ARTIFACTS`` gives, a per-task array with a
    row per retained id (``rows``); and which tasks it holds: its retained ids
    (ascending) and its unlearned ids (deletion order)."""

    merged: MergedState
    masks: np.ndarray | None = None
    tall: np.ndarray | None = None
    unified: np.ndarray | None = None
    scales: np.ndarray | None = None
    ties_vector: np.ndarray | None = None
    retained: tuple[int, ...] = ()
    unlearned: tuple[int, ...] = ()

    def rows(self, ids) -> list[int]:
        """Each retained id's row in the tables; ``take`` reads this list ~1 us faster than []."""
        return [bisect_left(self.retained, t) for t in ids]


@dataclass
class SystemState:
    """Everything needed to serve, delete from, and audit one built system.

    The registry and replay digests are held once, keyed by task id, a
    digest for each retained task of a method that trains per task; each
    shard lists its own tasks, and a task is routed to the shard whose
    retained or unlearned ids list it. A system loaded from a checkpoint has
    an empty registry until its tasks are reattached.
    """

    method: LocalizationMethod
    model_spec: ModelSpec
    train_cfg: TrainConfig
    base_seed: int
    sign_seed: int
    m0: np.ndarray
    sign_vector: BitMask | None
    registry: dict[int, TaskSpec]
    replay_digests: dict[int, bytes]
    shards: tuple[Shard, ...] = ()

    @property
    def retained(self) -> tuple[int, ...]:
        return tuple(sorted(t for shard in self.shards for t in shard.retained))

    @property
    def unlearned(self) -> tuple[int, ...]:
        """Deleted ids shard by shard, each shard's in deletion order."""
        return tuple(t for shard in self.shards for t in shard.unlearned)


@dataclass(frozen=True)
class MethodOps:
    """One method's row in ``METHODS``.

    Entries are small functions that look layer functions up as module
    globals when called, so a wrapper installed on a layer function (as the
    benchmark's tracer does) sees every method's calls.
    """

    # one shard's served state from its retained ids, the merged state of
    # their trained vectors and, for TALL, EMR and TIES, those vectors (id
    # order), dequantized, to derive their artifacts; central folds its pooled task
    finish: Callable[[SystemState, list[int], list[TaskVector], MergedState], Shard]
    # parameters (K, M) served for K tasks of one shard, each with a stored
    # mask, or any tasks when the method stores none; row k is task k's
    serve: Callable[[SystemState, Shard, list[int]], np.ndarray]
    # a deletion replays the task and subtracts it; otherwise the shard is
    # rebuilt from its remaining tasks
    subtracts: bool
    # the Shard fields of every array a shard stores beside its merged state, in
    # file order, on an empty shard too; ``finish`` fills all but a signed method's masks
    artifacts: tuple[str, ...] = ()
    # tasks train under the global sign vector
    signed: bool = False
    # each retained task trains alone, in its operation's one lockstep call,
    # and keeps a replay digest; otherwise ``finish`` gets an empty state
    per_task: bool = True

    @property
    def stores_masks(self) -> bool:  # per-task masks are stored and served
        return "masks" in self.artifacts

    @property
    def serve_unlearned(self) -> Callable[[SystemState, Shard, list[int]], np.ndarray]:
        """The stacked serve of unlearned tasks, which keep no mask: the
        shard's maskless average where the method stores masks, else its serve."""
        return _serve_merged if self.stores_masks else self.serve


def _digest(quantized: FxpVector) -> bytes:
    """A task's replay digest: the SHA-256 of its quantized vector."""
    return hashlib.sha256(np.ascontiguousarray(quantized.values, "<i8")).digest()


def _fresh_shards(system: SystemState, members, replay: tuple[int, ...] = ()):
    """The shards of ``members``, a map from shard to its (retained,
    unlearned) ids, built afresh from their retained tasks and holding both
    lists; the replay digest of every task trained; and the quantized vectors
    of the ``replay`` ids.

    All of these tasks train in one lockstep ``finetune_stream`` call, signed
    methods under the sign vector. A task's bits do not depend on the tasks
    beside it, so pooling shards changes none. Each chunk is folded away as
    it finishes: a vector is quantized once, for its digest and for its
    shard's new accumulator (``fold``, from the empty ``merge``), and a
    signed method keeps its mask. Where ``finish`` reads every vector (TALL,
    EMR, TIES), it reads them dequantized, holding only digest-checked bits.
    So a subtracting method holds the vectors of the chunk in hand, not of
    every task, beside the shards' sums, masks and digests.
    """
    ops = METHODS[system.method.tag]
    shard_of = {t: c for c, (kept, _) in members.items() for t in kept} if ops.per_task else {}
    train = [*replay, *shard_of]
    states = {c: merge([], length=len(system.m0)) for c in members}
    kept, masks, digests, replayed = {}, {}, {}, {}
    for chunk in finetune_stream(
        [system.registry[t] for t in train], system.m0, system.model_spec,
        system.train_cfg, system.sign_vector,
    ) if train else ():
        for _, tv, mask in chunk:
            t, quantized = tv.source_task, quantize(tv.delta)
            digests[t] = _digest(quantized)
            if t not in shard_of:
                replayed[t] = quantized
                continue
            states[shard_of[t]] = fold(states[shard_of[t]], quantized)
            if ops.signed:
                masks[t] = mask
            if not ops.subtracts:
                kept[t] = TaskVector(dequantize(quantized), t, tv.steps_used)
        chunk = tv = quantized = None  # held through neither the next chunk nor ``finish``
    fresh = []
    for c, (retained, unlearned) in members.items():
        # the vectors ``finish`` reads: none where the method subtracts or pools
        vectors = [kept[t] for t in retained if t in kept]
        shard = ops.finish(system, retained, vectors, states[c])
        if ops.signed:  # in retained order, as ``finish`` lists TALL's and EMR's
            shard = replace(shard, masks=word_table([masks[t] for t in retained], len(system.m0)))
        fresh.append(replace(shard, retained=tuple(retained), unlearned=tuple(unlearned)))
    return fresh, digests, [replayed[t] for t in replay]


def _finish_merged(system, ids, vectors, state):
    return Shard(state)


def _finish_tall(system, ids, vectors, state):
    """Grid-search each task's (lambda, alpha, mask) on its training split."""
    tuned = [tall_tune(tv, state, system.method.density_grid, system.method.alpha_grid,
                       *system.registry[tv.source_task].train_xy(), system.model_spec, system.m0)
             for tv in vectors]
    pairs = np.array([(lam, alpha) for lam, alpha, _ in tuned], "<f8").reshape(len(tuned), 2)
    return Shard(state, word_table([mask for *_, mask in tuned], state.length), tall=pairs)


def _finish_emr(system, ids, vectors, state):
    if not vectors:  # every task deleted: a zero unified vector, as TIES keeps
        return Shard(state, word_table([], state.length),
                     unified=np.zeros(state.length), scales=np.zeros(0))
    unified, scales, masks = emr_build(vectors)
    return Shard(state, masks, unified=unified, scales=scales)


def _finish_ties(system, ids, vectors, state):
    if vectors:
        return Shard(state, ties_vector=ties_merge(vectors, system.method.ties_density))
    return Shard(state, ties_vector=np.zeros(state.length))


def _pooled_task(tasks: list[TaskSpec]) -> TaskSpec:
    """Concatenate training splits in ascending (task id, example index) order."""
    ordered = sorted(tasks, key=lambda t: t.id)
    feats, labels = zip(*(t.train_xy() for t in ordered))
    return TaskSpec(ordered[0].id, np.concatenate(feats), np.concatenate(labels), n_eval=0)


def _finish_central(system, ids, vectors, state):
    """The pooled task's quantized vector folded into the empty ``state``,
    trained for at most ``system.method.central_max_steps`` steps."""
    if not ids:
        return Shard(state)
    cfg = system.train_cfg
    pooled = _pooled_task([system.registry[t] for t in ids])
    run_cfg = replace(cfg, steps=min(cfg.steps * len(ids), system.method.central_max_steps))
    delta = ft_finetune(pooled, system.m0, system.model_spec, run_cfg).delta
    return Shard(fold(state, quantize(delta)))


def _serve_merged(system: SystemState, shard: Shard, ids: list[int]) -> np.ndarray:
    return _broadcast(serve_merged(shard.merged, system.m0), ids)


def _serve_sift(system: SystemState, shard: Shard, ids: list[int]) -> np.ndarray:
    return localize_stack(shard.merged, shard.masks.take(shard.rows(ids), 0), system.m0)


def _serve_tall(system: SystemState, shard: Shard, ids: list[int]) -> np.ndarray:
    rows = shard.rows(ids)  # alphas as a column (K, 1)
    return localize_stack(shard.merged, shard.masks.take(rows, 0), system.m0, shard.tall[rows, 1:])


def _serve_emr(system: SystemState, shard: Shard, ids: list[int]) -> np.ndarray:
    return emr_localize(shard.unified, shard.scales, shard.masks, shard.rows(ids), system.m0)


def _serve_ties(system: SystemState, shard: Shard, ids: list[int]) -> np.ndarray:
    return _broadcast(system.m0 + shard.ties_vector, ids)


def _broadcast(params: np.ndarray, ids: list[int]) -> np.ndarray:
    """One served vector as the K rows of a read-only stack, not copied; one
    id gets a one-row view, ~3 us cheaper than ``np.broadcast_to``. The
    vector itself is made read-only first, as ``MergedState.summed`` is: it
    is fresh, and a view of a read-only array cannot be made writable."""
    params.flags.writeable = False
    if len(ids) == 1:
        return params[None]
    return np.broadcast_to(params, (len(ids), len(params)))


METHODS: dict[str, MethodOps] = {
    "sift_masks": MethodOps(
        _finish_merged, _serve_sift, subtracts=True, artifacts=("masks",), signed=True
    ),
    "ft_merge": MethodOps(_finish_merged, _serve_merged, subtracts=True),
    "tall_masks": MethodOps(
        _finish_tall, _serve_tall, subtracts=False, artifacts=("masks", "tall")
    ),
    "emr": MethodOps(
        _finish_emr, _serve_emr, subtracts=False, artifacts=("masks", "unified", "scales")
    ),
    "ties": MethodOps(_finish_ties, _serve_ties, subtracts=False, artifacts=("ties_vector",)),
    "central": MethodOps(_finish_central, _serve_merged, subtracts=False, per_task=False),
}


def new_system(
    method: LocalizationMethod,
    model_spec: ModelSpec,
    train_cfg: TrainConfig,
    registry: dict[int, TaskSpec],
    *,
    base_seed: int,
    sign_seed: int,
) -> SystemState:
    """A system without shards yet; base parameters and signs come from the seeds."""
    signs = None
    if METHODS[method.tag].signed:
        signs = gen_sign_vector(sign_seed, model_spec.param_count)
    return SystemState(
        method=method,
        model_spec=model_spec,
        train_cfg=train_cfg,
        base_seed=base_seed,
        sign_seed=sign_seed,
        m0=init_params(model_spec, base_seed),
        sign_vector=signs,
        registry=registry,
        replay_digests={},
    )


def build(
    method: LocalizationMethod,
    tasks: list[TaskSpec],
    model_spec: ModelSpec,
    cfg: TrainConfig,
    *,
    base_seed: int = 0,
    sign_seed: int = 0,
    clusters: int = 1,
    cluster_seed: int = 0,
) -> tuple[SystemState, CostLedger]:
    """Train every task and assemble the serving state for the given method.

    Tasks are split into ``clusters`` shards by ``cluster_random``.
    """
    if not tasks:
        raise DataFormatError("build needs at least one task")
    ids = [t.id for t in tasks]
    if len(set(ids)) != len(ids):
        raise DataFormatError("duplicate task ids")
    tasks = sorted(tasks, key=lambda t: t.id)
    for t in tasks:
        if t.input_dim != model_spec.input_dim:
            raise DataFormatError(f"task {t.id} feature dim != model input_dim")

    members = {c: ([], ()) for c in range(clusters)}
    for t, c in sorted(cluster_random(ids, clusters, cluster_seed).items()):
        members[c][0].append(t)  # ascending ids
    system = new_system(
        method,
        model_spec,
        cfg,
        {t.id: t for t in tasks},
        base_seed=base_seed,
        sign_seed=sign_seed,
    )
    shards, system.replay_digests, _ = _fresh_shards(system, members)
    system.shards = tuple(shards)
    return system, CostLedger(build_finetunes=len(tasks))


def unlearn(
    system: SystemState, task_id: int, *, verify: bool = False
) -> tuple[SystemState, ExactnessReport, CostLedger]:
    """Delete one task. Returns the new state, an exactness report, and the cost.

    With verify=True the task's shard is audited as ``verify_exactness``
    audits it: built afresh from its retained tasks and compared bit for bit.
    The replay and the audit's tasks train in one lockstep call; a rebuilt
    shard is already that fresh build, whose digests the rebuild checked. The
    audit is not charged to the ledger. Without it both flags are True by
    construction and nothing is compared.
    """
    c = next((c for c, shard in enumerate(system.shards) if task_id in shard.retained), None)
    if c is None:
        raise UnknownTaskError(f"task {task_id} is unknown or already unlearned")
    ops = METHODS[system.method.tag]
    old = system.shards[c]
    remaining = tuple(t for t in old.retained if t != task_id)
    subtracts = ops.subtracts and bool(remaining)
    gone = old.unlearned + (task_id,)
    members = {c: (remaining, gone)}
    fresh, digests, replayed = _fresh_shards(
        system, members if verify or not subtracts else {}, (task_id,) if subtracts else ()
    )
    # every replay of the deletion itself must match; the audit's are reported
    for t in [task_id] if subtracts else list(digests):
        if digests.pop(t) != system.replay_digests[t]:
            raise ReplayMismatchError(
                f"replayed task {t} does not reproduce its build-time "
                "vector; deterministic replay is broken"
            )
    if subtracts:  # a subtracting method stores per-task arrays only: the task's rows go
        arrays = {name: np.delete(getattr(old, name), old.rows([task_id]), axis=0)
                  for name in ops.artifacts}
        shard = replace(old, merged=unmerge(old.merged, *replayed),
                        retained=remaining, unlearned=gone, **arrays)
    else:
        # masks / elected signs depend on the merged state, so the shard is
        # rebuilt; a subtracting method's last task is dropped this way for
        # free, since the accumulator then holds exactly its vector
        shard = fresh[0]
    # the deleted task's digest goes: nothing reads it once its replay is checked
    after = replace(
        system,
        shards=system.shards[:c] + (shard,) + system.shards[c + 1:],
        replay_digests={t: d for t, d in system.replay_digests.items() if t != task_id},
    )
    ledger = CostLedger(unlearn_finetunes=deletion_finetunes(ops.subtracts, len(remaining)))
    # without the audit the state holds by construction: integer subtraction
    # of a digest-verified vector is exactly inverse to the addition that
    # built the accumulator, and a rebuild is a fresh merge of the retained set
    report = _audit(after, [c], fresh, digests) if verify else ExactnessReport(True, True)
    return after, report, ledger


def deletion_finetunes(subtracts: bool, remaining: int) -> int:
    """Task-finetunes one deletion costs when its shard keeps ``remaining``
    tasks: one replay where the method subtracts and a task remains, else a
    rebuild from the remaining tasks (free once none remains)."""
    return 1 if subtracts and remaining else remaining


def ledger_of(system: SystemState) -> CostLedger:
    """The ledger the shard lists imply: a build per listed id, then each deletion's cost."""
    subtracts, ledger = METHODS[system.method.tag].subtracts, CostLedger()
    for shard in system.shards:
        kept = len(shard.retained)
        ledger.build_finetunes += kept + len(shard.unlearned)
        ledger.unlearn_finetunes += sum(deletion_finetunes(subtracts, kept + i)
                                        for i in range(len(shard.unlearned)))
    return ledger


def _audit(system: SystemState, shards, fresh: list[Shard], digests) -> ExactnessReport:
    """Both flags for the given shards and their fresh builds: every replay
    digest must equal the stored one, and every field of each fresh shard
    must hold the same bits as the stored shard."""
    return ExactnessReport(
        all(d == system.replay_digests[t] for t, d in digests.items()),
        all(_same_bits(f, system.shards[c]) for c, f in zip(shards, fresh)),
    )


def _same_bits(a, b) -> bool:
    """Whether two values hold the same bits: arrays by dtype, shape and
    bytes, dicts key by key, tuples item by item, and dataclasses (``Shard``,
    ``MergedState``, ``FxpVector``, ...) field by field. A shard holds every
    float in an array."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_bits(a[k], b[k]) for k in a)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same_bits, a, b))
    if is_dataclass(a):
        return all(_same_bits(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    return a == b


def verify_exactness(system: SystemState) -> ExactnessReport:
    """Rebuild every shard and compare it bit for bit to the stored one.

    Every task of every shard trains in one lockstep call. Audit only:
    nothing is charged to any ledger.
    """
    members = {c: (shard.retained, shard.unlearned) for c, shard in enumerate(system.shards)}
    return _audit(system, members, *_fresh_shards(system, members)[:2])


def serve_for_task(system: SystemState, task_id: int) -> np.ndarray:
    """Parameters used to answer queries for one task under the system's
    method: row 0 of its one-id stacked serve, read-only where the method
    serves one vector to every task of the shard.

    The shard is the one whose lists hold the id, and an unlearned task gets
    ``serve_unlearned``; an id the system never held raises ``UnknownTaskError``.
    """
    ops = METHODS[system.method.tag]
    for shard in system.shards:
        if task_id in shard.retained:
            return ops.serve(system, shard, [task_id])[0]
        if task_id in shard.unlearned:
            return ops.serve_unlearned(system, shard, [task_id])[0]
    raise UnknownTaskError(f"task {task_id} is not a task of this system")


def evaluate(system: SystemState, mode: str) -> EvalReport:
    """Per-task accuracy on held-out splits plus the mean over included tasks.

    held_in covers retained tasks, each served by its localized model;
    held_out covers every task, with unlearned tasks served masklessly.
    Tasks are grouped shard by shard, by serve (``serve`` for retained ids,
    ``serve_unlearned`` for unlearned ones) and eval row count, and each
    group is served and scored in stacked passes of ``pass_size`` tasks: per
    pass, one gather of the tasks' held-out views (one concatenate per
    array), one stacked serve and one ``accuracy`` call, each row with the
    bits of serving and scoring its task alone.
    """
    if mode not in ("held_in", "held_out"):
        raise ValueError(f"unknown evaluation mode {mode!r}")
    ops = METHODS[system.method.tag]
    by_serve = [(c, ops.serve, shard.retained) for c, shard in enumerate(system.shards)]
    if mode == "held_out":
        by_serve += [(c, ops.serve_unlearned, s.unlearned) for c, s in enumerate(system.shards)]
    missing = sorted(t for *_, ids in by_serve for t in ids if t not in system.registry)
    if missing:
        raise DataFormatError(f"dataset is missing task ids {missing}, read by {mode} evaluation")
    groups: defaultdict[tuple, list[TaskSpec]] = defaultdict(list)
    for c, serve, ids in by_serve:
        for t in ids:
            task = system.registry[t]
            groups[c, serve, task.n_eval].append(task)
    dim = system.model_spec.input_dim
    scores: dict[int, float] = {}
    for (c, serve, rows), tasks in groups.items():
        size = pass_size(system.model_spec, len(system.m0), rows)
        for start in range(0, len(tasks), size):
            part = tasks[start : start + size]
            ids = [task.id for task in part]
            params = serve(system, system.shards[c], ids)
            # one gather per array, freed with the pass; the given width shapes an empty split
            shape = (len(part), rows)
            xs, ys = zip(*(task.eval_xy() for task in part))
            right = accuracy(
                params, system.model_spec,
                np.concatenate(xs).reshape(*shape, dim), np.concatenate(ys).reshape(shape),
            )
            scores.update(zip(ids, right.tolist()))
    per_task = {t: scores[t] for t in sorted(scores)}  # id order, as aggregate reads it
    aggregate = float(np.mean(list(per_task.values()))) if per_task else 0.0
    return EvalReport(mode=mode, per_task=per_task, aggregate=aggregate)


def storage_words(method_tag: str, param_count: int, retained_per_shard: list[int]) -> int:
    """Stored 32-bit words: M per shard, plus ceil(M/32) per retained task with masks."""
    words = len(retained_per_shard) * param_count
    if METHODS[method_tag].stores_masks:
        words += sum(retained_per_shard) * mask_words(param_count)
    return words


def cluster_random(task_ids: list[int], n_clusters: int, seed: int) -> dict[int, int]:
    """Seeded shuffle then round-robin; cluster sizes differ by at most one."""
    cluster_sizes(len(task_ids), n_clusters)  # checks the cluster count
    stream = PrngStream(seed)
    order = stream.shuffled(sorted(task_ids))
    return {t: i % n_clusters for i, t in enumerate(order)}


def cluster_sizes(num_tasks: int, n_clusters: int) -> list[int]:
    """Cluster sizes that ``cluster_random`` gives ``num_tasks`` tasks."""
    if not (1 <= n_clusters <= num_tasks):
        raise DataFormatError(f"need 1 <= clusters <= num_tasks ({num_tasks}), got {n_clusters}")
    return [
        num_tasks // n_clusters + (1 if c < num_tasks % n_clusters else 0)
        for c in range(n_clusters)
    ]


@dataclass(frozen=True)
class CostProjection:
    """Closed-form ledger for deleting all tasks one by one. Pure arithmetic."""

    steps_per_finetune: int
    per_event: tuple[int, ...]  # task-finetunes charged by deletion i

    @property
    def cumulative(self) -> tuple[int, ...]:
        """Task-finetunes charged by deletions 0..i, for each i."""
        return tuple(itertools.accumulate(self.per_event))

    @property
    def total_finetunes(self) -> int:
        return sum(self.per_event)

    @property
    def total_steps(self) -> int:
        return self.total_finetunes * self.steps_per_finetune

    @property
    def first_event_steps(self) -> int:
        return self.per_event[0] * self.steps_per_finetune if self.per_event else 0


def project_total_cost(
    num_tasks: int,
    method_tag: str,
    steps_per_finetune: int = 20,
    n_clusters: int = 1,
) -> CostProjection:
    """Ledger projection for an unlearn-all policy; no training happens.

    Shards have the sizes ``cluster_random`` gives (``cluster_sizes``: they
    differ by at most one), and deletion i falls on shard i mod n_clusters
    until every shard is empty. The totals depend only on the shard sizes.
    """
    if method_tag not in METHODS:
        raise ValueError(f"unknown method tag {method_tag!r}")
    subtracts = METHODS[method_tag].subtracts
    sizes = cluster_sizes(num_tasks, n_clusters)
    per_event = []
    for i in range(num_tasks):
        c = i % n_clusters
        sizes[c] -= 1
        per_event.append(deletion_finetunes(subtracts, sizes[c]))
    return CostProjection(steps_per_finetune, tuple(per_event))

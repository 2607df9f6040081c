"""System lifecycle: build a merged system, process deletions, verify, evaluate.

Cost accounting uses the task-finetune as its unit (one fixed-step finetune of
one task). Build charges one task-finetune per task. Unlearning charges:

* sign-fixed masks / plain merge: one task-finetune (replay the deleted task,
  verify it reproduces the build-time vector bit-exactly, subtract); deleting
  the final task is free because the accumulator then equals that vector.
* TALL / EMR / TIES: the masks (or elected signs) depend on the merged state,
  so every remaining task is retrained and the state rebuilt; charges one
  task-finetune per remaining task.
* central: retrain on the pooled retain set; charged as one task-finetune per
  remaining task.

A replay that fails to reproduce the stored digest is a hard error: exactness
is void once determinism breaks, so the engine refuses to proceed.

Every system is a tuple of shards plus an assignment of task ids to shards; an
unclustered system is one shard, as in SISA shard retraining. A deletion
touches only its task's shard. Shards are made in one place,
``_fresh_shards``: a build, a rebuild and an audit each train every task they
need, across shards, in one lockstep call. Serving is stacked: a method's
serve gives K tasks of one shard their parameters at once, ``serve_for_task``
is its one-id call, and ``evaluate`` serves and scores in bounded stacked
passes. What differs between methods lives in one table, ``METHODS``.
"""

from __future__ import annotations

import hashlib
import itertools
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from .datasets import DataFormatError, TaskSpec
from .merging import (
    EmrArtifacts,
    LocalizationMethod,
    MergedState,
    emr_build,
    emr_localize,
    localize_stack,
    merge,
    pass_size,
    serve_merged,
    tall_tune,
    ties_merge,
    unmerge,
)
from .paramcore import BitMask, gen_sign_vector, mask_words, quantize
from .prng import PrngStream
from .trainer import (
    ModelSpec,
    TaskVector,
    TrainConfig,
    accuracy,
    finetune_tasks,
    ft_finetune,
    init_params,
)

CENTRAL_MAX_STEPS_DEFAULT = 800


class UnknownTaskError(KeyError):
    """The requested task id is not currently retained."""


class ReplayMismatchError(RuntimeError):
    """A deterministic replay failed to reproduce the build-time vector."""


@dataclass
class CostLedger:
    """Task-finetune and step counts, split by lifecycle phase."""

    build_finetunes: int = 0
    build_steps: int = 0
    unlearn_finetunes: int = 0
    unlearn_steps: int = 0

    @property
    def task_finetunes(self) -> int:
        return self.build_finetunes + self.unlearn_finetunes

    @property
    def finetune_steps(self) -> int:
        return self.build_steps + self.unlearn_steps

    def add(self, other: "CostLedger") -> None:
        self.build_finetunes += other.build_finetunes
        self.build_steps += other.build_steps
        self.unlearn_finetunes += other.unlearn_finetunes
        self.unlearn_steps += other.unlearn_steps


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
    """What one shard serves: its merged state (or central model) and artifacts."""

    merged: MergedState | None = None
    central_params: np.ndarray | None = None
    emr: EmrArtifacts | None = None
    tall: dict[int, tuple[float, float]] | None = None
    ties_vector: np.ndarray | None = None


@dataclass
class SystemState:
    """Everything needed to serve, delete from, and audit one built system.

    The registry, replay digests and unlearned ids are held once, keyed by
    task id; ``assignment`` routes each task to the shard that serves it and
    so names the system's tasks. A system loaded from a checkpoint has an
    empty registry until its tasks are reattached.
    """

    method: LocalizationMethod
    model_spec: ModelSpec
    train_cfg: TrainConfig
    base_seed: int
    sign_seed: int
    central_max_steps: int
    m0: np.ndarray
    sign_vector: BitMask | None
    registry: dict[int, TaskSpec]
    replay_digests: dict[int, bytes]
    assignment: dict[int, int]
    shards: tuple[Shard, ...] = ()
    unlearned: tuple[int, ...] = ()

    @property
    def retained(self) -> tuple[int, ...]:
        gone = set(self.unlearned)
        return tuple(t for t in sorted(self.assignment) if t not in gone)

    def shard_retained(self, shard: int) -> list[int]:
        """Retained ids of one shard, ascending."""
        return shard_ids(self.assignment, self.unlearned)[shard][0]


def shard_ids(
    assignment: dict[int, int], unlearned: tuple[int, ...]
) -> defaultdict[int, tuple[list[int], list[int]]]:
    """Each shard's retained ids (ascending) and unlearned ids (deletion order).

    One pass over the tasks whatever the shard count; a shard that holds no
    task maps to two empty lists.
    """
    ids: defaultdict[int, tuple[list[int], list[int]]] = defaultdict(lambda: ([], []))
    gone = set(unlearned)
    for t in sorted(assignment):
        if t not in gone:
            ids[assignment[t]][0].append(t)
    for t in unlearned:
        ids[assignment[t]][1].append(t)
    return ids


@dataclass(frozen=True)
class MethodOps:
    """One method's row in ``METHODS``.

    Entries are small functions that look layer functions up as module
    globals when called, so a wrapper installed on a layer function (as the
    benchmark's tracer does) sees every method's calls.
    """

    # one shard's served state from its retained ids and, for a method that
    # trains per task, their trained vectors (id order) and merged state;
    # TALL, EMR and TIES add their artifacts, central trains its pooled task
    finish: Callable[[SystemState, list[int], list[TaskVector], MergedState | None], Shard]
    # parameters (K, M) served for K tasks of one shard, each with a stored
    # mask, or any tasks when the method stores none; row k is task k's
    serve: Callable[[SystemState, Shard, list[int]], np.ndarray]
    # a deletion replays the task and subtracts it; otherwise the shard is
    # rebuilt from its remaining tasks
    subtracts: bool
    # per-task masks are stored (M/32 words each) and served
    stores_masks: bool
    # tasks train under the global sign vector
    signed: bool = False
    # each retained task trains alone, in its operation's one lockstep call,
    # and keeps a replay digest; otherwise ``finish`` gets no vectors
    per_task: bool = True


def _digest(delta: np.ndarray) -> bytes:
    return hashlib.sha256(quantize(delta).values.astype("<i8").tobytes()).digest()


def _fresh_shards(system: SystemState, ids, shards, replay: tuple[int, ...] = ()):
    """The given shards built afresh from their retained tasks, the replay
    digest of every task trained, and the vectors of the ``replay`` ids;
    ``ids`` is the system's ``shard_ids``.

    All of these tasks train in one lockstep ``finetune_tasks`` call, signed
    methods under the sign vector. A task's bits do not depend on the tasks
    beside it, so pooling shards changes none.
    """
    ops = METHODS[system.method.tag]
    train = [*replay, *(t for c in shards for t in ids[c][0])] if ops.per_task else []
    trained = dict(zip(train, finetune_tasks(
        [system.registry[t] for t in train], system.m0, system.model_spec,
        system.train_cfg, system.sign_vector,
    ) if train else ()))
    fresh = []
    for c in shards:
        vectors = [trained[t][0] for t in ids[c][0]] if ops.per_task else []
        masks = {t: trained[t][1] for t in ids[c][0]} if ops.signed else None
        state = merge(vectors, masks or None, length=len(system.m0)) if ops.per_task else None
        fresh.append(ops.finish(system, ids[c][0], vectors, state))
    digests = {t: _digest(tv.delta) for t, (tv, _) in trained.items()}
    return fresh, digests, [trained[t][0] for t in replay]


def _finish_merged(system, ids, vectors, state):
    return Shard(state)


def _finish_tall(system, ids, vectors, state):
    """Grid-search each task's (lambda, alpha, mask) on its training split."""
    if not vectors:  # every task deleted: an empty shard keeps no artifacts
        return Shard(state)
    method = system.method
    params: dict[int, tuple[float, float]] = {}
    masks = {}
    for tv in vectors:
        x_tr, y_tr = system.registry[tv.source_task].train_xy()
        lam, alpha, masks[tv.source_task] = tall_tune(
            tv, state, method.density_grid, method.alpha_grid,
            x_tr, y_tr, system.model_spec, system.m0,
        )
        params[tv.source_task] = (lam, alpha)
    return Shard(replace(state, masks=masks), tall=params)


def _finish_emr(system, ids, vectors, state):
    if not vectors:
        return Shard(state)
    art, masks = emr_build(vectors)
    return Shard(replace(state, masks=masks), emr=art)


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
    if not ids:
        return Shard(central_params=system.m0.copy())
    cfg = system.train_cfg
    pooled = _pooled_task([system.registry[t] for t in ids])
    run_cfg = replace(cfg, steps=min(cfg.steps * len(ids), system.central_max_steps))
    delta = ft_finetune(pooled, system.m0, system.model_spec, run_cfg).delta
    return Shard(central_params=system.m0 + delta)


def _serve_merged(system: SystemState, shard: Shard, ids: list[int]) -> np.ndarray:
    return _broadcast(serve_merged(shard.merged, system.m0), ids)


def _serve_sift(system: SystemState, shard: Shard, ids: list[int]) -> np.ndarray:
    return localize_stack(shard.merged, [shard.merged.masks[t] for t in ids], system.m0)


def _serve_tall(system: SystemState, shard: Shard, ids: list[int]) -> np.ndarray:
    alphas = np.array([shard.tall[t][1] for t in ids])[:, None]
    return localize_stack(shard.merged, [shard.merged.masks[t] for t in ids], system.m0, alphas)


def _serve_emr(system: SystemState, shard: Shard, ids: list[int]) -> np.ndarray:
    return emr_localize(shard.emr, ids, [shard.merged.masks[t] for t in ids], system.m0)


def _serve_ties(system: SystemState, shard: Shard, ids: list[int]) -> np.ndarray:
    return _broadcast(system.m0 + shard.ties_vector, ids)


def _serve_central(system: SystemState, shard: Shard, ids: list[int]) -> np.ndarray:
    return _broadcast(shard.central_params, ids)


def _broadcast(params: np.ndarray, ids: list[int]) -> np.ndarray:
    """One served vector as the K rows of a read-only stack, not copied."""
    return np.broadcast_to(params, (len(ids), len(params)))


METHODS: dict[str, MethodOps] = {
    "sift_masks": MethodOps(
        _finish_merged, _serve_sift, subtracts=True, stores_masks=True, signed=True
    ),
    "ft_merge": MethodOps(_finish_merged, _serve_merged, subtracts=True, stores_masks=False),
    "tall_masks": MethodOps(_finish_tall, _serve_tall, subtracts=False, stores_masks=True),
    "emr": MethodOps(_finish_emr, _serve_emr, subtracts=False, stores_masks=True),
    "ties": MethodOps(_finish_ties, _serve_ties, subtracts=False, stores_masks=False),
    "central": MethodOps(
        _finish_central, _serve_central, subtracts=False, stores_masks=False, per_task=False
    ),
}


def new_system(
    method: LocalizationMethod,
    model_spec: ModelSpec,
    train_cfg: TrainConfig,
    registry: dict[int, TaskSpec],
    assignment: dict[int, int],
    *,
    base_seed: int,
    sign_seed: int,
    central_max_steps: int,
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
        central_max_steps=central_max_steps,
        m0=init_params(model_spec, base_seed),
        sign_vector=signs,
        registry=registry,
        replay_digests={},
        assignment=assignment,
    )


def build(
    method: LocalizationMethod,
    tasks: list[TaskSpec],
    model_spec: ModelSpec,
    cfg: TrainConfig,
    *,
    base_seed: int = 0,
    sign_seed: int = 0,
    central_max_steps: int = CENTRAL_MAX_STEPS_DEFAULT,
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

    system = new_system(
        method,
        model_spec,
        cfg,
        {t.id: t for t in tasks},
        cluster_random(ids, clusters, cluster_seed),
        base_seed=base_seed,
        sign_seed=sign_seed,
        central_max_steps=central_max_steps,
    )
    shards, system.replay_digests, _ = _fresh_shards(
        system, shard_ids(system.assignment, ()), range(clusters)
    )
    system.shards = tuple(shards)
    n = len(tasks)
    return system, CostLedger(build_finetunes=n, build_steps=n * cfg.steps)


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
    if task_id not in system.assignment or task_id in system.unlearned:
        raise UnknownTaskError(f"task {task_id} is unknown or already unlearned")
    ops = METHODS[system.method.tag]
    c = system.assignment[task_id]
    after = replace(system, unlearned=system.unlearned + (task_id,))
    ids = shard_ids(after.assignment, after.unlearned)
    remaining = ids[c][0]
    subtracts = ops.subtracts and bool(remaining)
    fresh, digests, replayed = _fresh_shards(
        after, ids, [c] if verify or not subtracts else [], (task_id,) if subtracts else ()
    )
    # every replay of the deletion itself must match; the audit's are reported
    for t in [task_id] if subtracts else list(digests):
        if digests.pop(t) != system.replay_digests[t]:
            raise ReplayMismatchError(
                f"replayed task {t} does not reproduce its build-time "
                "vector; deterministic replay is broken"
            )
    if subtracts:
        shard = replace(system.shards[c], merged=unmerge(system.shards[c].merged, *replayed))
    else:
        # masks / elected signs depend on the merged state, so the shard is
        # rebuilt; a subtracting method's last task is dropped this way for
        # free, since the accumulator then holds exactly its vector
        shard = fresh[0]
    n = deletion_finetunes(ops.subtracts, len(remaining))
    ledger = CostLedger(unlearn_finetunes=n, unlearn_steps=n * system.train_cfg.steps)
    after.shards = system.shards[:c] + (shard,) + system.shards[c + 1:]
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


def _audit(system: SystemState, shards, fresh: list[Shard], digests) -> ExactnessReport:
    """Both flags for the given shards and their fresh builds: every replay
    digest must equal the stored one, and every field of each fresh shard
    must hold the same bits as the stored shard."""
    return ExactnessReport(
        all(d == system.replay_digests[t] for t, d in digests.items()),
        all(_same_bits(f, system.shards[c]) for c, f in zip(shards, fresh)),
    )


def _same_bits(a, b) -> bool:
    """Whether two values hold the same bits: floats by their bits, arrays by
    dtype, shape and bytes, dicts key by key, tuples item by item, and
    dataclasses (``Shard``, ``MergedState``, ``FxpVector``, ...) field by field."""
    if isinstance(a, float) and isinstance(b, float):
        return np.float64(a).tobytes() == np.float64(b).tobytes()
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
    shards = range(len(system.shards))
    ids = shard_ids(system.assignment, system.unlearned)
    return _audit(system, shards, *_fresh_shards(system, ids, shards)[:2])


def serve_for_task(system: SystemState, task_id: int) -> np.ndarray:
    """Parameters used to answer queries for one task under the system's
    method: row 0 of its one-id stacked serve, read-only where the method
    serves one vector to every task of the shard.

    A task without a stored mask (an unlearned one) gets its shard's maskless
    average.
    """
    ops = METHODS[system.method.tag]
    shard = system.shards[system.assignment[task_id]]
    return _serve_of(ops, shard, task_id)(system, shard, [task_id])[0]


def _serve_of(ops: MethodOps, shard: Shard, task_id: int):
    """The stacked serve of one task of the shard: its method's, or the
    maskless average where the method stores masks and the task has none."""
    if ops.stores_masks and task_id not in shard.merged.masks:
        return _serve_merged
    return ops.serve


def evaluate(system: SystemState, mode: str) -> EvalReport:
    """Per-task accuracy on held-out splits plus the mean over included tasks.

    held_in covers retained tasks, each served by its localized model;
    held_out covers every task, with unlearned tasks served masklessly.
    Tasks are grouped by shard, serve and eval row count, and each group is
    served and scored in stacked passes of ``pass_size`` tasks: one stacked
    serve and one ``accuracy`` call on the tasks' own rows per pass, each
    row with the bits of serving and scoring its task alone.
    """
    if mode not in ("held_in", "held_out"):
        raise ValueError(f"unknown evaluation mode {mode!r}")
    ops = METHODS[system.method.tag]
    by_shard = {
        c: kept + gone if mode == "held_out" else kept
        for c, (kept, gone) in shard_ids(system.assignment, system.unlearned).items()
    }
    missing = sorted(t for ids in by_shard.values() for t in ids if t not in system.registry)
    if missing:
        raise DataFormatError(f"dataset is missing task ids {missing}, read by {mode} evaluation")
    groups: defaultdict[tuple, list[int]] = defaultdict(list)
    for c, ids in by_shard.items():
        for t in ids:
            groups[c, _serve_of(ops, system.shards[c], t), system.registry[t].n_eval].append(t)
    scores: dict[int, float] = {}
    for (c, serve, rows), ids in groups.items():
        size = pass_size(system.model_spec, len(system.m0), rows)
        for start in range(0, len(ids), size):
            part = ids[start : start + size]
            x, y = zip(*(system.registry[t].eval_xy() for t in part))
            params = serve(system, system.shards[c], part)
            right = accuracy(params, system.model_spec, np.stack(x), np.stack(y))
            scores.update(zip(part, right.tolist()))
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

import copy
import tracemalloc
from dataclasses import fields as dataclass_fields
from dataclasses import is_dataclass, replace

import numpy as np
import pytest

from conftest import make_task, routes
from frozen_merge import frozen_emr_build, frozen_ties_merge
from frozen_serve import frozen_serve_for_task
from siftmasks import engine, merging, trainer
from siftmasks.checkpoint import (
    _ARTIFACTS,
    checkpoint_from_system,
    load_checkpoint,
    save_checkpoint,
    system_from_checkpoint,
)
from siftmasks.datasets import HeterogeneityRegime, synth_generate
from siftmasks.engine import (
    METHODS,
    CostLedger,
    ReplayMismatchError,
    Shard,
    UnknownTaskError,
    _same_bits,
    build,
    cluster_random,
    evaluate,
    project_total_cost,
    serve_for_task,
    storage_words,
    unlearn,
    verify_exactness,
)
from siftmasks.merging import (
    METHOD_TAGS,
    LocalizationMethod,
    MergedState,
    emr_build,
    merge,
    serve_merged,
    ties_merge,
)
from siftmasks.paramcore import (
    SCALE_BITS,
    FxpOverflowError,
    FxpVector,
    dequantize,
    mask_words,
    quantize,
    word_table,
)
from siftmasks.trainer import (
    ModelSpec,
    TaskVector,
    TrainConfig,
    accuracy,
    finetune_tasks,
    ft_finetune,
    init_params,
)
from test_checkpoint_fixtures import DATA as FIXTURE_DATA
from test_checkpoint_fixtures import FIXTURES
from test_checkpoint_fixtures import make_tasks as fixture_tasks

SPEC = ModelSpec("logistic", 10, 3)
CFG = TrainConfig(steps=20, batch_size=16, learning_rate=0.05, seed=99)


def build_system(method_tag, tasks, **kwargs):
    return build(LocalizationMethod(method_tag), tasks, SPEC, CFG, base_seed=1,
                 sign_seed=2, **kwargs)


# ---------- build and ledger ----------


def test_build_ledger_counts(conflicting_tasks):
    _, ledger = build_system("sift_masks", conflicting_tasks[:8])
    assert ledger.task_finetunes == 8
    assert ledger.task_finetunes * CFG.steps == 160
    assert ledger.build_finetunes == 8 and ledger.unlearn_finetunes == 0


def test_build_rejects_empty_and_duplicates(conflicting_tasks):
    with pytest.raises(ValueError, match="at least one task"):
        build_system("ft_merge", [])
    with pytest.raises(ValueError, match="duplicate"):
        build_system("ft_merge", [conflicting_tasks[0], conflicting_tasks[0]])


# ---------- storage ----------


def stored_words(system):
    """``storage_words`` of a built system, from its shards' retained counts."""
    retained = [len(system.shards[c].retained) for c in range(len(system.shards))]
    return storage_words(system.method.tag, system.model_spec.param_count, retained)


def test_storage_words_formula_with_ceiling():
    # M = 1000 is not a multiple of 32, so the ceiling term applies
    spec = ModelSpec("logistic", 24, 40)  # 24*40+40 = 1000
    assert spec.param_count == 1000
    tasks = synth_generate(HeterogeneityRegime("similar"), 64, 6, 24, 40, seed=3)
    cfg = TrainConfig(steps=0, batch_size=8, learning_rate=0.1, seed=1)
    system, _ = build(LocalizationMethod("sift_masks"), tasks, spec, cfg)
    assert stored_words(system) == 1000 + 64 * 32 == 3048
    ft, _ = build(LocalizationMethod("ft_merge"), tasks, spec, cfg)
    assert stored_words(ft) == 1000
    central, _ = build(LocalizationMethod("central"), tasks, spec, cfg)
    assert stored_words(central) == 1000


def test_storage_monotone_under_unlearning(conflicting_tasks):
    system, _ = build_system("sift_masks", conflicting_tasks)
    words = [stored_words(system)]
    for u in (0, 3, 6):
        system, _, _ = unlearn(system, u)
        words.append(stored_words(system))
    assert all(a >= b for a, b in zip(words, words[1:]))


# ---------- unlearning: subtraction family ----------


def test_unlearn_matches_fresh_build_bit_exact(conflicting_tasks):
    system, _ = build_system("sift_masks", conflicting_tasks)
    for u in (2, 5, 0):
        system, report, _ = unlearn(system, u)
        assert report.replay_matches and report.state_matches_oracle
    fresh, _ = build_system(
        "sift_masks", [t for t in conflicting_tasks if t.id not in (0, 2, 5)]
    )
    (shard,), (fresh_shard,) = system.shards, fresh.shards
    assert np.array_equal(
        shard.merged.accumulator.values, fresh_shard.merged.accumulator.values
    )
    assert shard.retained == fresh_shard.retained
    assert _same_bits(shard.masks, fresh_shard.masks)


def test_unlearn_order_independent_state_and_cost(conflicting_tasks):
    orders = [(2, 5, 0), (0, 2, 5), (5, 0, 2)]
    finals = []
    costs = []
    for order in orders:
        system, _ = build_system("sift_masks", conflicting_tasks)
        total = CostLedger()
        for u in order:
            system, _, delta = unlearn(system, u)
            total.add(delta)
        finals.append(system.shards[0].merged.accumulator.values)
        costs.append(total.unlearn_finetunes)
    assert np.array_equal(finals[0], finals[1])
    assert np.array_equal(finals[0], finals[2])
    assert costs[0] == costs[1] == costs[2] == 3


@pytest.mark.parametrize("clusters", [1, 3])
@pytest.mark.parametrize("tag", METHOD_TAGS)
def test_unlearn_unknown_or_repeated_id(tag, clusters, conflicting_tasks):
    """A never-held id and an unlearned one raise and leave the state as it
    was; a retained id of the last shard is found there and deleted from it."""
    system, _ = build_system(tag, conflicting_tasks[:6], clusters=clusters, cluster_seed=7)
    victim = system.shards[0].retained[0]
    system, _, _ = unlearn(system, victim)
    for t in (99, victim):
        before = copy.deepcopy(system)
        with pytest.raises(UnknownTaskError, match=f"task {t} is unknown or already unlearned"):
            unlearn(system, t)
        assert _same_bits(system, before)
    other = system.shards[-1].retained[-1]
    after, report, _ = unlearn(system, other)
    assert report.exact and after.shards[-1].unlearned[-1] == other
    assert all(a is b for a, b in zip(after.shards[:-1], system.shards[:-1]))


def test_unlearn_last_task_is_free(conflicting_tasks):
    system, _ = build_system("sift_masks", conflicting_tasks[:2])
    system, _, d1 = unlearn(system, 0)
    assert d1.unlearn_finetunes == 1
    system, report, d2 = unlearn(system, 1)
    assert d2.unlearn_finetunes == 0  # accumulator equals the last vector
    assert report.exact
    assert not system.shards[0].merged.accumulator.values.any()


def test_unlearn_cost_single_deletion_by_method(conflicting_tasks):
    tasks = conflicting_tasks[:6]
    for tag, expected in (("sift_masks", 1), ("ft_merge", 1), ("tall_masks", 5),
                          ("emr", 5), ("ties", 5), ("central", 5)):
        system, _ = build_system(tag, tasks)
        _, _, delta = unlearn(system, tasks[0].id)
        assert delta.unlearn_finetunes == expected, tag


def test_replay_mismatch_is_hard_error(conflicting_tasks):
    system, _ = build_system("sift_masks", conflicting_tasks[:4])
    system.replay_digests[2] = b"\x00" * 32  # corrupt the stored digest
    with pytest.raises(ReplayMismatchError, match="task 2"):
        unlearn(system, 2)


@pytest.mark.parametrize("verify", [False, True])
@pytest.mark.parametrize("tag", METHOD_TAGS)
def test_unlearn_drops_the_deleted_digest_in_a_new_dict(tag, verify, conflicting_tasks):
    """The new state keeps a digest for each retained task of a per-task
    method and none for the deleted one; the old state's digests stay."""
    system, _ = build_system(tag, conflicting_tasks[:3])
    before = dict(system.replay_digests)
    after, report, _ = unlearn(system, 1, verify=verify)
    assert report.exact
    assert system.replay_digests == before
    assert set(after.replay_digests) == (set(after.retained) if METHODS[tag].per_task else set())
    assert all(after.replay_digests[t] == before[t] for t in after.replay_digests)


@pytest.mark.parametrize("tag", METHOD_TAGS)
def test_every_finish_fills_the_artifacts_its_row_names_on_an_empty_shard_too(
    tag, conflicting_tasks
):
    """A shard holds exactly the arrays ``METHODS`` names for its method, in
    the checkpoint's dtypes and shapes, with tasks and once every task is
    deleted: masks and TALL then keep no rows, EMR a zero unified vector and
    no scales, TIES a zero vector; and every method's emptied shard holds the
    empty merged state, so it serves the base model."""
    system, _ = build_system(tag, conflicting_tasks[:2])
    emptied = unlearn(unlearn(system, 0)[0], 1)[0]
    for held in (system, emptied):
        assert_shards_hold_the_arrays_their_method_names(held)
    empty, zeros = emptied.shards[0], np.zeros(len(system.m0))
    assert _same_bits(empty.merged, merge([], length=len(system.m0)))
    assert _same_bits(empty, {
        "tall_masks": replace(empty, tall=np.zeros((0, 2))),
        "emr": replace(empty, unified=zeros, scales=np.zeros(0)),
        "ties": replace(empty, ties_vector=zeros),
    }.get(tag, empty))
    assert verify_exactness(emptied).exact


# ---------- unlearning: rebuild family ----------


@pytest.mark.parametrize("tag", ["tall_masks", "emr", "ties"])
def test_rebuild_family_matches_fresh_build(tag, conflicting_tasks):
    tasks = conflicting_tasks[:5]
    system, _ = build_system(tag, tasks)
    system, report, delta = unlearn(system, 2)
    assert report.exact
    assert delta.unlearn_finetunes == 4
    fresh, _ = build_system(tag, [t for t in tasks if t.id != 2])
    (shard,), (fresh_shard,) = system.shards, fresh.shards
    assert np.array_equal(
        shard.merged.accumulator.values, fresh_shard.merged.accumulator.values
    )
    assert shard.retained == fresh_shard.retained
    for name in METHODS[tag].artifacts:
        assert np.array_equal(getattr(shard, name), getattr(fresh_shard, name)), name


def test_central_unlearn_matches_fresh_build(conflicting_tasks):
    tasks = conflicting_tasks[:5]
    system, _ = build_system("central", tasks)
    system, report, delta = unlearn(system, 3)
    assert delta.unlearn_finetunes == 4
    fresh, _ = build_system("central", [t for t in tasks if t.id != 3])
    assert _same_bits(system.shards[0].merged, fresh.shards[0].merged)
    for t in fresh.retained:
        assert serve_for_task(system, t).tobytes() == serve_for_task(fresh, t).tobytes()
    assert report.exact


# ---------- verification ----------


def test_verify_fresh_system(conflicting_tasks):
    system, _ = build_system("sift_masks", conflicting_tasks[:4])
    report = verify_exactness(system)
    assert report.replay_matches and report.state_matches_oracle


def test_verify_after_deletions_any_order(conflicting_tasks):
    system, _ = build_system("sift_masks", conflicting_tasks)
    for u in (7, 1, 4):
        system, _, _ = unlearn(system, u)
    report = verify_exactness(system)
    assert report.exact


def test_verify_detects_corrupted_accumulator(conflicting_tasks):
    system, _ = build_system("sift_masks", conflicting_tasks[:4])
    (shard,) = system.shards
    values = shard.merged.accumulator.values.copy()
    values[0] += 1  # flip one word
    merged = replace(shard.merged, accumulator=FxpVector(values))
    system.shards = (replace(shard, merged=merged),)
    report = verify_exactness(system)
    assert report.replay_matches  # replays still reproduce their digests
    assert not report.state_matches_oracle


def test_verify_central(conflicting_tasks):
    system, _ = build_system("central", conflicting_tasks[:4])
    assert verify_exactness(system).exact
    (shard,) = system.shards
    moved = FxpVector(shard.merged.accumulator.values + 1)
    system.shards = (replace(shard, merged=replace(shard.merged, accumulator=moved)),)
    assert not verify_exactness(system).exact


def test_verify_catches_a_doubled_tall_alpha():
    system = system_from_checkpoint(
        load_checkpoint(FIXTURE_DATA / "tall_masks_fresh.sftm"), fixture_tasks()
    )
    (shard,) = system.shards
    tall = shard.tall.copy()
    (row,) = shard.rows([0])
    lam, alpha = tall[row]
    tall[row] = (lam, 2 * alpha)
    system.shards = (replace(shard, tall=tall),)
    assert not verify_exactness(system).exact


def with_flipped_mask_bit(shard, t):
    masks = shard.masks.copy()
    masks[shard.rows([t]), 0] ^= 1
    return replace(shard, masks=masks)


def with_tall(shard, t, change):
    tall = shard.tall.copy()
    (row,) = shard.rows([t])
    tall[row] = change(*tall[row])
    return replace(shard, tall=tall)


def doubled_at(vector, row):
    out = vector.copy()
    out[row] *= 2
    return out


def plus_one_at_0(vector):
    out = vector.copy()
    out[0] += 1.0
    return out


# (method, served artifact changed in memory for one task of the shard)
PROBES = {
    "sift_mask_bit": ("sift_masks", with_flipped_mask_bit),
    "tall_mask_bit": ("tall_masks", with_flipped_mask_bit),
    "tall_lambda_ulp": ("tall_masks", lambda s, t: with_tall(
        s, t, lambda lam, alpha: (float(np.nextafter(lam, np.inf)), alpha))),
    "tall_alpha_doubled": ("tall_masks", lambda s, t: with_tall(
        s, t, lambda lam, alpha: (lam, 2 * alpha))),
    "emr_scale_doubled": ("emr", lambda s, t: replace(
        s, scales=doubled_at(s.scales, s.rows([t])))),
    "emr_unified_plus_one": ("emr", lambda s, t: replace(
        s, unified=plus_one_at_0(s.unified))),
    "emr_mask_bit": ("emr", with_flipped_mask_bit),
    "ties_entry_plus_one": ("ties", lambda s, t: replace(
        s, ties_vector=plus_one_at_0(s.ties_vector))),
}


def fixture_system(tag, clusters):
    """The fixture configuration of ``tag`` over ``clusters`` shards, built
    fresh in memory: its floats come from the BLAS kernels that run the test,
    so an audit of it holds on any kernels. (The fixture files pin bytes
    trained by one set of kernels; ``test_checkpoint_fixtures`` tests those.)"""
    method = LocalizationMethod(tag, density_grid=(0.3, 0.7), alpha_grid=(1.0, 1.4),
                                central_max_steps=12)
    cfg = TrainConfig(steps=4, batch_size=8, learning_rate=0.05, seed=99)
    system, _ = build(method, fixture_tasks(), SPEC, cfg, base_seed=1, sign_seed=2,
                      clusters=clusters, cluster_seed=7)
    return system


@pytest.mark.parametrize("clusters", [1, 3])
@pytest.mark.parametrize("probe", sorted(PROBES))
def test_verify_catches_every_served_artifact_probe(probe, clusters):
    tag, change = PROBES[probe]
    system = fixture_system(tag, clusters)
    assert verify_exactness(system).exact
    c = 1 if clusters == 3 else 0
    shards = list(system.shards)
    shards[c] = change(shards[c], system.shards[c].retained[0])
    system.shards = tuple(shards)
    report = verify_exactness(system)
    assert report.replay_matches and not report.state_matches_oracle


def one_entry_changes(value):
    """(path, changed copy) for each leaf of a served value, changed at one
    entry: a float, or a float vector's first entry, by one ulp; an int or a
    fixed-point vector's first entry by one; a table's first row at each of
    its entries, a float by one ulp and a mask word at its first bit.
    Dataclass fields, dict entries (the first key) and tuple items are
    followed down to their leaves."""
    if isinstance(value, FxpVector):
        yield (), FxpVector(plus_one_at_0(value.values))
    elif is_dataclass(value):
        for f in dataclass_fields(value):
            for path, changed in one_entry_changes(getattr(value, f.name)):
                yield (f.name, *path), replace(value, **{f.name: changed})
    elif isinstance(value, dict):
        for k in sorted(value)[:1]:
            for path, changed in one_entry_changes(value[k]):
                yield (k, *path), {**value, k: changed}
    elif isinstance(value, tuple):
        for i, item in enumerate(value):
            for path, changed in one_entry_changes(item):
                yield (i, *path), value[:i] + (changed,) + value[i + 1:]
    elif isinstance(value, np.ndarray):
        for at in [(0, i) for i in range(value.shape[1])] if value.ndim == 2 else [(0,)]:
            out = value.copy()
            out[at] = out[at] ^ 1 if out.dtype.kind == "u" else np.nextafter(out[at], np.inf)
            yield at[1:], out
    elif isinstance(value, float):
        yield (), float(np.nextafter(value, np.inf))
    elif isinstance(value, int):
        yield (), value + 1


@pytest.mark.parametrize("clusters", [1, 3])
@pytest.mark.parametrize("tag", METHOD_TAGS)
def test_stored_state_depends_only_on_the_integers(tag, clusters, monkeypatch):
    """A build audited with every trained delta moved off the quantization
    grid by a quarter step, toward its sign: each entry keeps its integer
    and its sign (so sift's masks too) while its float moves, as on kernels
    that train other low bits. The audit must hold, so no stored bit reads
    a float the digests leave unchecked."""
    system = fixture_system(tag, clusters)
    chunk, moved = trainer._finetune_chunk, []

    def off_grid(*args):
        tau = chunk(*args)
        off = np.rint(tau * 2.0**SCALE_BITS) * 2.0**-SCALE_BITS
        off += np.sign(tau) * 2.0 ** -(SCALE_BITS + 2)
        moved.append(not np.array_equal(off, tau))
        return off

    monkeypatch.setattr(trainer, "_finetune_chunk", off_grid)
    report = verify_exactness(system)
    assert moved and all(moved)
    assert report.replay_matches and report.state_matches_oracle


@pytest.mark.parametrize("tag", METHOD_TAGS)
def test_verify_audits_every_field_of_a_shard(tag):
    system = fixture_system(tag, 1)
    (shard,) = system.shards
    # which tasks the shard holds, not what it serves: an edited id would
    # retrain a task the registry does not know
    held = {"retained", "unlearned"}
    changes = {path: c for path, c in one_entry_changes(shard) if path[0] not in held}
    served = {f.name for f in dataclass_fields(shard) if getattr(shard, f.name) is not None}
    served -= held
    assert {path[0] for path in changes} == served
    for path, changed in changes.items():
        system.shards = (changed,)
        assert not verify_exactness(system).exact, path
    system.shards = (shard,)
    assert verify_exactness(system).exact


# every Shard field that holds an array beside the merged state
ARRAY_FIELDS = [f.name for f in dataclass_fields(Shard)
                if f.name not in ("merged", "retained", "unlearned")]


def assert_shards_hold_the_arrays_their_method_names(system):
    """Each shard holds every array ``METHODS`` names for its method, of the
    dtype and shape the checkpoint's table gives at M parameters and the
    shard's K retained ids: a per-task array has a row per retained id, an
    (M,) vector stays (M,). Every array field the method does not name is None."""
    names, m = METHODS[system.method.tag].artifacts, len(system.m0)
    assert set(names) <= set(ARRAY_FIELDS)
    for c, shard in enumerate(system.shards):
        for name in ARRAY_FIELDS:
            value = getattr(shard, name)
            if name in names:
                _, dtype, shape = _ARTIFACTS[name]
                assert value.dtype == dtype, (c, name)
                assert value.shape == shape(m, len(shard.retained)), (c, name)
            else:
                assert value is None, (c, name)


def mask_rows(system):
    """The bytes of each retained task's mask row, by task id."""
    return {t: shard.masks[row].tobytes() for shard in system.shards if shard.masks is not None
            for row, t in enumerate(shard.retained)}


@pytest.mark.parametrize("clusters", [1, 3])
@pytest.mark.parametrize("tag", METHOD_TAGS)
def test_shard_masks_follow_the_retained_ids(tag, clusters, tmp_path):
    """Every shard holds the arrays its method names, each of its checkpoint
    dtype and shape, a per-task array with a row per retained id: after the
    build, after each deletion down to empty shards, and after a save and a
    load of each of those states, which holds the same bits. A sift task
    that remains keeps its mask row's bytes through each deletion."""
    system, ledger = build_system(tag, mixed_row_tasks(6), clusters=clusters, cluster_seed=7)
    path = tmp_path / "masks.sftm"
    for task_id in (None, 4, 0, 5, 1, 3, 2):
        if task_id is not None:
            before = mask_rows(system)
            system, _, cost = unlearn(system, task_id)
            ledger.add(cost)
            assert task_id not in mask_rows(system)
            if tag == "sift_masks":
                assert mask_rows(system) == {t: b for t, b in before.items() if t != task_id}
        assert_shards_hold_the_arrays_their_method_names(system)
        save_checkpoint(checkpoint_from_system(system, ledger), path)
        loaded = load_checkpoint(path).system
        assert_shards_hold_the_arrays_their_method_names(loaded)
        for a, b in zip(loaded.shards, system.shards, strict=True):
            assert all(_same_bits(getattr(a, name), getattr(b, name)) for name in ARRAY_FIELDS)
    assert system.retained == ()


def test_unlearn_with_inline_verify(conflicting_tasks):
    system, _ = build_system("sift_masks", conflicting_tasks[:4])
    system, report, _ = unlearn(system, 1, verify=True)
    assert report.exact


def test_inline_verify_reports_a_remaining_replay_mismatch():
    system = fixture_system("sift_masks", 1)
    system.replay_digests[3] = bytes(32)  # a task that stays, never replayed by the deletion
    after, report, _ = unlearn(system, 1, verify=True)
    assert not report.replay_matches and report.state_matches_oracle
    assert verify_exactness(after) == report


# ---------- evaluation ----------


def test_held_in_equals_held_out_before_any_deletion(conflicting_tasks):
    system, _ = build_system("sift_masks", conflicting_tasks)
    held_in = evaluate(system, "held_in")
    held_out = evaluate(system, "held_out")
    assert held_in.per_task == held_out.per_task
    assert held_in.aggregate == held_out.aggregate


def test_all_unlearned_serves_base_model(conflicting_tasks):
    system, _ = build_system("sift_masks", conflicting_tasks[:4])
    for u in (0, 1, 2, 3):
        system, _, _ = unlearn(system, u)
    held_out = evaluate(system, "held_out")
    zeroshot = {
        t: accuracy(system.m0, SPEC, *task.eval_xy()) for t, task in system.registry.items()
    }
    assert held_out.per_task == zeroshot


@pytest.mark.parametrize("clusters", [1, 3])
@pytest.mark.parametrize("tag", METHOD_TAGS)
def test_unlearned_tasks_served_masklessly(tag, clusters, conflicting_tasks):
    """An unlearned task of the last shard gets that shard's maskless
    average where the method stores masks, else the method's serve; a
    retained task there gets its own serve; each as the frozen reference
    serves it."""
    system, _ = build_system(tag, conflicting_tasks, clusters=clusters, cluster_seed=7)
    victim = system.shards[-1].retained[0]
    system, _, _ = unlearn(system, victim)
    shard = system.shards[-1]
    for t in (victim, shard.retained[0]):
        assert serve_for_task(system, t).tobytes() == frozen_serve_for_task(system, t).tobytes()
    if METHODS[tag].stores_masks:
        maskless = serve_merged(shard.merged, system.m0)
        assert serve_for_task(system, victim).tobytes() == maskless.tobytes()
    # an id the system never held is named, not a bare KeyError
    before = copy.deepcopy(system)
    with pytest.raises(UnknownTaskError, match="task 99 is not a task of this system"):
        serve_for_task(system, 99)
    assert _same_bits(system, before)


@pytest.mark.parametrize("name", FIXTURES)
def test_every_fixture_serves_frozen_bytes(name):
    system = system_from_checkpoint(
        load_checkpoint(FIXTURE_DATA / f"{name}.sftm"), fixture_tasks()
    )
    for t in sorted(system.registry):  # held-out: unlearned tasks too
        want = frozen_serve_for_task(system, t).tobytes()
        assert serve_for_task(system, t).tobytes() == want
        assert serve_for_task(system, t).tobytes() == want  # from the filled cache


@pytest.mark.parametrize("clusters", [1, 3])
@pytest.mark.parametrize("tag", ["sift_masks", "ft_merge", "tall_masks"])
def test_served_after_unlearn_equals_fresh_build(tag, clusters, conflicting_tasks):
    """With every shard's cached sum and mean filled before a deletion, the
    victim's shard serves what a fresh build of its remaining tasks serves,
    and every other shard keeps its state object and its filled caches."""
    tasks, victim = conflicting_tasks[:5], 4  # 4 shares its shard at three shards
    system, _ = build_system(tag, tasks, clusters=clusters, cluster_seed=7)
    for t in system.registry:
        serve_for_task(system, t)
    cached = [(s.merged, s.merged.summed, s.merged.mean) for s in system.shards]
    system, _, _ = unlearn(system, victim)
    c = routes(system)[victim]
    fresh, _ = build_system(tag, [t for t in tasks if t.id != victim
                                  and routes(system)[t.id] == c])
    for t in fresh.retained:
        assert serve_for_task(system, t).tobytes() == serve_for_task(fresh, t).tobytes()
    maskless = serve_merged(fresh.shards[0].merged, fresh.m0)
    assert serve_for_task(system, victim).tobytes() == maskless.tobytes()
    for shard, (merged, summed, mean) in zip(system.shards, cached):
        if shard is not system.shards[c]:
            assert shard.merged is merged
            assert vars(merged)["summed"] is summed and vars(merged)["mean"] is mean


@pytest.mark.parametrize("tag", METHOD_TAGS)
def test_one_id_serve_of_one_vector_is_a_read_only_row(tag, conflicting_tasks):
    """Where a task is served its shard's one vector (a method without masks,
    or an unlearned task), the one-id serve is a view that is read-only, cannot
    be made writable and holds row 0 of the stacked serve; in a loaded
    checkpoint and in a fresh three-shard build, each after a deletion."""
    built, _ = build_system(tag, conflicting_tasks, clusters=3, cluster_seed=7)
    built, _, _ = unlearn(built, built.shards[1].retained[0])
    loaded = system_from_checkpoint(
        load_checkpoint(FIXTURE_DATA / f"{tag}_deleted1.sftm"), fixture_tasks()
    )
    ops = METHODS[tag]
    for system in (built, loaded):
        served_alone = [t for t in routes(system)
                        if not ops.stores_masks or t in system.unlearned]
        assert served_alone
        for t in served_alone:
            shard = system.shards[routes(system)[t]]
            served = serve_for_task(system, t)
            assert served.base is not None and not served.flags.writeable
            with pytest.raises(ValueError):
                served.flags.writeable = True
            serve = ops.serve if t in shard.retained else ops.serve_unlearned
            stacked = serve(system, shard, [t, t])
            assert served.tobytes() == stacked[0].tobytes()


@pytest.mark.parametrize("tag", METHOD_TAGS)
def test_stacked_serve_of_no_ids_is_an_empty_stack(tag, conflicting_tasks):
    """Every method serves no ids as a (0, M) float stack, with and without a
    deletion, as it serves K ids as (K, M)."""
    system, _ = build_system(tag, conflicting_tasks[:3])
    for system in (system, unlearn(system, 1)[0]):
        for shard in system.shards:
            empty = METHODS[tag].serve(system, shard, [])
            assert empty.shape == (0, SPEC.param_count) and empty.dtype == np.float64


def test_evaluate_rejects_unknown_mode(conflicting_tasks):
    system, _ = build_system("ft_merge", conflicting_tasks[:2])
    with pytest.raises(ValueError, match="unknown evaluation mode"):
        evaluate(system, "both")


# ---------- clustering ----------


def test_cluster_random_shapes_and_determinism():
    ids = list(range(10))
    a = cluster_random(ids, 3, seed=4)
    b = cluster_random(ids, 3, seed=4)
    assert a == b
    sizes = np.bincount(list(a.values()), minlength=3)
    assert sizes.max() - sizes.min() <= 1
    with pytest.raises(ValueError):
        cluster_random(ids, 0, seed=1)
    with pytest.raises(ValueError):
        cluster_random(ids, 11, seed=1)


def test_single_cluster_equals_unclustered(conflicting_tasks):
    plain, plain_led = build_system("sift_masks", conflicting_tasks)
    one, led = build_system("sift_masks", conflicting_tasks, clusters=1, cluster_seed=11)
    assert routes(one) == routes(plain) == {t.id: 0 for t in conflicting_tasks}
    (only,), (plain_shard,) = one.shards, plain.shards
    assert np.array_equal(
        only.merged.accumulator.values, plain_shard.merged.accumulator.values
    )
    assert np.array_equal(only.masks, plain_shard.masks)
    assert led.task_finetunes == plain_led.task_finetunes
    assert evaluate(one, "held_in").per_task == evaluate(plain, "held_in").per_task


def test_singleton_clusters_central_equals_local_ft(conflicting_tasks):
    tasks = conflicting_tasks[:4]
    system, _ = build_system("central", tasks, clusters=4, cluster_seed=11)
    m0 = init_params(SPEC, 1)
    for c, shard in enumerate(system.shards):
        (tid,) = system.shards[c].retained
        task = next(t for t in tasks if t.id == tid)
        quantized = quantize(ft_finetune(task, m0, SPEC, CFG).delta)
        assert _same_bits(shard.merged, MergedState(quantized, 1))
        assert np.array_equal(serve_for_task(system, tid), m0 + dequantize(quantized))


def test_clustered_unlearn_touches_one_cluster(conflicting_tasks):
    system, _ = build_system("central", conflicting_tasks, clusters=2, cluster_seed=11)
    target = conflicting_tasks[0].id
    c = routes(system)[target]
    other = 1 - c
    before = system.shards[other].merged.accumulator.values.copy()
    after, report, delta = unlearn(system, target)
    assert np.array_equal(after.shards[other].merged.accumulator.values, before)
    assert after.shards[other].merged.n_retained == 1
    cluster_size = sum(1 for t, ci in routes(system).items() if ci == c)
    assert delta.unlearn_finetunes == cluster_size - 1
    assert report.exact
    with pytest.raises(UnknownTaskError):
        unlearn(after, 999)


@pytest.mark.parametrize("tag", METHOD_TAGS)
def test_each_operation_trains_in_one_call_across_shards(tag, conflicting_tasks, monkeypatch):
    """Over three shards, a per-task method's build, audit, inline-verified
    deletion and plain deletion each train every task they need in one
    ``finetune_stream`` call; central trains one pooled task per non-empty
    shard that the operation builds."""
    per_task = METHODS[tag].per_task
    name = "finetune_stream" if per_task else "ft_finetune"
    train, calls = getattr(engine, name), []

    def recording(tasks, *args):
        calls.append(sorted(t.id for t in tasks) if per_task else tasks.id)
        return train(tasks, *args)

    monkeypatch.setattr(engine, name, recording)
    system, _ = build_system(tag, conflicting_tasks, clusters=3, cluster_seed=7)
    everything = sorted(t.id for t in conflicting_tasks)
    assert calls == ([everything] if per_task else [min(s.retained) for s in system.shards])
    calls.clear()
    assert verify_exactness(system).exact
    assert len(calls) == (1 if per_task else 3)
    for c, verify in ((0, True), (1, False)):
        calls.clear()
        victim, *remaining = system.shards[c].retained
        system, report, _ = unlearn(system, victim, verify=verify)
        assert report.exact
        if not per_task:
            assert calls == [min(remaining)]
        elif METHODS[tag].subtracts:  # the replay, with the audit's tasks when verifying
            assert calls == [sorted([victim, *remaining]) if verify else [victim]]
        else:
            assert calls == [remaining]


def mixed_row_tasks(count):
    """``count`` tasks whose training splits give 6, 9 and 16 batch rows in
    turn, so lockstep chunks finish out of id order."""
    rng = np.random.default_rng(count)
    tasks = []
    for t in range(count):
        n_train = (6, 9, 30)[t % 3]
        x = rng.normal(size=(n_train + 2, SPEC.input_dim))
        y = np.argmax(x[:, :3] + rng.normal(scale=0.5, size=(n_train + 2, 3)), axis=1)
        tasks.append(make_task(t, x, y, n_eval=2))
    return tasks


@pytest.mark.parametrize("clusters", [1, 3])
@pytest.mark.parametrize("tag", [t for t in METHOD_TAGS if METHODS[t].per_task])
def test_folded_shards_equal_merge_of_the_same_vectors(tag, clusters, monkeypatch):
    """Chunks are folded into their shards as they finish, out of id order,
    and each shard holds the bits of ``merge`` of its vectors in id order:
    with the trained masks (sift) or none for a subtracting method, the sum
    and count for a rebuild method (its masks come from ``finish``); every
    digest is that of the quantized vector."""
    tasks = mixed_row_tasks(9)
    stream, finished = engine.finetune_stream, []

    def recording(*args):
        for chunk in stream(*args):
            finished.extend(tv.source_task for _, tv, _ in chunk)
            yield chunk

    monkeypatch.setattr(engine, "finetune_stream", recording)
    system, _ = build_system(tag, tasks, clusters=clusters, cluster_seed=7)
    assert sorted(finished) == list(range(9)) and finished != sorted(finished)
    m0, v = system.m0, system.sign_vector
    for c in range(clusters):
        ids = system.shards[c].retained
        trained = finetune_tasks([tasks[t] for t in ids], m0, SPEC, CFG, v)
        want = merge([tv for tv, _ in trained], length=len(m0))
        got = system.shards[c].merged
        if METHODS[tag].subtracts:
            assert _same_bits(got, want)
            masks = None if v is None else word_table([mask for _, mask in trained], len(m0))
            assert _same_bits(system.shards[c].masks, masks)
        else:
            assert _same_bits(got.accumulator, want.accumulator)
            assert got.n_retained == want.n_retained
        for t, (tv, _) in zip(ids, trained):
            assert system.replay_digests[t] == engine._digest(quantize(tv.delta))


@pytest.mark.parametrize("clusters", [1, 3])
@pytest.mark.parametrize("tag", ["sift_masks", "ft_merge"])
def test_fold_overflows_where_merge_overflows(tag, clusters, monkeypatch):
    """Vectors of large entries of one sign: the fold raises
    ``FxpOverflowError`` exactly where ``merge`` of some shard's vectors does."""
    tasks = mixed_row_tasks(9)
    stream = engine.finetune_stream
    limit = 2.0 ** (62 - SCALE_BITS)  # the accumulator's range, as a float
    m = SPEC.param_count
    outcomes = set()
    for per_task in (limit / 9 - 5, limit / 9, limit / 3 - 10, limit / 3, limit / 2):
        def large(t):
            return TaskVector(np.full(m, per_task + t), t, CFG.steps)

        def replaced(*args):
            for chunk in stream(*args):
                yield [(i, large(tv.source_task), mask) for i, tv, mask in chunk]

        monkeypatch.setattr(engine, "finetune_stream", replaced)
        assignment = cluster_random(list(range(9)), clusters, 7)
        merges_raise = False
        for c in range(clusters):
            try:
                merge([large(t) for t in sorted(assignment) if assignment[t] == c])
            except FxpOverflowError:
                merges_raise = True
        outcomes.add(merges_raise)
        try:
            build_system(tag, tasks, clusters=clusters, cluster_seed=7)
        except FxpOverflowError:
            assert merges_raise, per_task
        else:
            assert not merges_raise, per_task
    assert outcomes == {False, True}


def stored_bytes(system):
    """Every shard's accumulator and mask bytes, and the TIES vector's."""
    out = []
    for shard in system.shards:
        out.append(shard.merged.accumulator.values.tobytes())
        if shard.masks is not None:
            out.append((shard.retained, shard.masks.tobytes()))
        if shard.ties_vector is not None:
            out.append(shard.ties_vector.tobytes())
    return out


@pytest.mark.parametrize("verify", [False, True])
@pytest.mark.parametrize("tag", [t for t in METHOD_TAGS if METHODS[t].per_task])
def test_replay_mismatch_leaves_the_stored_state_untouched(tag, verify, monkeypatch):
    """A replay whose digest mismatches raises before the deletion lands,
    and the fold wrote into no stored accumulator or mask."""
    system, _ = build_system(tag, mixed_row_tasks(9), clusters=3, cluster_seed=7)
    before = stored_bytes(system)
    monkeypatch.setattr(engine, "_digest", lambda quantized: bytes(32))
    with pytest.raises(ReplayMismatchError):
        unlearn(system, system.shards[1].retained[0], verify=verify)
    assert stored_bytes(system) == before
    assert system.unlearned == ()


@pytest.mark.parametrize("clusters", [1, 3])
@pytest.mark.parametrize("tag", ["sift_masks", "ft_merge", "emr", "ties"])
def test_memory_is_bounded_by_the_model_not_the_task_count(tag, clusters):
    """At M = 8,203, where a chunk holds one task: the ``tracemalloc`` peak of
    ``build``, ``verify_exactness`` and ``unlearn(verify=True)`` at 64 tasks
    stays within the T = 8 peak plus the added tasks' masks, digests and data
    and a fixed margin, and for EMR and TIES, whose ``finish`` reads every
    vector, one vector each. Holding every trained vector until the shards
    were merged took ~64 KB more per task (~3.6 MB for build); building EMR
    and TIES from stacks of every vector took several vectors more per task."""
    spec = ModelSpec("mlp", 6, 3, hidden_dim=820)
    cfg = TrainConfig(steps=2, batch_size=4, seed=5)
    method = LocalizationMethod(tag)
    rng = np.random.default_rng(3)
    tasks = [
        make_task(t, rng.normal(size=(12, 6)), rng.integers(0, 3, size=12), n_eval=2)
        for t in range(64)
    ]

    def peak(operation, *args, **kwargs):
        tracemalloc.start()
        try:
            operation(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def peaks(count):
        some = tasks[:count]
        system, _ = build(method, some, spec, cfg, clusters=clusters)
        return [
            peak(build, method, some, spec, cfg, clusters=clusters),
            peak(verify_exactness, system),
            peak(unlearn, system, 0, verify=True),
        ]

    vector = 0 if METHODS[tag].subtracts else 8 * spec.param_count
    mask = 4 * mask_words(spec.param_count) if METHODS[tag].stores_masks else 0
    data = tasks[0].features.nbytes + tasks[0].labels.nbytes
    allowance = (64 - 8) * (vector + mask + 32 + data) + (256 << 10)
    for small, large, name in zip(peaks(8), peaks(64), ("build", "verify", "unlearn")):
        assert large - small < allowance, name


@pytest.mark.parametrize("grid", [False, True], ids=["floats", "dequantized"])
@pytest.mark.parametrize("count, length", [(3, 50), (8, 738), (50, 738), (64, 8203)])
def test_emr_and_ties_built_one_vector_at_a_time_keep_the_stacked_bytes(count, length, grid):
    """``emr_build`` and ``ties_merge`` walk the vectors in id order and give
    the bytes of the stacked code they replaced (``frozen_merge``): for floats
    rounded to 1e-3, whose sums depend on order and which hold signed zeros
    and magnitude ties, and for the dequantized grid values the engine hands
    them. Some entries sum to exactly zero, where no sign is elected."""
    rng = np.random.default_rng(count * length)
    deltas = np.round(rng.normal(scale=1e-2, size=(count, length)), 3)
    deltas[:, :3] = (0.0, -0.0, 0.0)
    deltas[:2, 2] = (1e-3, -1e-3)
    if grid:
        deltas = np.stack([dequantize(quantize(d)) for d in deltas])
    vectors = [TaskVector(d, t, 1) for t, d in enumerate(deltas)]
    for got, want in zip(emr_build(vectors), frozen_emr_build(vectors)):
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    for density in (1.0, 0.3):
        assert ties_merge(vectors, density).tobytes() == frozen_ties_merge(vectors, density).tobytes()


@pytest.mark.parametrize("tag", METHOD_TAGS)
def test_pooled_shards_match_one_shard_builds(tag, conflicting_tasks):
    """Pooling three shards' tasks into one training call leaks nothing
    between them: each shard holds the bits and digests of a one-shard build
    of its own tasks, fresh and after one deletion in every shard."""
    system, _ = build_system(tag, conflicting_tasks, clusters=3, cluster_seed=7)
    alone = [
        build_system(tag, [t for t in conflicting_tasks if routes(system)[t.id] == c])[0]
        for c in range(3)
    ]

    def assert_same():
        for c, one in enumerate(alone):
            assert _same_bits(system.shards[c], one.shards[0]), c
        assert system.replay_digests == {t: d for one in alone for t, d in one.replay_digests.items()}

    assert_same()
    for c in range(3):
        victim = system.shards[c].retained[1]
        system, _, _ = unlearn(system, victim)
        alone[c], _, _ = unlearn(alone[c], victim)
    assert_same()
    assert verify_exactness(system).exact


def test_clustered_storage_sums(conflicting_tasks):
    system, _ = build_system("central", conflicting_tasks, clusters=4, cluster_seed=11)
    assert stored_words(system) == 4 * SPEC.param_count


# ---------- cost projection ----------


def test_projection_totals_fig7():
    central = project_total_cost(500, "central")
    merge_fam = project_total_cost(500, "sift_masks")
    assert central.total_finetunes == 124750
    assert merge_fam.total_finetunes == 499
    assert central.total_finetunes / merge_fam.total_finetunes == 250.0


def test_projection_first_deletion_costs():
    assert project_total_cost(100, "sift_masks").per_event[0] == 1
    assert project_total_cost(100, "tall_masks").per_event[0] == 99
    assert project_total_cost(100, "central").per_event[0] == 99
    assert project_total_cost(500, "tall_masks", 20).first_event_steps == 9980
    assert project_total_cost(100, "central", n_clusters=4).per_event[0] == 24


def test_projection_monotone_and_shapes():
    proj = project_total_cost(10, "central", 20)
    assert len(proj.per_event) == 10
    assert proj.per_event[-1] == 0
    assert list(proj.cumulative) == list(np.cumsum(proj.per_event))
    assert proj.total_steps == proj.total_finetunes * 20


@pytest.mark.parametrize("tag", ["sift_masks", "ft_merge", "tall_masks", "central"])
def test_engine_unlearn_all_matches_projection(tag, conflicting_tasks):
    tasks = conflicting_tasks[:6]
    system, _ = build_system(tag, tasks)
    total = CostLedger()
    for t in tasks:
        system, _, delta = unlearn(system, t.id)
        total.add(delta)
    proj = project_total_cost(6, tag, CFG.steps)
    assert total.unlearn_finetunes == proj.total_finetunes
    assert total.unlearn_finetunes * CFG.steps == proj.total_steps


@pytest.mark.parametrize("clusters", [1, 3])
@pytest.mark.parametrize("tag", sorted(METHODS))
def test_every_deletion_costs_its_projected_event(tag, clusters, conflicting_tasks):
    """Deletion i falls on shard i mod k, as the projection assumes, and is
    charged exactly the projection's per-event count."""
    system, _ = build_system(tag, conflicting_tasks[:6], clusters=clusters, cluster_seed=5)
    proj = project_total_cost(6, tag, CFG.steps, clusters)
    for i, expected in enumerate(proj.per_event):
        victim = system.shards[i % clusters].retained[0]
        system, _, delta = unlearn(system, victim)
        assert delta.unlearn_finetunes == expected, (i, victim)
    assert system.retained == ()


@pytest.mark.parametrize("tag", ["sift_masks", "ft_merge", "tall_masks", "emr", "ties", "central"])
def test_evaluate_every_method_both_modes(tag, conflicting_tasks):
    tasks = conflicting_tasks[:5]
    system, _ = build_system(tag, tasks)
    system, _, _ = unlearn(system, 1)
    for mode in ("held_in", "held_out"):
        report = evaluate(system, mode)
        assert all(0.0 <= v <= 1.0 for v in report.per_task.values())
    assert set(evaluate(system, "held_in").per_task) == {0, 2, 3, 4}
    assert set(evaluate(system, "held_out").per_task) == {0, 1, 2, 3, 4}


EVAL_ROWS = (5, 8, 0, 5, 3, 8, 5)  # unequal held-out splits, one of them empty


@pytest.mark.parametrize("tag", METHOD_TAGS)
@pytest.mark.parametrize("clusters", [1, 3])
def test_stacked_evaluate_equals_per_task_scoring(tag, clusters, conflicting_tasks, monkeypatch):
    """Every score and the aggregate have the bits of serving and scoring each
    task alone, in id order; by default each group of a shard's tasks with
    one serve and one eval row count is one pass, and under a bound of one
    entry every task is its own pass."""
    tasks = [replace(t, n_eval=n) for t, n in zip(conflicting_tasks, EVAL_ROWS)]
    system, _ = build_system(tag, tasks, clusters=clusters)
    system, _, _ = unlearn(system, 1)
    passes = []

    def recording(params, *args):
        passes.append(len(params))
        return accuracy(params, *args)

    monkeypatch.setattr(engine, "accuracy", recording)
    for bound in (merging.MAX_SCORE_ENTRIES, 1):
        monkeypatch.setattr(merging, "MAX_SCORE_ENTRIES", bound)
        for mode in ("held_in", "held_out"):
            ids = sorted(routes(system)) if mode == "held_out" else list(system.retained)
            want = [accuracy(frozen_serve_for_task(system, t), SPEC, *system.registry[t].eval_xy())
                    for t in ids]
            passes.clear()
            report = evaluate(system, mode)
            assert list(report.per_task) == ids
            assert [np.float64(v).tobytes() for v in report.per_task.values()] == [
                np.float64(v).tobytes() for v in want]
            assert all(type(v) is float for v in report.per_task.values())
            assert report.aggregate == float(np.mean(want)) and 0.0 in report.per_task.values()
            if bound == 1:
                assert passes == [1] * len(ids)
            else:  # one pass per (shard, served with a mask, eval rows) group
                shards = [routes(system)[t] for t in ids]
                masked = [METHODS[tag].stores_masks and t in system.retained for t in ids]
                rows = [system.registry[t].n_eval for t in ids]
                assert len(passes) == len(set(zip(shards, masked, rows)))
                assert sum(passes) == len(ids)


def test_verify_with_provided_vectors(conflicting_tasks):
    system, _ = build_system("ft_merge", conflicting_tasks[:4])
    assert verify_exactness(system).exact
    system.replay_digests[2] = b"\x00" * 32  # corrupt the stored digest
    report = verify_exactness(system)
    assert not report.replay_matches and not report.exact
    assert report.state_matches_oracle  # the accumulator itself is intact


def test_tall_build_dequantizes_accumulator_once(conflicting_tasks, monkeypatch):
    calls = []

    def counting(v):
        calls.append(len(v))
        return dequantize(v)

    monkeypatch.setattr(merging, "dequantize", counting)
    system, _ = build_system("tall_masks", conflicting_tasks[:5])
    assert calls == [SPEC.param_count]
    assert system.shards[0].retained == (0, 1, 2, 3, 4)
    assert system.shards[0].tall.shape == (5, 2)


def test_projection_rejects_bad_arguments():
    with pytest.raises(ValueError):
        project_total_cost(0, "central")
    with pytest.raises(ValueError):
        project_total_cost(10, "magic")
    with pytest.raises(ValueError):
        project_total_cost(10, "central", n_clusters=11)

from dataclasses import fields as dataclass_fields
from dataclasses import is_dataclass, replace

import numpy as np
import pytest

from frozen_serve import frozen_serve_for_task
from siftmasks import engine, merging
from siftmasks.checkpoint import load_checkpoint, system_from_checkpoint
from siftmasks.datasets import HeterogeneityRegime, synth_generate
from siftmasks.engine import (
    METHODS,
    CostLedger,
    ReplayMismatchError,
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
from siftmasks.merging import METHOD_TAGS, LocalizationMethod, serve_merged
from siftmasks.paramcore import BitMask, FxpVector, dequantize
from siftmasks.trainer import ModelSpec, TrainConfig, accuracy, ft_finetune, init_params
from test_checkpoint_v2 import DATA as V2_DATA
from test_checkpoint_v2 import FIXTURES as V2_FIXTURES
from test_checkpoint_v2 import make_tasks as v2_tasks

SPEC = ModelSpec("logistic", 10, 3)
CFG = TrainConfig(steps=20, batch_size=16, learning_rate=0.05, seed=99)


def build_system(method_tag, tasks, **kwargs):
    return build(LocalizationMethod(method_tag), tasks, SPEC, CFG, base_seed=1,
                 sign_seed=2, **kwargs)


# ---------- build and ledger ----------


def test_build_ledger_counts(conflicting_tasks):
    _, ledger = build_system("sift_masks", conflicting_tasks[:8])
    assert ledger.task_finetunes == 8
    assert ledger.finetune_steps == 160
    assert ledger.build_finetunes == 8 and ledger.unlearn_finetunes == 0


def test_build_rejects_empty_and_duplicates(conflicting_tasks):
    with pytest.raises(ValueError, match="at least one task"):
        build_system("ft_merge", [])
    with pytest.raises(ValueError, match="duplicate"):
        build_system("ft_merge", [conflicting_tasks[0], conflicting_tasks[0]])


# ---------- storage ----------


def stored_words(system):
    """``storage_words`` of a built system, from its shards' retained counts."""
    retained = [len(system.shard_retained(c)) for c in range(len(system.shards))]
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
    assert shard.merged.masks.keys() == fresh_shard.merged.masks.keys()


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


def test_unlearn_unknown_or_repeated_id(conflicting_tasks):
    system, _ = build_system("ft_merge", conflicting_tasks[:3])
    with pytest.raises(UnknownTaskError, match="task 99 is unknown or already unlearned"):
        unlearn(system, 99)
    system, _, _ = unlearn(system, 1)
    with pytest.raises(UnknownTaskError, match="task 1 is unknown or already unlearned"):
        unlearn(system, 1)


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
        assert delta.unlearn_steps == expected * CFG.steps


def test_replay_mismatch_is_hard_error(conflicting_tasks):
    system, _ = build_system("sift_masks", conflicting_tasks[:4])
    system.replay_digests[2] = b"\x00" * 32  # corrupt the stored digest
    with pytest.raises(ReplayMismatchError, match="task 2"):
        unlearn(system, 2)


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
    if tag == "tall_masks":
        assert shard.tall == fresh_shard.tall
        for t in fresh.retained:
            assert shard.merged.masks[t] == fresh_shard.merged.masks[t]
    elif tag == "emr":
        assert np.array_equal(shard.emr.unified, fresh_shard.emr.unified)
        assert shard.emr.scales == fresh_shard.emr.scales
    else:
        assert np.array_equal(shard.ties_vector, fresh_shard.ties_vector)


def test_central_unlearn_matches_fresh_build(conflicting_tasks):
    tasks = conflicting_tasks[:5]
    system, _ = build_system("central", tasks)
    system, report, delta = unlearn(system, 3)
    assert delta.unlearn_finetunes == 4
    fresh, _ = build_system("central", [t for t in tasks if t.id != 3])
    assert np.array_equal(
        system.shards[0].central_params, fresh.shards[0].central_params
    )
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
    system.shards = (replace(shard, central_params=shard.central_params + 1e-9),)
    assert not verify_exactness(system).exact


def test_verify_catches_a_doubled_tall_alpha():
    system = system_from_checkpoint(
        load_checkpoint(V2_DATA / "tall_masks_fresh.sftm"), v2_tasks()
    )
    (shard,) = system.shards
    tall = dict(shard.tall)
    lam, alpha = tall[0]
    tall[0] = (lam, 2 * alpha)
    system.shards = (replace(shard, tall=tall),)
    assert not verify_exactness(system).exact


def with_flipped_mask_bit(shard, t):
    words = shard.merged.masks[t].words.copy()
    words[0] ^= 1
    masks = {**shard.merged.masks, t: BitMask(words, shard.merged.masks[t].length)}
    return replace(shard, merged=replace(shard.merged, masks=masks))


def with_tall(shard, t, change):
    return replace(shard, tall={**shard.tall, t: change(*shard.tall[t])})


def with_emr(shard, **changes):
    return replace(shard, emr=replace(shard.emr, **changes))


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
    "emr_scale_doubled": ("emr", lambda s, t: with_emr(
        s, scales={**s.emr.scales, t: 2 * s.emr.scales[t]})),
    "emr_unified_plus_one": ("emr", lambda s, t: with_emr(
        s, unified=plus_one_at_0(s.emr.unified))),
    "emr_mask_bit": ("emr", with_flipped_mask_bit),
    "ties_entry_plus_one": ("ties", lambda s, t: replace(
        s, ties_vector=plus_one_at_0(s.ties_vector))),
}


def v2_system(tag, clusters):
    """The v2 fixture configuration of ``tag``: its one-shard fixture as
    loaded, or a fresh in-memory build over three shards."""
    if clusters == 1:
        return system_from_checkpoint(load_checkpoint(V2_DATA / f"{tag}_fresh.sftm"), v2_tasks())
    method = LocalizationMethod(tag, density_grid=(0.3, 0.7), alpha_grid=(1.0, 1.4))
    cfg = TrainConfig(steps=4, batch_size=8, learning_rate=0.05, seed=99)
    system, _ = build(method, v2_tasks(), SPEC, cfg, base_seed=1, sign_seed=2,
                      central_max_steps=12, clusters=3, cluster_seed=7)
    return system


@pytest.mark.parametrize("clusters", [1, 3])
@pytest.mark.parametrize("probe", sorted(PROBES))
def test_verify_catches_every_served_artifact_probe(probe, clusters):
    tag, change = PROBES[probe]
    system = v2_system(tag, clusters)
    assert verify_exactness(system).exact
    c = 1 if clusters == 3 else 0
    shards = list(system.shards)
    shards[c] = change(shards[c], system.shard_retained(c)[0])
    system.shards = tuple(shards)
    report = verify_exactness(system)
    assert report.replay_matches and not report.state_matches_oracle


def one_entry_changes(value):
    """(path, changed copy) for each leaf of a served value, changed at one
    entry: a float, or a float array's first entry, by one ulp; an int or a
    fixed-point vector's first entry by one; a mask's first bit. Dataclass
    fields, dict entries (the first key) and tuple items are followed down
    to their leaves."""
    if isinstance(value, BitMask):
        words = value.words.copy()
        words[0] ^= 1
        yield (), BitMask(words, value.length)
    elif isinstance(value, FxpVector):
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
        out = value.copy()
        out[0] = np.nextafter(out[0], np.inf)
        yield (), out
    elif isinstance(value, float):
        yield (), float(np.nextafter(value, np.inf))
    elif isinstance(value, int):
        yield (), value + 1


@pytest.mark.parametrize("tag", METHOD_TAGS)
def test_verify_audits_every_field_of_a_shard(tag):
    system = v2_system(tag, 1)
    (shard,) = system.shards
    changes = dict(one_entry_changes(shard))
    served = {f.name for f in dataclass_fields(shard) if getattr(shard, f.name) is not None}
    assert {path[0] for path in changes} == served
    for path, changed in changes.items():
        system.shards = (changed,)
        assert not verify_exactness(system).exact, path
    system.shards = (shard,)
    assert verify_exactness(system).exact


def test_unlearn_with_inline_verify(conflicting_tasks):
    system, _ = build_system("sift_masks", conflicting_tasks[:4])
    system, report, _ = unlearn(system, 1, verify=True)
    assert report.exact


def test_inline_verify_reports_a_remaining_replay_mismatch():
    system = v2_system("sift_masks", 1)
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


def test_unlearned_tasks_served_masklessly(conflicting_tasks):
    system, _ = build_system("sift_masks", conflicting_tasks)
    system, _, _ = unlearn(system, 0)
    assert np.array_equal(
        serve_for_task(system, 0), serve_merged(system.shards[0].merged, system.m0)
    )


@pytest.mark.parametrize("name", V2_FIXTURES)
def test_every_fixture_serves_frozen_bytes(name):
    system = system_from_checkpoint(load_checkpoint(V2_DATA / f"{name}.sftm"), v2_tasks())
    for t in sorted(system.registry):  # held-out: unlearned tasks too
        want = frozen_serve_for_task(system, t).tobytes()
        assert serve_for_task(system, t).tobytes() == want
        assert serve_for_task(system, t).tobytes() == want  # from the filled cache


@pytest.mark.parametrize("tag", ["sift_masks", "ft_merge", "tall_masks"])
def test_served_after_unlearn_equals_fresh_build(tag, conflicting_tasks):
    tasks = conflicting_tasks[:5]
    system, _ = build_system(tag, tasks)
    for t in system.registry:  # fills the cached sum before the deletion
        serve_for_task(system, t)
    system, _, _ = unlearn(system, 3)
    fresh, _ = build_system(tag, [t for t in tasks if t.id != 3])
    for t in fresh.retained:
        assert serve_for_task(system, t).tobytes() == serve_for_task(fresh, t).tobytes()
    maskless = serve_merged(fresh.shards[0].merged, fresh.m0)
    assert serve_for_task(system, 3).tobytes() == maskless.tobytes()


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
    assert one.assignment == plain.assignment == {t.id: 0 for t in conflicting_tasks}
    (only,), (plain_shard,) = one.shards, plain.shards
    assert np.array_equal(
        only.merged.accumulator.values, plain_shard.merged.accumulator.values
    )
    assert only.merged.masks == plain_shard.merged.masks
    assert led.task_finetunes == plain_led.task_finetunes
    assert evaluate(one, "held_in").per_task == evaluate(plain, "held_in").per_task


def test_singleton_clusters_central_equals_local_ft(conflicting_tasks):
    tasks = conflicting_tasks[:4]
    system, _ = build_system("central", tasks, clusters=4, cluster_seed=11)
    m0 = init_params(SPEC, 1)
    for c, shard in enumerate(system.shards):
        (tid,) = system.shard_retained(c)
        task = next(t for t in tasks if t.id == tid)
        local = m0 + ft_finetune(task, m0, SPEC, CFG).delta
        assert np.array_equal(shard.central_params, local)


def test_clustered_unlearn_touches_one_cluster(conflicting_tasks):
    system, _ = build_system("central", conflicting_tasks, clusters=2, cluster_seed=11)
    target = conflicting_tasks[0].id
    c = system.assignment[target]
    other = 1 - c
    before = system.shards[other].central_params.copy()
    after, report, delta = unlearn(system, target)
    assert np.array_equal(after.shards[other].central_params, before)
    cluster_size = sum(1 for t, ci in system.assignment.items() if ci == c)
    assert delta.unlearn_finetunes == cluster_size - 1
    assert report.exact
    with pytest.raises(UnknownTaskError):
        unlearn(after, 999)


@pytest.mark.parametrize("tag", METHOD_TAGS)
def test_each_operation_trains_in_one_call_across_shards(tag, conflicting_tasks, monkeypatch):
    """Over three shards, a per-task method's build, audit, inline-verified
    deletion and plain deletion each train every task they need in one
    ``finetune_tasks`` call; central trains one pooled task per non-empty
    shard that the operation builds."""
    per_task = METHODS[tag].per_task
    name = "finetune_tasks" if per_task else "ft_finetune"
    train, calls = getattr(engine, name), []

    def recording(tasks, *args):
        calls.append(sorted(t.id for t in tasks) if per_task else tasks.id)
        return train(tasks, *args)

    monkeypatch.setattr(engine, name, recording)
    system, _ = build_system(tag, conflicting_tasks, clusters=3, cluster_seed=7)
    everything = sorted(t.id for t in conflicting_tasks)
    assert calls == ([everything] if per_task else [min(system.shard_retained(c)) for c in range(3)])
    calls.clear()
    assert verify_exactness(system).exact
    assert len(calls) == (1 if per_task else 3)
    for c, verify in ((0, True), (1, False)):
        calls.clear()
        victim, *remaining = system.shard_retained(c)
        system, report, _ = unlearn(system, victim, verify=verify)
        assert report.exact
        if not per_task:
            assert calls == [min(remaining)]
        elif METHODS[tag].subtracts:  # the replay, with the audit's tasks when verifying
            assert calls == [sorted([victim, *remaining]) if verify else [victim]]
        else:
            assert calls == [remaining]


@pytest.mark.parametrize("tag", METHOD_TAGS)
def test_pooled_shards_match_one_shard_builds(tag, conflicting_tasks):
    """Pooling three shards' tasks into one training call leaks nothing
    between them: each shard holds the bits and digests of a one-shard build
    of its own tasks, fresh and after one deletion in every shard."""
    system, _ = build_system(tag, conflicting_tasks, clusters=3, cluster_seed=7)
    alone = [
        build_system(tag, [t for t in conflicting_tasks if system.assignment[t.id] == c])[0]
        for c in range(3)
    ]

    def assert_same():
        for c, one in enumerate(alone):
            assert _same_bits(system.shards[c], one.shards[0]), c
        assert system.replay_digests == {t: d for one in alone for t, d in one.replay_digests.items()}

    assert_same()
    for c in range(3):
        victim = system.shard_retained(c)[1]
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
    assert total.unlearn_steps == proj.total_steps


@pytest.mark.parametrize("clusters", [1, 3])
@pytest.mark.parametrize("tag", sorted(METHODS))
def test_every_deletion_costs_its_projected_event(tag, clusters, conflicting_tasks):
    """Deletion i falls on shard i mod k, as the projection assumes, and is
    charged exactly the projection's per-event count."""
    system, _ = build_system(tag, conflicting_tasks[:6], clusters=clusters, cluster_seed=5)
    proj = project_total_cost(6, tag, CFG.steps, clusters)
    for i, expected in enumerate(proj.per_event):
        victim = system.shard_retained(i % clusters)[0]
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
            ids = sorted(system.assignment) if mode == "held_out" else list(system.retained)
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
                shards = [system.assignment[t] for t in ids]
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
    assert set(system.shards[0].tall) == {0, 1, 2, 3, 4}


def test_projection_rejects_bad_arguments():
    with pytest.raises(ValueError):
        project_total_cost(0, "central")
    with pytest.raises(ValueError):
        project_total_cost(10, "magic")
    with pytest.raises(ValueError):
        project_total_cost(10, "central", n_clusters=11)

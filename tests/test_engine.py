from dataclasses import replace

import numpy as np
import pytest

from frozen_serve import frozen_serve_for_task
from siftmasks import merging
from siftmasks.checkpoint import load_checkpoint, system_from_checkpoint
from siftmasks.datasets import HeterogeneityRegime, synth_generate
from siftmasks.engine import (
    CostLedger,
    ReplayMismatchError,
    UnknownTaskError,
    build,
    cluster_random,
    evaluate,
    project_total_cost,
    serve_for_task,
    storage_report,
    unlearn,
    verify_exactness,
    zeroshot_eval,
)
from siftmasks.merging import LocalizationMethod, serve_merged
from siftmasks.paramcore import FxpVector, dequantize
from siftmasks.trainer import ModelSpec, TrainConfig, ft_finetune, init_params
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


def test_storage_words_formula_with_ceiling():
    # M = 1000 is not a multiple of 32, so the ceiling term applies
    spec = ModelSpec("logistic", 24, 40)  # 24*40+40 = 1000
    assert spec.param_count == 1000
    tasks = synth_generate(HeterogeneityRegime("similar"), 64, 6, 24, 40, seed=3)
    cfg = TrainConfig(steps=0, batch_size=8, learning_rate=0.1, seed=1)
    system, _ = build(LocalizationMethod("sift_masks"), tasks, spec, cfg)
    report = storage_report(system)
    assert report.words == 1000 + 64 * 32 == 3048
    ft, _ = build(LocalizationMethod("ft_merge"), tasks, spec, cfg)
    assert storage_report(ft).words == 1000
    central, _ = build(LocalizationMethod("central"), tasks, spec, cfg)
    assert storage_report(central).words == 1000


def test_storage_monotone_under_unlearning(conflicting_tasks):
    system, _ = build_system("sift_masks", conflicting_tasks)
    words = [storage_report(system).words]
    for u in (0, 3, 6):
        system, _, _ = unlearn(system, u)
        words.append(storage_report(system).words)
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
    with pytest.raises(UnknownTaskError):
        unlearn(system, 99)
    system, _, _ = unlearn(system, 1)
    with pytest.raises(UnknownTaskError):
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
    merged = replace(
        shard.merged, accumulator=FxpVector(values, shard.merged.accumulator.scale_bits)
    )
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


def test_unlearn_with_inline_verify(conflicting_tasks):
    system, _ = build_system("sift_masks", conflicting_tasks[:4])
    system, report, _ = unlearn(system, 1, verify=True)
    assert report.state_matches_oracle


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
    zeroshot = zeroshot_eval(system)
    assert held_out.per_task == zeroshot.per_task


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


def test_clustered_storage_sums(conflicting_tasks):
    system, _ = build_system("central", conflicting_tasks, clusters=4, cluster_seed=11)
    assert storage_report(system).words == 4 * SPEC.param_count


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

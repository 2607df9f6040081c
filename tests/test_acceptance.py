"""Acceptance suite: one test per shipping criterion, strictest tolerances.

Each test ends by printing a PASS line with the measured values so a plain
`pytest tests/test_acceptance.py -v -s` doubles as the acceptance report.
Desk-scale accuracy numbers are trend checks, not reproductions of any
large-model results; exactness and ledger checks are bit- and integer-exact.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from siftmasks.cli import main as cli_main
from siftmasks.datasets import HeterogeneityRegime, synth_generate
from siftmasks.engine import (
    build,
    evaluate,
    project_total_cost,
    storage_words,
    unlearn,
)
from siftmasks.merging import (
    LocalizationMethod,
    emr_build,
    merge,
    tall_mask,
    ties_merge,
)
from siftmasks.paramcore import dequantize, gen_sign_vector, signs, unpack_bits
from siftmasks.trainer import (
    ModelSpec,
    TaskVector,
    TrainConfig,
    accuracy,
    ft_finetune,
    init_params,
    loss_and_grad,
    sift_finetune,
)

TREND_SEEDS = (101, 202, 303)
TREND_SPEC = ModelSpec("mlp", 20, 2, hidden_dim=32)
TREND_CFG = TrainConfig(steps=20, batch_size=32, learning_rate=0.05, seed=7)
TREND_REGIME = HeterogeneityRegime("conflicting", conflict_rate=0.5, margin=1.0)


def _report(name, detail):
    print(f"\nACCEPTANCE PASS: {name} ({detail})")


def _trend_tasks(num_tasks, seed):
    return synth_generate(TREND_REGIME, num_tasks, 100, 20, 2, seed=seed)


def _trend_build(tag, tasks, seed):
    system, _ = build(
        LocalizationMethod(tag), tasks, TREND_SPEC, TREND_CFG,
        base_seed=seed + 1, sign_seed=seed + 2,
    )
    return system


@pytest.fixture(scope="module")
def trend_stats():
    """Shared held-in accuracies for the merging/localization trend criteria."""
    start = time.monotonic()
    rows = []
    for seed in TREND_SEEDS:
        tasks5 = _trend_tasks(5, seed)
        tasks50 = _trend_tasks(50, seed)
        ft5 = evaluate(_trend_build("ft_merge", tasks5, seed), "held_in").aggregate
        ft50 = evaluate(_trend_build("ft_merge", tasks50, seed), "held_in").aggregate
        sift50 = evaluate(_trend_build("sift_masks", tasks50, seed), "held_in").aggregate
        m0 = init_params(TREND_SPEC, seed + 1)
        local50 = float(np.mean([
            accuracy(m0 + ft_finetune(t, m0, TREND_SPEC, TREND_CFG).delta,
                     TREND_SPEC, *t.eval_xy())
            for t in tasks50
        ]))
        rows.append((ft5, ft50, sift50, local50))
    stats = np.array(rows).mean(axis=0)
    return {
        "ft5": stats[0],
        "ft50": stats[1],
        "sift50": stats[2],
        "local50": stats[3],
        "elapsed": time.monotonic() - start,
    }


def test_exactness_oracle_two_orders():
    start = time.monotonic()
    spec = ModelSpec("logistic", 10, 3)
    cfg = TrainConfig(steps=20, batch_size=16, learning_rate=0.05, seed=99)
    tasks = synth_generate(TREND_REGIME, 8, 30, 10, 3, seed=11)
    method = LocalizationMethod("sift_masks")

    finals = []
    for order in ((2, 5, 0), (0, 2, 5)):
        system, _ = build(method, tasks, spec, cfg, base_seed=1, sign_seed=2)
        for u in order:
            system, report, _ = unlearn(system, u)
            assert report.replay_matches
        finals.append(system.shards[0].merged.accumulator.values)
    fresh, _ = build(
        method, [t for t in tasks if t.id not in (0, 2, 5)], spec, cfg,
        base_seed=1, sign_seed=2,
    )
    oracle = fresh.shards[0].merged.accumulator.values
    diff_bits = 0
    for final in finals:
        diff_bits += int(np.count_nonzero(final != oracle))
    elapsed = time.monotonic() - start
    assert diff_bits == 0
    assert elapsed < 30.0
    _report("exactness oracle", f"0 differing words across both orders, {elapsed:.2f}s")


def test_sign_invariant_over_50_tasks():
    spec = ModelSpec("logistic", 10, 3)
    cfg = TrainConfig(steps=20, batch_size=16, learning_rate=0.05, seed=99)
    tasks = synth_generate(TREND_REGIME, 50, 30, 10, 3, seed=13)
    v = gen_sign_vector(21, spec.param_count)
    m0 = init_params(spec, 4)
    total = feasible = 0
    for task in tasks:
        tau, mask = sift_finetune(task, m0, spec, v, cfg)
        prod = tau.delta * signs(v)
        feasible += int(np.count_nonzero(prod >= 0))
        total += prod.shape[0]
        assert np.array_equal(mask.to_bools(), tau.delta != 0)
    assert feasible == total
    _report("sign invariant", f"{feasible}/{total} entries feasible, masks equal supports")


@pytest.mark.parametrize("kind,hidden", [("logistic", 0), ("mlp", 8)])
def test_gradient_check(kind, hidden):
    spec = ModelSpec(kind, 30, 4, hidden_dim=hidden)  # >= 100 parameters either way
    rng = np.random.default_rng(17)
    params = rng.normal(size=spec.param_count) * 0.4
    x = rng.normal(size=(11, 30))
    y = rng.integers(0, 4, size=11)
    _, grad = loss_and_grad(params, spec, x, y)
    idx = rng.choice(spec.param_count, size=100, replace=False)
    h = 1e-4
    worst = 0.0
    for i in idx:
        hi, lo = params.copy(), params.copy()
        hi[i] += h
        lo[i] -= h
        fd = (loss_and_grad(hi, spec, x, y)[0] - loss_and_grad(lo, spec, x, y)[0]) / (2 * h)
        worst = max(worst, abs(fd - grad[i]) / max(abs(fd), 1e-12))
    assert worst <= 1e-4
    _report(f"gradient check [{kind}]", f"max relative error {worst:.2e} over {len(idx)} coords")


def test_pipeline_determinism(tmp_path):
    flags = [
        "--num-tasks", "6", "--examples-per-task", "40", "--input-dim", "12",
        "--num-classes", "2", "--model-kind", "mlp", "--hidden-dim", "8",
        "--steps", "20",
    ]

    def pipeline(out, seed):
        assert cli_main(["gen-data", "--out-dir", out, "--seed", str(seed), *flags]) == 0
        assert cli_main([
            "train", "--config", f"{out}/gen_config.json",
            "--data", f"{out}/dataset.jsonl", "--out-dir", out,
        ]) == 0
        return Path(out, "checkpoint.sftm").read_bytes()

    a = pipeline(str(tmp_path / "a"), 77)
    b = pipeline(str(tmp_path / "b"), 77)
    c = pipeline(str(tmp_path / "c"), 78)
    assert a == b
    assert a != c
    _report("pipeline determinism", f"{len(a)}-byte checkpoints identical; seed change differs")


def test_ledger_arithmetic_pure_simulation():
    start = time.monotonic()
    central = project_total_cost(500, "central", 20)
    merge_fam = project_total_cost(500, "sift_masks", 20)
    tall = project_total_cost(500, "tall_masks", 20)
    ratio = central.total_finetunes / merge_fam.total_finetunes
    elapsed = time.monotonic() - start
    assert central.total_finetunes == 124750
    assert merge_fam.total_finetunes == 499
    assert 249.0 <= ratio <= 251.0
    assert tall.first_event_steps == 9980
    assert elapsed < 1.0
    _report(
        "ledger arithmetic",
        f"central 124750, merge 499, ratio {ratio:.1f}, tall first deletion 9980 steps, {elapsed:.3f}s",
    )


def test_storage_report_formula():
    spec = ModelSpec("logistic", 15, 64)  # 15*64 + 64 = 1024 parameters
    assert spec.param_count == 1024
    tasks = synth_generate(HeterogeneityRegime("similar"), 64, 6, 15, 64, seed=3)
    cfg = TrainConfig(steps=0, batch_size=8, learning_rate=0.1, seed=1)
    system, _ = build(LocalizationMethod("sift_masks"), tasks, spec, cfg)
    words = storage_words("sift_masks", spec.param_count, [len(system.retained)])
    m, t = 1024, 64
    assert words == 3072 == m + t * 32 == m * (1 + t // 32)
    _report("storage report", f"M=1024, T=64 -> {words} words == M(1+T/32)")


def test_merging_degradation_trend(trend_stats):
    drop = 100 * (trend_stats["ft5"] - trend_stats["ft50"])
    assert drop >= 5.0
    _report(
        "merging degradation",
        f"plain merge held-in {100*trend_stats['ft5']:.1f} at T=5 vs "
        f"{100*trend_stats['ft50']:.1f} at T=50 (drop {drop:.1f} pts, 3 seeds)",
    )


def test_localization_recovery_trend(trend_stats):
    gain = 100 * (trend_stats["sift50"] - trend_stats["ft50"])
    local_gap = 100 * abs(trend_stats["local50"] - trend_stats["sift50"])
    assert gain >= 10.0
    assert local_gap <= 5.0
    assert trend_stats["elapsed"] < 600.0
    _report(
        "localization recovery",
        f"masked {100*trend_stats['sift50']:.1f} vs plain merge "
        f"{100*trend_stats['ft50']:.1f} (+{gain:.1f}), locals "
        f"{100*trend_stats['local50']:.1f} (gap {local_gap:.1f}), "
        f"{trend_stats['elapsed']:.0f}s for all trend runs",
    )


def test_post_unlearning_trends():
    seed = TREND_SEEDS[0]
    tasks = _trend_tasks(50, seed)
    system = _trend_build("sift_masks", tasks, seed)
    held_in_before = evaluate(system, "held_in").aggregate
    held_out_before = evaluate(system, "held_out").aggregate
    for u in range(25):
        system, report, _ = unlearn(system, u)
        assert report.replay_matches
    held_in_after = evaluate(system, "held_in").aggregate
    held_out_after = evaluate(system, "held_out").aggregate
    assert held_in_after >= held_in_before - 0.02
    assert held_out_after < held_out_before
    for u in range(25, 50):
        system, _, _ = unlearn(system, u)
    final = evaluate(system, "held_out")
    zeroshot = {
        t: accuracy(system.m0, system.model_spec, *task.eval_xy())
        for t, task in system.registry.items()
    }
    assert final.per_task == zeroshot
    _report(
        "post-unlearning trends",
        f"held-in {100*held_in_before:.1f}->{100*held_in_after:.1f}, "
        f"held-out {100*held_out_before:.1f}->{100*held_out_after:.1f}, "
        f"all-unlearned equals zeroshot exactly",
    )


def _tv(values, task_id):
    return TaskVector(np.asarray(values, dtype=float), task_id, 0)


def test_baseline_formula_conformance():
    # hand-evaluated examples
    state = merge([_tv([1.0, 0.1], 0), _tv([2.0, 3.0], 1)])
    assert tall_mask(_tv([1.0, 0.1], 0), state, 0.4).to_bools().tolist() == [True, False]

    unified, scales, masks = emr_build([_tv([1.0, -2.0], 0), _tv([3.0, 1.0], 1)])
    assert unified.tolist() == [3.0, -2.0]
    assert unpack_bits(masks[0], 2).tolist() == [True, True]
    assert scales[0] == pytest.approx(0.6)

    assert ties_merge([_tv([2.0, -1.0], 0), _tv([-1.0, -3.0], 1)], 1.0).tolist() == [2.0, -2.0]

    # randomized equivalence against direct-from-formula references
    rng = np.random.default_rng(31337)
    for _ in range(1000):
        m = int(rng.integers(1, 65))
        n = int(rng.integers(1, 5))
        deltas = rng.normal(size=(n, m))
        deltas[rng.random(size=deltas.shape) < 0.2] = 0.0
        vecs = [_tv(deltas[i], i) for i in range(n)]

        lam = float(rng.random() * 2)
        state = merge(vecs)
        merged_sum = dequantize(state.accumulator)
        expect = [abs(t) >= lam * abs(s - t) for t, s in zip(deltas[0], merged_sum)]
        assert tall_mask(vecs[0], state, lam).to_bools().tolist() == expect

        unified, _, _ = emr_build(vecs)
        for j in range(m):
            s = np.sign(deltas[:, j].sum())
            aligned = [abs(d) for d in deltas[:, j] if np.sign(d) == s and s != 0]
            assert unified[j] == pytest.approx(s * max(aligned) if aligned else 0.0)

        density = float(rng.uniform(0.05, 1.0))
        got = ties_merge(vecs, density)
        k = int(np.ceil(density * m))
        trimmed = np.zeros_like(deltas)
        for i in range(n):
            keep = sorted(range(m), key=lambda j: (-abs(deltas[i][j]), j))[:k]
            trimmed[i, keep] = deltas[i, keep]
        gamma = np.sign(trimmed.sum(axis=0))
        for j in range(m):
            agree = [t for t in trimmed[:, j] if np.sign(t) == gamma[j] and gamma[j] != 0]
            expect_j = sum(agree) / len(agree) if agree else 0.0
            assert got[j] == pytest.approx(expect_j, abs=1e-12)
    _report("baseline formula conformance", "hand examples exact; 1000 randomized trials match")

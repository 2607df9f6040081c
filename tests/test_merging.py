import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siftmasks import merging
from siftmasks.datasets import HeterogeneityRegime, synth_generate
from siftmasks.merging import (
    _tall_thresholds,
    emr_build,
    emr_localize,
    localize_masked,
    localize_sift,
    merge,
    serve_merged,
    tall_lambda_for_density,
    tall_mask,
    tall_tune,
    ties_merge,
    ties_trim,
    unmerge,
)
from siftmasks.paramcore import BitMask, dequantize, gen_sign_vector, quantize
from siftmasks.trainer import (
    ModelSpec,
    TaskVector,
    TrainConfig,
    accuracy,
    ft_finetune,
    init_params,
    sift_finetune,
)

rng = np.random.default_rng(1234)


def tv(values, task_id):
    return TaskVector(np.asarray(values, dtype=float), task_id, 0)


def rand_tvs(n, length, scale=1.0):
    return [tv(rng.normal(size=length) * scale, i) for i in range(n)]


# ---------- merge / unmerge ----------


def test_merge_singleton_is_quantized_vector():
    a = tv([0.5, -0.25, 0.1], 0)
    state = merge([a])
    assert np.array_equal(state.accumulator.values, quantize(a.delta).values)
    assert state.n_retained == 1


def test_merge_permutation_invariant():
    vecs = rand_tvs(5, 12)
    a = merge(vecs)
    b = merge(list(reversed(vecs)))
    assert np.array_equal(a.accumulator.values, b.accumulator.values)


def test_merge_empty_and_errors():
    empty = merge([], length=4)
    assert not empty.accumulator.values.any() and empty.n_retained == 0
    with pytest.raises(ValueError, match="explicit length"):
        merge([])
    with pytest.raises(ValueError, match="duplicate"):
        merge([tv([1.0], 0), tv([2.0], 0)])
    with pytest.raises(ValueError, match="mismatched lengths"):
        merge([tv([1.0], 0), tv([1.0, 2.0], 1)])


def test_unmerge_equals_fresh_merge():
    a, b, c = rand_tvs(3, 10)
    state = merge([a, b, c], {t: BitMask.ones(10) for t in (0, 1, 2)})
    after = unmerge(state, b)
    fresh = merge([a, c])
    assert np.array_equal(after.accumulator.values, fresh.accumulator.values)
    assert after.n_retained == 2 and set(after.masks) == {0, 2}


def test_unmerge_last_task_zeroes_accumulator():
    a = tv(rng.normal(size=6), 0)
    state = unmerge(merge([a]), a)
    assert not state.accumulator.values.any()
    assert state.n_retained == 0


def test_unmerge_is_order_free():
    a, b, c = rand_tvs(3, 8)
    s1 = unmerge(unmerge(merge([a, b, c]), a), b)
    s2 = unmerge(unmerge(merge([a, b, c]), b), a)
    assert np.array_equal(s1.accumulator.values, s2.accumulator.values)


@given(st.integers(2, 6), st.integers(1, 16), st.data())
@settings(max_examples=40, deadline=None)
def test_subtract_path_equals_fresh_merge_any_subset(n, length, data):
    vecs = [
        tv(np.array(data.draw(st.lists(
            st.floats(-100, 100, allow_nan=False), min_size=length, max_size=length
        ))), i)
        for i in range(n)
    ]
    drop = data.draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    state = merge(vecs)
    for d in drop:
        state = unmerge(state, vecs[d])
    fresh = merge([v for v in vecs if v.source_task not in drop], length=length)
    assert np.array_equal(state.accumulator.values, fresh.accumulator.values)


# ---------- serving and sift localization ----------


def test_serve_merged_cases():
    m0 = rng.normal(size=5)
    a = tv(rng.normal(size=5), 0)
    single = merge([a])
    assert np.allclose(serve_merged(single, m0), m0 + a.delta, atol=2.0**-32)
    twin = merge([a, tv(a.delta.copy(), 1)])
    assert np.allclose(serve_merged(twin, m0), m0 + a.delta, atol=2.0**-32)
    empty = merge([], length=5)
    assert np.array_equal(serve_merged(empty, m0), m0)


def test_localize_sift_singleton_recovery():
    m0 = rng.normal(size=8)
    delta = rng.normal(size=8) * 0.5
    mask = BitMask.ones(8)
    state = merge([tv(delta, 0)], {0: mask})
    out = localize_sift(state, 0, m0)
    assert np.max(np.abs(out - (m0 + delta))) <= 2.0**-33


def test_localize_sift_disjoint_masks_halved():
    # two tasks with disjoint masks: the localized delta is tau_t / 2
    d1 = np.array([0.5, 0.25, 0.0, 0.0])
    d2 = np.array([0.0, 0.0, -0.75, 0.125])
    m1 = BitMask.from_bools([1, 1, 0, 0])
    m2 = BitMask.from_bools([0, 0, 1, 1])
    m0 = np.zeros(4)
    state = merge([tv(d1, 0), tv(d2, 1)], {0: m1, 1: m2})
    out = localize_sift(state, 0, m0)
    assert np.array_equal(out, d1 / 2)  # grid-exact values divide cleanly
    out2 = localize_sift(state, 1, m0)
    assert np.array_equal(out2, d2 / 2)


def test_localize_sift_zero_mask_returns_base():
    m0 = rng.normal(size=4)
    state = merge([tv(rng.normal(size=4), 0)], {0: BitMask.zeros(4)})
    assert np.array_equal(localize_sift(state, 0, m0), m0)


def test_localize_sift_guards():
    state = merge([tv(np.ones(3), 0)], {0: BitMask.ones(3)})
    with pytest.raises(KeyError, match="no stored mask"):
        localize_sift(state, 9, np.zeros(3))


# ---------- TALL ----------


def tall_state(vecs):
    return merge(vecs)


def test_tall_mask_hand_example():
    t1 = tv([1.0, 0.1], 0)
    t2 = tv([2.0, 3.0], 1)
    state = tall_state([t1, t2])  # merged sum = [3.0, 3.1]
    mask = tall_mask(t1, state, 0.4)
    assert mask.to_bools().tolist() == [True, False]  # 1.0>=0.8, 0.1<1.2


def test_tall_mask_lambda_zero_full():
    vecs = rand_tvs(3, 16)
    state = tall_state(vecs)
    assert tall_mask(vecs[0], state, 0.0).popcount == 16


def test_tall_mask_single_task_always_full():
    a = tv(rng.normal(size=12), 0)
    state = tall_state([a])
    for lam in (0.0, 1.0, 100.0):
        assert tall_mask(a, state, lam).popcount == 12


@given(st.floats(0, 5), st.floats(0, 5))
@settings(max_examples=40, deadline=None)
def test_tall_mask_monotone_in_lambda(l1, l2):
    lo, hi = sorted((l1, l2))
    vecs = rand_tvs(3, 24)
    state = tall_state(vecs)
    wide = tall_mask(vecs[1], state, lo).to_bools()
    narrow = tall_mask(vecs[1], state, hi).to_bools()
    assert not np.any(narrow & ~wide)  # higher lambda keeps a subset


def test_tall_lambda_bisection_hits_density():
    vecs = rand_tvs(4, 400)
    state = tall_state(vecs)
    for target in (0.1, 0.5, 0.9):
        lam = tall_lambda_for_density(vecs[0], state, target)
        got = tall_mask(vecs[0], state, lam).density
        assert abs(got - target) <= 0.05
    assert tall_lambda_for_density(vecs[0], state, 1.0) == 0.0


def frozen_tall_lambda_for_density(tau_t, state, target_density, iters=60):
    """Reference: the bisection that built a full TALL mask at every step."""
    if target_density >= 1.0:
        return 0.0

    def density(lam):
        rest = dequantize(state.accumulator) - tau_t.delta
        return BitMask.from_bools(np.abs(tau_t.delta) >= lam * np.abs(rest)).density

    lo, hi = 0.0, 1.0
    while density(hi) > target_density and hi < 1e12:
        hi *= 2.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if density(mid) > target_density:
            lo = mid
        else:
            hi = mid
    return hi if abs(density(hi) - target_density) <= abs(density(lo) - target_density) else lo


# small integers and exact halves make ties |tau| == lambda * |rest| common
_entries = st.one_of(
    st.floats(-4, 4, allow_nan=False, allow_subnormal=False),
    st.integers(-4, 4).map(lambda k: k / 2.0),
)


@given(
    st.integers(1, 40).flatmap(
        lambda m: st.lists(st.lists(_entries, min_size=m, max_size=m), min_size=1, max_size=4)
    ),
    st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.1, 0.25, 0.3, 0.5, 0.7, 0.9])),
)
@settings(max_examples=100, deadline=None)
def test_tall_lambda_matches_frozen_bisection(rows, target):
    vecs = [tv(r, i) for i, r in enumerate(rows)]
    state = tall_state(vecs)
    for v in vecs:
        got = tall_lambda_for_density(v, state, target)
        assert got == frozen_tall_lambda_for_density(v, state, target)


def frozen_tall_mask(tau_t, state, lambda_t):
    """Reference: the TALL mask built from a fresh dequantize per call."""
    tau = np.abs(tau_t.delta)
    rest = np.abs(dequantize(state.accumulator) - tau_t.delta)
    return BitMask.from_bools(tau >= lambda_t * rest)


def frozen_tall_tune(tau_t, state, density_grid, alpha_grid, features, labels, spec, m0,
                     score=accuracy):
    """Reference: the grid search that bisected and packed a mask per target."""
    best = None
    for target in sorted(density_grid):
        lam = frozen_tall_lambda_for_density(tau_t, state, target)
        mask = frozen_tall_mask(tau_t, state, lam)
        for alpha in sorted(alpha_grid):
            acc = score(localize_masked(state, mask, m0, alpha), spec, features, labels)
            if best is None or acc > best[0]:
                best = (acc, lam, alpha)
    return best[1], best[2]


class RecordingScore:
    """Stands in for accuracy: records each candidate's parameters and scores
    it by a hash of their bytes, into three levels so that ties are common."""

    def __init__(self):
        self.seen = []

    def __call__(self, params, spec, features, labels):
        self.seen.append(params.copy())
        return hashlib.sha256(params.tobytes()).digest()[0] % 3 / 2


def assert_tune_matches_frozen(vecs, density_grid, alpha_grid=(0.8, 1.0, 1.2, 1.4, 1.6)):
    """The tuner picks the frozen tuner's lambda, alpha and mask for every task,
    after scoring bit-identical candidates in the same order."""
    state = tall_state(vecs)
    m0 = np.linspace(-1.0, 1.0, state.length)
    for v in vecs:
        new, old = RecordingScore(), RecordingScore()
        with mock.patch.object(merging, "accuracy", new):
            lam, alpha, mask = tall_tune(v, state, density_grid, alpha_grid, None, None, None, m0)
        want_lam, want_alpha = frozen_tall_tune(
            v, state, density_grid, alpha_grid, None, None, None, m0, score=old
        )
        assert (lam, alpha) == (want_lam, want_alpha)
        assert np.array_equal(mask.words, frozen_tall_mask(v, state, lam).words)
        assert len(new.seen) == len(old.seen)
        assert all(np.array_equal(a.view(np.int64), b.view(np.int64))
                   for a, b in zip(new.seen, old.seen))


_magnitudes = st.floats(1e-12, 1e3).flatmap(lambda x: st.sampled_from([x, -x]))


@given(
    st.integers(1, 60).flatmap(
        lambda m: st.lists(
            st.lists(st.one_of(_entries, st.just(0.0), _magnitudes), min_size=m, max_size=m),
            min_size=1, max_size=5,
        )
    ),
    st.lists(st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9, 1.0]), min_size=1, max_size=5),
)
@settings(max_examples=60, deadline=None)
def test_tall_tune_matches_frozen_tuner(rows, density_grid):
    assert_tune_matches_frozen([tv(r, i) for i, r in enumerate(rows)], tuple(density_grid))


def test_tall_tune_edge_cases_match_frozen():
    grid = (0.1, 0.3, 0.5, 0.7, 0.9)
    # one task: its vector is the whole sum, so rest == 0 everywhere
    assert_tune_matches_frozen([tv([0.5, -1.25, 0.0, 3.0], 0)], grid)
    # tau == 0 where the other task leaves the smallest nonzero rest
    tiny = 2.0**-32
    assert_tune_matches_frozen([tv([0.0, 0.0, 1.0, 2.0], 0), tv([tiny, -tiny, 1.0, 0.0], 1)], grid)
    # |tau| / |rest| is 1/2 or 1/4, lambdas the bisection visits exactly
    assert_tune_matches_frozen([tv([1.0, 0.5, 0.25, 2.0], 0), tv([2.0, 1.0, 1.0, 4.0], 1)], grid)
    state = tall_state([tv([1.0, 0.5, 0.25, 2.0], 0), tv([2.0, 1.0, 1.0, 4.0], 1)])
    assert tall_mask(tv([1.0, 0.5, 0.25, 2.0], 0), state, 0.5).popcount == 3


def assert_largest_threshold(tau, rest):
    (c,) = _tall_thresholds(np.array([tau]), np.array([rest]))
    assert tau >= c * rest
    assert c == np.finfo(np.float64).max or tau < np.nextafter(c, np.inf) * rest


@given(st.floats(0.0, 1e308), st.floats(0.0, 1e308))
@settings(max_examples=300, deadline=None)
def test_tall_threshold_is_largest_passing_lambda(tau, rest):
    assert_largest_threshold(tau, rest)


def test_tall_threshold_extremes_terminate():
    for tau, rest in [(0.0, 1e-10), (0.0, 5e-324), (5e-324, 1e-300), (1e-320, 3.0),
                      (1.0, 0.0), (0.0, 0.0), (1e308, 1e-308), (1e-300, 1e300)]:
        assert_largest_threshold(tau, rest)


def _tuning_setup():
    regime = HeterogeneityRegime("conflicting", conflict_rate=0.7, margin=1.0)
    tasks = synth_generate(regime, 4, 40, 10, 2, seed=23)
    spec = ModelSpec("logistic", 10, 2)
    cfg = TrainConfig(steps=20, batch_size=16, learning_rate=0.1, seed=5)
    m0 = init_params(spec, 1)
    vecs = [ft_finetune(t, m0, spec, cfg) for t in tasks]
    state = tall_state(vecs)
    return tasks, spec, m0, vecs, state


def test_tall_tune_singleton_grid_returns_it():
    tasks, spec, m0, vecs, state = _tuning_setup()
    x, y = tasks[0].train_xy()
    lam, alpha, mask = tall_tune(vecs[0], state, (0.5,), (1.2,), x, y, spec, m0)
    assert alpha == 1.2
    assert lam == tall_lambda_for_density(vecs[0], state, 0.5)
    assert mask == tall_mask(vecs[0], state, lam)


def test_tall_tuned_beats_fixed_member_of_grid():
    tasks, spec, m0, vecs, state = _tuning_setup()
    x, y = tasks[0].train_xy()
    lam, alpha, _ = tall_tune(
        vecs[0], state, (0.1, 0.3, 0.5, 0.7, 0.9), (0.8, 1.0, 1.2, 1.4, 1.6), x, y, spec, m0
    )
    tuned = accuracy(localize_masked(state, tall_mask(vecs[0], state, lam), m0, alpha), spec, x, y)
    fixed_lam = tall_lambda_for_density(vecs[0], state, 0.5)
    fixed = accuracy(localize_masked(state, tall_mask(vecs[0], state, fixed_lam), m0, 1.0), spec, x, y)
    assert tuned >= fixed  # grid search dominates any fixed grid member


# ---------- EMR ----------


def test_emr_hand_example():
    art, masks = emr_build([tv([1.0, -2.0], 0), tv([3.0, 1.0], 1)])
    assert art.unified.tolist() == [3.0, -2.0]
    assert masks[0].to_bools().tolist() == [True, True]
    assert art.scales[0] == pytest.approx(3 / 5)
    local = emr_localize(art, 0, masks[0], np.zeros(2))
    assert np.allclose(local, [1.8, -1.2])


def test_emr_singleton_exact_recovery():
    delta = rng.normal(size=20)
    delta[3] = 0.0
    art, masks = emr_build([tv(delta, 0)])
    assert np.array_equal(art.unified, delta)
    assert np.array_equal(masks[0].to_bools(), delta != 0)
    assert art.scales[0] == 1.0
    m0 = rng.normal(size=20)
    assert np.array_equal(emr_localize(art, 0, masks[0], m0), m0 + delta)


def test_emr_zero_sum_entry_dropped():
    art, masks = emr_build([tv([1.0, 2.0], 0), tv([-1.0, 1.0], 1)])
    assert art.unified[0] == 0.0
    assert not masks[0].to_bools()[0]
    assert not masks[1].to_bools()[0]


def test_emr_zero_norm_scale_guard():
    art, _ = emr_build([tv([1.0, -1.0], 0), tv([-1.0, 1.0], 1)])
    assert not art.unified.any()
    assert art.scales[0] == 1.0


# ---------- TIES ----------


def test_ties_identity_single_task():
    delta = rng.normal(size=10)
    assert np.array_equal(ties_merge([tv(delta, 0)], 1.0), delta)


def test_ties_hand_example():
    out = ties_merge([tv([2.0, -1.0], 0), tv([-1.0, -3.0], 1)], 1.0)
    assert out.tolist() == [2.0, -2.0]


def test_ties_trim_top_half():
    assert ties_trim(np.array([2.0, 0.1]), 0.5).tolist() == [2.0, 0.0]
    # magnitude tie at the cut keeps the lower index
    assert ties_trim(np.array([1.0, -1.0]), 0.5).tolist() == [1.0, 0.0]


def test_ties_rejects_bad_density():
    with pytest.raises(ValueError):
        ties_merge([tv([1.0], 0)], 0.0)
    with pytest.raises(ValueError):
        ties_merge([tv([1.0], 0)], 1.5)


# ---------- randomized brute-force equivalence ----------


def brute_tall_mask(tau, merged_sum, lam):
    return [abs(t) >= lam * abs(s - t) for t, s in zip(tau, merged_sum)]


def brute_emr(deltas):
    n = len(deltas)
    m = len(deltas[0])
    unified = []
    for j in range(m):
        s = np.sign(sum(d[j] for d in deltas))
        aligned = [abs(d[j]) for d in deltas if np.sign(d[j]) == s and s != 0]
        unified.append(s * max(aligned) if aligned else 0.0)
    masks = [[d[j] * unified[j] > 0 for j in range(m)] for d in deltas]
    scales = []
    for i, d in enumerate(deltas):
        kept = sum(abs(unified[j]) for j in range(m) if masks[i][j])
        scales.append(sum(abs(x) for x in d) / kept if kept > 0 else 1.0)
    return unified, masks, scales


def brute_ties(deltas, density):
    m = len(deltas[0])
    k = int(np.ceil(density * m))
    trimmed = []
    for d in deltas:
        order = sorted(range(m), key=lambda j: (-abs(d[j]), j))[:k]
        t = [d[j] if j in order else 0.0 for j in range(m)]
        trimmed.append(t)
    out = []
    for j in range(m):
        gamma = np.sign(sum(t[j] for t in trimmed))
        agree = [t[j] for t in trimmed if np.sign(t[j]) == gamma and gamma != 0]
        out.append(sum(agree) / len(agree) if agree else 0.0)
    return out


def test_brute_force_equivalence_1000_trials():
    check_rng = np.random.default_rng(2024)
    for trial in range(1000):
        m = int(check_rng.integers(1, 65))
        n = int(check_rng.integers(1, 5))
        deltas = check_rng.normal(size=(n, m))
        # inject zeros and exact ties to exercise tie-break paths
        deltas[check_rng.random(size=deltas.shape) < 0.15] = 0.0
        if m >= 2:
            deltas[:, 1] = deltas[:, 0] * check_rng.choice([-1.0, 1.0])
        vecs = [tv(deltas[i], i) for i in range(n)]

        lam = float(check_rng.random() * 2)
        state = merge(vecs)
        merged_sum = dequantize(state.accumulator)
        got = tall_mask(vecs[0], state, lam).to_bools().tolist()
        assert got == brute_tall_mask(deltas[0], merged_sum, lam)

        art, art_masks = emr_build(vecs)
        unified, masks, scales = brute_emr(deltas)
        assert np.allclose(art.unified, unified, atol=1e-12)
        for i in range(n):
            assert art_masks[i].to_bools().tolist() == masks[i]
            assert art.scales[i] == pytest.approx(scales[i])

        density = float(check_rng.uniform(0.05, 1.0))
        assert np.allclose(ties_merge(vecs, density), brute_ties(deltas, density), atol=1e-12)


# ---------- sift-level merging invariants ----------


def _sift_setup(num_tasks=10, seed=5):
    regime = HeterogeneityRegime("conflicting", conflict_rate=0.5, margin=1.0)
    tasks = synth_generate(regime, num_tasks, 40, 10, 2, seed=seed)
    spec = ModelSpec("mlp", 10, 2, hidden_dim=8)
    cfg = TrainConfig(steps=20, batch_size=16, learning_rate=0.05, seed=7)
    m0 = init_params(spec, 3)
    v = gen_sign_vector(9, spec.param_count)
    return tasks, spec, cfg, m0, v


def test_sift_merge_has_no_sign_conflicts():
    tasks, spec, cfg, m0, v = _sift_setup()
    results = [sift_finetune(t, m0, spec, v, cfg) for t in tasks]
    state = merge([r[0] for r in results], {t.id: r[1] for t, r in zip(tasks, results)})
    acc = dequantize(state.accumulator)
    assert np.all(acc * v.signs() >= 0)


def test_sift_reduces_merged_to_local_distance_in_aggregate():
    tasks, spec, cfg, m0, v = _sift_setup()
    ft_vecs = [ft_finetune(t, m0, spec, cfg) for t in tasks]
    sift_vecs = [sift_finetune(t, m0, spec, v, cfg)[0] for t in tasks]
    ft_state = merge(ft_vecs)
    sift_state = merge(sift_vecs)
    ft_served = serve_merged(ft_state, m0)
    sift_served = serve_merged(sift_state, m0)
    ft_dist = np.mean([np.linalg.norm(ft_served - (m0 + t.delta)) for t in ft_vecs])
    sift_dist = np.mean([np.linalg.norm(sift_served - (m0 + t.delta)) for t in sift_vecs])
    assert sift_dist <= ft_dist

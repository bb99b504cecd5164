"""A grid point as one batch: row-wise checks against the per-trial testers."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

import paritylab.harness as harness
from paritylab import _kernels
from paritylab.collector import (
    _CC_STEPS,
    _CHUNK_CELLS,
    BaseGraph,
    CCTesterConfig,
    _cc_rows,
    _confused_draw,
    _necklace_moments,
)
from paritylab.collector import test_uniformity_cc as cc_verdict
from paritylab.core import SampleMultiset, circular_runs, parity_trace
from paritylab.harness import (
    ExperimentSpec,
    _cc_draw,
    _pt_large_draw,
    _setup,
    estimate_acceptance,
    run_cc_trial,
    run_pt_large_trial,
    run_pt_small_trial,
    wilson_interval,
)
from paritylab.parity import (
    _PT_LARGE_STATS,
    _PT_LARGE_STEPS,
    _PT_SMALL_STEPS,
    PTTesterConfig,
    _pt_large_rows,
    _pt_small_rows,
)
from paritylab.parity import test_uniformity_pt_large as pt_large_verdict
from paritylab.parity import test_uniformity_pt_small as pt_small_verdict
from paritylab.rng import generator, split_seed

RUN_TRIAL = {"cc": run_cc_trial, "pt_large": run_pt_large_trial, "pt_small": run_pt_small_trial}


def mixed_counts(rng, rows: int, cols: int, lam: float) -> np.ndarray:
    """Poisson rows at rates rising from 0 (an all-zero first row) to 4 lam."""
    return rng.poisson(np.linspace(0.0, 4 * lam, rows)[:, None], size=(rows, cols))


def assert_has_empty_slots(counts: np.ndarray) -> None:
    """The rows hold an all-zero first row, and an empty first, last and interior slot."""
    empty = counts == 0
    assert empty[0].all() and empty[1:, 0].any() and empty[1:, -1].any()
    assert (empty[1:, 1:-1].any(axis=1) & ~empty[1:, 0] & ~empty[1:, -1]).any()


def test_cc_rows_match_the_per_trial_tester():
    rng = np.random.default_rng(7)
    n, m = 64, 600.0
    cfg = CCTesterConfig(0.3, 0.5)
    steps = set()
    for graph in (BaseGraph("cycle", n), BaseGraph("path", n)):
        counts = mixed_counts(rng, 40, n, m / n)
        keep = rng.random((40, graph.n_edges)) < 0.5
        labels = _kernels.bucket_labels(keep, n, graph.is_cycle)
        # the batch reads each row's largest bucket and sum of x(x-1), in blocks
        ends = np.ones((40, n), dtype=np.bool_)
        ends[:, : n - 1] = ~keep[:, : n - 1]
        joined = keep[:, -1] if graph.is_cycle else np.zeros(40, dtype=np.bool_)
        top, pairs = _kernels.bucket_moments(ends, joined, np.array_split(counts.flatten(), 7))
        step, y, _, _ = _cc_rows(top, pairs, cfg, n, m, graph, True)
        for i in range(len(counts)):
            bucket_counts = np.bincount(labels[i], weights=counts[i])
            v = cc_verdict(bucket_counts, cfg, n, m, graph, override_range_check=True)
            assert (v.accept, v.fired_step) == (step[i] == 0, _CC_STEPS[step[i]])
            assert v.statistics.get("Y", 0.0) == (0.0 if v.fired_step == "concentration" else y[i])
            steps.add(v.fired_step)
    assert steps == {"none", "concentration", "collision"}


def test_pt_large_rows_match_the_per_trial_tester_on_the_string(monkeypatch):
    rng = np.random.default_rng(8)
    n, m, eps = 32, 300.0, 0.5
    cfg = PTTesterConfig(alpha=4.0)
    lam = m / (2 * n)
    counts = mixed_counts(rng, 60, 2 * n, lam)
    counts[4:10, 1::2] = 0  # every even slot empty: the one-runs join into one
    counts[10:14, 0::2] *= 3  # too many ones
    counts[14:30, 0::2] = rng.poisson(0.8 * lam, size=(16, n))  # class 1 passes ...
    counts[14:18, 1::2] *= 3  # ... and class 0 has too many zeros
    counts[18:30, 1::2] = rng.poisson(1.2 * lam, size=(12, n))  # ... or too many collisions
    assert_has_empty_slots(counts)
    first, stats, _, _ = _pt_large_rows(_necklace_moments(counts), n, eps, cfg, m)
    # the one-row path: the trial, with its draw replaced by row i
    monkeypatch.setattr(harness, "_pt_large_draw", lambda point, m, rows, rng, inst: counts[[i]])
    seen = set()
    for i, row in enumerate(counts):
        v = pt_large_verdict(circular_runs(parity_trace(SampleMultiset(row))), n, eps, cfg, m=m)
        assert (v.accept, v.fired_step) == (first[i] == 6, _PT_LARGE_STEPS[first[i]])
        trial = run_pt_large_trial({"n": n, "epsilon": eps, "m": m, "alpha": cfg.alpha}, 0)
        assert trial.to_json() == v.to_json()
        for key, value in v.statistics.items():
            if key in _PT_LARGE_STATS:
                assert value == stats[_PT_LARGE_STATS.index(key), i], key
        seen.add((v.fired_step, "N0" in v.statistics))
    assert {step for step, _ in seen} == {"none", "bias", "concentration", "collision"}
    assert ("collision", True) in seen and ("bias", True) in seen  # class 0 fired too


def test_pt_small_rows_match_the_per_trial_tester_on_the_string(monkeypatch):
    rng = np.random.default_rng(9)
    n, eps = 8, 0.3
    counts = mixed_counts(rng, 60, 2 * n, 3.0)
    counts[4:8, 0] = 0
    counts[8:12, -1] = 0
    assert_has_empty_slots(counts)
    step, c_stat, _, _ = _pt_small_rows(counts, n, eps)
    monkeypatch.setattr(harness, "_pt_small_draw", lambda point, m, rows, rng, inst: counts[[i]])
    seen = set()
    for i, row in enumerate(counts):
        v = pt_small_verdict(parity_trace(SampleMultiset(row)), n, eps)
        assert (v.accept, v.fired_step) == (step[i] == 0, _PT_SMALL_STEPS[step[i]])
        # the replaced draw ignores m, and the verdict reports the row's own size
        trial = run_pt_small_trial({"n": n, "epsilon": eps, "m": 1}, 0)
        assert trial.to_json() == v.to_json()
        assert v.statistics.get("C", 0.0) == (0.0 if v.fired_step == "coverage" else c_stat[i])
        seen.add(v.fired_step)
    assert seen == {"none", "coverage", "histogram"}


# Steps and sha256 prefix of the verdict JSON of seeds 0..5, as the per-trial
# functions gave them before estimate_acceptance ran a point as a batch.
PINNED_TRIALS = [
    ("cc", {"n": 64, "epsilon": 0.3, "eta": 0.5},
     ["none"] * 6, "3ee929c2560fb549"),
    ("cc", {"n": 64, "epsilon": 0.3, "eta": 0.5, "instance": "interval_far", "width": 4,
            "graph": "path"},
     ["collision"] * 4 + ["none", "collision"], "9432495f2bc3394b"),
    ("cc", {"n": 64, "epsilon": 0.3, "eta": 0.5, "instance": "paired_far", "alpha": 2.0},
     ["none", "concentration", "none", "none", "none", "none"], "e6141ca08f0e80f2"),
    ("pt_large", {"n": 32, "epsilon": 0.5, "m": 300},
     ["none", "collision", "collision", "none", "none", "collision"], "304e782c7c69dd56"),
    ("pt_large", {"n": 32, "epsilon": 0.5, "m": 300, "instance": "paired_far", "bias": 0.9,
                  "gamma": 0.5},
     ["collision"] * 5 + ["bias"], "71606b12deb6e901"),
    ("pt_large", {"n": 32, "epsilon": 0.5, "m": 300, "instance": "interval_far", "alpha": 4.0},
     ["concentration"] * 6, "552ebce4423e7ce9"),
    ("pt_small", {"n": 8, "epsilon": 0.3},
     ["none", "none", "histogram", "none", "none", "none"], "7ce836e625762919"),
    ("pt_small", {"n": 8, "epsilon": 0.3, "instance": "paired_far", "bias": 0.6},
     ["histogram"] * 6, "eb29d1a056ac87d2"),
    ("pt_small", {"n": 8, "epsilon": 0.3, "m": 40},
     ["coverage", "none", "coverage", "coverage", "coverage", "coverage"], "51c8d76ab4f109d8"),
]


@pytest.mark.parametrize("tester,point,steps,digest", PINNED_TRIALS)
def test_per_trial_verdicts_are_pinned(tester, point, steps, digest):
    verdicts = [RUN_TRIAL[tester](point, seed) for seed in range(6)]
    assert [v.fired_step for v in verdicts] == steps
    text = "\n".join(v.to_json() for v in verdicts)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("tester,point", [
    ("cc", {"n": 256, "epsilon": 0.3, "eta": 0.5}),
    ("cc", {"n": 256, "epsilon": 0.3, "eta": 0.5, "instance": "interval_far", "width": 8}),
    ("pt_large", {"n": 256, "epsilon": 0.3}),
    ("pt_large", {"n": 256, "epsilon": 0.3, "instance": "paired_far"}),
    ("pt_small", {"n": 32, "epsilon": 0.05}),
    ("pt_small", {"n": 32, "epsilon": 0.05, "instance": "paired_far", "bias": 0.4}),
])
def test_batched_and_per_trial_rates_agree(tester, point):
    trials = 1000
    batched = estimate_acceptance(ExperimentSpec(tester, [point], trials, 21)).rows[0][-4]
    per_trial = sum(RUN_TRIAL[tester](point, s).accept for s in split_seed(22, trials))
    low, high = wilson_interval(round(batched * trials), trials)
    ref_low, ref_high = wilson_interval(per_trial, trials)
    assert low <= ref_high and ref_low <= high


@pytest.mark.parametrize("tester,point", [
    ("cc", {"n": 64, "epsilon": 0.3, "eta": 0.5, "alpha": 1e-3}),  # every trial: concentration
    ("pt_small", {"n": 8, "epsilon": 0.3, "m": 4}),  # every trial: coverage
])
def test_mean_statistic_counts_early_rejects_as_zero(tester, point):
    row = estimate_acceptance(ExperimentSpec(tester, [point], 50, 4)).rows[0]
    assert row[-4:] == (0.0, 0.0, pytest.approx(0.0713, abs=1e-4), 0.0)


M_POINTS = [("cc", {"n": 64, "epsilon": 0.3, "eta": 0.5}),
            ("pt_large", {"n": 64, "epsilon": 0.3}),
            ("pt_small", {"n": 8, "epsilon": 0.3})]


@pytest.mark.parametrize("tester,point,m", [
    pytest.param(tester, point, m, id=f"{m}-{tester}-point{i}")
    for m in [0, -3.0, math.nan, math.inf, "100", True]
    for i, (tester, point) in enumerate(M_POINTS)
] + [
    # pt_small draws exactly m points: 40.9 used to run at 40 while the CSV row said 40.9
    pytest.param("pt_small", M_POINTS[2][1], 40.9, id="40.9-pt_small-point2"),
])
def test_a_point_m_that_is_not_positive_and_finite_raises(tester, point, m):
    # "m": 0 used to run the trials at the formula's m while the CSV row reported 0,
    # and "m": true ran at m=1 while the row printed True
    bad = dict(point, m=m)
    with pytest.raises(ValueError, match="'m'"):
        estimate_acceptance(ExperimentSpec(tester, [bad], 3, 1))
    with pytest.raises(ValueError, match="'m'"):
        RUN_TRIAL[tester](bad, 1)


@pytest.mark.parametrize("tester,point,epsilon", [
    pytest.param(tester, point, epsilon, id=f"{epsilon}-{tester}-point{i}")
    for epsilon in [0, -0.3, math.nan, math.inf, 2.5, True]
    for i, (tester, point) in enumerate(M_POINTS)
])
def test_a_point_epsilon_outside_0_2_raises(tester, point, epsilon):
    # epsilon 0 used to divide by zero in the pt sample-size formulas, -0.3 to give
    # pt_large a complex m, and NaN to give pt_small a threshold nothing exceeds;
    # like "m", a bool is not a number here
    bad = dict(point, epsilon=epsilon)
    with pytest.raises(ValueError, match="epsilon"):
        estimate_acceptance(ExperimentSpec(tester, [bad], 3, 1))
    with pytest.raises(ValueError, match="epsilon"):
        RUN_TRIAL[tester](bad, 1)


def test_pt_large_point_memory_is_bounded_by_the_chunk(monkeypatch):
    rows = []

    def spy(counts):
        rows.append(counts.shape[0])
        return _necklace_moments(counts)

    monkeypatch.setattr(harness, "_necklace_moments", spy)
    # rows per chunk: _CHUNK_CELLS cells of 2n each, and at least one row
    per_chunk = _CHUNK_CELLS // 512
    estimate_acceptance(ExperimentSpec("pt_large", [{"n": 256, "epsilon": 0.3}],
                                       2 * per_chunk + 5, 3))
    assert per_chunk > 1 and rows == [per_chunk, per_chunk, 5]
    n = 65536
    point = {"n": n, "epsilon": 0.3, "m": 20 * n, "instance": "paired_far"}
    peaks = []
    for trials in (8, 64):
        rows.clear()
        tracemalloc.start()
        estimate_acceptance(ExperimentSpec("pt_large", [point], trials, 3))
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        assert rows == [max(1, _CHUNK_CELLS // (2 * n))] * trials
    assert peaks[1] <= peaks[0] * 1.05


@pytest.mark.parametrize("instance,bound", [("uniform", 1.0), ("interval_far", 1.5)])
def test_cc_point_memory_is_bounded_by_the_block(instance, bound):
    # the counts are drawn and reduced in blocks, with no (rows, n) label, count or
    # float array: at n=65536 a point peaked at 3.0 MiB (uniform) and 3.5 MiB
    # (interval_far) with them, and at 0.29 and 0.86 MiB without; interval_far
    # keeps its (rows, n) masses
    point = {"n": 65536, "epsilon": 0.3, "eta": 0.5, "instance": instance, "width": 8}
    if instance == "uniform":
        del point["width"]
    estimate_acceptance(ExperimentSpec("cc", [point], 2, 3))
    for trials in (2, 8):
        tracemalloc.start()
        try:
            estimate_acceptance(ExperimentSpec("cc", [point], trials, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * 2**20, trials


def test_half_of_one_over_n_is_one_half_over_n():
    # the uniform pt_large rate m * (0.5 / n) is the odd cells' m * (0.5 * (1.0 / n))
    n = np.arange(1, 2**20, dtype=np.float64)
    assert np.array_equal(0.5 / n, 0.5 * (1.0 / n))


@pytest.mark.parametrize("n", [2, 7, 64, 255, 4097])
def test_uniform_scalar_rate_draws_the_rate_array_counts(n):
    rows, epsilon = 5, 0.3
    cc_point = {"n": n, "epsilon": epsilon, "eta": 0.5}
    cfg, m = _setup("cc", cc_point)
    graph = BaseGraph("cycle", n)
    scalar = _cc_draw(cc_point, cfg, graph, m, rows, generator(n), None)
    array = _confused_draw(generator(n), graph, 1.0 - cfg.eta, m,
                           lambda rows: np.full((rows, n), 1.0 / n), rows)
    assert np.array_equal(scalar, array)  # (top, pairs) of every row
    pt_point = {"n": n, "epsilon": epsilon}
    _, m = _setup("pt_large", pt_point)
    rates = np.full((rows, 2 * n), 0.5 / n)
    rates[:, 0::2] = 0.5 * np.full((rows, n), 1.0 / n)
    assert np.array_equal(_pt_large_draw(pt_point, m, rows, generator(n), None),
                          generator(n).poisson(m * rates))


def test_a_pt_large_trial_with_no_empty_slot_skips_the_labels(monkeypatch):
    # at the shipped budget, m/2n = 21 at n=65536, every slot is sampled, and the
    # counts are reduced where they lie: the trial peaks at 1.0 MiB, and at 5.1 MB
    # through labels, cumsum and bincount
    point = {"n": 65536, "epsilon": 0.3}
    full = []

    def spy(counts):
        full.append(bool(counts.all()))
        return _necklace_moments(counts)

    monkeypatch.setattr(harness, "_necklace_moments", spy)
    spec = ExperimentSpec("pt_large", [point], 1, 19)
    estimate_acceptance(spec)
    tracemalloc.start()
    try:
        estimate_acceptance(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert full == [True, True]
    assert peak < 3 * 2**20


def test_a_pt_large_trial_peaks_where_its_point_does():
    # the trial used to copy its runs into int64 vectors and pad them back into a
    # float array, and peaked at 4.0 MB; as the one-row batch it peaked at 2.0 MiB
    # with a float64 copy of its 1 MiB of counts, and at 5.1 MiB when a slot is empty
    # (m = 2n) with labels and bincount.  It holds its counts, one bool per slot
    # and one block: 1.0 and 1.4 MiB
    for point in ({"n": 65536, "epsilon": 0.3}, {"n": 65536, "epsilon": 0.3, "m": 131072}):
        run_pt_large_trial(point, 19)
        tracemalloc.start()
        try:
            run_pt_large_trial(point, 19)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20, point

"""Deletion channel, poissonization, splitting, and the trace testers."""

import hashlib
import itertools
import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from paritylab import _kernels, deletion
from paritylab.core import parity_trace, parse_bits, sample_poissonized, split_sample_k
from paritylab.deletion import (
    TraceTestSpec,
    _fit_alternating,
    _zero_truncated_poisson,
    _zero_truncated_poisson_list,
    deletion_trace,
    learn_k_alternating,
    poissonize,
    split_traces,
    uniform_block_string,
)
from paritylab.deletion import test_n_block as nblock_verdict
from paritylab.deletion import test_uniform_n_block as ublock_verdict
from paritylab.deletion import test_uniform_n_block_multitrace as multi_verdict
from paritylab.deletion import trace_spec_distribution
from paritylab.editdist import DensitySequence, dist_to_nblock, psi, psi_inv, uniform_density
from paritylab.harness import domino_instance
from paritylab.parity import PTTesterConfig
from paritylab.parity import test_uniformity_pt as pt_verdict


def test_channel_validation():
    # True used to run as rho = 1, while TraceTestSpec(rho=True) raised
    for rho in (0.0, 1.5, True):
        with pytest.raises(ValueError, match="rho"):
            deletion_trace("1100101", rho, 0)


def test_deletion_trace_extremes():
    x = "1100101"
    assert deletion_trace(x, 1.0, 0) == x
    assert deletion_trace("", 0.5, 0) == ""
    short = deletion_trace(x, 1e-9, 0)
    assert short == ""


def test_deletion_trace_draws_one_uniform_per_character():
    # a passed-in generator advances by len(x) uniforms at every rate, rho = 1 included
    for rho in (1e-9, 0.5, 1.0):
        rng, ref = np.random.default_rng(57), np.random.default_rng(57)
        deletion_trace("110010" * 7, rho, rng)
        ref.random(42)
        assert rng.random() == ref.random()


def test_deletion_trace_length_binomial():
    x = "10" * 200
    rho = 0.3
    lens = np.array([len(deletion_trace(x, rho, t)) for t in range(4000)])
    mean = rho * len(x)
    sigma = math.sqrt(len(x) * rho * (1 - rho))
    assert abs(lens.mean() - mean) <= 3 * sigma / math.sqrt(len(lens))


@pytest.mark.parametrize("channel,x", [(deletion_trace, "abc2"), (poissonize, "ab2"),
                                       (deletion_trace, "0/1"), (poissonize, "1 0"),
                                       # strings of 4096 bytes and more take the numpy check
                                       (deletion_trace, "01" * 2048 + "/"),
                                       (poissonize, "2" + "10" * 4096)])
def test_channel_rejects_non_binary_strings(channel, x):
    # both used to pass any ASCII through: deletion_trace("abc2", 0.9, 1) gave "abc2"
    rng, ref = np.random.default_rng(58), np.random.default_rng(58)
    with pytest.raises(ValueError, match="only the characters 0 and 1"):
        channel(x, 0.5, rng)
    assert rng.random() == ref.random()  # it raises before drawing


@pytest.mark.parametrize("length", [6, 100, 5000])
@pytest.mark.parametrize("bad", ["012", "0 1", "/", "\x00", "é"])
def test_one_bit_check_in_the_parser_and_the_channel(bad, length):
    # parse_bits, deletion_trace and poissonize share one check, with a translate
    # below 4096 bytes and a numpy reduction at or above
    x = ("01" * length)[: length - len(bad)] + bad
    for fn in (parse_bits, lambda s: deletion_trace(s, 0.5, 1), lambda s: poissonize(s, 0.5, 1)):
        with pytest.raises(ValueError):
            fn(x)


def test_poissonize_empty_and_rho_validation():
    assert poissonize("", 0.5, 0) == ""
    with pytest.raises(ValueError):
        poissonize("101", 1.0, 0)


def test_poissonize_expected_length():
    # per surviving symbol the output count averages lambda/rho
    x = "110010" * 40
    rho = 0.5
    lam = math.log(1 / (1 - rho))
    total = sum(
        len(poissonize(deletion_trace(x, rho, (1, t)), rho, (2, t)))
        for t in range(3000)
    )
    expect = 3000 * len(x) * lam
    sd = math.sqrt(3000 * len(x) * (lam + lam**2))
    assert abs(total - expect) <= 4 * sd


def _zero_truncated_poisson_loop(lam, size, rng):
    """The inverse transform as first written: every step rescans all draws."""
    u = rng.random(size) * -np.expm1(-lam)
    out = np.ones(size, dtype=np.int64)
    k = 1
    term = lam * math.exp(-lam)
    cum = term
    remaining = u > cum
    while np.any(remaining) and k < max(200, 20 * lam):
        k += 1
        term *= lam / k
        cum += term
        out[remaining] = k
        remaining = u > cum
    return out


@pytest.mark.parametrize("lam", [0.046, math.log(2), 3.0, 25.0, -math.log(0.001)])
@pytest.mark.parametrize("size", [0, 1, 8, 48, 100, 32768])
def test_zero_truncated_poisson_matches_loop(lam, size):
    # the numpy search and the short path's list search alike
    for seed in range(3):
        want_rng, got_rng, list_rng = (np.random.default_rng([56, seed]) for _ in range(3))
        want = _zero_truncated_poisson_loop(lam, size, want_rng)
        got = _zero_truncated_poisson(lam, size, got_rng)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert _zero_truncated_poisson_list(lam, size, list_rng) == want.tolist()
        # the same draws were taken
        assert got_rng.random() == want_rng.random() == list_rng.random()


class _FixedUniforms:
    """A stand-in generator whose `random(size)` returns given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, size):
        return self.u[:size].copy()


# at lam=1.018056018672891, top * P[X > 0] lies above the last float sum P[X in 1..k]
@pytest.mark.parametrize("lam", [0.0, 1e-9, math.log(2), 1.018056018672891, 13.8, 36.7])
def test_both_searches_match_the_loop_at_the_extreme_uniforms(lam):
    # the largest uniform below 1 can exceed every threshold by round-off: it gets the cap
    u = [0.0, 0.25, 0.5, 0.75, np.nextafter(1.0, 0.0)]
    want = _zero_truncated_poisson_loop(lam, len(u), _FixedUniforms(u)).tolist()
    assert _zero_truncated_poisson(lam, len(u), _FixedUniforms(u)).tolist() == want
    assert _zero_truncated_poisson_list(lam, len(u), _FixedUniforms(u)) == want


SEED_KINDS = {
    "int": lambda i: 1700 + i,
    "tuple": lambda i: (17, i),
    "philox": lambda i: np.random.Generator(np.random.Philox(i)),
    "pcg64": lambda i: np.random.default_rng(i),
}


def _on_both_paths(monkeypatch, call):
    """call() with every length on the numpy path, then on the Python path."""
    results = []
    for constant in (0, 10**9):
        monkeypatch.setattr(deletion, "_SHORT_TRACE", constant)
        results.append(call())
    return results


@pytest.mark.parametrize("seed_kind", list(SEED_KINDS))
@pytest.mark.parametrize("rho", [1e-9, 0.1, 0.5, 0.9, 0.999999])
def test_short_and_numpy_paths_agree(monkeypatch, seed_kind, rho):
    # same strings, and a passed-in generator left at the same next draw
    make = SEED_KINDS[seed_kind]
    inputs = np.random.default_rng(1701)
    for n in range(2 * deletion._SHORT_TRACE + 1):
        x = "".join(inputs.choice(["0", "1"], size=n).tolist())

        def call():
            s1, s2 = make(2 * n), make(2 * n + 1)
            out = deletion_trace(x, rho, s1), poissonize(x, rho, s2)
            if isinstance(s1, np.random.Generator):
                out += (s1.random(), s2.random())
            return out

        numpy_side, python_side = _on_both_paths(monkeypatch, call)
        assert numpy_side == python_side, (seed_kind, rho, n)


@pytest.mark.parametrize("channel", [deletion_trace, poissonize])
@pytest.mark.parametrize("x", ["012", "0\u00e9", "1 0"])
def test_short_and_numpy_paths_raise_alike(monkeypatch, channel, x):
    def call():
        with pytest.raises(ValueError) as info:
            channel(x, 0.5, 0)
        return type(info.value), str(info.value)

    numpy_side, python_side = _on_both_paths(monkeypatch, call)
    assert numpy_side == python_side


def _traces_around_the_run_totals_rule():
    """Block, random and alternating traces on both sides of the length floor
    and of the run-count rule."""
    floor, per_run = deletion._RUN_TOTALS_MIN_CHARS, deletion._RUN_TOTALS_CHARS_PER_RUN
    rng = np.random.default_rng(1702)
    traces = {}
    for length in (floor - 1, floor, 2 * floor):
        for runs in (4, length // per_run, length // per_run + 1):
            traces[f"blocks {length}/{runs}"] = _block_string(length, runs, rng)
        traces[f"random {length}"] = "".join(rng.choice(["0", "1"], size=length).tolist())
        traces[f"alternating {length}"] = ("10" * length)[:length]
    traces["blocks 1000/16"] = _block_string(1000, 16, rng)
    return traces


@pytest.mark.parametrize("rho", [0.1, 0.5, 0.9, 0.999])
def test_run_totals_match_the_per_character_repeat(monkeypatch, rho):
    # one np.repeat over runs by their summed counts gives the per-character string,
    # from the same draws; a passed-in generator is left at the same next draw
    lam = math.log(1 / (1 - rho))
    for label, trace in _traces_around_the_run_totals_rule().items():
        want_rng = np.random.default_rng([1703, len(trace)])
        reps = _zero_truncated_poisson(lam, len(trace), want_rng)
        want = np.repeat(np.frombuffer(trace.encode(), np.uint8), reps).tobytes().decode()
        want_next = want_rng.random()
        # the shipped rule, then run totals never, then always
        for floor, per_run in ((deletion._RUN_TOTALS_MIN_CHARS,
                                deletion._RUN_TOTALS_CHARS_PER_RUN), (10**9, 1), (0, 0)):
            monkeypatch.setattr(deletion, "_RUN_TOTALS_MIN_CHARS", floor)
            monkeypatch.setattr(deletion, "_RUN_TOTALS_CHARS_PER_RUN", per_run)
            got_rng = np.random.default_rng([1703, len(trace)])
            assert poissonize(trace, rho, got_rng) == want, (label, floor)
            assert got_rng.random() == want_next, (label, floor)


def run_histogram(traces):
    hist = Counter()
    for t in traces:
        if not t:
            hist[("empty", 0)] += 1
            continue
        for sym, grp in itertools.groupby(t):
            hist[(sym, len(list(grp)))] += 1
    return hist


def hist_tv(h1, h2):
    keys = set(h1) | set(h2)
    t1 = sum(h1.values())
    t2 = sum(h2.values())
    return sum(abs(h1[k] / t1 - h2[k] / t2) for k in keys) / 2


def test_poissonize_distribution_matches_direct_sampling():
    # pipeline trace -> poissonize equals a Poissonized parity-trace draw
    x = "110010"
    rho = 0.5
    lam = math.log(1 / (1 - rho))
    trials = 30000
    pipeline = [
        poissonize(deletion_trace(x, rho, (3, t)), rho, (4, t)) for t in range(trials)
    ]
    pair = trace_spec_distribution(x)
    direct = [
        parity_trace(sample_poissonized(pair, len(x) * lam, (5, t)))
        for t in range(trials)
    ]
    assert hist_tv(run_histogram(pipeline), run_histogram(direct)) <= 0.02


def test_split_per_symbol_tv_bound():
    # exact closed form: TV(Poisson(lam), Bernoulli(rho)) = 1-e^-lam(1+lam) <= lam^2
    for lam in (0.001, 0.01, 0.05, 0.1):
        tv = 1 - math.exp(-lam) * (1 + lam)
        assert tv <= lam**2


def test_split_traces_shapes_and_precondition():
    pi = uniform_density(4)
    with pytest.raises(ValueError):
        split_traces(pi, 16, 2, rho=0.5, seed=0)
    rho = 1.0 / (20 * math.sqrt(2 * 16)) * 0.9
    traces = split_traces(pi, 16, 2, rho=rho, seed=0)
    assert len(traces) == 2


def test_split_traces_against_independent_traces():
    # two-sample run histogram comparison at a tiny instance
    n_chars, k = 16, 2
    rho = 1.0 / (40 * math.sqrt(k * n_chars))
    pi = psi_inv(uniform_block_string(n_chars, 4))
    x = uniform_block_string(n_chars, 4)
    trials = 20000
    split_out = []
    for t in range(trials):
        split_out.extend(split_traces(pi, n_chars, k, rho, (6, t)))
    direct = [deletion_trace(x, rho, (7, t)) for t in range(trials * k)]
    assert hist_tv(run_histogram(split_out), run_histogram(direct)) <= 0.02


def test_split_traces_is_split_sample_k_of_the_string_distribution():
    # both splitters are one Poisson draw routed by one multinomial call:
    # traces of x split from psi_inv(x) equal a split of x's odd/even pair
    rng = np.random.default_rng(24)
    for t in range(60):
        n_chars = int(rng.integers(1, 200))
        x = "".join(rng.choice(["0", "1"], size=n_chars))
        k = int(rng.integers(1, 6))
        rho = 0.99 / (20 * math.sqrt(k * n_chars)) * float(rng.random())
        lam = rho / (1 - rho)
        got = split_traces(psi_inv(x), n_chars, k, rho, (25, t))
        want = split_sample_k(trace_spec_distribution(x), lam * n_chars, k, (25, t))
        assert got == want


def brute_best_error(bits, k):
    m = len(bits)
    best = m + 1
    for first in (0, 1):
        for ncuts in range(k + 1):
            for cuts in itertools.combinations(range(1, m), ncuts):
                err = 0
                v = first
                prev = 0
                for c in list(cuts) + [m]:
                    err += sum(1 for b in bits[prev:c] if b != v)
                    v = 1 - v
                    prev = c
                best = min(best, err)
    return best


def test_learner_exhaustive_small():
    rng = np.random.default_rng(8)
    for _ in range(150):
        m = int(rng.integers(1, 13))
        k = int(rng.integers(0, 4))
        bits = rng.integers(0, 2, size=m).tolist()
        model = learn_k_alternating(list(enumerate(bits)), k)
        assert model.error == brute_best_error(bits, k)
        assert model.n_alternations <= k
        preds = model.predict(np.arange(m))
        assert int(np.sum(preds != np.asarray(bits))) == model.error


def test_learner_consistent_sample_and_majority():
    model = learn_k_alternating([(0, 1), (3, 1), (7, 0), (9, 0)], 1)
    assert model.error == 0
    maj = learn_k_alternating([(0, 1), (1, 0), (2, 1), (3, 1)], 0)
    assert maj.error == 1  # best constant function
    assert maj.n_alternations == 0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_learner_rejects_non_finite_positions(bad):
    # a NaN position used to give cut_after=[nan]
    with pytest.raises(ValueError, match="positions"):
        learn_k_alternating([(0, 1), (bad, 0)], 1)


def test_learner_requires_sorted_positions():
    with pytest.raises(ValueError):
        learn_k_alternating([(3, 1), (0, 0)], 1)


@pytest.mark.parametrize("bad", [2, -1, 0.5])
def test_learner_rejects_non_binary_bits(bad):
    with pytest.raises(ValueError):
        learn_k_alternating([(0, 0), (1, 1), (2, bad)], 0)


def loop_fit_tables(bits, k):
    """Reference for `alternating_fit_tables`: the DP one point at a time.
    Its choice tensor is indexed (point, flips, label)."""
    bits = np.asarray(bits, dtype=np.int64)
    inf = _kernels._INF
    dp = np.full((k + 1, 2), inf, dtype=np.int64)
    dp[0, :] = 0
    choice = np.zeros((bits.size, k + 1, 2), dtype=np.bool_)
    flip = np.full((k + 1, 2), inf, dtype=np.int64)
    for i, b in enumerate(bits):
        flip[1:, 0] = dp[:-1, 1]
        flip[1:, 1] = dp[:-1, 0]
        choice[i] = flip < dp
        dp = np.where(choice[i], flip, dp)
        dp[:, 0] += b != 0
        dp[:, 1] += b != 1
    return dp, choice


def loop_fit(bits, k, tables=None):
    """Reference for `_fit_alternating`: the loop's best final state, then a
    backtrack over its choice tensor.  `tables` may hold the loop's tables
    for more flips than k: a layer of exactly j flips does not depend on k."""
    dp, choice = loop_fit_tables(bits, k) if tables is None else tables
    dp, choice = dp[:k + 1], choice[:, :k + 1]
    j, v = np.unravel_index(int(np.argmin(dp)), dp.shape)
    cuts, end = [], len(bits)
    while j > 0:
        end = int(np.flatnonzero(choice[:end, j, v])[-1])
        cuts.append(end)
        j, v = j - 1, 1 - v
    return int(v), cuts[::-1], int(dp.min())


def assert_fit_tables_match_loop(bits, k):
    dp, choice = _kernels.alternating_fit_tables(bits, k)
    ref_dp, ref_choice = loop_fit_tables(bits, k)
    # without a backtrack the choice tensor is not filled, and dp is the same
    lone_dp, none = _kernels.alternating_fit_tables(bits, k, backtrack=False)
    assert none is None
    np.testing.assert_array_equal(lone_dp, dp)
    assert dp.shape == (k + 1, 2) and choice.shape == (k + 1, 2, len(bits))
    rows = min(k, len(bits)) + 1
    np.testing.assert_array_equal(dp[:rows], ref_dp[:rows])
    np.testing.assert_array_equal(choice[:rows], ref_choice.transpose(1, 2, 0)[:rows])
    # a layer past m needs more flips than there are points
    assert (dp[rows:] >= _kernels._INF).all() and not choice[rows:].any()


def test_alternating_fit_matches_loop_on_random_inputs():
    rng = np.random.default_rng(40)
    for m in (0, 1):
        for k in (0, 1, 5):
            for b in (0, 1):
                assert_fit_tables_match_loop(np.full(m, b, dtype=np.int64), k)
    for t in range(3000):
        m = int(rng.integers(0, 61))
        k = int(rng.integers(0, 8))
        density = (0.05, 0.5, 0.95)[t % 3]
        assert_fit_tables_match_loop((rng.random(m) < density).astype(np.int64), k)


@pytest.mark.parametrize("N,k", [(4096, 15), (16384, 63)])
def test_alternating_fit_matches_loop_on_long_inputs(N, k):
    rng = np.random.default_rng([42, N])
    # blocks with 10% noise, so the deep layers hold real cuts
    bits = (np.arange(N) * (k + 1) // N) % 2 ^ (rng.random(N) < 0.1)
    assert_fit_tables_match_loop(bits.astype(np.int64), k)


@pytest.mark.parametrize("m,k", [(1, 4), (3, 40), (8, 255), (20, 63)])
def test_alternating_fit_more_flips_than_points(m, k):
    rng = np.random.default_rng([43, m, k])
    for t in range(30):
        bits = (rng.random(m) < (0.05, 0.5, 0.95)[t % 3]).astype(np.int64)
        assert_fit_tables_match_loop(bits, k)
        first, cuts, error = _fit_alternating(bits, k)
        assert (first, cuts.tolist(), error) == loop_fit(bits, k)
        x = "".join(map(str, bits))
        assert dist_to_nblock(x, k + 1) == loop_fit_tables(bits, k)[0].min() / m


def test_run_fit_equals_point_fit_on_every_short_string():
    # the fit runs over maximal runs; the per-point loop may cut anywhere.
    # Negating every bit swaps the labels and keeps the cuts, so strings start with 0.
    # k = runs - 1 is the smallest budget that skips the DP, k = runs the next one
    for m in range(1, 13):
        for v in range(1 << (m - 1)):
            bits = (v >> np.arange(m)[::-1]) & 1
            runs = 1 + int(np.count_nonzero(bits[1:] != bits[:-1]))
            tables = loop_fit_tables(bits, 20)
            for k in {0, 1, 2, 3, 5, 20, runs - 1, runs}:
                first, cuts, error = _fit_alternating(bits, k)
                assert (first, cuts.tolist(), error) == loop_fit(bits, k, tables), (bits, k)
                x = "".join(map(str, bits))
                assert dist_to_nblock(x, k + 1) == tables[0][:k + 1].min() / m, (bits, k)


def test_run_fit_equals_point_fit_on_noisy_block_strings():
    rng = np.random.default_rng(44)
    for _ in range(500):
        m = int(rng.integers(1, 300))
        blocks = int(rng.integers(1, 12))
        k = int(rng.integers(0, 2 * blocks))
        bits = (np.arange(m) * blocks // m) % 2 ^ (rng.random(m) < rng.choice([0.02, 0.1, 0.3]))
        bits = bits.astype(np.int64)
        first, cuts, error = _fit_alternating(bits, k)
        assert (first, cuts.tolist(), error) == loop_fit(bits, k), (bits.tolist(), k)


def test_flip_tables_are_sized_by_the_runs_not_the_block_count():
    # the DP tables used to hold n_blocks layers: 24 MB for "0101" at 10**6 blocks
    spec = TraceTestSpec(n_chars=4, n_blocks=10**6, epsilon=0.4, rho=0.9, property_name="n_block")
    for call in (lambda: dist_to_nblock("0101", 10**6),
                 lambda: _fit_alternating(np.array([0, 1, 0, 1]), 10**6),
                 lambda: learn_k_alternating(list(enumerate([0, 1, 0, 1])), 10**6),
                 lambda: nblock_verdict("0101", spec, seed=3)):
        tracemalloc.start()
        call()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 100_000
    assert dist_to_nblock("0101", 10**6) == 0.0
    assert _fit_alternating(np.array([0, 1, 0, 1]), 10**6)[1].tolist() == [1, 2, 3]


def test_fits_within_the_run_count_skip_the_dp(monkeypatch):
    # a trace of an n-block string has at most n runs, so no fit of it runs the DP
    def no_dp(*args, **kwargs):
        raise AssertionError("the DP ran")

    monkeypatch.setattr(_kernels, "alternating_fit_tables", no_dp)
    for blocks, rho in ((4, 0.5), (16, 0.03), (64, 0.3)):
        x = uniform_block_string(4096, blocks, first=blocks // 4 % 2)
        poi = poissonize(deletion_trace(x, rho, (59, blocks)), rho, (60, blocks))
        bits = np.frombuffer(poi.encode(), dtype=np.uint8) - ord("0")
        starts = 1 + np.flatnonzero(bits[1:] != bits[:-1])  # of every run after the first
        assert dist_to_nblock(poi, blocks) == 0.0
        first, cuts, error = _fit_alternating(bits, blocks - 1)
        assert (first, cuts.tolist(), error) == (bits[0], starts.tolist(), 0)
        model = learn_k_alternating(list(enumerate(bits.tolist())), blocks - 1)
        assert model.error == 0 and model.cut_after.tolist() == (starts - 0.5).tolist()
        for prop in ("n_block", "uniform_n_block"):
            spec = TraceTestSpec(n_chars=4096, n_blocks=blocks, epsilon=0.4, rho=rho,
                                 property_name=prop)
            v = ublock_verdict(deletion_trace(x, rho, (61, blocks)), spec, seed=(62, blocks))
            assert v.statistics["disagreement"] == 0.0


DESK = dict(n_chars=4096, n_blocks=16, epsilon=0.4)


def test_nblock_tester_accepts_empty_trace():
    spec = TraceTestSpec(rho=0.03, property_name="n_block", **DESK)
    v = nblock_verdict("", spec, seed=0)
    assert v.accept and v.statistics["warning"] == "empty sample"


def test_nblock_tester_separates():
    spec = TraceTestSpec(rho=0.03, property_name="n_block", **DESK)
    x = uniform_block_string(4096, 16)
    far = "10" * 2048
    acc = sum(
        nblock_verdict(deletion_trace(x, spec.rho, (9, t)), spec, seed=(10, t)).accept
        for t in range(40)
    )
    rej = sum(
        not nblock_verdict(deletion_trace(far, spec.rho, (11, t)), spec, seed=(12, t)).accept
        for t in range(40)
    )
    assert acc >= 2 * 40 // 3
    assert rej >= 2 * 40 // 3


def test_uniform_tester_negation_symmetry():
    spec = TraceTestSpec(rho=0.05, **DESK)
    x = uniform_block_string(4096, 16, first=1)
    xbar = uniform_block_string(4096, 16, first=0)
    for t in range(10):
        tr = deletion_trace(x, spec.rho, (13, t))
        tr_neg = "".join("1" if c == "0" else "0" for c in tr)
        v1 = ublock_verdict(tr, spec, seed=(14, t))
        v2 = ublock_verdict(tr_neg, spec, seed=(14, t))
        assert v1.accept == v2.accept
        # the same channel seed on the complement string yields the
        # complement trace, so verdict distributions coincide
        assert deletion_trace(xbar, spec.rho, (13, t)) == tr_neg


def test_uniform_tester_no_promise_mode():
    # the tolerant bucket check needs the sample to pin the per-piece
    # histogram to TV error eps/8, hence the high retention rate here
    spec = TraceTestSpec(rho=0.75, property_name="uniform_n_block", **DESK)
    x = uniform_block_string(4096, 16)
    acc = sum(
        ublock_verdict(deletion_trace(x, spec.rho, (15, t)), spec, seed=(16, t)).accept
        for t in range(30)
    )
    assert acc >= 20
    skew = ("1" * 480 + "0" * 32) * 8
    rej = sum(
        not ublock_verdict(deletion_trace(skew, spec.rho, (17, t)), spec, seed=(18, t)).accept
        for t in range(30)
    )
    assert rej >= 20


@pytest.mark.parametrize("prop", ["uniform_n_block_promised", "uniform_n_block", "n_block"])
def test_trace_testers_reject_non_binary_traces(prop):
    spec = TraceTestSpec(n_chars=256, n_blocks=8, epsilon=0.3, rho=0.5, property_name=prop)
    trace = uniform_block_string(256, 8, 1).replace("0", "2")
    tester = nblock_verdict if prop == "n_block" else ublock_verdict
    with pytest.raises(ValueError):
        tester(trace, spec)


def test_the_spec_property_picks_the_single_trace_test():
    spec = TraceTestSpec(rho=0.03, property_name="n_block", **DESK)
    for t, x in enumerate((uniform_block_string(4096, 16), "10" * 2048)):
        trace = deletion_trace(x, spec.rho, (24, t))
        v = ublock_verdict(trace, spec, seed=(25, t))
        assert v.to_json() == nblock_verdict(trace, spec, seed=(25, t)).to_json()
        assert v.statistics["threshold"] == 0.375 * spec.epsilon


@pytest.mark.parametrize("prop", ["uniform_n_block_promised", "uniform_n_block"])
def test_nblock_tester_rejects_a_uniform_spec(prop):
    spec = TraceTestSpec(rho=0.03, property_name=prop, **DESK)
    with pytest.raises(ValueError, match="n_block"):
        nblock_verdict("0110", spec)


def test_multitrace_rejects_an_nblock_spec():
    # k copies of an n-block string have at most k*n blocks, but a string far from
    # n blocks need not be far from k*n blocks
    spec = TraceTestSpec(rho=0.03, property_name="n_block", **DESK)
    for traces in (["0110"], ["0110", "1100", "1001"]):
        with pytest.raises(ValueError, match="uniform"):
            multi_verdict(traces, spec)


def test_run_length_branch_accepts_a_trace_iff_its_negation():
    # the promised tester runs the six run-length checks once: negation swaps the runs
    # of the two symbol classes, and the checks treat both classes alike
    N, n, eps = 4096, 16, 0.4
    config = PTTesterConfig(beta=0.12, mode="large_eps")
    rng = np.random.default_rng(60)
    accepted = 0
    for t in range(300):
        rho = rng.uniform(0.02, 0.3)
        sizes = 1 + rng.multinomial(N - n, rng.dirichlet(np.full(n, rng.uniform(0.5, 50))))
        x = "".join(str((1 + i) % 2) * int(size) for i, size in enumerate(sizes))
        poi = poissonize(deletion_trace(x, rho, (60, t)), rho, (61, t))
        m = N * math.log(1 / (1 - rho))
        direct = pt_verdict(poi, n // 2, eps / 2, config, m=m)
        negated = pt_verdict(poi.translate(str.maketrans("01", "10")), n // 2, eps / 2,
                             config, m=m)
        assert direct.accept == negated.accept
        accepted += direct.accept
    assert 30 <= accepted <= 270  # both outcomes occur


def test_multitrace_single_equals_direct():
    spec = TraceTestSpec(rho=0.05, **DESK)
    x = uniform_block_string(4096, 16)
    tr = deletion_trace(x, spec.rho, 19)
    v1 = multi_verdict([tr], spec, seed=20)
    v2 = ublock_verdict(tr, spec, seed=20)
    assert v1.accept == v2.accept


def test_multitrace_concat_length():
    spec = TraceTestSpec(rho=0.04, **DESK)
    x = uniform_block_string(4096, 16)
    traces = [deletion_trace(x, spec.rho, (21, j)) for j in range(4)]
    v = multi_verdict(traces, spec, seed=22)
    assert v.statistics["total_chars"] == sum(len(t) for t in traces)


def test_spec_validation():
    with pytest.raises(ValueError):
        TraceTestSpec(n_chars=100, n_blocks=16, epsilon=0.4, rho=0.1)
    with pytest.raises(ValueError):
        TraceTestSpec(n_chars=4096, n_blocks=15, epsilon=0.4, rho=0.1)
    TraceTestSpec(n_chars=4096, n_blocks=15, epsilon=0.4, rho=0.1,
                  property_name="n_block")  # odd block count fine here
    with pytest.raises(ValueError, match="n_blocks"):
        TraceTestSpec(n_chars=4096, n_blocks=0, epsilon=0.4, rho=0.1, property_name="n_block")
    with pytest.raises(ValueError, match="n_chars"):
        TraceTestSpec(n_chars=0, n_blocks=16, epsilon=0.4, rho=0.1)
    with pytest.raises(ValueError, match="n_chars"):
        # the block-count tester never reads n_chars, but a spec's sizes are checked alike
        TraceTestSpec(n_chars=0, n_blocks=16, epsilon=0.4, rho=0.1, property_name="n_block")
    # each rho used to construct a spec: test_uniform_n_block("", spec) then accepted an
    # "empty sample", and a non-empty trace failed only inside poissonize
    for rho in (1.5, 1.0, 0.0, -0.2, math.nan):
        for prop in ("n_block", "uniform_n_block", "uniform_n_block_promised"):
            with pytest.raises(ValueError, match="rho must lie in"):
                TraceTestSpec(n_chars=4096, n_blocks=16, epsilon=0.4, rho=rho,
                              property_name=prop)


@pytest.mark.parametrize("field,value", [("n_chars", 64.0), ("n_chars", True), ("n_chars", -5),
                                         ("k_traces", -3), ("k_traces", 2.5), ("k_traces", 0),
                                         ("k_traces", True), ("concat_eps_scale", math.nan),
                                         ("concat_eps_scale", 0.0), ("concat_eps_scale", math.inf)])
def test_spec_rejects_a_size_or_scale_out_of_range(field, value):
    # each used to construct, for n_block at least: only the uniform properties read n_chars
    for prop in ("n_block", "uniform_n_block", "uniform_n_block_promised"):
        kwargs = {"n_chars": 4096, "n_blocks": 16, "epsilon": 0.4, "rho": 0.5,
                  "property_name": prop, field: value}
        with pytest.raises(ValueError, match=field):
            TraceTestSpec(**kwargs)


@pytest.mark.parametrize("epsilon", [0.0, -0.3, math.nan, math.inf, 2.5])
def test_spec_rejects_an_epsilon_outside_0_2(epsilon):
    for prop in ("n_block", "uniform_n_block", "uniform_n_block_promised"):
        with pytest.raises(ValueError, match="epsilon"):
            TraceTestSpec(n_chars=4096, n_blocks=16, epsilon=epsilon, rho=0.5,
                          property_name=prop)


def test_uniform_block_inverse_distributions():
    # psi_inv of the two uniform block strings: uniform on {1..n} and on
    # {2..n+1} respectively
    n_chars, n = 64, 8
    u1 = psi_inv(uniform_block_string(n_chars, n, 1))
    assert u1.pi.tolist() == [1 / n] * n
    u0 = psi_inv(uniform_block_string(n_chars, n, 0))
    assert u0.pi.tolist() == [0.0] + [1 / n] * n


def test_multitrace_total_characters_concentrate():
    # total characters over k traces average k * rho * N within 5%
    N, k, rho = 4096, 4, 0.02
    x = uniform_block_string(N, 16)
    totals = [
        sum(len(deletion_trace(x, rho, (23, t, j))) for j in range(k))
        for t in range(1000)
    ]
    assert abs(np.mean(totals) - k * rho * N) <= 0.05 * k * rho * N


def _digest(record) -> str:
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()[:16]


def trace_tester_digests() -> dict:
    """Digests of the verdict JSON of `test_n_block` and of the no-promise
    `test_uniform_n_block`, and of `learn_k_alternating`'s model, at two
    benchmark shapes and three seeds."""
    out = {}
    for N, n, rho_free in ((4096, 16, 0.75), (65536, 64, 0.25)):
        eps = 0.4
        piece = N // n
        skew = np.tile(np.repeat([1, 0], [2 * piece - piece // 8, piece // 8]), n // 2)
        skew ^= np.random.default_rng([44, N]).random(N) < 0.03  # so the fits disagree
        strings = {"u1": uniform_block_string(N, n, 1), "alternating": "10" * (N // 2),
                   "noisy_skew": "".join(map(str, skew))}
        specs = {"nblock": TraceTestSpec(N, n, eps, rho=3.5 * n / eps / N, property_name="n_block"),
                 "nopromise": TraceTestSpec(N, n, eps, rho=rho_free,
                                            property_name="uniform_n_block")}
        for seed in range(3):
            for label, x in strings.items():
                for kind, spec in specs.items():
                    trace = deletion_trace(x, spec.rho, (44, seed))
                    tester = nblock_verdict if kind == "nblock" else ublock_verdict
                    verdict = tester(trace, spec, seed=(45, seed))
                    out[f"{kind} N={N} {label} seed={seed}"] = _digest(verdict.to_json())
            rng = np.random.default_rng([46, N, seed])
            positions = np.sort(rng.random(N // 4)) * N
            bits = (np.frombuffer(strings["u1"].encode(), np.uint8)[positions.astype(np.int64)]
                    - ord("0")) ^ (rng.random(positions.size) < 0.05)
            model = learn_k_alternating(list(zip(positions.tolist(), bits.tolist())), n - 1)
            out[f"learn N={N} seed={seed}"] = _digest(
                [model.first_value, model.cut_after.tolist(), model.error])
    return out


# recorded from the per-point DP, before the prefix-minimum kernel replaced it
PINNED_TRACE_TESTER_DIGESTS = {
    "nblock N=4096 u1 seed=0": "68cf3b596f344a2d",
    "nopromise N=4096 u1 seed=0": "f604cb4771931e04",
    "nblock N=4096 alternating seed=0": "e67ace42878cdee5",
    "nopromise N=4096 alternating seed=0": "10f90b7e1e39517e",
    "nblock N=4096 noisy_skew seed=0": "a5e6a96fd06a4acc",
    "nopromise N=4096 noisy_skew seed=0": "93b55195799661dc",
    "learn N=4096 seed=0": "018fb2dc4c3ea9a5",
    "nblock N=4096 u1 seed=1": "d5777d501f4bca17",
    "nopromise N=4096 u1 seed=1": "ee11a99edf691761",
    "nblock N=4096 alternating seed=1": "cd0b536e7374e535",
    "nopromise N=4096 alternating seed=1": "c8cc25aef41eeab8",
    "nblock N=4096 noisy_skew seed=1": "d5777d501f4bca17",
    "nopromise N=4096 noisy_skew seed=1": "150b43935fbda0e0",
    "learn N=4096 seed=1": "2145a605d34b6356",
    "nblock N=4096 u1 seed=2": "462b73124f74e15d",
    "nopromise N=4096 u1 seed=2": "34c352f71b4b1bda",
    "nblock N=4096 alternating seed=2": "2ec28a00114a61bf",
    "nopromise N=4096 alternating seed=2": "6453c2c9f7b51481",
    "nblock N=4096 noisy_skew seed=2": "bc7ac72ea8d6d55c",
    "nopromise N=4096 noisy_skew seed=2": "16b45dfb8a10c31c",
    "learn N=4096 seed=2": "916620a2feb39440",
    "nblock N=65536 u1 seed=0": "091b33f64648ec43",
    "nopromise N=65536 u1 seed=0": "4935d8662afd812a",
    "nblock N=65536 alternating seed=0": "5f81e2310063f7c2",
    "nopromise N=65536 alternating seed=0": "648d179748189114",
    "nblock N=65536 noisy_skew seed=0": "0995343189684bbe",
    "nopromise N=65536 noisy_skew seed=0": "35f505287ad8005d",
    "learn N=65536 seed=0": "fe122ee0f9107ec2",
    "nblock N=65536 u1 seed=1": "5035735bbcb505fe",
    "nopromise N=65536 u1 seed=1": "71336bfafd20e81a",
    "nblock N=65536 alternating seed=1": "ebcf20bd42defee4",
    "nopromise N=65536 alternating seed=1": "d98d1917ba5dde8c",
    "nblock N=65536 noisy_skew seed=1": "340460210e5f2bf6",
    "nopromise N=65536 noisy_skew seed=1": "9ab1de923107e5d8",
    "learn N=65536 seed=1": "957a059932282440",
    "nblock N=65536 u1 seed=2": "e808c385947dccfe",
    "nopromise N=65536 u1 seed=2": "72f37c79a6c1bb77",
    "nblock N=65536 alternating seed=2": "6f911b57a77e053e",
    "nopromise N=65536 alternating seed=2": "e31673fbda652764",
    "nblock N=65536 noisy_skew seed=2": "153fce2b0506c827",
    "nopromise N=65536 noisy_skew seed=2": "3475801f00effd30",
    "learn N=65536 seed=2": "ff987bb4e7b8a78e",
}


def test_trace_tester_outputs_are_pinned():
    assert trace_tester_digests() == PINNED_TRACE_TESTER_DIGESTS


def _block_string(N: int, blocks: int, rng) -> str:
    """A random string of length N with exactly `blocks` runs."""
    sizes = 1 + rng.multinomial(N - blocks, np.full(blocks, 1.0 / blocks))
    return "".join(str(i % 2) * int(s) for i, s in enumerate(sizes, start=1))


def pipeline_digests() -> dict:
    """Digests of `deletion_trace` -> `poissonize` on the benchmark's string
    shapes at three retention rates.  Odd seeds feed both stages from one
    passed-in generator and hash its next draw as well, so a stage that
    takes more or fewer draws moves the digest."""
    strings = {x: x for x in ("110010", "1", "000111", "1010101010101010", "0110")}
    for N, blocks in ((16, 4), (1024, 16), (16384, 64), (65536, 64)):
        strings[f"blocks N={N}"] = _block_string(N, blocks, np.random.default_rng([47, N]))
    strings["alternating N=8192"] = "10" * 4096
    out = {}
    for rho in (0.1, 0.5, 0.9):
        for label, x in strings.items():
            h = hashlib.sha256()
            for seed in range(40 if len(x) <= 1024 else 6):
                if seed % 2:
                    rng = np.random.default_rng([48, seed])
                    trace = deletion_trace(x, rho, rng)
                    poi = poissonize(trace, rho, rng)
                    h.update(repr(rng.random()).encode())
                else:
                    trace = deletion_trace(x, rho, (48, seed))
                    poi = poissonize(trace, rho, (49, seed))
                h.update(f"{trace}|{poi}/".encode())
            out[f"{label} rho={rho}"] = h.hexdigest()[:16]
    return out


def promised_verdict_digests() -> dict:
    """Digests of the verdict JSON of the promised `test_uniform_n_block`
    (the calibrated config, and an explicit small-eps config at a rate where
    every block survives) and of the k-trace tester at N=4096, 16 blocks,
    on the two uniform strings, criterion 11's far string and two strings
    outside the promise."""
    N, n, eps, k = 4096, 16, 0.4, 4
    budget = 2.5 * (n / eps) ** 0.8 * math.log(n) ** 1.4
    budget_k = 2.5 * (n**0.8 / (k**0.2 * eps**0.8) * math.log(n) ** 1.4
                      + math.sqrt(n) / (math.sqrt(k) * eps**2))
    piece = N // n
    skew = np.tile(np.repeat([1, 0], [2 * piece - piece // 8, piece // 8]), n // 2)
    far = np.rint(domino_instance(n // 2, 0.9375, False, 42).pair.interleaved() * N)
    strings = {"u1": uniform_block_string(N, n, 1), "u0": uniform_block_string(N, n, 0),
               "far": psi(DensitySequence.from_counts(far.astype(np.int64), N), N).bits,
               "skew": "".join(map(str, skew)), "alternating": "10" * (N // 2)}
    promised = TraceTestSpec(N, n, eps, rho=1 - math.exp(-budget / N))
    multi = TraceTestSpec(N, n, eps, rho=1 - math.exp(-budget_k / N))
    small = TraceTestSpec(N, n, eps, rho=0.5)
    small_config = PTTesterConfig(beta=0.12, mode="small_eps")
    out = {}
    for seed in range(3):
        for label, x in strings.items():
            trace = deletion_trace(x, promised.rho, (50, seed))
            out[f"promised {label} seed={seed}"] = _digest(
                ublock_verdict(trace, promised, seed=(51, seed)).to_json())
            trace = deletion_trace(x, small.rho, (52, seed))
            out[f"promised small_eps {label} seed={seed}"] = _digest(
                ublock_verdict(trace, small, small_config, seed=(53, seed)).to_json())
            traces = [deletion_trace(x, multi.rho, (54, seed, i)) for i in range(k)]
            out[f"multitrace {label} seed={seed}"] = _digest(
                multi_verdict(traces, multi, seed=(55, seed)).to_json())
    return out


# recorded from the boolean-index channel and the full-rescan inverse transform,
# before the per-call kernels replaced them
PINNED_PIPELINE_DIGESTS = {
    "110010 rho=0.1": "938593dfdaf936f5",
    "1 rho=0.1": "c55acb064df7a3e5",
    "000111 rho=0.1": "0277934534d0c9fd",
    "1010101010101010 rho=0.1": "8445cb14d18337d9",
    "0110 rho=0.1": "68130462f58dfbc4",
    "blocks N=16 rho=0.1": "6d487b787da97986",
    "blocks N=1024 rho=0.1": "044c9bd36bd8919c",
    "blocks N=16384 rho=0.1": "f98db89c5ffb2ffb",
    "blocks N=65536 rho=0.1": "453a9554ce184949",
    "alternating N=8192 rho=0.1": "6f1c8edfa2d7b292",
    "110010 rho=0.5": "6bcd6e30658e7c45",
    "1 rho=0.5": "7293c97e996deb87",
    "000111 rho=0.5": "3dab331dc7f7397a",
    "1010101010101010 rho=0.5": "e1d4b9c4446e3f8f",
    "0110 rho=0.5": "66f54ee31cc1aa68",
    "blocks N=16 rho=0.5": "7121bad013f81674",
    "blocks N=1024 rho=0.5": "b2e4c8bdc81c7806",
    "blocks N=16384 rho=0.5": "fb17196b32bfa081",
    "blocks N=65536 rho=0.5": "c838c19c98a9b6be",
    "alternating N=8192 rho=0.5": "e1cafd96dcc6b790",
    "110010 rho=0.9": "be0d42f3bae671d6",
    "1 rho=0.9": "a77ea2b6a3c83ab2",
    "000111 rho=0.9": "86ba16cb26336537",
    "1010101010101010 rho=0.9": "894b2d0ed39e70d1",
    "0110 rho=0.9": "47f004ff0b10339d",
    "blocks N=16 rho=0.9": "df506761ad0456f3",
    "blocks N=1024 rho=0.9": "34ec14fade744f50",
    "blocks N=16384 rho=0.9": "9a4664d7e2d806f2",
    "blocks N=65536 rho=0.9": "5cde2c797d79e6b2",
    "alternating N=8192 rho=0.9": "e6dc90bcae581c7f",
}

# recorded before the negated trace reused the direct trace's runs
PINNED_PROMISED_VERDICT_DIGESTS = {
    "promised u1 seed=0": "e7f51f01c1567bb7",
    "promised small_eps u1 seed=0": "06ec1b37676aefe1",
    "multitrace u1 seed=0": "899895876430e9af",
    "promised u0 seed=0": "e7f51f01c1567bb7",
    "promised small_eps u0 seed=0": "bc9b3e7b5f08e337",
    "multitrace u0 seed=0": "899895876430e9af",
    "promised far seed=0": "5e4b53f88da30410",
    "promised small_eps far seed=0": "17da1b92513956fa",
    "multitrace far seed=0": "05adbd97d96385c9",
    "promised skew seed=0": "cf5a0140017f3141",
    "promised small_eps skew seed=0": "17da1b92513956fa",
    "multitrace skew seed=0": "dc886ed18de7bc4c",
    "promised alternating seed=0": "e7f51f01c1567bb7",
    "promised small_eps alternating seed=0": "f581bd1fb5681692",
    "multitrace alternating seed=0": "899895876430e9af",
    "promised u1 seed=1": "72afb6d2441e7e74",
    "promised small_eps u1 seed=1": "ddc971bd2e6b69c5",
    "multitrace u1 seed=1": "c5ce76c3aecf0991",
    "promised u0 seed=1": "72afb6d2441e7e74",
    "promised small_eps u0 seed=1": "14ec46c47e8aad20",
    "multitrace u0 seed=1": "c5ce76c3aecf0991",
    "promised far seed=1": "155e21afca999638",
    "promised small_eps far seed=1": "7bcf2fe7507331cc",
    "multitrace far seed=1": "f865cf72fe0cd231",
    "promised skew seed=1": "8b31e48bb09955d1",
    "promised small_eps skew seed=1": "7bcf2fe7507331cc",
    "multitrace skew seed=1": "2813690db68c37bb",
    "promised alternating seed=1": "72afb6d2441e7e74",
    "promised small_eps alternating seed=1": "9d2e972876d082bc",
    "multitrace alternating seed=1": "c5ce76c3aecf0991",
    "promised u1 seed=2": "a0814b16a9039a7f",
    "promised small_eps u1 seed=2": "d6119b2e94e1b35d",
    "multitrace u1 seed=2": "0887c7493f82bf23",
    "promised u0 seed=2": "a0814b16a9039a7f",
    "promised small_eps u0 seed=2": "f648dba4caef4e02",
    "multitrace u0 seed=2": "0887c7493f82bf23",
    "promised far seed=2": "7a813e92c41c8683",
    "promised small_eps far seed=2": "f7d42ff15a839313",
    "multitrace far seed=2": "5a3abff4c2f6bbd0",
    "promised skew seed=2": "3dda989ea7d1824e",
    "promised small_eps skew seed=2": "f7d42ff15a839313",
    "multitrace skew seed=2": "dc1b5e8fc1c9b1d7",
    "promised alternating seed=2": "a0814b16a9039a7f",
    "promised small_eps alternating seed=2": "fde988756c1ec88e",
    "multitrace alternating seed=2": "0887c7493f82bf23",
}


def test_pipeline_outputs_are_pinned():
    assert pipeline_digests() == PINNED_PIPELINE_DIGESTS


def test_promised_verdicts_are_pinned():
    assert promised_verdict_digests() == PINNED_PROMISED_VERDICT_DIGESTS

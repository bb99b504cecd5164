"""Sampling, parity traces, and circular run-length extraction."""

import math

import numpy as np
import pytest

from paritylab import _kernels
from paritylab.collector import _necklace_moments
from paritylab.core import (
    PartialDistribution,
    PartialDistributionPair,
    RunLengthTrace,
    SampleMultiset,
    circular_runs,
    pair_from_json,
    pair_to_json,
    parity_trace,
    runs_from_counts,
    sample_exact,
    sample_poissonized,
    split_sample_k,
    uniform_pair,
)


def counts_of(elements, domain):
    c = np.zeros(domain, dtype=np.int64)
    for x in elements:
        c[x - 1] += 1
    return SampleMultiset(c)


def test_parity_trace_sorted_low_bits():
    assert parity_trace(counts_of([5, 1, 6, 2, 4, 2], 6)) == "100010"


def test_parity_trace_empty_and_all_even():
    assert parity_trace(counts_of([], 6)) == ""
    assert parity_trace(counts_of([2, 4, 4], 6)) == "000"


def test_parity_trace_length_is_total():
    rng = np.random.default_rng(0)
    for _ in range(20):
        c = SampleMultiset(rng.integers(0, 5, size=8))
        assert len(parity_trace(c)) == c.total


def parity_trace_loop(counts) -> str:
    """Reference: one run of symbols per element, in element order."""
    parts = []
    for j, c in enumerate(counts):
        parts.append(("1" if j % 2 == 0 else "0") * int(c))
    return "".join(parts)


def test_parity_trace_matches_loop_reference():
    rng = np.random.default_rng(2)
    cases = [np.zeros(0, dtype=np.int64), np.zeros(6, dtype=np.int64)]
    for _ in range(200):
        size = int(rng.integers(1, 12))
        c = rng.integers(0, 5, size=size) * (rng.random(size) < 0.6)
        cases.append(c)
        even_only = c.copy()
        even_only[0::2] = 0  # only even elements: an all-0s trace
        odd_only = c.copy()
        odd_only[1::2] = 0  # only odd elements: an all-1s trace
        cases += [even_only, odd_only]
    for c in cases:
        assert parity_trace(SampleMultiset(c)) == parity_trace_loop(c)


@pytest.mark.parametrize(
    "trace,ones,zeros",
    [
        ("110011", [4], [2]),
        ("100010", [1, 1], [3, 1]),
        ("", [], []),
        ("1111", [4], []),
        ("0000", [], [4]),
        ("10", [1], [1]),
    ],
)
def test_circular_runs_examples(trace, ones, zeros):
    r = circular_runs(trace)
    assert r.one_runs.tolist() == ones
    assert r.zero_runs.tolist() == zeros


def necklace_canonical(bits: str) -> str:
    if not bits:
        return bits
    return min(bits[i:] + bits[:i] for i in range(len(bits)))


def reconstruct(one_runs, zero_runs, start_sym):
    ones = list(one_runs)
    zeros = list(zero_runs)
    out = []
    a, b = (ones, zeros) if start_sym == 1 else (zeros, ones)
    sa, sb = ("1", "0") if start_sym == 1 else ("0", "1")
    for i in range(max(len(a), len(b))):
        if i < len(a):
            out.append(sa * a[i])
        if i < len(b):
            out.append(sb * b[i])
    return "".join(out)


def test_circular_runs_roundtrip_exhaustive():
    # every binary string of length <= 12: rebuilding the necklace from the
    # stitched runs hits the original up to rotation
    for n in range(13):
        for v in range(1 << n):
            bits = format(v, f"0{n}b") if n else ""
            r = circular_runs(bits)
            assert int(r.one_runs.sum() + r.zero_runs.sum()) == n
            if not bits:
                continue
            cands = {
                necklace_canonical(reconstruct(r.one_runs, r.zero_runs, 1)),
                necklace_canonical(reconstruct(r.one_runs, r.zero_runs, 0)),
            }
            assert necklace_canonical(bits) in cands


def test_runs_from_counts_matches_string_path():
    rng = np.random.default_rng(1)
    cases = []
    for _ in range(400):
        n = int(rng.integers(1, 65))
        counts = rng.integers(0, 4, size=2 * n)
        counts[rng.random(2 * n) < rng.random()] = 0  # from no zeros to mostly zeros
        cases.append(counts)
    for n in (1, 2, 5, 64):
        joined = np.zeros(2 * n, dtype=np.int64)
        joined[0] = 3  # every edge of both necklaces is kept: one run of 1s
        cases.append(joined)
        one_class = np.zeros(2 * n, dtype=np.int64)
        one_class[1::2] = rng.integers(1, 4, size=n)  # one run of 0s, no 1s
        cases.append(one_class)
        cases.append(rng.integers(1, 4, size=2 * n))  # no edge kept: 2n singleton runs
        cases.append(np.zeros(2 * n, dtype=np.int64))
    for counts in cases:
        via_string = circular_runs(parity_trace(SampleMultiset(counts)))
        direct = runs_from_counts(counts)
        assert sorted(via_string.one_runs) == sorted(direct.one_runs)
        assert sorted(via_string.zero_runs) == sorted(direct.zero_runs)
        assert direct.length == via_string.length == int(counts.sum())
        assert direct.bits == parity_trace(SampleMultiset(counts))


@pytest.mark.parametrize("counts, message", [
    ([3.5, 1, 2, 2], "whole numbers"),  # was truncated to [3, 1, 2, 2]
    ([3, 1, np.nan, 2], "whole numbers"),
    ([3, 1, np.inf, 2], "whole numbers"),
    (["3", "1"], "whole numbers"),
    ([3, 1, 2], "even length"),  # failed inside numpy's concatenate
    ([[3, 1], [2, 2]], "even length"),
    ([3, -2, 4, 1], "non-negative"),  # failed with "run lengths do not add up"
    ([3.0, -2.0, 4.0, 1.0], "non-negative"),
])
def test_runs_from_counts_rejects_invalid_counts(counts, message):
    with pytest.raises(ValueError, match=message):
        runs_from_counts(np.array(counts))


def test_runs_from_counts_takes_whole_floats_as_counts():
    direct = runs_from_counts(np.array([3.0, 0.0, 2.0, 2.0]))
    assert direct.one_runs.tolist() == [5] and direct.zero_runs.tolist() == [2]
    assert direct.bits == "1111100"


@pytest.mark.parametrize("counts, message", [
    ([3.5, 1], "whole numbers"),  # was truncated to [3, 1]
    ([np.inf, 1], "whole numbers"),  # was "negative multiplicity" after a cast warning
    ([np.nan, 1], "whole numbers"),
    ([[1, 2], [3, 4]], "1-d vector"),
    (["3", "1"], "whole numbers"),  # was cast to [3, 1]
], ids=["half", "inf", "nan", "2d", "strings"])
def test_sample_multiset_rejects_what_is_not_a_count_vector(counts, message):
    with pytest.raises(ValueError, match=message):
        SampleMultiset(np.array(counts))


def test_run_length_trace_runs_must_add_up_to_its_bits():
    ones, zeros = np.array([2]), np.array([1])
    assert RunLengthTrace(ones, zeros, "110").length == 3
    for bits in ("11", "1100"):
        with pytest.raises(ValueError, match="do not add up"):
            RunLengthTrace(ones, zeros, bits)


@pytest.mark.parametrize("ones,zeros,bits", [
    (np.array([1.5, 1.5]), np.array([1]), "1110"),  # a fractional run took a verdict
    (np.array([5, -1]), np.array([1]), "11110"),
    (np.array([0, 3]), np.array([1]), "1110"),
    (np.array([[2]]), np.array([[1]]), "110"),
])
def test_run_length_trace_rejects_runs_no_trace_has(ones, zeros, bits):
    with pytest.raises(ValueError, match="runs must be"):
        RunLengthTrace(ones, zeros, bits)


@pytest.mark.parametrize("counts", [[0, 0, 0, 0], [3, 0, 2, 0], [0, 4, 0, 1], [2, 1, 0, 0]])
def test_constant_and_empty_traces_have_runs(counts):
    runs = runs_from_counts(np.array(counts))
    again = circular_runs(runs.bits)
    assert runs.length == sum(counts)
    assert np.array_equal(again.one_runs, runs.one_runs)
    assert np.array_equal(again.zero_runs, runs.zero_runs)


def labels_necklace_sums(counts: np.ndarray) -> np.ndarray:
    """The circular run lengths of the parity trace of every row of 2n counts, as
    float64 of shape (2, rows, n), the one-runs first, through bucket labels and
    sums on every row; a zero entry is no run."""
    rows, n = counts.shape[0], counts.shape[1] // 2
    odd, even = counts[:, 0::2], counts[:, 1::2]
    keep = np.concatenate((even == 0, np.roll(odd, -1, axis=1) == 0))
    labels = _kernels.bucket_labels(keep, n, True)
    values = np.concatenate((odd, even), dtype=np.float64)
    return _kernels.bucket_sums(values, labels).reshape(2, rows, n)


def assert_necklace_moments_match_the_labels_path(counts: np.ndarray) -> None:
    runs = labels_necklace_sums(counts)
    expect = runs.max(axis=2), (runs * (runs - 1)).sum(axis=2), runs.sum(axis=2)
    for got, want in zip(_necklace_moments(counts), expect):
        assert got.dtype == np.int64 and got.shape == (2, counts.shape[0])
        assert np.array_equal(got, want)


def test_necklace_moments_match_the_labels_path():
    rng = np.random.default_rng(19)
    for n in range(1, 65):
        full = rng.integers(1, 5, size=(6, 2 * n))
        one_zero = full.copy()
        one_zero[np.arange(6), rng.integers(0, 2 * n, size=6)] = 0
        many_zeros = full * (rng.random((6, 2 * n)) < 0.5)
        mixed = np.concatenate((full[:3], one_zero[3:]))  # one empty slot takes every row
        for counts in (full, one_zero, many_zeros, np.zeros((3, 2 * n), dtype=np.int64), mixed):
            assert_necklace_moments_match_the_labels_path(counts)
    # blocks of one whole row each, and pieces of one row, with runs across them
    for n in (5000, 9000):
        counts = rng.poisson(2.0, size=(4, 2 * n))
        counts[0] = rng.integers(1, 5, size=2 * n)
        counts[1, :4000] = 0
        counts[2, -4000:] = 0
        assert_necklace_moments_match_the_labels_path(counts)


def test_pt_large_default_m_same_on_counts_and_string():
    from paritylab.parity import test_uniformity_pt_large as pt_large

    rng = np.random.default_rng(4)
    for _ in range(50):
        counts = rng.integers(0, 4, size=32)
        bits = parity_trace(SampleMultiset(counts))
        assert (pt_large(runs_from_counts(counts), 16, 0.4).to_json()
                == pt_large(bits, 16, 0.4).to_json())


def test_partial_distribution_validation():
    with pytest.raises(ValueError):
        PartialDistribution(np.array([-0.1, 0.2]))
    with pytest.raises(ValueError):
        PartialDistribution(np.array([0.9, 0.2]))
    with pytest.raises(ValueError):
        PartialDistributionPair(
            PartialDistribution(np.array([0.2, 0.2])),
            PartialDistribution(np.array([0.2, 0.2])),
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -5.0])
def test_partial_distribution_rejects_non_finite_and_negative(bad):
    w = np.full(8, 0.05)
    w[3] = bad
    with pytest.raises(ValueError):
        PartialDistribution(w)


def test_sample_exact_point_mass_and_zero():
    n = 4
    p = np.zeros(n)
    p[0] = 1.0
    pair = PartialDistributionPair(PartialDistribution(p), PartialDistribution(np.zeros(n)))
    s = sample_exact(pair, 5, seed=0)
    assert s.counts[0] == 5 and s.total == 5
    assert sample_exact(pair, 0, seed=0).total == 0
    assert np.array_equal(sample_exact(pair, 5.0, seed=0).counts, s.counts)


@pytest.mark.parametrize("m", [2.5, True, -1, math.nan, math.inf, "5"])
def test_sample_exact_m_must_be_a_whole_number(m):
    # 2.5 drew 2 points, and True drew 1
    with pytest.raises(ValueError, match="whole number"):
        sample_exact(uniform_pair(4), m, seed=0)


def test_sample_exact_uniform_frequencies():
    # binomial standard-error oracle: each element within 4 sigma
    n, m = 8, 10**6
    pair = uniform_pair(n)
    s = sample_exact(pair, m, seed=42)
    p0 = 1 / (2 * n)
    sigma = np.sqrt(p0 * (1 - p0) * m)
    assert np.all(np.abs(s.counts - m * p0) <= 4 * sigma)


def test_sample_poissonized_moments():
    # Poisson moment oracle at pi(x) = 0.25, m = 100: count mean and
    # variance both close to 25 (within 4 standard errors)
    pair = PartialDistributionPair(
        PartialDistribution(np.array([0.25, 0.25])),
        PartialDistribution(np.array([0.25, 0.25])),
    )
    trials = 3000
    draws = np.array(
        [sample_poissonized(pair, 100.0, (7, t)).counts[0] for t in range(trials)]
    )
    lam = 25.0
    assert abs(draws.mean() - lam) <= 4 * np.sqrt(lam / trials)
    se_var = lam * np.sqrt(2 / trials) * np.sqrt(1 + 2 / lam)
    assert abs(draws.var(ddof=1) - lam) <= 4 * se_var


def test_sample_poissonized_zero_mass_element():
    p = np.array([0.5, 0.0])
    q = np.array([0.25, 0.25])
    pair = PartialDistributionPair(PartialDistribution(p), PartialDistribution(q))
    for t in range(20):
        assert sample_poissonized(pair, 50.0, t).counts[2] == 0


def test_split_sample_k_single_identity_in_distribution():
    pair = uniform_pair(4)
    [t] = split_sample_k(pair, 6.0, 1, seed=5)
    assert set(t) <= {"0", "1"}


def test_split_sample_k_empty_parent():
    p = np.zeros(2)
    pair = PartialDistributionPair(
        PartialDistribution(p), PartialDistribution(np.array([1.0, 0.0]))
    )
    # all mass on one even element: traces are all-zero strings
    traces = split_sample_k(pair, 3.0, 4, seed=1)
    assert len(traces) == 4
    assert all(set(t) <= {"0"} for t in traces)


def run_length_histogram(traces):
    from collections import Counter

    hist = Counter()
    for t in traces:
        if not t:
            hist[("empty", 0)] += 1
            continue
        r = circular_runs(t)
        for ln in r.one_runs:
            hist[("1", int(ln))] += 1
        for ln in r.zero_runs:
            hist[("0", int(ln))] += 1
    return hist


def hist_tv(h1, h2):
    keys = set(h1) | set(h2)
    t1 = sum(h1.values()) or 1
    t2 = sum(h2.values()) or 1
    return sum(abs(h1[k] / t1 - h2[k] / t2) for k in keys) / 2


def test_split_sample_k_marginals_match_direct():
    # run-length histogram TV <= 0.02 against direct Poissonized traces
    n, m, k = 4, 3.0, 3
    pair = uniform_pair(n)
    trials = 4000
    split_traces = []
    for t in range(trials):
        split_traces.extend(split_sample_k(pair, m, k, seed=(9, t)))
    direct = [
        parity_trace(sample_poissonized(pair, m, seed=(10, t)))
        for t in range(trials * k)
    ]
    tv = hist_tv(run_length_histogram(split_traces), run_length_histogram(direct))
    assert tv <= 0.02


def test_poissonized_counts_independent():
    # empirical covariance of two element counts is near zero
    trials = 10**5
    pair = uniform_pair(4)
    gen = np.random.Generator(np.random.Philox(11))
    draws = gen.poisson(20.0 * pair.interleaved(), size=(trials, 8))
    c = np.cov(draws[:, 0], draws[:, 5])[0, 1]
    lam = 20.0 / 8
    assert abs(c) <= 3 * lam / np.sqrt(trials)  # sd of the estimator is lam/sqrt(T)


def test_pair_json_roundtrip():
    pair = uniform_pair(3)
    again = pair_from_json(pair_to_json(pair))
    assert np.allclose(again.p.weights, pair.p.weights)
    assert np.allclose(again.q.weights, pair.q.weights)


def _size_calls():
    """name -> (call with the size, the size's name, its floor) of every `_check_size` site."""
    from paritylab.collector import BaseGraph, phi_empirical
    from paritylab.deletion import TraceTestSpec, learn_k_alternating, split_traces
    from paritylab.editdist import dist_to_nblock, uniform_density
    from paritylab.harness import ExperimentSpec
    from paritylab.oracles import variance_components
    from paritylab.parity import test_uniformity_pt_small

    q = np.full(4, 0.1)
    return {
        "BaseGraph": (lambda v: BaseGraph("cycle", v), "n", 2),
        "TraceTestSpec": (lambda v: TraceTestSpec(8, v, 0.3, 0.5, property_name="n_block"),
                          "n_blocks", 1),
        "dist_to_nblock": (lambda v: dist_to_nblock("0110", v), "n_blocks", 1),
        "learn_k_alternating": (lambda v: learn_k_alternating([(0, 1), (1, 0)], v), "k", 0),
        "split_traces": (lambda v: split_traces(uniform_density(4), 8, v, 1e-3, 1), "k", 1),
        "split_sample_k": (lambda v: split_sample_k(uniform_pair(4), 10.0, v, 1), "k", 1),
        "phi_empirical": (lambda v: phi_empirical(BaseGraph("cycle", 4), 0.5, v, 1),
                          "trials", 1),
        "variance_components": (lambda v: variance_components(q, BaseGraph("cycle", 4), 5.0, v,
                                                              1, eta=0.5), "trials", 1000),
        "ExperimentSpec": (lambda v: ExperimentSpec("pt_small", [{"n": 8, "epsilon": 0.3}], v, 1),
                           "trials", 1),
        "test_uniformity_pt_small": (lambda v: test_uniformity_pt_small("10" * 8, v, 0.3), "n", 1),
    }


@pytest.mark.parametrize("site", list(_size_calls()))
@pytest.mark.parametrize("bad", ["half", "below", "bool", "string"])
def test_a_size_that_is_not_an_integer_at_its_floor_raises(site, bad):
    # at the parent BaseGraph("cycle", 2.5) and the n_block TraceTestSpec at 2.5 blocks
    # constructed, learn_k_alternating took True as k=1, and dist_to_nblock, phi_empirical
    # and test_uniformity_pt_small raised TypeError at 2.5
    call, name, low = _size_calls()[site]
    value = {"half": low + 0.5, "below": low - 1, "bool": True, "string": str(low)}[bad]
    with pytest.raises(ValueError, match=f"{name} must be an integer >= {low}, got {value!r}"):
        call(value)
    with pytest.raises(ValueError, match=f"{name} must be an integer >= {low}"):
        call(np.float64(low))
    call(np.int64(low))  # a numpy integer at the floor is a size

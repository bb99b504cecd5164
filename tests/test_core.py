"""Sampling, parity traces, and circular run-length extraction."""

import numpy as np
import pytest

from paritylab.core import (
    PartialDistribution,
    PartialDistributionPair,
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

"""Join matrices, eigenvalue bounds, and the bucket-count tester."""

import tracemalloc

import numpy as np
import pytest

from paritylab.collector import (
    BaseGraph,
    CCTesterConfig,
    _cycle_join_product,
    _join_sum,
    confused_trials,
    min_eigenvalue,
    phi_empirical,
    phi_expected,
    phi_from_keep_probs,
    sample_confused,
    zeta_bound,
)
from paritylab.collector import test_uniformity_cc as cc_verdict  # noqa: E402
from paritylab.oracles import expected_y  # noqa: E402
from paritylab.parity import phi_mu  # noqa: E402
from paritylab.rng import generator  # noqa: E402



def test_phi_identity_at_full_resolution():
    for kind in ("path", "cycle"):
        assert np.allclose(phi_expected(BaseGraph(kind, 6), 1.0), np.eye(6))


def test_phi_path_example():
    expect = np.array([[1, 0.5, 0.25], [0.5, 1, 0.5], [0.25, 0.5, 1]])
    assert np.allclose(phi_expected(BaseGraph("path", 3), 0.5), expect)


def test_phi_cycle_example():
    phi = phi_expected(BaseGraph("cycle", 4), 0.5)
    assert phi[0, 2] == pytest.approx(0.25 + 0.25 - 0.0625)


def test_phi_all_ones_at_zero_eta():
    # eta -> 0 on the cycle joins everything; use the general-weights form
    phi = phi_from_keep_probs(np.ones(5), "cycle")
    assert np.allclose(phi, np.ones((5, 5)))


def test_phi_empirical_matches_expected():
    g = BaseGraph("cycle", 16)
    trials = 20000
    emp = phi_empirical(g, 0.3, trials, seed=3)
    exact = phi_expected(g, 0.3)
    sigma = np.sqrt(exact * (1 - exact) / trials)
    assert np.all(np.abs(emp - exact) <= 4 * sigma + 1e-12)


def test_phi_empirical_memory_is_bounded():
    # chunks are sized in compared label pairs, not in trials
    tracemalloc.start()
    try:
        phi_empirical(BaseGraph("cycle", 128), 0.3, 4096, seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_confused_trials_memory_is_bounded_by_the_chunk():
    # chunks hold about _CHUNK_CELLS cells; one chunk of 20000 trials at n=256 held 162 MiB
    g = BaseGraph("cycle", 256)
    p = np.full(256, 1 / 256)
    confused_trials(p, 512.0, g, 0.5, 10, seed=1)  # first-call allocations stay untraced
    extra = []
    for trials in (2000, 20000):
        tracemalloc.start()
        try:
            confused_trials(p, 512.0, g, 0.5, trials, seed=1)
            # the peak beyond the two float64 arrays returned
            extra.append(tracemalloc.get_traced_memory()[1] - 16 * trials)
        finally:
            tracemalloc.stop()
    assert extra[1] <= extra[0] * 1.05 and extra[1] < 8 * 2**20


def test_mass_vector_must_match_the_graph():
    # a length-1 vector used to broadcast over every vertex of the graph
    g = BaseGraph("cycle", 64)
    with pytest.raises(ValueError, match="sizes differ"):
        confused_trials(np.array([0.5]), 200.0, g, 0.5, 10, seed=1)
    with pytest.raises(ValueError, match="sizes differ"):
        sample_confused(np.array([0.5]), 200.0, g, 0.5, seed=1)


def test_phi_row_sum_closed_form():
    for kind in ("path", "cycle"):
        for n in (2, 5, 16):
            for eta in (0.05, 0.4, 1.0):
                g = BaseGraph(kind, n)
                assert _join_sum(n, 1.0 - eta, g.is_cycle) == pytest.approx(
                    phi_expected(g, eta).sum(), rel=1e-9
                )


def test_min_eigenvalue_basics():
    assert min_eigenvalue(np.eye(4)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        min_eigenvalue(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_min_eigenvalue_bounds_spot():
    phi = phi_expected(BaseGraph("path", 256), 0.1)
    assert min_eigenvalue(phi) > 0.05
    phi = phi_expected(BaseGraph("cycle", 1024), 0.25)
    assert min_eigenvalue(phi) > 0.0625


def test_phi_positive_semidefinite_grid():
    for kind in ("path", "cycle"):
        for n in (8, 32, 64):
            for eta in (0.05, 0.3, 0.7, 1.0):
                lam = min_eigenvalue(phi_expected(BaseGraph(kind, n), eta))
                assert lam > -1e-10


def test_zeta_bound_values():
    assert zeta_bound(BaseGraph("path", 20), eta=0.5) == 0.0
    assert zeta_bound(BaseGraph("cycle", 20), eta=0.5) == pytest.approx(0.5**10)
    assert zeta_bound(BaseGraph("cycle", 20), m=16.0, q_mass=0.5) == pytest.approx(
        np.exp(-4.0)
    )


def arc_products(keep: np.ndarray, kind: str) -> np.ndarray:
    """Join matrix by direct products of keep probabilities along the arcs."""
    n = keep.size + (kind == "path")
    expect = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            near = np.prod(keep[i:j])
            if kind == "cycle":  # either arc joins; both means every edge
                near += np.prod(keep[j:]) * np.prod(keep[:i]) - np.prod(keep)
            expect[i, j] = expect[j, i] = near
    return expect


def test_phi_from_keep_probs_matches_arc_products():
    rng = np.random.default_rng(9)
    for kind in ("path", "cycle"):
        for n in (2, 3, 7, 12):
            edges = n if kind == "cycle" else n - 1
            for _ in range(20):
                keep = rng.random(edges)
                keep[rng.random(edges) < 0.25] = 0.0
                expect = arc_products(keep, kind)
                phi = phi_from_keep_probs(keep, kind)
                assert np.allclose(phi, expect, rtol=0, atol=1e-12)
                assert np.array_equal(phi == 0, expect == 0)  # a zero edge joins nothing


def test_constant_keep_matrices_match_arc_products():
    # phi_expected and phi_mu are the one builder at a constant keep
    for n in (2, 3, 7, 12):
        for kind in ("path", "cycle"):
            edges = n if kind == "cycle" else n - 1
            for eta in (0.1, 0.5, 1.0):
                assert np.allclose(phi_expected(BaseGraph(kind, n), eta),
                                   arc_products(np.full(edges, 1.0 - eta), kind),
                                   rtol=0, atol=1e-12)
        for m in (0.5, 10.0, 300.0):
            keep = np.full(n, np.exp(-m / (2 * n)))
            assert np.allclose(phi_mu(n, m), arc_products(keep, "cycle"), rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 17, 600])
def test_cycle_join_product_matches_the_matrix(n):
    # keeps exactly 0, exactly 1 and underflowed: exp(-800) is 0.0 and 1e-320 subnormal
    rng = np.random.default_rng([17, n])
    for case in ("random", "zeros", "ones", "underflow", "mixed"):
        keep = rng.random(n)
        if case == "zeros":
            keep[rng.random(n) < 0.3] = 0.0
        elif case == "ones":
            keep[:] = 1.0
        elif case == "underflow":
            keep = np.exp(-rng.uniform(0, 800, n))
        elif case == "mixed":
            keep = rng.choice([0.0, 1.0, 1e-320, 0.5, 1 - 1e-16], n)
        v = rng.standard_normal(n)
        scale = np.abs(v).sum()
        got = _cycle_join_product(keep, v)
        # the dense builder's exponents carry a relative error of about
        # 1e-16 * |log-product|, which reaches 4.8e-14 * sum|v| at n=600
        np.testing.assert_allclose(got, phi_from_keep_probs(keep, "cycle") @ v,
                                   rtol=0, atol=1e-12 * scale, err_msg=case)
        if n <= 17:
            np.testing.assert_allclose(got, arc_products(keep, "cycle") @ v,
                                       rtol=0, atol=1e-14 * scale, err_msg=case)
        if case == "ones":  # every pair joins
            np.testing.assert_allclose(got, v.sum(), rtol=0, atol=1e-14 * scale)


def test_sample_confused_extremes():
    p = np.full(8, 1.0 / 8)
    g = BaseGraph("cycle", 8)
    # the sampler draws the subgraph, then the counts, from one generator
    rng = generator(0)
    rng.random(g.n_edges)
    drawn = int(rng.poisson(5.0 * p).sum())
    labels, x = sample_confused(p, 5.0, g, eta=1.0, seed=0)
    assert np.unique(labels).size == 8  # all singletons
    assert x.size == 8 and int(x.sum()) == drawn
    labels, x = sample_confused(p, 5.0, g, eta=1e-12, seed=0)
    assert np.unique(labels).size == 1  # everything joins
    assert x.size == 1 and int(x.sum()) == drawn


def test_expected_y_identities():
    g = BaseGraph("cycle", 8)
    phi = phi_expected(g, 0.5)
    assert expected_y(np.zeros(8), phi, 10.0) == 0.0
    p = np.full(8, 1.0 / 8)
    assert expected_y(p, np.eye(8), 7.0) == pytest.approx(7.0 / 8)


def test_monte_carlo_mean_matches_quadratic_form():
    rng = np.random.default_rng(5)
    g = BaseGraph("cycle", 64)
    p = rng.random(64)
    p /= p.sum()
    trials = 30000
    ys, _ = confused_trials(p, 200.0, g, 0.3, trials, seed=8)
    exact = expected_y(p, phi_expected(g, 0.3), 200.0)
    se = ys.std(ddof=1) / np.sqrt(trials)
    assert abs(ys.mean() - exact) <= 3.5 * se


def test_bucket_sizes_rarely_large():
    # buckets exceed 2*K*log(n)/eta with probability < 1/n^K at K=2
    n, eta, K = 64, 0.5, 2
    cap = 2 * K * np.log(n) / eta
    trials = 20000
    # the max bucket sum of the all-ones vector is the max bucket size
    from paritylab import _kernels
    from paritylab.rng import generator

    gen = generator(13)
    labels = _kernels.bucket_labels(gen.random((trials, n)) < (1 - eta), n, True)
    sizes = _kernels.bucket_sums(np.ones((trials, n)), labels)
    frac = np.mean(sizes.max(axis=1) > cap)
    assert frac < 1.0 / n**K + 3e-4


def test_tester_step_examples():
    n = 64
    cfg = CCTesterConfig(epsilon=0.5, eta=0.5, alpha=20.0, beta=0.25)
    m = 30.0
    big = np.zeros(n)
    big[0] = cfg.alpha * np.log(n) + 1
    v = cc_verdict(big, cfg, n, m)
    assert not v.accept and v.fired_step == "concentration"

    zero_one = np.ones(n)  # no collisions at all
    v = cc_verdict(zero_one, cfg, n, m)
    assert v.fired_step in ("none",)
    assert v.accept

    v_json = v.to_json()
    assert '"accept": true' in v_json


@pytest.mark.parametrize("bad", [np.nan, np.inf, -5.0])
def test_tester_rejects_non_finite_and_negative_counts(bad):
    # a NaN or a negative count used to pass both steps and accept
    n = 256
    cfg = CCTesterConfig(epsilon=0.3, eta=0.5)
    x = np.ones(n)
    x[3] = bad
    with pytest.raises(ValueError):
        cc_verdict(x, cfg, n, cfg.sample_size(n), BaseGraph("cycle", n))


def test_tester_rejects_a_graph_of_another_size():
    cfg = CCTesterConfig(epsilon=0.3, eta=0.5)
    with pytest.raises(ValueError, match="sizes differ"):
        cc_verdict(np.ones(64), cfg, 64, 100.0, BaseGraph("cycle", 32), override_range_check=True)


def test_tester_requires_range_check():
    cfg = CCTesterConfig(epsilon=0.05, eta=0.02, L=0.5)
    with pytest.raises(ValueError):
        cc_verdict(np.ones(64), cfg, 64, 10.0)
    v = cc_verdict(np.ones(64), cfg, 64, 10.0, override_range_check=True)
    assert v.accept

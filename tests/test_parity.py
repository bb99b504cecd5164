"""Parity-trace uniformity testers: thresholds, steps, and routing."""

import math

import numpy as np
import pytest

from paritylab.core import (
    parity_trace,
    runs_from_counts,
    sample_exact,
    sample_poissonized,
    uniform_pair,
)
from paritylab.harness import domino_instance
from paritylab.parity import (
    PTTesterConfig,
    phi_mu,
    phi_mu_sum,
    routes_to_large,
    uht_histogram,
)
from paritylab.parity import test_uniformity_pt as pt_verdict
from paritylab.parity import test_uniformity_pt_large as pt_large
from paritylab.parity import test_uniformity_pt_small as pt_small


def test_phi_mu_limits():
    near_zero = phi_mu(6, 1e-9)
    assert np.allclose(near_zero, np.ones((6, 6)), atol=1e-6)
    near_inf = phi_mu(6, 1e7)
    assert np.allclose(near_inf, np.eye(6), atol=1e-12)


def test_phi_mu_entry_example():
    n = 4
    m = 8 * n * math.log(2)
    nu = 2.0 ** -4
    phi = phi_mu(n, m)
    assert phi[0, 1] == pytest.approx(nu + nu**3 - nu**4)


def test_phi_mu_sum_matches_matrix():
    for n in (4, 16, 64):
        for m in (0.5, 10.0, 300.0):
            assert phi_mu_sum(n, m) == pytest.approx(phi_mu(n, m).sum(), rel=1e-10)


@pytest.mark.parametrize("m", [math.nan, math.inf, 0.0, -1.0])
def test_phi_mu_rejects_m_that_is_not_finite_and_positive(m):
    # m=nan gave a matrix of NaN off the diagonal, and phi_mu_sum(3, nan) NaN
    for fn in (phi_mu, phi_mu_sum):
        with pytest.raises(ValueError, match="m must be finite and positive"):
            fn(3, m)


@pytest.mark.parametrize("n", [0, -2, 2.5, True])
def test_phi_mu_rejects_n_that_is_not_a_positive_integer(n):
    # n=0 raised ZeroDivisionError and n=2.5 TypeError
    for fn in (phi_mu, phi_mu_sum):
        with pytest.raises(ValueError, match="n must be an integer"):
            fn(n, 4.0)


def test_uht_trivial_cases():
    v = uht_histogram(np.ones(10, dtype=int), 10, 0.5)
    assert v.accept  # all multiplicities 1: zero collisions
    v = uht_histogram([20] + [0] * 9, 10, 0.5)
    assert not v.accept and v.fired_step == "histogram"
    with pytest.raises(ValueError):
        uht_histogram([1, 0], 2, 0.5)


def test_uht_monte_carlo_separation():
    # D=100, eps=0.5, m=2000: uniform accepted, half-mass-on-10 rejected
    rng = np.random.default_rng(99)
    d, m, eps, trials = 100, 2000, 0.5, 500
    uniform = np.full(d, 1 / d)
    heavy = np.full(d, 0.5 / (d - 10))
    heavy[:10] = 0.05
    acc = rej = 0
    for t in range(trials):
        acc += uht_histogram(rng.multinomial(m, uniform), d, eps).accept
        rej += not uht_histogram(rng.multinomial(m, heavy), d, eps).accept
    assert acc >= 0.9 * trials
    assert rej >= 0.9 * trials


def test_pt_large_bias_step():
    trace = "1" * 90 + "0" * 10
    v = pt_large(trace, 8, 0.5, PTTesterConfig(), m=100.0)
    assert not v.accept and v.fired_step == "bias"


def test_pt_large_concentration_step():
    n = 8
    cfg = PTTesterConfig(gamma=100.0)  # disarm the bias step
    run = int(cfg.alpha * math.log(n)) + 1
    trace = "1" * run + "0" * run
    v = pt_large(trace, n, 0.5, cfg, m=float(2 * run))
    assert not v.accept and v.fired_step == "concentration"


def test_pt_large_all_singleton_runs_accept():
    trace = "10" * 40
    v = pt_large(trace, 16, 0.5, PTTesterConfig(), m=80.0)
    assert v.accept  # Y = 0 in both passes, below any positive threshold


def test_pt_large_symbol_symmetry():
    # relabeling 1 <-> 0 swaps the two passes and keeps the verdict
    pair = domino_instance(16, 0.8, False, 3).pair
    for t in range(30):
        counts = sample_poissonized(pair, 120.0, (4, t)).counts
        trace = parity_trace(type(sample_poissonized(pair, 1.0, 0))(counts))
        flipped = trace.replace("0", "x").replace("1", "0").replace("x", "1")
        v1 = pt_large(trace, 16, 0.4, m=120.0)
        v2 = pt_large(flipped, 16, 0.4, m=120.0)
        assert v1.accept == v2.accept


def test_pt_small_coverage_rejection():
    v = pt_small("1" * 5 + "0" * 5, 3, 0.1)
    assert not v.accept and v.fired_step == "coverage"
    # starts with 0: element 1 was never sampled
    v = pt_small("0" + "10" * 3, 3, 0.1)
    assert not v.accept and v.fired_step == "coverage"


def test_pt_small_rejects_non_binary_trace():
    with pytest.raises(ValueError):
        pt_small("1020", 2, 0.3)


def test_pt_large_rejects_empty_trace_and_nonpositive_m():
    with pytest.raises(ValueError):
        pt_large("", 16, 0.3)
    with pytest.raises(ValueError):
        pt_large(runs_from_counts(np.zeros(32, dtype=np.int64)), 16, 0.3)
    with pytest.raises(ValueError):
        pt_large("1010", 16, 0.3, m=0.0)


@pytest.mark.parametrize("epsilon", [0.0, -0.3, math.nan, math.inf, 2.5])
def test_pt_testers_reject_an_epsilon_outside_0_2(epsilon):
    # a NaN epsilon used to accept: no statistic exceeds a NaN threshold
    for tester in (pt_large, pt_small, pt_verdict):
        with pytest.raises(ValueError, match="epsilon"):
            tester("10" * 32, 32, epsilon)
    with pytest.raises(ValueError, match="epsilon"):
        uht_histogram([20] + [0] * 9, 10, epsilon)


def test_pt_small_forwarding_to_histogram():
    n = 4
    trace = "10" * n  # every element exactly once: zero collisions
    v = pt_small(trace, n, 0.1)
    assert v.accept
    assert v.statistics["C"] == 0.0


def test_routing_is_pure_and_config_dependent():
    cfg = PTTesterConfig(K=2.0)
    decisions = {routes_to_large(256, 0.5, cfg) for _ in range(5)}
    assert len(decisions) == 1  # deterministic
    assert not routes_to_large(10**6, 0.001, cfg)  # far below the boundary
    tiny_k = PTTesterConfig(K=1.0001)
    assert routes_to_large(10**24, 0.5, tiny_k)  # the boundary finally drops
    # at desk scale the boundary exceeds any eps <= 2, so auto mode routes small
    assert not routes_to_large(256, 2.0, cfg)


def test_dispatcher_honors_mode():
    pair = uniform_pair(8)
    trace = parity_trace(sample_exact(pair, 400, 0))
    v_forced = pt_verdict(trace, 8, 0.3, PTTesterConfig(mode="large_eps"), m=400.0)
    assert v_forced.params["branch"] == "large_eps"
    v_auto = pt_verdict(trace, 8, 0.3, PTTesterConfig(mode="auto"), m=400.0)
    assert v_auto.params["branch"] == "small_eps"


def test_runs_from_counts_feed_tester():
    pair = uniform_pair(32)
    counts = sample_poissonized(pair, 300.0, 5).counts
    runs = runs_from_counts(counts)
    v = pt_large(runs, 32, 0.5, m=300.0)
    assert isinstance(v.accept, bool)


def test_pt_large_determinism():
    pair = uniform_pair(16)
    trace = parity_trace(sample_exact(pair, 200, 9))
    a = pt_large(trace, 16, 0.4, m=200.0)
    b = pt_large(trace, 16, 0.4, m=200.0)
    assert a.accept == b.accept and a.statistics == b.statistics


def test_uniform_case_expectation_matches_threshold_baseline():
    # Monte Carlo mean of the 1-run statistic at the uniform input equals
    # (m/4n^2) * sum(phi_mu) within 3 standard errors
    n, m, trials = 64, 150.0, 30000
    pair = uniform_pair(n)
    ys = np.empty(trials)
    for t in range(trials):
        counts = sample_poissonized(pair, m, (777, t)).counts
        x = runs_from_counts(counts).one_runs.astype(float)
        ys[t] = np.sum(x * (x - 1)) / m
    baseline = (m / (4 * n**2)) * phi_mu_sum(n, m)
    se = ys.std(ddof=1) / math.sqrt(trials)
    assert abs(ys.mean() - baseline) <= 3 * se


def test_uniform_expectation_tanh_closed_form():
    # m / (4n tanh(m/4n)) approximates the uniform baseline to 2*m*n*xi
    from paritylab.oracles import expected_y

    for n, m in ((16, 30.0), (64, 100.0), (64, 250.0)):
        mu = np.full(n, 0.5 / n)
        exact = expected_y(mu, phi_mu(n, m), m)
        approx = m / (4 * n * math.tanh(m / (4 * n)))
        emq = math.exp(-m / 2)
        xi = emq / (1 - emq) ** 2
        assert abs(exact - approx) <= 2 * m * n * xi + 1e-9

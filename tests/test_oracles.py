"""Analysis oracles: conjugates, concentration witnesses, moments, tanh grids."""

import math

import numpy as np
import pytest

from paritylab import _kernels
from paritylab.collector import BaseGraph, phi_expected, phi_from_keep_probs
from paritylab.oracles import (
    expected_y,
    relative_concentration,
    simulated_bucket_means,
    tanh_checks,
    uniform_conjugate,
    variance_components,
)
from paritylab.rng import generator


def test_conjugate_of_uniform_is_uniform():
    n = 16
    rep = uniform_conjugate(np.full(n, 0.5 / n), 40.0)
    assert np.allclose(rep.p_tilde, 0.5 / n, atol=1e-14)


def test_conjugate_tau_small_example():
    rep = uniform_conjugate(np.full(2, 0.25), 8.0)
    assert rep.tau == pytest.approx(0.25 / math.tanh(1.0), rel=1e-12)


def test_conjugate_mass_telescopes():
    rng = generator(0)
    for t in range(20):
        n = int(rng.integers(3, 40))
        q = rng.random(n)
        q *= rng.uniform(0.2, 0.8) / q.sum()
        m = float(rng.uniform(n**0.7, 2 * n))
        rep = uniform_conjugate(q, m)
        assert rep.p_tilde.sum() == pytest.approx(1 - q.sum(), abs=1e-12)
        assert np.all(rep.p_tilde >= -1e-15)


def test_conjugate_residual_bound_random():
    rng = generator(123)
    for t in range(50):
        n = int(rng.integers(8, 65))
        q = rng.random(n)
        q *= rng.uniform(0.3, 0.7) / q.sum()
        m = float(rng.uniform(n**0.8, n))
        rep = uniform_conjugate(q, m)
        assert rep.residual <= 4 * n * rep.xi


def test_conjugate_rejects_zero_mass():
    with pytest.raises(ValueError):
        uniform_conjugate(np.zeros(4), 5.0)


def test_conjugate_against_bucket_simulation():
    # E[p~ mass of the bucket containing i] ~= tau for every i
    rng = generator(5)
    n = 12
    q = rng.random(n)
    q *= 0.5 / q.sum()
    m = 9.0
    rep = uniform_conjugate(q, m)
    sim = simulated_bucket_means(q, rep.p_tilde, m, trials=60000, seed=8)
    se = 3 * np.max(rep.p_tilde) / np.sqrt(60000) * n
    assert np.max(np.abs(sim - rep.tau)) <= 4 * n * rep.xi + 5 * se


def test_conjugate_z_decomposition():
    n = 8
    q = np.full(n, 0.5 / n)
    p = np.full(n, 0.5 / n)
    rep = uniform_conjugate(q, 20.0, p=p)
    assert np.allclose(rep.z, 0.0, atol=1e-14)


def test_conjugate_residual_matches_the_dense_matrix():
    # the residual comes from the O(n) join product; the n x n matrix is the reference
    rng = generator(15)
    for trial in range(60):
        n = int(rng.integers(1, 301))
        q = rng.random(n)
        q *= rng.uniform(0.05, 0.9) / q.sum()
        m = float(np.exp(rng.uniform(np.log(0.5), np.log(5e4))))
        rep = uniform_conjugate(q, m)
        phi = phi_from_keep_probs(np.exp(-m * q), "cycle")
        dense = float(np.max(np.abs(phi @ rep.p_tilde - rep.tau)))
        assert abs(rep.residual - dense) <= 1e-12, (trial, n, m)
        assert (rep.residual <= 4 * n * rep.xi) == (dense <= 4 * n * rep.xi)


BAD_WEIGHTS = {"nan": [0.1, np.nan, 0.2], "inf": [0.1, np.inf, 0.2],
               "negative": [0.3, -0.1, 0.2], "empty": [], "matrix": [[0.1, 0.2, 0.1]]}


@pytest.mark.parametrize("m", [np.nan, np.inf, -1.0, 0.0])
def test_conjugate_rejects_m_that_is_not_finite_and_positive(m):
    # m=nan gave an all-NaN conjugate and m=-1 gave tau=-2.0
    with pytest.raises(ValueError, match="m must be finite and positive"):
        uniform_conjugate(np.full(4, 0.1), m)


@pytest.mark.parametrize("case", list(BAD_WEIGHTS))
def test_conjugate_rejects_bad_q(case):
    with pytest.raises(ValueError, match="q must"):
        uniform_conjugate(np.array(BAD_WEIGHTS[case]), 5.0)


@pytest.mark.parametrize("case", [*BAD_WEIGHTS, "length"])
def test_conjugate_rejects_bad_p(case):
    p = np.full(4, 0.1) if case == "length" else np.array(BAD_WEIGHTS[case])
    with pytest.raises(ValueError, match="p must"):
        uniform_conjugate(np.full(3, 0.1), 5.0, p=p)


@pytest.mark.parametrize("t", [np.nan, np.inf, -1.0, 0.0])
def test_relative_concentration_rejects_t_that_is_not_finite_and_positive(t):
    # t=nan returned gamma=nan and witness_p_mass=-inf
    with pytest.raises(ValueError, match="t must be finite and positive"):
        relative_concentration(np.full(4, 0.1), np.full(4, 0.1), t)


@pytest.mark.parametrize("side", ["p", "q"])
@pytest.mark.parametrize("case", list(BAD_WEIGHTS))
def test_relative_concentration_rejects_bad_weights(side, case):
    # a NaN in p gave gamma=nan, and a negative p was accepted
    bad, good = np.array(BAD_WEIGHTS[case]), np.full(3, 0.1)
    p, q = (bad, good) if side == "p" else (good, bad)
    with pytest.raises(ValueError, match=f"{side} must"):
        relative_concentration(p, q, 1e-3)


def test_relative_concentration_rejects_an_unknown_kind():
    # "cylce" ran the path scan
    with pytest.raises(ValueError, match="kind must be 'path' or 'cycle'"):
        relative_concentration(np.full(4, 0.1), np.full(4, 0.1), 1e-3, kind="cylce")


def test_relative_concentration_rejects_unequal_lengths():
    with pytest.raises(ValueError, match="q must have length 3, got 4"):
        relative_concentration(np.full(3, 0.1), np.full(4, 0.1), 1e-3)


# the moment oracles on one good input of three vertices, with p, q or m swapped out
MOMENT_ORACLES = {
    "expected_y": lambda p=np.full(3, 0.1), m=5.0: expected_y(p, np.eye(3), m),
    "simulated_bucket_means": lambda q=np.full(3, 0.1), m=5.0: simulated_bucket_means(
        q, np.ones(3), m, trials=10, seed=1),
    "variance_components": lambda p=np.full(3, 0.1), m=5.0: variance_components(
        p, BaseGraph("cycle", 3), m, trials=1000, seed=1, eta=0.5),
}
WEIGHT_NAME = {"expected_y": "p", "simulated_bucket_means": "q", "variance_components": "p"}


def test_moment_oracles_accept_the_good_input():
    for oracle in MOMENT_ORACLES.values():
        assert np.isfinite(oracle()).all()


@pytest.mark.parametrize("oracle", list(MOMENT_ORACLES))
@pytest.mark.parametrize("case", list(BAD_WEIGHTS))
def test_moment_oracles_reject_bad_weights(oracle, case):
    # a NaN in p made expected_y return nan and variance_components (nan, nan), and a
    # NaN in q gave simulated_bucket_means finite means, as a NaN keep never survives
    name = WEIGHT_NAME[oracle]
    with pytest.raises(ValueError, match=f"{name} must"):
        MOMENT_ORACLES[oracle](**{name: np.array(BAD_WEIGHTS[case])})


@pytest.mark.parametrize("oracle", list(MOMENT_ORACLES))
@pytest.mark.parametrize("m", [np.nan, np.inf, -3.0, 0.0])
def test_moment_oracles_reject_m_that_is_not_finite_and_positive(oracle, m):
    # m=-3 used to pass all three
    with pytest.raises(ValueError, match="m must be finite and positive"):
        MOMENT_ORACLES[oracle](m=m)


BAD_PHI = {"nan": [[0.1, 0.0, 0.0], [0.0, np.nan, 0.0], [0.0, 0.0, 0.1]],
           "inf": [[np.inf, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
           "shape": np.eye(2), "vector": np.ones(3), "nested list 2x3": [[1.0, 0.0, 0.0]] * 2}


@pytest.mark.parametrize("case", list(BAD_PHI))
def test_expected_y_rejects_bad_phi(case):
    # a NaN phi returned nan and an inf phi inf
    with pytest.raises(ValueError, match=r"phi must be a finite array of shape \(3, 3\)"):
        expected_y(np.full(3, 0.1), np.array(BAD_PHI[case]), 5.0)


def test_expected_y_reads_a_nested_list_as_phi():
    # a nested list used to raise AttributeError on phi.shape
    p = np.full(3, 0.1)
    assert expected_y(p, np.eye(3).tolist(), 5.0) == expected_y(p, np.eye(3), 5.0)


BAD_BUCKET_MEAN_ARGS = {"trials 0": {"trials": 0}, "trials -3": {"trials": -3},
                        "trials nan": {"trials": np.nan}, "trials 2.5": {"trials": 2.5},
                        "trials true": {"trials": True},
                        "values nan": {"values": [1.0, np.nan, 1.0]},
                        "values inf": {"values": [1.0, 1.0, -np.inf]},
                        "values length": {"values": np.ones(4)},
                        "values matrix": {"values": np.ones((1, 3))}}


@pytest.mark.parametrize("case", list(BAD_BUCKET_MEAN_ARGS))
def test_simulated_bucket_means_rejects_bad_trials_and_values(case):
    # trials=0 returned all NaN, trials=-3 all -0.0, and a NaN value all NaN; trials=2.5
    # raised TypeError and True ran one trial
    args = {"q": np.full(3, 0.1), "values": np.ones(3), "m": 5.0, "trials": 10, "seed": 1}
    args.update(BAD_BUCKET_MEAN_ARGS[case])
    with pytest.raises(ValueError, match=case.split()[0] + " must"):
        simulated_bucket_means(**args)


def one_shot_interval_scan(p, q, t, cycle):
    """Reference for `interval_scan`: the whole (n, n) table at once, gathered
    through index arrays."""
    n = len(p)
    pc = np.concatenate(([0.0], np.cumsum(np.concatenate((p, p)))))
    qc = np.concatenate(([0.0], np.cumsum(np.concatenate((q, q)))))
    i = np.arange(n)[:, None]
    d = np.arange(1, n + 1)[None, :]
    psum = pc[i + d] - pc[i]
    qsum = qc[np.maximum(i + d - 1, i)] - qc[i]
    valid = (i + d - 1) <= (n - 1) if not cycle else np.ones_like(psum, dtype=bool)
    ratio = np.where(valid, psum / np.maximum(qsum, t), -np.inf)
    gi, gd = divmod(np.argmax(ratio), n)
    wcand = np.where(valid & (qsum <= t), psum, -np.inf)
    wi, wd = divmod(np.argmax(wcand), n)
    return (float(ratio[gi, gd]), int(gi), int(gd) + 1, float(wcand[wi, wd]), int(wi),
            int(wd) + 1)


def tied_tables(n, rng):
    """(p, q, t) whose tables tie across many cells."""
    p = rng.random(n) * (0.5 / n)
    q = rng.random(n) * (0.5 / n)
    yield np.full(n, 0.5 / n), np.full(n, 0.5 / n), 0.05  # rows differ only by round-off
    yield np.zeros(n), q, 0.05  # every ratio and every witness mass is 0
    yield p, np.zeros(n), 0.05  # every interval is a witness
    yield p, q, 0.5 * float(q.min())  # only single vertices are witnesses
    yield p, q, 2.0 * float(q.sum())  # every interval is a witness, on the path too


@pytest.mark.parametrize("cells", [None, 1, 40])
@pytest.mark.parametrize("cycle", [True, False])
def test_blocked_interval_scan_equals_the_one_shot_table(cells, cycle, monkeypatch):
    # None keeps the shipped sizes: the whole table below n=320, and bands of
    # lengths pruned by their bounds from there on; 1 and 40 prune every table of
    # more than one vertex, in spans of rows of which some are read whole, and
    # read the live bands in many blocks
    if cells is not None:
        monkeypatch.setattr(_kernels, "_SCAN_CELLS", cells)
        monkeypatch.setattr(_kernels, "_PRUNE_FROM", 2)
    rng = np.random.default_rng([151, cycle, cells or 0])
    for n in (1, 2, 7, 32, 128, 200, 512, 1024, 2048):
        for trial in range(4 if n < 200 else 2):
            p = rng.random(n)
            p *= rng.uniform(0.3, 0.7) / p.sum()
            if trial % 2 == 0:  # zero masses make ties in p[I] and in the ratio
                p[rng.random(n) < 0.5] = 0.0
            q = rng.random(n)
            q *= rng.uniform(0.3, 0.7) / q.sum()
            if trial == 1:
                q[rng.random(n) < 0.5] = 0.0
            t = float(rng.uniform(1e-4, 0.1))
            got = _kernels.interval_scan(p, q, t, cycle)
            assert got == one_shot_interval_scan(p, q, t, cycle), (n, trial)
    # p zero and all-equal masses prune nothing and are read whole; a table that
    # prunes little costs a block per live band at 1 and 40 cells
    for n in (7, 200, 2048) if cells is None else (7, 200):
        for case, (p, q, t) in enumerate(tied_tables(n, rng)):
            got = _kernels.interval_scan(p, q, t, cycle)
            assert got == one_shot_interval_scan(p, q, t, cycle), (n, case)
    zeros = np.zeros(9)  # every interval ties at 0: the first one wins
    assert _kernels.interval_scan(zeros, zeros, 0.1, cycle) == (0.0, 0, 1, 0.0, 0, 1)


def exhaustive_gamma(p, q, t, cycle=True):
    n = len(p)
    best = -np.inf
    for i in range(n):
        for d in range(1, n + 1):
            if not cycle and i + d > n:
                continue
            idx = [(i + j) % n for j in range(d)]
            eidx = [(i + j) % n for j in range(d - 1)]
            ratio = p[idx].sum() / max(q[eidx].sum() if eidx else 0.0, t)
            best = max(best, ratio)
    return best


def test_relative_concentration_uniform_singleton():
    n, mlogn = 16, 30.0
    t = 1.0 / mlogn
    mu = np.full(n, 0.5 / n)
    rep = relative_concentration(mu, mu, t)
    assert rep.gamma_value == pytest.approx(exhaustive_gamma(mu, mu, t))


def test_relative_concentration_point_mass_witness():
    n = 12
    p = np.zeros(n)
    p[4] = 0.5
    q = np.full(n, 0.5 / n)
    rep = relative_concentration(p, q, t=1e-3)
    assert rep.witness_start == 4 and rep.witness_length == 1


def test_relative_concentration_witness_conditions_random():
    rng = generator(77)
    for trial in range(100):
        n = 32
        p = rng.random(n)
        p *= 0.5 / p.sum()
        q = rng.random(n)
        q *= 0.5 / q.sum()
        t = float(rng.uniform(1e-4, 0.1))
        rep = relative_concentration(p, q, t)
        assert rep.gamma_value == pytest.approx(exhaustive_gamma(p, q, t), rel=1e-9)
        assert rep.witness_q_mass <= t + 1e-15
        assert rep.witness_p_mass >= 0.5 * t * rep.gamma_value - 1e-15


def test_relative_concentration_monotone_in_t():
    rng = generator(3)
    n = 24
    p = rng.random(n)
    p /= p.sum()
    q = rng.random(n)
    q *= 0.5 / q.sum()
    values = [
        relative_concentration(p, q, t).gamma_value
        for t in (1e-4, 1e-3, 1e-2, 1e-1, 1.0)
    ]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_variance_components_deterministic_subgraph():
    # full resolution on the path: H is deterministic, so var_H = 0
    g = BaseGraph("path", 16)
    p = np.full(16, 1.0 / 16)
    var_h, var_t = variance_components(p, g, 10.0, trials=2000, seed=1, eta=1.0)
    assert var_h == 0.0
    assert var_t == pytest.approx(2 * np.sum(p**2) + 40.0 * np.sum(p**3), rel=1e-12)


def test_variance_components_single_bucket_formula():
    # eta ~ 0 on the cycle: one bucket of mass s = |p|_1
    g = BaseGraph("cycle", 8)
    p = np.full(8, 0.1)
    s = p.sum()
    m = 5.0
    var_h, var_t = variance_components(p, g, m, trials=2000, seed=2, eta=1e-12)
    assert var_h == pytest.approx(0.0, abs=1e-12)
    assert var_t == pytest.approx(2 * s**2 + 4 * m * s**3, rel=1e-9)


def test_variance_components_rejects_a_mass_vector_of_the_wrong_size():
    # a length-1 vector used to broadcast to total mass 32 on 64 vertices
    with pytest.raises(ValueError, match="sizes differ"):
        variance_components(np.array([0.5]), BaseGraph("cycle", 64), 10.0, trials=1000, seed=1,
                            eta=0.5)


def test_variance_components_sum_matches_direct_variance():
    rng = generator(10)
    n = 32
    p = rng.random(n)
    p /= p.sum()
    g = BaseGraph("cycle", n)
    m, eta, trials = 30.0, 0.4, 10**5
    var_h, var_t = variance_components(p, g, m, trials=trials, seed=3, eta=eta)
    from paritylab.collector import confused_trials

    ys, _ = confused_trials(p, m, g, eta, trials, seed=4)
    direct = ys.var(ddof=1)
    assert var_h + var_t == pytest.approx(direct, rel=0.05)


def test_expected_y_against_monte_carlo():
    rng = generator(20)
    n = 64
    p = rng.random(n)
    p /= p.sum()
    g = BaseGraph("cycle", n)
    phi = phi_expected(g, 0.3)
    from paritylab.collector import confused_trials

    ys, _ = confused_trials(p, 60.0, g, 0.3, 30000, seed=21)
    se = ys.std(ddof=1) / np.sqrt(len(ys))
    assert abs(ys.mean() - expected_y(p, phi, 60.0)) <= 3.5 * se


def test_tanh_grid_inequalities_hold():
    report = tanh_checks()
    assert report["tanh_envelope"] <= 1e-12
    assert report["quadratic_upper"] <= 1e-12
    assert report["averaged_jensen"] <= 1e-12


def test_tanh_envelope_instance():
    assert 0.025 <= math.tanh(0.05) <= 0.1


def test_general_weights_phi_validated_by_simulation():
    # inclusion-exclusion matrix for non-constant weights matches sampling
    rng = generator(31)
    n = 10
    q = rng.random(n)
    q *= 0.5 / q.sum()
    m = 6.0
    keep = np.exp(-m * q)
    phi = phi_from_keep_probs(keep, "cycle")
    ones = np.eye(n)
    trials = 40000
    for i in (0, 3):
        sim = simulated_bucket_means(q, ones[i], m, trials=trials, seed=32 + i)
        se = 4 * np.sqrt(phi[i] * (1 - phi[i]) / trials) + 1e-12
        assert np.all(np.abs(sim - phi[i]) <= se + 1e-3)

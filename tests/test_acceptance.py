"""Acceptance gate: every deliverable claim at its stated tolerance.

Each test prints one PASS line (visible under ``pytest -s``); a failure
surfaces as an ordinary assertion error.  All randomness is seeded, all
tolerances are fixed here, and every tester runs at the calibrated
constants that its config ships as defaults.
"""

import itertools
import math
import time
from collections import Counter

import numpy as np
import pytest

from paritylab.collector import (
    BaseGraph,
    confused_trials,
    min_eigenvalue,
    phi_expected,
)
from paritylab.core import parity_trace, sample_poissonized
from paritylab.deletion import (
    TraceTestSpec,
    deletion_trace,
    poissonize,
    uniform_block_string,
)
from paritylab.deletion import test_n_block as nblock_verdict
from paritylab.deletion import test_uniform_n_block as ublock_verdict
from paritylab.deletion import test_uniform_n_block_multitrace as multi_verdict
from paritylab.deletion import trace_spec_distribution
from paritylab.editdist import (
    DensitySequence,
    dist_edit_bounds,
    dist_to_nblock,
    psi,
    psi_inv,
    rel_edit_distance,
    tv_distance,
)
from paritylab.harness import (
    domino_instance,
    run_cc_trial,
    run_pt_large_trial,
    run_pt_small_trial,
)
from paritylab.oracles import expected_y, uniform_conjugate, relative_concentration
from paritylab.parity import PTTesterConfig
from paritylab.rng import generator, split_seed


# Experiment recipes, not tester constants: the arc width of the cc far
# instance, and the leading constants of the trace budgets (criterion 11).
CC_FAR_WIDTH = 8
TRACE_UNIFORM_BUDGET_C = 2.5
TRACE_NBLOCK_BUDGET_C = 3.5


def report(num, text):
    print(f"\nPASS criterion {num}: {text}")


# -------------------------------------------------------------------------
# 1. expectation identity for the collision statistic
# -------------------------------------------------------------------------

def test_criterion_1_expectation_identity():
    t0 = time.time()
    n, m, trials = 64, 200.0, 10**5
    g = BaseGraph("cycle", n)
    rng = generator(1001)
    worst = 0.0
    for eta in (0.3, 0.7):
        phi = phi_expected(g, eta)
        for rep in range(5):
            p = rng.random(n)
            p /= p.sum()
            ys, _ = confused_trials(p, m, g, eta, trials, seed=(1002, rep, int(eta * 10)))
            exact = expected_y(p, phi, m)
            se = ys.std(ddof=1) / math.sqrt(trials)
            dev = abs(ys.mean() - exact) / se
            worst = max(worst, dev)
            assert dev <= 3.0, (eta, rep, dev)
    elapsed = time.time() - t0
    assert elapsed <= 60
    report(1, f"Monte Carlo mean of Y within 3 s.e. of m p'phi p "
              f"(worst {worst:.2f} s.e., {elapsed:.1f}s)")


# -------------------------------------------------------------------------
# 2. Poisson moment identity for X(X-1)
# -------------------------------------------------------------------------

def test_criterion_2_poisson_variance_identity():
    t0 = time.time()
    rng = generator(2002)
    worst = 0.0
    for lam in (0.5, 3.0, 10.0):
        x = rng.poisson(lam, size=10**6).astype(np.float64)
        v = x * (x - 1.0)
        exact = 4 * lam**3 + 2 * lam**2
        rel = abs(v.var(ddof=1) - exact) / exact
        worst = max(worst, rel)
        assert rel <= 0.02, (lam, rel)
    elapsed = time.time() - t0
    assert elapsed <= 10
    report(2, f"Var[X(X-1)] within 2% of 4l^3+2l^2 (worst {worst:.3%}, {elapsed:.1f}s)")


# -------------------------------------------------------------------------
# 3. eigenvalue bounds and positive semidefiniteness on the full grid
# -------------------------------------------------------------------------

def test_criterion_3_eigenvalue_grid():
    t0 = time.time()
    etas = np.arange(0.05, 1.0 + 1e-9, 0.05)
    sizes = [8, 16, 32, 64, 128, 256, 512, 1024]
    checked = 0
    for n in sizes:
        for eta in etas:
            lam_path = min_eigenvalue(phi_expected(BaseGraph("path", n), eta))
            assert lam_path > eta / 2, ("path", n, eta, lam_path)
            lam_cyc = min_eigenvalue(phi_expected(BaseGraph("cycle", n), eta))
            assert lam_cyc > -1e-9, ("psd", n, eta, lam_cyc)
            if eta >= n ** (-1 / 5):
                assert lam_cyc > eta / 4, ("cycle", n, eta, lam_cyc)
            checked += 1
    elapsed = time.time() - t0
    assert elapsed <= 120
    report(3, f"lmin(path) > eta/2, lmin(cycle) > eta/4 in range, PSD everywhere "
              f"({checked} grid points, {elapsed:.0f}s)")


# -------------------------------------------------------------------------
# 4. confused-collector separation at calibrated constants
# -------------------------------------------------------------------------

def test_criterion_4_cc_separation():
    t0 = time.time()
    base = {"n": 256, "epsilon": 0.3, "eta": 0.5}
    runs = 200
    seeds_yes = split_seed(4004, runs)
    seeds_no = split_seed(4005, runs)
    yes = sum(run_cc_trial(base, s).accept for s in seeds_yes)
    far_point = dict(base, instance="interval_far", width=CC_FAR_WIDTH)
    no = sum(not run_cc_trial(far_point, s).accept for s in seeds_no)
    elapsed = time.time() - t0
    assert yes >= 0.85 * runs, f"uniform accepted only {yes}/{runs}"
    assert no >= 0.85 * runs, f"far instance rejected only {no}/{runs}"
    assert elapsed <= 300
    report(4, f"uniform accepted {yes}/200, eps-far rejected {no}/200 ({elapsed:.0f}s)")


# -------------------------------------------------------------------------
# 5. parity-trace separation at calibrated constants + sublinear growth
# -------------------------------------------------------------------------

def _pt_rates(n, eps, m, trials, seed_base):
    yes_pt = {"n": n, "epsilon": eps, "m": m}
    no_pt = dict(yes_pt, instance="paired_far")
    yes = sum(run_pt_large_trial(yes_pt, s).accept for s in split_seed(seed_base, trials))
    no = sum(
        not run_pt_large_trial(no_pt, s).accept
        for s in split_seed(seed_base + 1, trials)
    )
    return yes / trials, no / trials


def test_criterion_5_pt_large_separation_and_scaling():
    t0 = time.time()
    n, eps, runs = 256, 0.3, 200
    m = PTTesterConfig().sample_size_large(n, eps)
    yes_rate, no_rate = _pt_rates(n, eps, m, runs, 5005)
    assert yes_rate >= 0.85, f"uniform accepted at rate {yes_rate}"
    assert no_rate >= 0.85, f"paired-bias instance rejected at rate {no_rate}"

    # empirical sample size needed for 85/85, on a geometric grid
    def m_star(nn, trials=100):
        m_grid = 400
        while m_grid < 10**6:
            y, r = _pt_rates(nn, eps, m_grid, trials, 5050 + nn)
            if y >= 0.85 and r >= 0.85:
                return m_grid
            m_grid = int(m_grid * 1.25)
        raise AssertionError(f"no sample size separates at n={nn}")

    ns = [64, 128, 256, 512]
    stars = [m_star(nn) for nn in ns]
    slope = np.polyfit(np.log(ns), np.log(stars), 1)[0]
    elapsed = time.time() - t0
    assert slope < 1.0, (stars, slope)
    assert elapsed <= 900
    report(5, f"85/85 at n=256 (rates {yes_rate:.2f}/{no_rate:.2f}); "
              f"m* {dict(zip(ns, stars))}, fitted exponent {slope:.2f} < 1 "
              f"({elapsed:.0f}s)")


# -------------------------------------------------------------------------
# 6. small-distance tester via coverage + histogram
# -------------------------------------------------------------------------

def test_criterion_6_small_eps_tester():
    t0 = time.time()
    n, eps, runs = 32, 0.05, 200
    m = PTTesterConfig().sample_size_small(n, eps)
    floor = 2 * (2 * n) * math.log(100 * 2 * n)
    assert m >= floor  # coupon-collection floor enforced
    yes_pt = {"n": n, "epsilon": eps}
    no_pt = dict(yes_pt, instance="paired_far", bias=0.4)  # TV = 0.1 > eps
    yes = sum(run_pt_small_trial(yes_pt, s).accept for s in split_seed(6006, runs))
    no = sum(not run_pt_small_trial(no_pt, s).accept for s in split_seed(6007, runs))
    elapsed = time.time() - t0
    assert yes >= 2 * runs / 3, f"uniform accepted only {yes}/{runs}"
    assert no >= 2 * runs / 3, f"far instance rejected only {no}/{runs}"
    assert elapsed <= 180
    report(6, f"m={m}: uniform accepted {yes}/200, TV-far rejected {no}/200 "
              f"({elapsed:.0f}s)")


# -------------------------------------------------------------------------
# 7. equalizing conjugate: residual bound and fixed point at uniform
# -------------------------------------------------------------------------

def test_criterion_7_conjugate_residual():
    t0 = time.time()
    rng = generator(7007)
    for trial in range(50):
        n = int(rng.integers(8, 65))
        q = rng.random(n)
        q *= rng.uniform(0.3, 0.7) / q.sum()
        m = float(rng.uniform(n**0.8, n))
        rep = uniform_conjugate(q, m)
        assert rep.residual <= 4 * n * rep.xi, (trial, rep.residual, 4 * n * rep.xi)
    n = 32
    rep = uniform_conjugate(np.full(n, 0.5 / n), 20.0)
    assert np.max(np.abs(rep.p_tilde - 0.5 / n)) <= 1e-13
    elapsed = time.time() - t0
    assert elapsed <= 30
    report(7, f"residual <= 4n*xi on 50 random q; uniform is its own conjugate "
              f"({elapsed:.1f}s)")


# -------------------------------------------------------------------------
# 8. relative concentration witness
# -------------------------------------------------------------------------

def test_criterion_8_concentration_witness():
    t0 = time.time()
    rng = generator(8008)
    n = 32
    for trial in range(100):
        p = rng.random(n)
        p *= rng.uniform(0.3, 0.7) / p.sum()
        q = rng.random(n)
        q *= rng.uniform(0.3, 0.7) / q.sum()
        t = float(rng.uniform(1e-4, 0.1))
        rep = relative_concentration(p, q, t)
        # witness conditions
        assert rep.witness_q_mass <= t + 1e-15
        assert rep.witness_p_mass >= 0.5 * t * rep.gamma_value - 1e-15
        # exhaustive cross-check of the maximum
        best = -np.inf
        for i in range(n):
            for d in range(1, n + 1):
                idx = (i + np.arange(d)) % n
                eidx = (i + np.arange(d - 1)) % n
                best = max(best, p[idx].sum() / max(q[eidx].sum(), t))
        assert rep.gamma_value == pytest.approx(best, rel=1e-9)
    elapsed = time.time() - t0
    assert elapsed <= 10
    report(8, f"100 random witnesses satisfy both conditions ({elapsed:.1f}s)")


# -------------------------------------------------------------------------
# 9. edit-distance sandwich, block-distance DP, string correspondence
# -------------------------------------------------------------------------

def test_criterion_9_edit_distance_oracles():
    t0 = time.time()
    rng = generator(9009)
    for _ in range(1000):
        n_chars = int(rng.integers(2, 65))
        k1, k2 = rng.integers(1, 8, size=2)
        a = DensitySequence.from_counts(rng.multinomial(n_chars, np.full(k1, 1 / k1)), n_chars)
        b = DensitySequence.from_counts(rng.multinomial(n_chars, np.full(k2, 1 / k2)), n_chars)
        lower, upper = dist_edit_bounds(a, b, n_chars)
        assert lower <= upper + 1e-12
        assert lower <= tv_distance(a, b) + 1e-12

    def all_nblock(n_chars, max_blocks):
        for first in "01":
            for cuts in range(max_blocks):
                for pos in itertools.combinations(range(1, n_chars), cuts):
                    s, sym, prev = [], first, 0
                    for c in list(pos) + [n_chars]:
                        s.append(sym * (c - prev))
                        sym = "1" if sym == "0" else "0"
                        prev = c
                    yield "".join(s)

    for n_chars in range(1, 11):
        for v in range(1 << n_chars):
            bits = format(v, f"0{n_chars}b")
            for nb in (1, 2, 3):
                brute = min(
                    rel_edit_distance(bits, y) for y in set(all_nblock(n_chars, nb))
                )
                assert dist_to_nblock(bits, nb) == pytest.approx(brute)

    for n_chars in range(1, 13):
        for v in range(1 << n_chars):
            bits = format(v, f"0{n_chars}b")
            assert psi(psi_inv(bits), n_chars).bits == bits
    elapsed = time.time() - t0
    assert elapsed <= 60
    report(9, f"sandwich on 1000 rational pairs; block-distance DP equals brute "
              f"force; string round-trip exhaustive to 12 chars ({elapsed:.0f}s)")


# -------------------------------------------------------------------------
# 10. poissonize distributional equality
# -------------------------------------------------------------------------

def _run_hist(traces):
    hist = Counter()
    for t in traces:
        if not t:
            hist[("empty", 0)] += 1
            continue
        for sym, grp in itertools.groupby(t):
            hist[(sym, len(list(grp)))] += 1
    return hist


def _hist_tv(h1, h2):
    t1, t2 = sum(h1.values()), sum(h2.values())
    return sum(abs(h1[k] / t1 - h2[k] / t2) for k in set(h1) | set(h2)) / 2


def test_criterion_10_poissonize_pipeline():
    t0 = time.time()
    rho = 0.5
    lam = math.log(1 / (1 - rho))
    trials = 10**5
    worst = 0.0
    for si, x in enumerate(["110010", "1", "000111", "1010101010101010", "0110"]):
        pair = trace_spec_distribution(x)
        m_eff = len(x) * lam
        pipeline = [
            poissonize(deletion_trace(x, rho, (10010, si, t)), rho, (10011, si, t))
            for t in range(trials)
        ]
        direct = [
            parity_trace(sample_poissonized(pair, m_eff, (10012, si, t)))
            for t in range(trials)
        ]
        tv = _hist_tv(_run_hist(pipeline), _run_hist(direct))
        worst = max(worst, tv)
        assert tv <= 0.02, (x, tv)
    elapsed = time.time() - t0
    assert elapsed <= 120
    report(10, f"pipeline vs direct run-length histograms, worst TV {worst:.4f} "
               f"<= 0.02 ({elapsed:.0f}s)")


# -------------------------------------------------------------------------
# 11. trace testers at desk scale
# -------------------------------------------------------------------------

def test_criterion_11_trace_testers():
    t0 = time.time()
    N, n, eps, runs = 4096, 16, 0.4, 200
    budget = TRACE_UNIFORM_BUDGET_C * (n / eps) ** 0.8 * math.log(n) ** 1.4
    rho = 1 - math.exp(-budget / N)
    spec = TraceTestSpec(n_chars=N, n_blocks=n, epsilon=eps, rho=rho)

    u1 = uniform_block_string(N, n, 1)
    u0 = uniform_block_string(N, n, 0)
    far_counts = np.rint(domino_instance(8, 0.9375, False, 42).pair.interleaved() * N)
    far = psi(DensitySequence.from_counts(far_counts.astype(int), N), N).bits
    # certify farness: rel-edit above eps to both uniform strings, and the
    # distribution-level lower bound above the tester's internal distance
    assert min(rel_edit_distance(far, u1), rel_edit_distance(far, u0)) > eps
    lower, _ = dist_edit_bounds(psi_inv(far), psi_inv(u1), N)
    assert lower > eps / 2

    def rate(x, seed_base, accept=True, k=1, use_spec=spec):
        ok = 0
        for i, s in enumerate(split_seed(seed_base, runs)):
            chans = split_seed(s, k + 1)
            traces = [deletion_trace(x, use_spec.rho, cs) for cs in chans[:k]]
            if k == 1:
                v = ublock_verdict(traces[0], use_spec, seed=chans[-1])
            else:
                v = multi_verdict(traces, use_spec, seed=chans[-1])
            ok += v.accept if accept else (not v.accept)
        return ok

    r_u1 = rate(u1, 11001)
    r_u0 = rate(u0, 11002)
    r_far = rate(far, 11003, accept=False)
    assert r_u1 >= 2 * runs / 3, f"u1 accepted only {r_u1}/{runs}"
    assert r_u0 >= 2 * runs / 3, f"u0 accepted only {r_u0}/{runs}"
    assert r_far >= 2 * runs / 3, f"far rejected only {r_far}/{runs}"

    # multi-trace variant: per-trace budget reduced by the k-scaling factors
    k = 4
    m1 = TRACE_UNIFORM_BUDGET_C * (
        n**0.8 / (k**0.2 * eps**0.8) * math.log(n) ** 1.4
        + math.sqrt(n) / (math.sqrt(k) * eps**2)
    )
    rho_k = 1 - math.exp(-m1 / N)
    spec_k = TraceTestSpec(n_chars=N, n_blocks=n, epsilon=eps, rho=rho_k, k_traces=k)
    rk_u1 = rate(u1, 11004, k=k, use_spec=spec_k)
    rk_far = rate(far, 11005, accept=False, k=k, use_spec=spec_k)
    assert rk_u1 >= 2 * runs / 3, f"multi-trace u1 accepted only {rk_u1}/{runs}"
    assert rk_far >= 2 * runs / 3, f"multi-trace far rejected only {rk_far}/{runs}"

    # block-count tester at budget C * n / eps
    rho_nb = TRACE_NBLOCK_BUDGET_C * n / eps / N
    spec_nb = TraceTestSpec(n_chars=N, n_blocks=n, epsilon=eps, rho=rho_nb,
                            property_name="n_block")
    alternating = "10" * (N // 2)
    assert dist_to_nblock(alternating, n) > eps  # certified far from n-block
    rn_yes = 0
    rn_far = 0
    for s in split_seed(11006, runs):
        cs = split_seed(s, 2)
        rn_yes += nblock_verdict(deletion_trace(u1, rho_nb, cs[0]), spec_nb, seed=cs[1]).accept
    for s in split_seed(11007, runs):
        cs = split_seed(s, 2)
        rn_far += not nblock_verdict(
            deletion_trace(alternating, rho_nb, cs[0]), spec_nb, seed=cs[1]
        ).accept
    assert rn_yes >= 2 * runs / 3, f"n-block yes accepted only {rn_yes}/{runs}"
    assert rn_far >= 2 * runs / 3, f"n-block far rejected only {rn_far}/{runs}"

    elapsed = time.time() - t0
    assert elapsed <= 1200
    report(11, f"uniform-block tester {r_u1}/{r_u0}/{r_far} of 200 "
               f"(u1/u0/far), multi-trace {rk_u1}/{rk_far}, "
               f"block-count {rn_yes}/{rn_far} ({elapsed:.0f}s)")


# -------------------------------------------------------------------------
# 12. geometric column-sum bound for the path matrix
# -------------------------------------------------------------------------

def test_criterion_12_column_sum_bound():
    t0 = time.time()
    for n in (8, 16, 32, 64, 128, 256, 512):
        for eta in np.arange(0.05, 1.0, 0.05):
            s = phi_expected(BaseGraph("path", n), eta).sum(axis=0)
            h = (n - 1) / 2
            hc, hf = math.ceil(h), math.floor(h)
            bound = 2 / eta**2
            csum = np.concatenate(([0.0], np.cumsum(s)))
            for N in range(0, n // 2 + 1):
                a, b = -(-N // 2), N // 2  # ceil, floor
                total = (
                    -(csum[a] - csum[0])
                    - (csum[n] - csum[n - b])
                    + (csum[hc + a] - csum[hc])
                    + (csum[hf + 1] - csum[hf + 1 - b])
                )
                assert total < bound, (n, eta, N, total, bound)
    elapsed = time.time() - t0
    assert elapsed <= 30
    report(12, f"path column-sum expression < 2/eta^2 across the grid "
               f"({elapsed:.0f}s)")
